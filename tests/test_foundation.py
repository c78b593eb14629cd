import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homhopf.errors import NotInvertible, UnknownBasisIndex
from homhopf.foundation import (
    LinComb,
    LinearOperator,
    RowSpace,
    bilinear,
    extend,
    _accumulate,
    _accumulate_tensor,
    pair_apply,
    pair_extend,
)
from homhopf.uea_trees import LEAF, TreeOps, shapes

from oracles import FullScanRowSpace, gauss_jordan_inverse, quotient_projection, solve_linear

e = LinComb.basis

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
lincombs = st.dictionaries(st.integers(0, 5), coeffs, max_size=5).map(LinComb)


def test_lincomb_arith_examples():
    a = LinComb({0: 2, 1: 3})
    assert a.add_scaled(LinComb({0: -2}), 1) == e(1, 3)
    assert e(0).add_scaled(e(1), 0) == e(0)
    assert e(0).add_scaled(e(0), -1) == LinComb.zero()
    assert not e(0).add_scaled(e(0), -1)


def test_basis_coefficients():
    # the default coefficient skips coercion and stores the int 1
    v = LinComb.basis("x")
    assert v.terms == {"x": 1} and type(v.terms["x"]) is int
    # an explicit coefficient is coerced to its canonical form
    assert not LinComb.basis("x", 0)
    t = LinComb.basis("x", True)
    assert t.terms == {"x": 1} and type(t.terms["x"]) is int
    with pytest.raises(TypeError):
        LinComb.basis("x", 1.0)
    two = LinComb({"x": Fraction(4, 2)})
    assert two.terms == {"x": 2} and type(two.terms["x"]) is int
    half = LinComb({"x": Fraction(1, 2)})
    assert half.terms == {"x": Fraction(1, 2)} and type(half.terms["x"]) is Fraction


def test_tensor_examples():
    assert (e(0) + e(1)) @ e(2) == LinComb({(0, 2): 1, (1, 2): 1})
    assert LinComb.zero() @ e(0) == LinComb.zero()
    assert (2 * e(0)) @ (3 * e(1)) == LinComb({(0, 1): 6})


@given(lincombs, lincombs, lincombs)
@settings(max_examples=60, deadline=None)
def test_addition_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a - a == LinComb.zero()


@given(lincombs, lincombs, coeffs)
@settings(max_examples=60, deadline=None)
def test_tensor_bilinear(a, b, c):
    assert (c * a) @ b == c * (a @ b)
    assert (a + b) @ b == a @ b + b @ b


def test_operator_apply_and_invert():
    ident = LinearOperator.identity(range(2))
    assert ident.apply(e(0)) == e(0)
    neg = LinearOperator.from_matrix([[-1, 0], [0, -1]])
    assert neg.apply(2 * e(0)) == -2 * e(0)
    swap = LinearOperator.from_matrix([[0, 1], [1, 0]])
    assert swap.apply(e(0)) == e(1)
    assert swap.inverted().apply(e(0)) == e(1)
    proj = LinearOperator.from_matrix([[1, 0], [0, 0]])
    with pytest.raises(NotInvertible):
        proj.inverted()
    with pytest.raises(UnknownBasisIndex):
        ident.apply(e(7))


@st.composite
def keyed_square_matrices(draw):
    """Columns of an integer matrix of dimension 1-5, singular ones
    included, on distinct int keys or on tuple keys (repr order differs
    from numeric order for both)."""
    n = draw(st.integers(1, 5))
    ints = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True))
    keys = ints if draw(st.booleans()) else [(k % 3, k) for k in ints]
    mat = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
    ))
    return {
        kj: LinComb({ki: mat[i][j] for i, ki in enumerate(keys)})
        for j, kj in enumerate(keys)
    }


@given(keyed_square_matrices())
@settings(max_examples=300, deadline=None)
@example({0: LinComb.zero()})
@example({(0, 3): e((0, 3)) + e((1, 1)), (1, 1): 2 * e((0, 3)) + 2 * e((1, 1))})
def test_operator_inverse_matches_gauss_jordan(columns):
    try:
        want = gauss_jordan_inverse(columns)
    except NotInvertible as exc:
        with pytest.raises(NotInvertible) as got:
            LinearOperator(columns).inverted()
        assert str(got.value) == str(exc)
        return
    assert LinearOperator(columns).inverted().columns == want


def test_operator_declared_inverse_is_checked():
    with pytest.raises(NotInvertible):
        LinearOperator.from_matrix([[2]], inverse=[[1]])


def subspace_basis(vectors):
    """The reduced echelon basis of the span of vectors."""
    rs = RowSpace()
    for v in vectors:
        rs.add(v)
    return rs


def test_subspace_basis_examples():
    rs = subspace_basis([e(0) + e(1), 2 * e(0) + 2 * e(1)])
    assert rs.rank == 1
    assert rs.basis_rows() == [e(0) + e(1)]
    assert subspace_basis([]).rank == 0
    assert subspace_basis([e(0), e(1), e(0) + e(1)]).rank == 2


@given(st.lists(lincombs, max_size=6))
@settings(max_examples=40, deadline=None)
def test_subspace_basis_idempotent(vectors):
    rs = subspace_basis(vectors)
    again = subspace_basis(rs.basis_rows())
    assert rs.rows == again.rows


def test_quotient_projection_examples():
    rs = subspace_basis([e(0)])
    p = quotient_projection([0, 1], rs)
    assert p.apply(e(0)) == LinComb.zero()
    assert p.apply(e(1)) == e(1)
    assert p.survivors == [1]

    rs = subspace_basis([e(0) + e(1)])
    p = quotient_projection([0, 1], rs)
    assert p.apply(e(0)) == -1 * e(1)
    assert p.apply(e(1)) == e(1)

    p = quotient_projection([0, 1], subspace_basis([]))
    assert p.apply(e(0)) == e(0) and p.apply(e(1)) == e(1)


@given(st.lists(lincombs, max_size=5), lincombs)
@settings(max_examples=40, deadline=None)
def test_projection_laws(vectors, v):
    rs = subspace_basis(vectors)
    p = quotient_projection(range(6), rs)
    assert p.apply(p.apply(v)) == p.apply(v)
    for row in rs.basis_rows():
        assert p.apply(row) == LinComb.zero()


def test_rowspace_membership():
    rs = RowSpace()
    rs.add(e(0) + e(1))
    rs.add(e(2))
    assert not rs.reduce(2 * e(0) + 2 * e(1) + e(2))
    assert rs.reduce(e(0))


def test_solve_linear():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    sol = solve_linear(
        [({"x": 1, "y": 1}, 3), ({"x": 1, "y": -1}, 1)], ["x", "y"]
    )
    assert sol == {"x": Fraction(2), "y": Fraction(1)}
    # inconsistent
    assert solve_linear([({"x": 1}, 1), ({"x": 1}, 2)], ["x"]) is None
    # underdetermined: free variable pinned to zero
    sol = solve_linear([({"x": 1, "y": 1}, 1)], ["x", "y"])
    assert sol["x"] + sol["y"] == 1


unit_triangular = st.lists(
    st.lists(coeffs, min_size=3, max_size=3), min_size=3, max_size=3
).map(
    lambda rows: [
        [Fraction(1) if i == j else (rows[i][j] if j > i else Fraction(0)) for j in range(3)]
        for i in range(3)
    ]
)


@given(unit_triangular, lincombs)
@settings(max_examples=40, deadline=None)
def test_operator_inverse_round_trip(mat, v):
    op = LinearOperator.from_matrix(mat)
    v = LinComb({k % 3: c for k, c in v.items()})
    assert op.apply(op.apply_inverse(v)) == v
    assert op.apply_inverse(op.apply(v)) == v


@given(unit_triangular, st.lists(coeffs, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solve_linear_recovers_known_solution(mat, x):
    rows = []
    for i in range(3):
        rhs = sum(mat[i][j] * x[j] for j in range(3))
        rows.append(({j: mat[i][j] for j in range(3) if mat[i][j]}, rhs))
    sol = solve_linear(rows, [0, 1, 2])
    assert sol is not None
    for i in range(3):
        assert sum(mat[i][j] * sol[j] for j in range(3)) == sum(
            mat[i][j] * x[j] for j in range(3)
        )


# ---------------------------------------------------------------------------
# the accumulator helpers against the add_scaled loops they replace

# few keys and coefficients that are negatives of each other, so that
# sums cancel often; each integer value comes both as an int and as a
# Fraction
cancelling = st.sampled_from(
    [-2, -1, 1, 2]
    + [Fraction(c) for c in (-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2)]
)
sparse = st.dictionaries(st.integers(0, 3), cancelling, max_size=4).map(LinComb)
tables = st.lists(sparse, min_size=4, max_size=4)
pair_sparse = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), cancelling, max_size=5
).map(LinComb)


def ref_extend(fn, x):
    out = LinComb()
    for k, c in x.items():
        out = out.add_scaled(fn(k), c)
    return out


def ref_bilinear(fn, x, y):
    out = LinComb()
    for i, a in x.items():
        for j, b in y.items():
            out = out.add_scaled(fn(i, j), a * b)
    return out


def ref_pair_apply(f, g, t):
    out = LinComb()
    for (k1, k2), v in t.items():
        out = out.add_scaled(f(e(k1)) @ g(e(k2)), v)
    return out


def snapshot(*vecs):
    return [dict(v.terms) for v in vecs]


def aliased(result, vecs):
    """The vecs whose terms dict the result shares."""
    return [v for v in vecs if result.terms is v.terms]


def unit_key(x):
    """k when x is the single term 1*e_k, else None."""
    if len(x.terms) == 1:
        ((k, c),) = x.items()
        if c == 1:
            return k
    return None


@given(sparse, sparse, cancelling)
@settings(max_examples=60, deadline=None)
def test_add_scaled_matches_add_and_scale(x, y, c):
    assert x.add_scaled(y, c) == x + c * y


# a stored image is shared, never copied: the unit single-term input returns
# the table entry itself, and every other input a fresh combination
@given(tables, sparse)
@example([e(0), e(1, 2), LinComb({0: 1, 3: -1}), LinComb()], e(2))
@example([e(0), e(1, 2), LinComb({0: 1, 3: -1}), LinComb()], e(2, 2))
@settings(max_examples=80, deadline=None)
def test_extend_matches_add_scaled_loop(cols, x):
    before = snapshot(x, *cols)
    got = extend(lambda k: cols[k], x)
    assert got == ref_extend(lambda k: cols[k], x)
    assert 0 not in got.terms.values()
    assert snapshot(x, *cols) == before
    k = unit_key(x)
    assert aliased(got, [x, *cols]) == ([] if k is None else [cols[k]])


@given(tables, sparse, sparse)
@example([e(0), e(1, 2), LinComb({0: 1, 3: -1}), LinComb()], e(1), e(1))
@example([e(0), e(1, 2), LinComb({0: 1, 3: -1}), LinComb()], e(1, 2), e(1, -1))
@example(
    [e(0), e(1, 2), LinComb({0: 1, 3: -1}), LinComb()],
    e(1, Fraction(1, 2)),
    e(1, 2),
)
@settings(max_examples=80, deadline=None)
def test_bilinear_matches_add_scaled_loop(cols, x, y):
    def fn(i, j):
        return cols[(i + 2 * j) % 4]

    before = snapshot(x, y, *cols)
    got = bilinear(fn, x, y)
    assert got == ref_bilinear(fn, x, y)
    assert 0 not in got.terms.values()
    assert snapshot(x, y, *cols) == before
    unit = len(x.terms) == len(y.terms) == 1
    if unit:
        ((i, a),), ((j, b),) = x.items(), y.items()
        unit = a * b == 1
    assert aliased(got, [x, y, *cols]) == ([fn(i, j)] if unit else [])


@given(tables, tables, pair_sparse)
@settings(max_examples=80, deadline=None)
def test_pair_apply_matches_add_scaled_loop(fcols, gcols, t):
    f = LinearOperator(dict(enumerate(fcols))).apply
    g = LinearOperator(dict(enumerate(gcols))).apply
    before = snapshot(t, *fcols, *gcols)
    got = pair_apply(f, g, t)
    assert got == ref_pair_apply(f, g, t)
    assert 0 not in got.terms.values()
    assert snapshot(t, *fcols, *gcols) == before
    assert aliased(got, [t, *fcols, *gcols]) == []


def accumulated_terms(pairs):
    """The items of the sum of c * image over (image, c), every term put
    through _accumulate into one fresh dict, in order."""
    out = {}
    for image, c in pairs:
        _accumulate(out, image, c)
    return list(out.items())


def typed(items):
    return [(k, v, type(v)) for k, v in items]


ZERO_FIRST = [LinComb(), e(1, 2), LinComb({0: 1, 3: -1}), LinComb({0: -1})]


# extend copies an image with coefficient 1 into an empty sum instead of
# accumulating it; the copy must give the terms, their order and the types
# of their values (int or Fraction) that accumulating every term does
@given(tables, sparse)
@example([LinComb(), LinComb(), LinComb(), LinComb()], LinComb({0: 1, 1: 2}))
@example(ZERO_FIRST, LinComb({0: 1, 2: 1}))
@example(ZERO_FIRST, LinComb({2: 1, 3: 1}))
@example(ZERO_FIRST, LinComb({2: Fraction(1, 2), 1: 1}))
@example(ZERO_FIRST, LinComb({1: 2, 2: 1, 3: Fraction(-1, 2)}))
@example(ZERO_FIRST, LinComb({1: Fraction(1, 2), 2: 4}))
# the sum cancels to empty, and the next image with coefficient 1 is copied
@example([e(0), LinComb({0: -1}), e(1, 2), LinComb()], LinComb({0: 1, 1: 1, 2: 1}))
@settings(max_examples=150, deadline=None)
def test_extend_matches_accumulating_reference(cols, x):
    got = extend(lambda k: cols[k], x)
    want = accumulated_terms((cols[k], c) for k, c in x.items())
    assert typed(got.items()) == typed(want)
    assert all(type(v) in (int, Fraction) for v in got.terms.values())


@given(tables, sparse, sparse)
@example(ZERO_FIRST, LinComb({0: 1}), LinComb({0: 1, 1: 1}))
@example(ZERO_FIRST, LinComb({1: 2}), LinComb({0: Fraction(1, 2), 1: -1}))
@example(ZERO_FIRST, LinComb({3: Fraction(1, 2), 1: 1}), LinComb({1: 2}))
@settings(max_examples=150, deadline=None)
def test_bilinear_matches_accumulating_reference(cols, x, y):
    def fn(i, j):
        return cols[(i + 2 * j) % 4]

    got = bilinear(fn, x, y)
    want = accumulated_terms(
        (fn(i, j), a * b) for i, a in x.items() for j, b in y.items()
    )
    assert typed(got.items()) == typed(want)
    assert all(type(v) in (int, Fraction) for v in got.terms.values())


# pair_extend puts each term's legs through _accumulate_tensor, which skips
# its loops when both legs are single terms; the sum must have the terms, the
# order and the value types that accumulating every c * (f(k1) @ g(k2)) does
SINGLE_LEGS = [e(0), LinComb({0: -1}), e(1, Fraction(1, 2)), e(2, 2)]


@given(tables, tables, st.lists(st.tuples(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), cancelling), max_size=6))
# single legs that cancel, and that cancel after a sum of three terms
@example(SINGLE_LEGS, SINGLE_LEGS, [((0, 0), 1), ((1, 0), 1)])
@example(SINGLE_LEGS, SINGLE_LEGS, [((0, 3), 2), ((3, 0), 1), ((1, 3), 2)])
# Fraction legs whose product is an integer, stored as an int
@example(SINGLE_LEGS, SINGLE_LEGS, [((2, 3), 1), ((2, 2), 4), ((3, 3), Fraction(1, 2))])
# a single leg against a longer one, and an empty leg
@example(SINGLE_LEGS, [LinComb({0: 1, 1: 2}), LinComb(), e(2), e(3)], [((2, 0), 2), ((0, 1), 1)])
@settings(max_examples=150, deadline=None)
def test_pair_extend_matches_accumulating_reference(fcols, gcols, terms):
    got = pair_extend(fcols.__getitem__, gcols.__getitem__, terms)
    want = accumulated_terms((fcols[k1] @ gcols[k2], c) for (k1, k2), c in terms)
    assert typed(got.items()) == typed(want)
    assert all(type(v) in (int, Fraction) for v in got.terms.values())


# phi_leafwise builds a single-term image without the product over leaves
# when phi sends every decoration to a single term
PHI_COLUMNS = [e(1, Fraction(1, 2)), e(0, 2), e(2, -1), LinComb({0: 1, 2: Fraction(1, 3)})]


def ref_phi_leafwise(phi, key, powers, weights):
    """The terms of phi^powers[i] applied to leaf i, accumulated one
    product of per-leaf terms at a time."""
    images = [phi.power(p, e(d)).items() for d, p in zip(key[2], powers)]
    return accumulated_terms(
        (e((key[0], weights, tuple(d for d, _ in combo))), math.prod(c for _, c in combo))
        for combo in itertools.product(*images)
    )


@given(
    st.lists(
        st.dictionaries(st.integers(0, 3), cancelling, max_size=2).map(LinComb),
        min_size=4, max_size=4,
    ),
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.sampled_from(shapes(n)),
        st.tuples(*[st.integers(0, 3)] * n),
        st.tuples(*[st.integers(0, 2)] * n),
        st.tuples(*[st.integers(0, 3)] * n),
    )),
)
# single terms throughout: 1/2 * 2 is stored as the int 1
@example(PHI_COLUMNS, ((LEAF, LEAF), (0, 1), (1, 1), (2, 0)))
@example(PHI_COLUMNS, (((LEAF, LEAF), LEAF), (0, 1, 2), (2, 1, 0), (0, 0, 1)))
# one leaf with two terms, and one whose image is zero
@example(PHI_COLUMNS, ((LEAF, LEAF), (3, 1), (1, 1), (0, 0)))
@example(PHI_COLUMNS[:3] + [LinComb()], ((LEAF, LEAF), (3, 0), (1, 0), (0, 0)))
@settings(max_examples=150, deadline=None)
def test_phi_leafwise_matches_accumulating_reference(cols, tree):
    shape, decs, powers, weights = tree
    phi = LinearOperator(dict(enumerate(cols)))
    key = (shape, (0,) * len(decs), decs)
    got = TreeOps(phi).phi_leafwise(key, powers, weights)
    want = ref_phi_leafwise(phi, key, powers, weights)
    assert typed(got.items()) == typed(want)
    assert all(type(v) in (int, Fraction) for v in got.terms.values())


def test_unit_input_returns_the_stored_value_unchanged():
    # a cache hands out one shared LinComb; a unit input returns that very
    # object, and neither extension writes to it
    cached = LinComb({0: 1, 1: Fraction(-1, 2)})
    before = snapshot(cached)
    assert extend(lambda k: cached, e(5)) is cached
    assert bilinear(lambda i, j: cached, e(5), e(6)) is cached
    assert bilinear(lambda i, j: cached, e(5, 2), e(6, Fraction(1, 2))) is cached
    assert snapshot(cached) == before
    assert list(cached.terms) == [0, 1]


# ---------------------------------------------------------------------------
# the indexed row space against the full-scan loops it replaces

vectors = st.dictionaries(
    st.integers(0, 5), st.one_of(cancelling, coeffs), max_size=5
).map(LinComb)

# a step is a fresh vector, a copy of an earlier one, or an earlier one
# plus a multiple of another, so that many steps reduce to zero or cancel
steps = st.lists(
    st.one_of(
        vectors,
        st.tuples(st.integers(0, 30)),
        st.tuples(st.integers(0, 30), st.integers(0, 30), cancelling),
    ),
    max_size=14,
)


def drawn_vectors(steps):
    out = []
    for step in steps:
        if isinstance(step, LinComb):
            out.append(step)
        elif out and len(step) == 1:
            out.append(out[step[0] % len(out)])
        elif out:
            a, b = out[step[0] % len(out)], out[step[1] % len(out)]
            out.append(a.add_scaled(b, step[2]))
    return out


def same_terms(x, y):
    """Equal combinations with their terms in the same order."""
    return list(x.items()) == list(y.items())


# the hit rows bring in different keys, so the order of subtraction shows
# in the term order of the result
@example([LinComb({0: 1, 2: 1}), LinComb({1: 1, 3: 1})], None, [LinComb({1: 1, 0: 1})])
@given(steps, st.sampled_from([None, lambda k: -k]), st.lists(vectors, max_size=4))
@settings(max_examples=150, deadline=None)
def test_rowspace_matches_full_scan(steps, order, probes):
    fast = RowSpace(order=order)
    ref = FullScanRowSpace(fast.order)
    drawn = drawn_vectors(steps)
    for v in drawn:
        assert fast.add(v) == ref.add(v)
        assert list(fast.rows) == list(ref.rows)
        assert all(same_terms(fast.rows[p], row) for p, row in ref.rows.items())
        for p, row in fast.rows.items():
            assert all(p in fast.columns[k] for k in row)
    for v in probes + drawn:
        assert same_terms(fast.reduce(v), ref.reduce(v))


# ---------------------------------------------------------------------------
# canonical scalars: the same values held as ints or as Fractions


def canonical_scalar(c):
    """An int (not a bool) or a non-integral Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def canonical(v):
    return all(canonical_scalar(c) for c in v.terms.values())


def fraction_image(v):
    """v with every coefficient a Fraction, wrapped as is so that scalar
    does not turn the integral ones back into ints."""
    return LinComb._wrap({k: Fraction(c) for k, c in v.items()})


def test_scalar_canonical_forms():
    assert canonical(LinComb({0: 2, 1: Fraction(6, 3), 2: True, 3: Fraction(1, 3)}))
    assert not canonical(fraction_image(e(0)))
    for bad in (1.0, 0.5, "1", None):
        with pytest.raises(TypeError):
            LinComb({0: bad})
        with pytest.raises(TypeError):
            bad * e(0)


@given(sparse, sparse, cancelling)
@settings(max_examples=100, deadline=None)
def test_mixed_arithmetic_matches_fractions(x, y, c):
    fx, fy, fc = fraction_image(x), fraction_image(y), Fraction(c)
    pairs = [
        (x + y, fx + fy),
        (x - y, fx - fy),
        (-x, -fx),
        (c * x, fc * fx),
        (x * c, fx * fc),
        (x.add_scaled(y, c), fx.add_scaled(fy, fc)),
        (x @ y, fx @ fy),
    ]
    for got, want in pairs:
        assert got == want
        assert canonical(got)


@given(tables, sparse, sparse)
@settings(max_examples=80, deadline=None)
def test_mixed_extensions_match_fractions(cols, x, y):
    fcols = [fraction_image(col) for col in cols]

    def fn(i, j):
        return cols[(i + 2 * j) % 4]

    def ffn(i, j):
        return fcols[(i + 2 * j) % 4]

    got = extend(lambda k: cols[k], x)
    assert got == extend(lambda k: fcols[k], fraction_image(x))
    assert canonical(got)
    got = bilinear(fn, x, y)
    assert got == bilinear(ffn, fraction_image(x), fraction_image(y))
    assert canonical(got)


@given(pair_sparse, sparse, sparse, cancelling, st.tuples(*[st.booleans()] * 4))
@settings(max_examples=100, deadline=None)
def test_mixed_tensor_accumulation_matches_accumulate(start, x, y, c, as_fractions):
    # any input may hold its integral values as Fractions
    start, x, y = [
        fraction_image(v) if flag else v
        for v, flag in zip((start, x, y), as_fractions)
    ]
    if as_fractions[3]:
        c = Fraction(c)
    want = dict(start.terms)
    _accumulate(want, x @ y, c)
    got = dict(start.terms)
    _accumulate_tensor(got, x, y, c)
    assert list(got.items()) == list(want.items())
    # every value the helper writes is canonical; none is a float
    assert all(canonical_scalar(got[k]) for k in (x @ y).terms if k in got)
    assert not any(isinstance(v, float) for v in got.values())


@given(tables, tables, st.lists(st.tuples(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), cancelling), max_size=6))
@settings(max_examples=80, deadline=None)
def test_mixed_pair_extend_matches_pair_apply(fcols, gcols, terms):
    # terms may repeat a pair; pair_apply sees them summed first
    summed = LinComb()
    for legs, c in terms:
        summed = summed + LinComb.basis(legs, c)
    got = pair_extend(fcols.__getitem__, gcols.__getitem__, terms)
    assert got == pair_apply(
        lambda x: extend(fcols.__getitem__, x),
        lambda x: extend(gcols.__getitem__, x),
        summed,
    )
    assert canonical(got)


@given(steps, st.lists(vectors, max_size=4))
@settings(max_examples=100, deadline=None)
def test_mixed_rowspace_matches_fraction_full_scan(steps, probes):
    fast = RowSpace()
    ref = FullScanRowSpace(fast.order)
    for v in drawn_vectors(steps):
        assert fast.add(v) == ref.add(fraction_image(v))
        assert fast.rows == ref.rows
        assert all(canonical(row) for row in fast.rows.values())
    for v in probes:
        got = fast.reduce(v)
        assert got == ref.reduce(fraction_image(v))
        assert canonical(got)


@given(keyed_square_matrices(), st.lists(cancelling, min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_mixed_inverse_matches_fractions(columns, scales):
    # scale the columns, so that fractional entries occur
    columns = {k: c * col for (k, col), c in zip(columns.items(), scales)}
    image = {k: fraction_image(col) for k, col in columns.items()}
    try:
        got = LinearOperator(columns).inverted().columns
    except NotInvertible as exc:
        with pytest.raises(NotInvertible) as other:
            LinearOperator(image).inverted()
        assert str(other.value) == str(exc)
        return
    assert got == LinearOperator(image).inverted().columns
    assert all(canonical(col) for col in got.values())
