import math
from fractions import Fraction

import pytest

from homhopf.errors import NotHomLie, TruncationOverflow
from homhopf.foundation import (
    LinComb,
    LinearOperator,
    RowSpace,
    extend,
    pair_apply,
)
from homhopf.hom_core import check_hom_hopf
from homhopf.hom_lie import HomLieData
from homhopf.uea_trees import (
    LEAF,
    UNIT,
    TreeOps,
    _close_under_ops,
    _reassociation_seeds,
    build_truncated_uea,
    leaves,
    lift_to_Uh_action,
    pivot_order,
    shapes,
    UEAActionContext,
)

from fixtures import (
    ActionData,
    abelian_lie,
    fixture_a_prime_lie_pair,
    fixture_b_lie_pair,
    lie_twist,
    sl2,
    sl2_involution,
    solvable2_lie,
)
from lie_pairs import (
    diag23,
    left_action_missing_h_ideal,
    right_action_missing_h_ideal,
    right_action_moving_g_ideal,
    solvable_on_line,
    swap_phi,
)
from oracles import (
    check_hom_module,
    coproduct_by_leaf_subsets,
    enveloping_ideal_by_closure,
    ideal_J_span,
    tree_antipode_by_recursion,
)

e = LinComb.basis


def test_shape_enumeration_is_catalan():
    for n in range(1, 6):
        assert len(shapes(n)) == math.comb(2 * (n - 1), n - 1) // n


def test_graft_conventions():
    ops = TreeOps(swap_phi())
    one = e(UNIT)
    assert ops.graft(one, one) == one
    # t v 1 = 1 v t = a(t): the shift applies phi to the decorations and
    # keeps the weights
    t = e((LEAF, (2,), (0,)))
    assert ops.graft(t, one) == e((LEAF, (2,), (1,)))
    assert ops.graft(one, t) == e((LEAF, (2,), (1,)))
    # grafting concatenates weights and decorations
    l0 = e((LEAF, (0,), (0,)))
    l1 = e((LEAF, (1,), (1,)))
    assert ops.graft(l0, l1) == e(((LEAF, LEAF), (0, 1), (0, 1)))
    assert ops.graft(l1, l0) == e(((LEAF, LEAF), (1, 0), (1, 0)))


def test_a_shift():
    ops = TreeOps(quarter_turn())
    one = e(UNIT)
    assert ops.a_shift(one) == one and ops.a_shift(one, -1) == one
    # phi on every decoration, multilinearly; weights stay
    leaf = e((LEAF, (2,), (0,)))
    assert ops.a_shift(leaf) == e((LEAF, (2,), (1,)))
    assert ops.a_shift(leaf, -1) == -1 * e((LEAF, (2,), (1,)))
    assert ops.a_shift(ops.a_shift(leaf), -1) == leaf
    assert ops.a_shift(leaf, 2) == -1 * leaf
    t = e(((LEAF, LEAF), (0, 3), (0, 1)))
    assert ops.a_shift(t) == -1 * e(((LEAF, LEAF), (0, 3), (1, 0)))
    neg = LinearOperator.from_matrix([[-1]], inverse=[[-1]])
    assert TreeOps(neg).a_shift(e((LEAF, (0,), (0,)))) == -1 * e((LEAF, (0,), (0,)))
    # multiplicative over grafting
    ops = TreeOps(swap_phi())
    x = e((LEAF, (1,), (0,)))
    y = e(((LEAF, LEAF), (0, 2), (1, 0)))
    assert ops.a_shift(ops.graft(x, y)) == ops.graft(ops.a_shift(x), ops.a_shift(y))


def test_tree_coproduct_examples():
    one = e(UNIT)
    assert extend(TreeOps(swap_phi()).coproduct_key, one) == LinComb({(UNIT, UNIT): 1})
    # single decorated leaf is primitive
    phi = LinearOperator.identity(range(1))
    leaf = (LEAF, (2,), (0,))
    d = extend(TreeOps(phi).coproduct_key, e(leaf))
    assert d == LinComb({(leaf, UNIT): 1, (UNIT, leaf): 1})
    # two-leaf tree: full x 1 + 1 x full + the two shifted single-leaf splits
    phi = swap_phi()
    t = ((LEAF, LEAF), (0, 0), (0, 1))
    d = extend(TreeOps(phi).coproduct_key, e(t))
    shifted0 = (LEAF, (0,), (1,))  # phi applied to decoration 0
    shifted1 = (LEAF, (0,), (0,))
    assert d == LinComb(
        {
            (t, UNIT): 1,
            (UNIT, t): 1,
            (shifted0, shifted1): 1,
            (shifted1, shifted0): 1,
        }
    )


def test_tree_counit_antipode():
    one = e(UNIT)
    ops = TreeOps(swap_phi())
    assert ops.counit(one) == 1 and ops.antipode_key(UNIT) == one
    leaf_key = (LEAF, (1,), (0,))
    leaf = e(leaf_key)
    assert ops.counit(leaf) == 0 and ops.antipode_key(leaf_key) == -1 * leaf
    # S(t v t') = S(t') v S(t): two leaves pick up sign (+1)
    t = ((LEAF, LEAF), (0, 1), (0, 1))
    assert ops.antipode_key(t) == e(((LEAF, LEAF), (1, 0), (1, 0)))
    assert ops.counit(e(t)) == 0


# the algebras of ENVELOPING_ALGEBRAS whose trees of degree <= 4 and weight
# <= 2 the signed mirror is compared on; the twisted sl2 moves every
# decoration, and fixture B's g and h are the one-dimensional factors of the
# lie_pipeline pair
@pytest.mark.parametrize("name", ["fixture_b_g", "fixture_b_h", "sl2", "sl2_twisted"])
def test_tree_antipode_is_the_graft_recursion_term_for_term(name):
    g = ENVELOPING_ALGEBRAS[name]()
    ops, ref = TreeOps(g.phi), TreeOps(g.phi)

    def terms(x):
        return list(x.terms.items())

    trees = [UNIT] + [k for n in range(1, 5) for k in ops.basis_keys(n, 2, g.dim)]
    for key in trees:
        want = tree_antipode_by_recursion(ref, key)
        assert terms(ops.antipode_key(key)) == terms(want), key
    # and so on the normal forms of U(g), after projection
    u = build_truncated_uea(g, 4, 2)
    for k in u.basis_keys():
        want = u.project(tree_antipode_by_recursion(ref, k))
        assert terms(u.antipode_map(e(k))) == terms(want), k


def test_tree_ops_store_shifts_of_weight_zero_trees_only():
    # the shift reads no weight: one stored image per weight-0 tree and
    # power, however many of the 3,593 weighted pivots are shifted
    u = build_truncated_uea(sl2(), 3, 3)
    rep = u.well_definedness_report()
    assert [(q.eq_id, q.checked, q.skipped) for q in rep.equations] == [
        ("ideal-counit", 3593, 0),
        ("ideal-antipode", 3593, 0),
        ("ideal-shift", 7186, 0),
        ("ideal-coproduct", 3593, 0),
    ]
    assert rep.passed and check_hom_hopf(u).passed
    ops = u.ops
    flat = [k for n in range(1, 4) for k in ops.basis_keys(n, 0, 3)]
    assert sorted(ops._shift_cache) == sorted(
        (shape, decs, p) for shape, _, decs in flat for p in (1, -1)
    )
    assert not any(any(k[1]) for img in ops._shift_cache.values() for k in img)
    # a weighted tree's shift is the stored image with its weights put back
    for t in [k for n in range(1, 4) for k in ops.basis_keys(n, 3, 3)]:
        for p in (1, -1, 2):
            want = ops.phi_leafwise(t, (p,) * len(t[1]), t[1])
            assert list(ops.a_shift_key(t, p).terms.items()) == list(want.terms.items())


def test_coassociativity_on_all_trees_up_to_degree_four():
    phi = swap_phi()
    ops = TreeOps(phi)
    checked = 0
    for n in range(1, 5):
        for key in ops.basis_keys(n, 1, 2):
            d = ops.coproduct_key(key)
            lhs = LinComb()
            rhs = LinComb()
            for (k1, k2), v in d.items():
                lhs = lhs.add_scaled(
                    e(k1) @ extend(ops.coproduct_key, e(k2)), v
                )
                rhs = rhs.add_scaled(
                    extend(ops.coproduct_key, e(k1)) @ e(k2), v
                )
            lhs = LinComb({(a, b, c): w for (a, (b, c)), w in lhs.items()})
            rhs = LinComb({(a, b, c): w for ((a, b), c), w in rhs.items()})
            assert lhs == rhs, key
            checked += 1
    # 4 + 16 + 128 + 1280 decorated trees with weights <= 1 over a 2-dim algebra
    assert checked == 1428


def quarter_turn():
    return LinearOperator.from_matrix([[0, -1], [1, 0]], inverse=[[0, 1], [-1, 0]])


# (Lie algebra, weight bound, degree bound);
# the quarter turn is not an involution, so a wrong twist power shows, and
# under diag(2, 3) phi^s has coefficients 2^s and 3^s.  At W=2 the
# decorated trees of degree 3 both repeat a weight and have three distinct
# ones, so a slip in relabelling the weight-free template shows too.
COPRODUCT_CASES = {
    "sl2_w0": (sl2, 0, 4),
    "sl2_twisted_w0": (lambda: lie_twist(sl2(), sl2_involution()), 0, 4),
    "abelian2_quarter_turn_w1": (lambda: abelian_lie(2, quarter_turn()), 1, 4),
    "sl2_twisted_w2": (lambda: lie_twist(sl2(), sl2_involution()), 2, 3),
    "abelian2_diag23_w2": (lambda: abelian_lie(2, diag23()), 2, 3),
}


@pytest.mark.parametrize("name", sorted(COPRODUCT_CASES))
def test_recursive_coproduct_matches_leaf_subsets(name):
    make, weight_bound, n_max = COPRODUCT_CASES[name]
    g = make()
    ops, ref = TreeOps(g.phi), TreeOps(g.phi)
    for n in range(1, n_max + 1):
        for key in ops.basis_keys(n, weight_bound, g.dim):
            assert ops.coproduct_key(key) == coproduct_by_leaf_subsets(ref, key), key
    assert ops.coproduct_key(UNIT) == coproduct_by_leaf_subsets(ref, UNIT)


@pytest.mark.parametrize("name", ["sl2_twisted_w2", "abelian2_diag23_w2"])
def test_projected_coproduct_of_ideal_rows_matches_leaf_subsets(name):
    u = build_truncated_uea(COPRODUCT_CASES[name][0](), 3, 2)
    ref = TreeOps(u.lie.phi)

    def projected(k):
        return pair_apply(u.project, u.project, coproduct_by_leaf_subsets(ref, k))

    for row in u.ideal_rows():
        for k in row:
            assert u.comult_map(e(k)) == projected(k), k
        assert u.comult_map(row) == extend(projected, row)


def ideal_pivots(u):
    return [min(row, key=pivot_order) for row in u.ideal_rows()]


def test_comult_cache_holds_normal_forms_only():
    u = build_truncated_uea(lie_twist(sl2(), sl2_involution()), 3, 1)
    assert u.well_definedness_report().passed
    # Delta of a pivot is neither kept nor built: the coproducts come from
    # the weight-free templates, their legs from one projection per key
    assert u.ops._template_cache
    assert not any(p in u.ops._coproduct_cache for p in ideal_pivots(u))
    assert u._projected and set(u._projected) <= set(u.ambient)
    for key, val in u._projected.items():
        assert val == u.project(e(key)), key
    assert check_hom_hopf(u).passed
    # the coproduct, antipode and twist-power tables hold normal forms only
    normal = set(u.basis_keys())
    assert u._comult_cache and u._antipode_cache and u._alpha_cache
    assert set(u._comult_cache) <= normal
    assert set(u._antipode_cache) <= normal
    assert {k for _, k in u._alpha_cache} <= normal


def dense_reassociation_rank_deg3(g, weight_bound):
    """Independent oracle: the reassociation instances on single leaves of
    weight <= weight_bound, as dense vectors over the degree-3 trees,
    row-reduced by plain fraction Gaussian elimination.  By
    multilinearity their span is closed under the shift map."""
    ops = TreeOps(g.phi)
    keys = ops.basis_keys(3, weight_bound, g.dim)
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    leaf_keys = ops.basis_keys(1, weight_bound, g.dim)
    for x in leaf_keys:
        for y in leaf_keys:
            for z in leaf_keys:
                lhs = ops.graft(ops.graft(e(x), e(y)), ops.a_shift(e(z)))
                rhs = ops.graft(ops.a_shift(e(x)), ops.graft(e(y), e(z)))
                vec = [Fraction(0)] * len(keys)
                for k, c in (lhs - rhs).items():
                    vec[index[k]] += c
                rows.append(vec)
    rank = 0
    for col in range(len(keys)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_ideal_I_span_rank_against_dense_oracle():
    # the reassociation ideal I in degree 3: its closure under grafting and
    # the shift map, against the dense elimination of its instances
    neg = LinearOperator.from_matrix([[-1]], inverse=[[-1]])
    cases = [
        (abelian_lie(1, neg), 0, 1),
        (abelian_lie(1, neg), 1, 8),
        (abelian_lie(2, quarter_turn()), 1, 64),
    ]
    for g, w, want in cases:
        ops = TreeOps(g.phi)
        basis_by_degree = {n: ops.basis_keys(n, w, g.dim) for n in (1, 2, 3)}
        rs = RowSpace(order=pivot_order)
        _close_under_ops(rs, _reassociation_seeds(ops, basis_by_degree, 3), ops,
                         basis_by_degree, 3)
        assert len(rs.rows) == dense_reassociation_rank_deg3(g, w) == want, (g.dim, w)


def test_ideal_I_unit_instances_vanish():
    # (x v y) v a(1) - a(x) v (y v 1) = a(x v y) - a(x) v a(y) = 0
    ops = TreeOps(swap_phi())
    x, y = e((LEAF, (0,), (0,))), e((LEAF, (1,), (0,)))
    one = e(UNIT)
    g = ops.graft(ops.graft(x, y), ops.a_shift(one)) - ops.graft(
        ops.a_shift(x), ops.graft(y, one)
    )
    assert g == LinComb.zero()
    # and with the unit first: (1 v y) v a(z) - a(1) v (y v z) = 0
    g = ops.graft(ops.graft(one, x), ops.a_shift(y)) - ops.graft(
        ops.a_shift(one), ops.graft(x, y)
    )
    assert g == LinComb.zero()


def test_ideal_J_span_examples():
    # abelian, identity twist: degree 2 identifies the two leaf orders
    g2 = abelian_lie(2)
    spans = ideal_J_span(g2, 2, 0)
    t2 = (LEAF, LEAF)
    swap_rel = LinComb.basis((t2, (0, 0), (0, 1))) - LinComb.basis((t2, (0, 0), (1, 0)))
    rs_rows = spans[2]
    assert any(row == swap_rel or row == -1 * swap_rel for row in rs_rows)

    # 1-dim with phi = -Id: weight absorption gives (1, xi) + (0, xi)
    neg = LinearOperator.from_matrix([[-1]], inverse=[[-1]])
    g1 = abelian_lie(1, neg)
    spans = ideal_J_span(g1, 1, 1)
    rel = LinComb.basis((LEAF, (1,), (0,))) + LinComb.basis((LEAF, (0,), (0,)))
    assert any(row == rel or row == -1 * rel for row in spans[1])

    # zero bracket, identity twist, W=0: only symmetrization relations
    spans = ideal_J_span(abelian_lie(2), 2, 0)
    assert len(spans[1]) == 0 and len(spans[2]) == 1


ENVELOPING_ALGEBRAS = {
    "sl2": sl2,
    "sl2_twisted": lambda: lie_twist(sl2(), sl2_involution()),
    "solvable2": solvable2_lie,
    "abelian2": lambda: abelian_lie(2),
    "fixture_b_g": lambda: fixture_b_lie_pair().g,
    "fixture_b_h": lambda: fixture_b_lie_pair().h,
    "fixture_a_prime_g": lambda: fixture_a_prime_lie_pair().g,
    "fixture_a_prime_h": lambda: fixture_a_prime_lie_pair().h,
    "abelian2_quarter_turn": lambda: abelian_lie(2, quarter_turn()),
    "abelian2_diag23": lambda: abelian_lie(2, diag23()),
}

# under these twists phi^s differs from phi for every weight s > 1
POWER_TWISTS = ("abelian2_quarter_turn", "abelian2_diag23")

# (algebra, N, W)
ENVELOPING_CASES = (
    [
        (name, 3, w)
        for name in ENVELOPING_ALGEBRAS
        if name not in POWER_TWISTS
        for w in (1, 3)
    ]
    + [(name, n, 3) for name in POWER_TWISTS for n in (2, 3)]
    + [(name, 4, 1) for name in ("sl2", "sl2_twisted", "solvable2")]
)


def projected_sum(u, image, x):
    """P(sum c * image(k)) over the terms of x: the whole image summed term
    by term with add_scaled, then projected once, with no stored image."""
    out = LinComb.zero()
    for k, c in x.items():
        out = out.add_scaled(image(k), c)
    return u.project(out)


@pytest.mark.parametrize("name", ["sl2", "sl2_twisted", "fixture_b_g", "fixture_b_h"])
def test_uea_map_memos_match_unstored_images(name):
    u = build_truncated_uea(ENVELOPING_ALGEBRAS[name](), 3, 2)
    ops = u.ops

    def terms(x):
        return list(x.terms.items())

    def check_normal_forms():
        for k in u.basis_keys():
            want = u.project(ops.antipode_key(k))
            assert terms(u.antipode_map(e(k))) == terms(want), k
            for n in (1, -1, 2, -2):
                want = u.project(ops.a_shift_key(k, n))
                assert terms(u.alpha_pow(n, e(k))) == terms(want), (n, k)
            assert terms(u.alpha_map(e(k))) == terms(u.alpha_pow(1, e(k)))
            assert terms(u.alpha_inv(e(k))) == terms(u.alpha_pow(-1, e(k)))

    # first on empty tables, then read back from the stored images
    check_normal_forms()
    check_normal_forms()
    rows = u.ideal_rows()
    assert rows
    for row in rows:
        # the row itself, and its pivot alone, whose image is not stored
        for x in (row, e(min(row.terms, key=pivot_order))):
            assert u.antipode_map(x) == projected_sum(u, ops.antipode_key, x)
            for n in (1, -1, 2, -2):
                want = projected_sum(u, lambda k: ops.a_shift_key(k, n), x)
                assert u.alpha_pow(n, x) == want, n
    assert u.well_definedness_report().passed
    normal = set(u.basis_keys())
    assert set(u._antipode_cache) == normal
    assert {k for _, k in u._alpha_cache} == normal
    assert {n for n, _ in u._alpha_cache} == {1, -1, 2, -2}


@pytest.mark.parametrize(
    "name,n,w", ENVELOPING_CASES, ids=["%s_n%d_w%d" % c for c in ENVELOPING_CASES]
)
def test_enveloping_ideal_matches_closure_over_weighted_trees(name, n, w):
    g = ENVELOPING_ALGEBRAS[name]()
    u = build_truncated_uea(g, n, w)
    ref = enveloping_ideal_by_closure(g, n, w)
    assert ideal_pivots(u) == ref.pivots()
    assert u.ideal_rows() == ref.basis_rows()


@pytest.mark.parametrize("name", ["sl2", "sl2_twisted"])
def test_rowspace_invariants_hold_after_build(name):
    u = build_truncated_uea(ENVELOPING_ALGEBRAS[name](), 3, 3)
    rs = u.rowspace
    for p, row in rs.rows.items():
        assert row.get(p) == 1 and min(row, key=rs.order) == p, p
        assert not any(k in rs.rows for k in row if k != p), p
        for k in row:
            assert p in rs.columns.get(k, ()), (k, p)
    # the derived rows are the reduced echelon basis of the whole ideal
    rows = u.ideal_rows()
    pivots = ideal_pivots(u)
    assert pivots == sorted(set(pivots), key=pivot_order)
    for p, row in zip(pivots, rows):
        assert row.get(p) == 1, p
        assert not any(k in pivots for k in row if k != p), p


@pytest.mark.parametrize("name", sorted(ENVELOPING_ALGEBRAS))
def test_stored_ideal_is_weight_zero(name):
    u = build_truncated_uea(ENVELOPING_ALGEBRAS[name](), 3, 3)
    assert u.rowspace.rank
    assert all(not any(p[1]) for p in u.rowspace.rows)
    # every weighted tree is a pivot of a derived row
    weighted = [k for k in u.ambient if k != UNIT and any(k[1])]
    assert set(weighted) <= set(ideal_pivots(u))
    assert len(u.ideal_rows()) == u.rowspace.rank + len(weighted)


def test_build_truncated_uea_dimensions():
    # independent oracle: symmetric algebra dimensions C(n + d - 1, n)
    def sym_dims(d, n_max):
        return [math.comb(n + d - 1, n) for n in range(n_max + 1)]

    u1 = build_truncated_uea(abelian_lie(1), 3, 3)
    assert u1.dims_per_degree() == sym_dims(1, 3) == [1, 1, 1, 1]
    u2 = build_truncated_uea(abelian_lie(2), 3, 1)
    assert u2.dims_per_degree() == sym_dims(2, 3) == [1, 2, 3, 4]
    # fixture B side: single generator y, y v y is the degree-2 normal form
    pair = fixture_b_lie_pair()
    ug = build_truncated_uea(pair.g, 3, 3)
    assert ug.dims_per_degree() == [1, 1, 1, 1]
    assert ((LEAF, LEAF), (0, 0), (0, 0)) in ug.basis_keys()


def test_build_truncated_uea_rejects_non_hom_lie():
    bad = HomLieData(
        3,
        {(0, 1): e(2) + e(0), (2, 0): 2 * e(0), (2, 1): -2 * e(1)},
        LinearOperator.identity(range(3)),
    )
    with pytest.raises(NotHomLie):
        build_truncated_uea(bad, 2, 0)


def test_sl2_truncation_pbw_dimensions_and_cocommutativity():
    u = build_truncated_uea(sl2(), 2, 0)
    assert u.dims_per_degree() == [1, 3, 6]
    assert not u.graded  # commutator relations mix degrees 2 and 1
    # classical enveloping truncations are cocommutative: cop = original
    from homhopf.foundation import swap_pairs

    for k in u.basis_keys():
        d = u.comult_map(e(k))
        assert swap_pairs(d) == d


def test_truncated_uea_hopf_suite_and_overflow():
    u = build_truncated_uea(abelian_lie(1), 3, 2)
    rep = check_hom_hopf(u)
    assert rep.passed, rep.violations
    assert rep.total_skipped() > 0  # deep products leave the budget
    y = [k for k in u.basis_keys() if u.degree(k) == 1][0]
    y3 = [k for k in u.basis_keys() if u.degree(k) == 3][0]
    with pytest.raises(TruncationOverflow):
        u.product(e(y), e(y3))


def test_truncated_uea_product_cache_is_kept_and_never_mutated():
    u = build_truncated_uea(abelian_lie(2), 3, 1)
    ones = [k for k in u.basis_keys() if u.degree(k) == 1]
    x, y = e(ones[0]), e(ones[1])
    first = u.product(x + y, x - y)
    cached = {key: dict(val.terms) for key, val in u._product_cache.items()}
    assert (ones[0], ones[1]) in cached
    assert u.product(x + y, x - y) == first
    assert u.product(x, y) == u.product(y, x)  # abelian: symmetric normal forms
    for key, terms in cached.items():
        assert u._product_cache[key].terms == terms
    with pytest.raises(TruncationOverflow):
        u.product(x, e([k for k in u.basis_keys() if u.degree(k) == 3][0]))


def test_well_definedness_report():
    neg = LinearOperator.from_matrix([[-1]], inverse=[[-1]])
    for g in (abelian_lie(1), abelian_lie(1, neg), abelian_lie(2, swap_phi()), sl2()):
        n, w = (2, 1) if g.dim > 1 else (3, 2)
        u = build_truncated_uea(g, n, w)
        rep = u.well_definedness_report()
        assert rep.passed, (g.dim, rep.violations)


def test_weighted_normal_forms_collapse_for_finite_order_twist():
    # every weighted normal form is identified with a weight-zero tree
    neg = LinearOperator.from_matrix([[-1]], inverse=[[-1]])
    for g in (abelian_lie(1), abelian_lie(1, neg)):
        u = build_truncated_uea(g, 2, 3)
        for k in u.basis_keys():
            if k != UNIT:
                assert all(w == 0 for w in k[1])


def test_act_U_on_h_examples():
    pair = fixture_b_lie_pair()
    ctx = UEAActionContext(pair)
    x = leaves(e(0))
    # eta <| 1 = alpha(eta)
    assert ctx.omega_right(x, e(UNIT)) == x
    # x <| y = 0 so x <| (y v y) = 0
    y2 = ((LEAF, LEAF), (0, 0), (0, 0))
    assert ctx.omega_right(x, e(y2)) == LinComb.zero()
    # weight powers collapse through the identity twist
    assert ctx.omega_right(x, e((LEAF, (2,), (0,)))) == leaves(pair.right(e(0), e(0)))


def test_act_h_on_U_examples():
    pair = fixture_b_lie_pair()
    ctx = UEAActionContext(pair)
    x = leaves(e(0))
    assert ctx.omega_left(x, e(UNIT)) == LinComb.zero()
    y2 = ((LEAF, LEAF), (0, 0), (0, 0))
    assert ctx.omega_left(x, e(y2)) == 2 * e(y2)
    # trivial left action: everything of degree >= 1 acts to zero
    triv = fixture_a_prime_lie_pair()
    ctx2 = UEAActionContext(triv)
    assert ctx2.omega_left(leaves(e(0)), e((LEAF, (0,), (0,)))) == LinComb.zero()


def module_actions(mp):
    """The lifted actions of mp as tables on the side each acts from:
    v |> u on U(g), and v <| u on U(h) keyed (u, v)."""
    ug, uh = mp.u, mp.v
    left = ActionData(uh, ug.basis_keys(), mp.left, ug.alpha_map)
    right_uv = {(u, v): val for (v, u), val in mp.right.items()}
    right = ActionData(ug, uh.basis_keys(), right_uv, uh.alpha_map, side="right")
    return left, right


def test_lift_to_Uh_action():
    pair = fixture_b_lie_pair()
    mp = lift_to_Uh_action(pair, 3, 3)
    ug, uh = mp.u, mp.v
    # unit acts as the twist
    for k in ug.basis_keys():
        assert mp.left[(UNIT, k)] == ug.alpha_map(e(k))
    # (x v x) |> (y v y) = 4 (y v y): two applications with twist corrections
    x2 = [k for k in uh.basis_keys() if uh.degree(k) == 2][0]
    y2 = [k for k in ug.basis_keys() if ug.degree(k) == 2][0]
    assert mp.left[(x2, y2)] == 4 * e(y2)
    # both lifted actions are Hom-modules over the truncated algebras
    left, right = module_actions(mp)
    assert check_hom_module(uh, left).passed
    assert check_hom_module(ug, right).passed


@pytest.mark.parametrize("n", [2, 3])
def test_lift_rejects_an_action_that_is_not_a_derivation(n):
    # the identity on g is not a derivation of [x, y] = y, so the lifted
    # action moves the commutator relation out of the enveloping ideal
    with pytest.raises(NotHomLie, match="h-action does not preserve the g-ideal"):
        lift_to_Uh_action(solvable_on_line((1, 1)), n, 0)


def test_lift_accepts_a_derivation():
    # Dx = 0, Dy = y is a derivation of [x, y] = y
    mp = lift_to_Uh_action(solvable_on_line((0, 1)), 3, 0)
    left, _ = module_actions(mp)
    assert check_hom_module(mp.v, left).passed


def test_lift_rejects_a_right_action_that_moves_the_g_ideal():
    with pytest.raises(NotHomLie, match="right action does not preserve the g-ideal"):
        lift_to_Uh_action(right_action_moving_g_ideal(), 2, 0)


def test_lift_rejects_a_left_action_that_misses_the_h_ideal():
    with pytest.raises(NotHomLie, match="lifted action does not kill the h-ideal"):
        lift_to_Uh_action(left_action_missing_h_ideal(), 2, 0)


def test_lift_rejects_a_right_action_that_misses_the_h_ideal():
    with pytest.raises(NotHomLie, match="right action does not kill the h-ideal"):
        lift_to_Uh_action(right_action_missing_h_ideal(), 2, 0)


def test_trivial_pair_lift_unrolls_to_counit_pattern():
    pair = fixture_a_prime_lie_pair()
    mp = lift_to_Uh_action(pair, 2, 1)
    ug, uh = mp.u, mp.v
    for vk in uh.basis_keys():
        eps = uh.counit_map(e(vk))
        for uk in ug.basis_keys():
            assert mp.left[(vk, uk)] == eps * ug.alpha_map(e(uk))
