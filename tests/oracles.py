"""Independent reference computations used by the tests.

The dimension formula and the classical bicrossproduct are coded from
first principles (binomials, power sums) without touching the package's
algebra machinery, so they can serve as a second route for the values the
tests freeze.  The `*_by_pairing` functions are the direct definitions of
the degreewise dual's structure maps: each pairs a functional against the
primal image of every basis key, on every call.  `TruncatedDual` compiles
the same maps into tables, and the tests require equal results.
`dual_comult_by_degree` is the dual coproduct from one table per degree,
where `TruncatedDual` keeps one table over the truncation budget.
`dual_hom_hopf_tables` (with `dual_algebra_of_coalgebra` and
`dual_coalgebra_of_algebra`) is the dual of a finite Hom-Hopf algebra as
eager tables, which `duality.dual_hom_hopf` replaced by the degreewise
dual at truncation degree 0.
`FullScanRowSpace` and `coproduct_by_leaf_subsets` are the row reduction
without a column index and the tree coproduct as a sum over leaf subsets,
which `RowSpace` and the recursive `TreeOps.coproduct_key` replaced.
`tree_antipode_by_recursion` is the tree antipode by its graft recursion
S(t v t') = S(t') v S(t), which `TreeOps.antipode_key` replaced by the
signed mirror.
`enveloping_ideal_by_closure` closes every weighted tree under grafting and
shifts, where `uea_trees._enveloping_ideal` closes weight 0 only.
`coproduct_terms_by_relabel` reads the coproduct template of a tree
through its weights by relabelling each leg, where `TreeOps.coproduct_terms`
stores a weight getter with each leg.
`build_truncated_uea_with_weighted_rows` is the build that also stored one
row t - P0(sigma(t)) per weighted tree t and projected by reducing against
every row, where `TruncatedUEA` stores J0 and derives those rows in
`ideal_rows`.  `ambient_trees` lists every tree within the weight bound,
and `sorted_ambient_build` reads the normal forms and the ideal rows off
that list and sorts them, as `build_truncated_uea` did before it generated
the weighted trees in pivot order.  `ideal_J_span` reads the enveloping relations modulo the
reassociation ideal off `ideal_rows` and a closure, for the golden tables.
`gauss_jordan_inverse` is the dense Gauss-Jordan elimination that
`LinearOperator` used before it row-reduced [M | I] in a `RowSpace`.
`check_hom_algebra_untabulated` is the Hom-algebra check before it tabulated
twist images and products once per check, and `FreshPerKey` evaluates the
coproduct and antipode of a double cross product or bicrossproduct on a
fresh copy for every basis key, where the objects now keep them per key.
`check_mutual_pair_graded_untabulated` is the graded mutual-pair check
before it kept a coaction table per pair and one table per check for the
images of coproduct legs.
`UEAActionContextFullJoin` evaluates both factors of every term of the two
join rules of the lifted actions, where `UEAActionContext` returns a term
once its zero factor is known, and `lift_to_Uh_action_full_walk` walks
every row of both ideals, where `lift_to_Uh_action` accepts each ideal
through its stored rows J0 when it can.
`Pairing` (a bilinear pairing by its evaluation table),
`quotient_projection` (the projection onto the non-pivot complement of a
row space), `solve_linear` and `hopf_data` (a tensor-product Hopf object
of finite factors as explicit tables) are constructions that only the
tests use.  `antipode_from_convolution` solves for the convolution
inverse of the identity, a second route to the antipode, and
`action_from_coaction` reads an action back off the coaction that
`semidual.semidualize` builds.  `check_hom_module` checks the
Hom-module axioms of a left or right action given by its table,
and `check_module_coalgebra` the module-coalgebra conditions of a left
action.
`semidualize_to_tables` is the semidual of a finite matched pair as
`semidualize` built it before it read every coaction from the matched
pair: a `MutualPairHopf` whose coaction is a table of columns
(`coaction_column`).
"""

import copy
import itertools
import math
from fractions import Fraction

from homhopf.cross_products import (
    MatchedPairHopf,
    MutualPairHopf,
    _check_action_side,
    _comult_compat,
    _counit_compat,
    _module_coalgebra,
)
from homhopf.duality import dual_hom_hopf, transpose_table
from homhopf.errors import (
    NotHomLie,
    NotInvertible,
    NotInvertibleAlpha,
    NotInvertibleBeta,
)
from homhopf.foundation import (
    ZERO,
    LinComb,
    LinearOperator,
    RowSpace,
    bilinear,
    extend,
    pair_apply,
    scalar,
)
from homhopf.hom_core import (
    CheckReport,
    HomAlgebraData,
    HomCoalgebraData,
    HomHopfData,
)
from homhopf.semidual import _dual_action_table
from homhopf.uea_trees import (
    LEAF,
    UNIT,
    TreeOps,
    TruncatedUEA,
    UEAActionContext,
    _close_under_ops,
    _enveloping_ideal,
    _reassociation_seeds,
    build_truncated_uea,
    display_order,
    leaf_count,
    leaves,
    max_degree,
    pivot_order,
    split,
)

from fixtures import transpose_operator


def sym_algebra_dims(generators, n_max):
    """Graded dimensions of a polynomial algebra: C(n + d - 1, n)."""
    return [math.comb(n + generators - 1, n) for n in range(n_max + 1)]


class ClassicalBicrossOracle:
    """Truncated classical bicrossproduct for the split of [x, y] = y.

    Model: U = k[y] with y primitive, truncated at degree n; the dual of
    k[x] acts trivially while x acts on k[y] as the Euler derivation
    (x |> y^m = m y^m).  Basis indices are plain degrees: u-index m is
    y^m and f-index a is the functional dual to x^a.  Tables drop all
    components past the truncation degree, which mirrors how a truncated
    pipeline reports them.
    """

    def __init__(self, n):
        self.n = n
        self.keys = [(a, m) for a in range(n + 1) for m in range(n + 1)]

    def product(self, k1, k2):
        """(f,u)(f',u') = f f' x u u' for the trivial dual action."""
        (a, m), (b, n2) = k1, k2
        if a + b > self.n or m + n2 > self.n:
            return None  # outside the budget: no comparable entry
        return {(a + b, m + n2): Fraction(math.comb(a + b, a))}

    def comult(self, key):
        a, n2 = key
        out = {}
        for i in range(a + 1):
            j = a - i
            for k in range(n2 + 1):
                cnk = math.comb(n2, k)
                for t in range(self.n + 1):
                    if j + t > self.n:
                        continue
                    coeff = (
                        Fraction(cnk)
                        * Fraction(k) ** t
                        * math.comb(j + t, j)
                    )
                    if coeff:
                        tgt = ((i, k), (j + t, n2 - k))
                        out[tgt] = out.get(tgt, Fraction(0)) + coeff
        return {k: v for k, v in out.items() if v}

    def counit(self, key):
        a, m = key
        return Fraction(1 if a == 0 and m == 0 else 0)

    def antipode(self, key):
        a, n2 = key
        out = {}
        for t in range(self.n + 1):
            if a + t > self.n:
                continue
            coeff = (
                Fraction(n2) ** t
                * math.comb(a + t, a)
                * (-1) ** (a + t + n2)
            )
            if coeff:
                tgt = (a + t, n2)
                out[tgt] = out.get(tgt, Fraction(0)) + coeff
        return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# the degreewise dual d = TruncatedDual(v) by pairing against v


def dual_product_by_pairing(d, f, g):
    """(f * g)(e_om) = sum over Delta(e_om) of f(beta^-2 x) g(beta^-2 y),
    for every retained key om."""
    out = LinComb()
    for om in d.keys:
        delta = d.v.comult_map(LinComb.basis(om))
        coeff = Fraction(0)
        for (k1, k2), v in delta.items():
            a = d.pair(f, d.v.beta_pow(-2, LinComb.basis(k1)))
            if a:
                b = d.pair(g, d.v.beta_pow(-2, LinComb.basis(k2)))
                if b:
                    coeff += v * a * b
        if coeff:
            out = out + LinComb({om: coeff})
    return out


def dual_precompose_by_pairing(d, f, power, use_beta):
    """f o (map^power) with map = beta_V (use_beta) or alpha_V."""
    if power == 0:
        return f
    out = {}
    for k in d.keys:
        x = LinComb.basis(k)
        x = d.v.beta_pow(power, x) if use_beta else d.v.alpha_pow(power, x)
        c = d.pair(f, x)
        if c:
            out[k] = c
    return LinComb(out)


def dual_antipode_by_pairing(d, f):
    """f o S_V."""
    out = {}
    for k in d.keys:
        c = d.pair(f, d.v.antipode_map(LinComb.basis(k)))
        if c:
            out[k] = c
    return LinComb(out)


def dual_comult_basis_by_pairing(d, k):
    """Delta(e_k*) = sum over (i, j) of total degree deg k of
    [alpha^-2(e_i e_j)]_k e_i* x e_j* (a graded primal quotient)."""
    out = LinComb()
    dk = d.degree(k)
    for i in d.keys:
        di = d.degree(i)
        if di > dk:
            continue
        for j in d.keys:
            if di + d.degree(j) != dk:
                continue
            prod = d.v.alpha_pow(
                -2, d.v.product(LinComb.basis(i), LinComb.basis(j))
            )
            c = prod.get(k)
            if c:
                out = out + LinComb({(i, j): c})
    return out


def dual_comult_by_degree(d, f):
    """Delta(f) in d = TruncatedDual(v), v graded, from one table per degree
    of the primal, each holding the (i, j) of that total degree: the
    construction `TruncatedDual.comult_map` used before it kept one table
    over the whole budget.  The tables live for one call."""
    tables = {}

    def comult_basis(k):
        # Delta(k*) pairs e_i x e_j with alpha^-2(e_i e_j) for the (i, j)
        # of total degree deg k; one table holds every key of that degree
        deg = d.degree(k)

        def build():
            e = LinComb.basis
            images = (
                ((i, j), d.v.alpha_pow(-2, d.v.product(e(i), e(j))))
                for i in d.keys
                for j in d.keys
                if d.degree(i) + d.degree(j) == deg
            )
            return transpose_table(images)

        table = tables.get(deg)
        if table is None:
            table = tables[deg] = build()
        return table.get(k, LinComb())

    return extend(comult_basis, f)


# ---------------------------------------------------------------------------
# the dual of a finite Hom-Hopf algebra as eager tables, the construction
# that `duality.dual_hom_hopf` replaced by the degree-0 `TruncatedDual`


def _require_inverse(op, err):
    try:
        op.inverted()
    except NotInvertible as exc:
        raise err(str(exc))


def _unshifted_comult(c):
    """(beta^-2 x beta^-2) Delta(e_x) for every basis key x of c."""

    def unshift(x):
        return c.beta_pow(-2, x)

    return {
        x: pair_apply(unshift, unshift, c.comult_map(LinComb.basis(x)))
        for x in c.basis_keys()
    }


def dual_algebra_of_coalgebra(c):
    """The dual Hom-algebra of a finite Hom-coalgebra on the dual basis."""
    _require_inverse(c.beta, NotInvertibleBeta)
    keys = c.basis_keys()
    pairs = [(i, j) for i in keys for j in keys]
    mult = transpose_table(_unshifted_comult(c).items(), pairs)
    unit = LinComb({x: c.counit_map(LinComb.basis(x)) for x in keys})
    alpha = transpose_operator(c.beta.inverted(), keys)
    return HomAlgebraData(len(keys), mult, unit, alpha, keys=keys)


def dual_coalgebra_of_algebra(a):
    """The dual Hom-coalgebra of a finite Hom-algebra (restricted dual
    specialized to finite dimension)."""
    _require_inverse(a.alpha, NotInvertibleAlpha)
    keys = a.basis_keys()
    images = (
        ((i, j), a.alpha_pow(-2, a.product(LinComb.basis(i), LinComb.basis(j))))
        for i in keys
        for j in keys
    )
    comult = transpose_table(images, keys)
    counit = {k: a.unit_elem().get(k) for k in keys}
    beta = transpose_operator(a.alpha.inverted(), keys)
    return HomCoalgebraData(len(keys), comult, counit, beta, keys=keys)


def dual_hom_hopf_tables(h):
    """The dual Hom-Hopf algebra of a finite-dimensional Hom-Hopf algebra,
    as tables."""
    alg = dual_algebra_of_coalgebra(h)
    coalg = dual_coalgebra_of_algebra(h)
    keys = h.basis_keys()
    antipode = transpose_operator(h.antipode, keys)
    return HomHopfData(
        len(keys),
        alg.mult,
        alg.unit,
        alg.alpha,
        coalg.comult,
        coalg.counit,
        coalg.beta,
        antipode,
        keys=keys,
    )


# ---------------------------------------------------------------------------
# row reduction by full scans


def gauss_jordan_inverse(columns):
    """Inverse columns of the operator with the given columns, by
    Gauss-Jordan on [M | I] over the keys in repr order; raises
    NotInvertible naming the first column without a pivot."""
    keys = sorted(columns, key=repr)
    n = len(keys)
    rows = []
    for i, ki in enumerate(keys):
        row = [Fraction(0)] * (2 * n)
        for j, kj in enumerate(keys):
            row[j] = columns[kj].get(ki)
        row[n + i] = Fraction(1)
        rows.append(row)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            raise NotInvertible("singular operator (column %r)" % (keys[col],))
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = Fraction(1) / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return {
        kj: LinComb({keys[i]: rows[i][n + j] for i in range(n)})
        for j, kj in enumerate(keys)
    }


class FullScanRowSpace:
    """The reduced echelon space without a column index: `reduce` subtracts
    one hit row at a time, rescanning the vector after each, and `add`
    back-substitutes by probing every stored row for the new pivot."""

    def __init__(self, order):
        self.order = order
        self.rows = {}

    def reduce(self, v):
        while True:
            hit = None
            for k in v.terms:
                if k in self.rows:
                    hit = k
                    break
            if hit is None:
                return v
            v = v.add_scaled(self.rows[hit], -v.terms[hit])

    def add(self, v):
        v = self.reduce(v)
        if not v:
            return False
        piv = min(v.terms, key=self.order)
        v = (Fraction(1) / v.terms[piv]) * v
        for p, row in list(self.rows.items()):
            c = row.get(piv)
            if c:
                self.rows[p] = row.add_scaled(v, -c)
        self.rows[piv] = v
        return True


# ---------------------------------------------------------------------------
# the tree coproduct as a sum over leaf subsets


def _restrict(ops, shape, key, keep, offset):
    """Replace the leaves of key outside `keep` by the unit and collapse
    by grafting."""
    if shape == LEAF:
        if offset in keep:
            return LinComb.basis((LEAF,) + tuple((part[offset],) for part in key[1:]))
        return LinComb.basis(UNIT)
    nl = leaf_count(shape[0])
    left = _restrict(ops, shape[0], key, keep, offset)
    right = _restrict(ops, shape[1], key, keep, offset + nl)
    return ops.graft(left, right)


def coproduct_by_leaf_subsets(ops, key):
    """Delta(t) = sum over leaf subsets S of t|S x t|(complement of S)."""
    if key == UNIT:
        return LinComb.basis((UNIT, UNIT))
    n = len(key[1])
    out = LinComb()
    for bits in itertools.product((0, 1), repeat=n):
        keep = {i for i in range(n) if bits[i]}
        rest = _restrict(ops, key[0], key, keep, 0)
        other = _restrict(ops, key[0], key, set(range(n)) - keep, 0)
        out = out + (rest @ other)
    return out


def _relabel(leg, weights):
    """A coproduct template leg with leaf position i read as weights[i]."""
    if leg == UNIT:
        return UNIT
    return (leg[0], tuple([weights[i] for i in leg[1]]), leg[2])


def coproduct_template_by_relabel(ops, shape, decs):
    """Delta of the tree of shape and decorations whose leaf i has weight
    i, the coproducts of its subtrees read by `coproduct_terms_by_relabel`,
    recomputed on every call."""
    marked = (shape, tuple(range(len(decs))), decs)
    if shape == LEAF:
        return LinComb({(UNIT, marked): 1, (marked, UNIT): 1})

    def summed(k):
        out = {}
        for legs, c in coproduct_terms_by_relabel(ops, k):
            out[legs] = out.get(legs, ZERO) + c
        return LinComb(out)

    kl, kr = split(marked)
    return bilinear(ops._graft_legs, summed(kl), summed(kr))


def coproduct_terms_by_relabel(ops, key, template=None):
    """`TreeOps.coproduct_terms` as a list: the template of key (by default
    `coproduct_template_by_relabel` of its shape and decorations) with
    each leg relabelled through the weights of key by `_relabel`."""
    if key == UNIT:
        return list(ops.coproduct_key(key).items())
    if template is None:
        template = coproduct_template_by_relabel(ops, key[0], key[2])
    return [
        ((_relabel(a, key[1]), _relabel(b, key[1])), c) for (a, b), c in template.items()
    ]


def tree_antipode_by_recursion(ops, key):
    """S(1) = 1, S(leaf) = -leaf and S(t v t') = S(t') v S(t), grafted
    through ops and recomputed for every subtree."""
    if key == UNIT:
        return LinComb.basis(UNIT)
    if key[0] == LEAF:
        return -1 * LinComb.basis(key)
    kl, kr = split(key)
    return ops.graft(
        tree_antipode_by_recursion(ops, kr), tree_antipode_by_recursion(ops, kl)
    )


# ---------------------------------------------------------------------------
# the enveloping ideal as one closure over all weights


def enveloping_ideal_by_closure(g, n_max, weight_bound):
    """The row space of the reassociation, weight-absorption
    (s, xi) - (0, phi^s(xi)) and commutator
    (xi1 xi2) - (xi2 xi1) - leaf([xi1, xi2]) seeds on trees decorated by
    g, closed under grafting by every basis tree within the weight bound
    and under the shift map."""
    ops = TreeOps(g.phi)
    basis_by_degree = {
        n: ops.basis_keys(n, weight_bound, g.dim) for n in range(1, n_max + 1)
    }
    seeds = _reassociation_seeds(ops, basis_by_degree, n_max)
    seeds += [
        LinComb.basis((LEAF, (s,), (xi,))) - leaves(g.phi_pow(s, LinComb.basis(xi)))
        for s in range(1, weight_bound + 1)
        for xi in range(g.dim)
    ]
    t2 = (LEAF, LEAF)
    seeds += [
        LinComb.basis((t2, (0, 0), (x1, x2)))
        - LinComb.basis((t2, (0, 0), (x2, x1)))
        - leaves(g.bracket(x1, x2))
        for x1 in range(g.dim)
        for x2 in range(x1 + 1, g.dim)
        if n_max >= 2
    ]
    rs = RowSpace(order=pivot_order)
    _close_under_ops(rs, seeds, ops, basis_by_degree, n_max)
    return rs


def rows_by_degree(rows, n_max):
    """The rows sorted into lists by the largest degree in their support."""
    out = {n: [] for n in range(n_max + 1)}
    for row in rows:
        out[max_degree(row)].append(row)
    return out


def enveloping_ideal_with_weighted_rows(g, n_max, weight_bound):
    """J0 from `uea_trees._enveloping_ideal` with one stored row per
    weighted tree t, added as t - sigma(t), which RowSpace.add reduces to
    t - P0(sigma(t)): (ops, basis_by_degree, row space).  sigma is written
    out here, apart from `TreeOps.sigma_key`, so that the two can differ."""
    ops, rs = _enveloping_ideal(g, n_max)
    basis_by_degree = {
        n: ops.basis_keys(n, weight_bound, g.dim) for n in range(1, n_max + 1)
    }
    for n in range(1, n_max + 1):
        zeros = (0,) * n
        for t in basis_by_degree[n]:
            if t[1] != zeros:
                rs.add(LinComb.basis(t) - ops.phi_leafwise(t, t[1], zeros))
    return ops, basis_by_degree, rs


class ReducedPerKey(dict):
    """The reduction of each basis key against a row space, stored on
    first lookup."""

    def __init__(self, rowspace):
        super().__init__()
        self.rowspace = rowspace

    def __missing__(self, key):
        val = self[key] = self.rowspace.reduce(LinComb.basis(key))
        return val


class TruncatedUEAWithWeightedRows(TruncatedUEA):
    """`TruncatedUEA` on the row space of every row, weighted rows stored:
    it projects, and projects the legs of coproducts, by reducing against
    all of them."""

    def __init__(self, *args):
        super().__init__(*args)
        self._projected = ReducedPerKey(self.rowspace)

    def project(self, x):
        return self.rowspace.reduce(x)


def build_truncated_uea_with_weighted_rows(g, n_max, weight_bound):
    ops, _, rs = enveloping_ideal_with_weighted_rows(g, n_max, weight_bound)
    return TruncatedUEAWithWeightedRows(g, n_max, ops, rs, weight_bound)


def ambient_trees(g, n_max, weight_bound):
    """Every tree decorated by g of degree <= n_max within the weight
    bound, the unit first, in display order: the list that `TruncatedUEA`
    kept as `ambient`, of which it keeps the length only."""
    ops = TreeOps(g.phi)
    return [UNIT] + [
        k for n in range(1, n_max + 1) for k in ops.basis_keys(n, weight_bound, g.dim)
    ]


def sorted_ambient_build(u):
    """The ambient list, the normal forms and the ideal rows of u as
    `build_truncated_uea` made them from the ambient list: the weighted
    trees as a set, the normal forms filtered out of the list and sorted
    by `display_order`, and the rows t - P0(sigma(t)) of the weighted trees
    t with those of J0, sorted by `pivot_order`."""
    ambient = ambient_trees(u.lie, u.truncation_degree, u.weight_bound)
    weighted = frozenset(k for k in ambient if k != UNIT and any(k[1]))
    keys = [k for k in ambient if k not in weighted and k not in u.rowspace.rows]
    keys.sort(key=display_order)
    rows = {
        t: LinComb.basis(t) - u.rowspace.reduce(u.ops.sigma_key(t)) for t in weighted
    }
    rows.update(u.rowspace.rows)
    return ambient, keys, [rows[p] for p in sorted(rows, key=pivot_order)]


def ideal_J_span(g, n_max, weight_bound=3):
    """Per-degree reduced span of the enveloping relations, closed under
    grafting and the shift map, reduced modulo the reassociation ideal I.

    These are the rows of the combined closure of both relation sets whose
    pivot is not a pivot of I: with P the projection whose kernel is I,
    the leading terms of P(S) are those of S + I minus those of I.
    """
    u = build_truncated_uea(g, n_max, weight_bound)
    ops = u.ops
    basis_by_degree = {
        n: ops.basis_keys(n, weight_bound, g.dim) for n in range(1, n_max + 1)
    }
    reassoc = RowSpace(order=pivot_order)
    seeds = _reassociation_seeds(ops, basis_by_degree, n_max)
    _close_under_ops(reassoc, seeds, ops, basis_by_degree, n_max)
    rows = [
        row for row in u.ideal_rows() if min(row, key=pivot_order) not in reassoc.rows
    ]
    return rows_by_degree(rows, n_max)


# ---------------------------------------------------------------------------
# the lifted actions with every join term evaluated and every ideal row walked


class UEAActionContextFullJoin(UEAActionContext):
    """The recursions of `UEAActionContext` with both join rules computing
    both factors of every term: the |> rule grafts its zero actors, and the
    <| rule evaluates its left factor before its right one."""

    def omega_left_key(self, vkey, ukey):
        memo = self._omega_left.get((vkey, ukey))
        if memo is not None:
            return memo
        if vkey == UNIT:
            out = self.gops.a_shift_key(ukey)
        elif vkey[0] != LEAF:
            vl, vr = split(vkey)
            inner = self.omega_left(
                LinComb.basis(vr), self.gops.a_shift_key(ukey, -1)
            )
            out = self.omega_left(self.hops.a_shift_key(vl), inner)
        elif vkey[1] != (0,):
            out = self.omega_left(self.hops.sigma_key(vkey), LinComb.basis(ukey))
        elif ukey == UNIT:
            out = LinComb.zero()
        elif ukey[0] == LEAF:
            s = ukey[1][0]
            eta = self.h.phi_pow(-s, LinComb.basis(vkey[2][0]))
            out = leaves(self.pair.left(eta, LinComb.basis(ukey[2][0])), s)
        else:
            kl, kr = split(ukey)
            head = self.gops.graft(
                self.omega_left(self.hops.a_shift_key(vkey, -1), LinComb.basis(kl)),
                self.gops.a_shift_key(kr),
            )

            def term(t):
                actor = self.omega_right(
                    self.hops.a_shift_key(vkey, -2), self.gops.a_shift_key(t[1], -1)
                )
                return self.gops.graft(
                    self.gops.a_shift_key(t[0]), self.omega_left(actor, LinComb.basis(kr))
                )

            out = head + extend(term, self.gops.coproduct_key(kl))
        self._omega_left[(vkey, ukey)] = out
        return out

    def omega_right_key(self, vkey, ukey):
        memo = self._omega_right.get((vkey, ukey))
        if memo is not None:
            return memo
        if ukey == UNIT:
            out = self.hops.a_shift_key(vkey)
        elif vkey == UNIT:
            out = LinComb.zero()
        elif vkey[0] != LEAF:
            vl, vr = split(vkey)

            def term(o, t):
                inner = self.omega_left(
                    self.hops.a_shift_key(o[0], -1), self.gops.a_shift_key(t[0], -2)
                )
                left = self.omega_right(LinComb.basis(vl), inner)
                right = self.omega_right(
                    LinComb.basis(o[1]), self.gops.a_shift_key(t[1], -1)
                )
                return self.hops.graft(left, right)

            out = bilinear(
                term, self.hops.coproduct_key(vr), self.gops.coproduct_key(ukey)
            )
        elif vkey[1] != (0,):
            out = self.omega_right(self.hops.sigma_key(vkey), LinComb.basis(ukey))
        elif ukey[0] == LEAF:
            s, xi = ukey[1][0], ukey[2][0]
            eta = LinComb.basis(vkey[2][0])
            out = leaves(self.pair.right(eta, self.g.phi_pow(s, LinComb.basis(xi))))
        else:
            kl, kr = split(ukey)
            inner = self.omega_right(self.hops.a_shift_key(vkey, -1), LinComb.basis(kl))
            out = self.omega_right(inner, self.gops.a_shift_key(kr))
        self._omega_right[(vkey, ukey)] = out
        return out


def lift_to_Uh_action_full_walk(pair, truncation_degree, weight_bound=3):
    """`lift_to_Uh_action` on `UEAActionContextFullJoin`, checking every
    row of both ideals on every normal form of the other algebra, under
    both actions.  The oracle has no Lie-level gate: it runs no
    `check_matched_pair_lie`, so it never raises NotMatchedPair and it
    walks every weighted g-row whether or not the twists are compatible."""
    ug = build_truncated_uea(pair.g, truncation_degree, weight_bound)
    uh = build_truncated_uea(pair.h, truncation_degree, weight_bound)
    ctx = UEAActionContextFullJoin(pair)

    for vkey in uh.basis_keys():
        for row in ug.ideal_rows():
            if ug.project(ctx.omega_left(LinComb.basis(vkey), row)):
                raise NotHomLie("h-action does not preserve the g-ideal")
            if uh.project(ctx.omega_right(LinComb.basis(vkey), row)):
                raise NotHomLie("right action does not preserve the g-ideal")
    for row in uh.ideal_rows():
        for ukey in ug.basis_keys():
            if ug.project(ctx.omega_left(row, LinComb.basis(ukey))):
                raise NotHomLie("lifted action does not kill the h-ideal")
            if uh.project(ctx.omega_right(row, LinComb.basis(ukey))):
                raise NotHomLie("right action does not kill the h-ideal")

    left_table = {}
    right_table = {}
    for vkey in uh.basis_keys():
        for ukey in ug.basis_keys():
            left_table[(vkey, ukey)] = ug.project(ctx.omega_left_key(vkey, ukey))
            right_table[(vkey, ukey)] = uh.project(ctx.omega_right_key(vkey, ukey))
    return MatchedPairHopf(ug, uh, left_table, right_table)


# ---------------------------------------------------------------------------
# checks and tensor-product maps without per-key tables


def check_hom_algebra_untabulated(a):
    """`hom_core.check_hom_algebra` as every tuple evaluating its own twist
    images and products: e_j e_k, e_i e_j and alpha(e_i) are computed
    afresh for each of the n^3 hom-assoc tuples, skipped or not."""
    rep = CheckReport()
    keys = a.basis_keys()
    unit = a.unit_elem()
    bas = [LinComb.basis(k) for k in keys]

    rep.run(
        "hom-assoc",
        [(i, j, k) for i in range(len(keys)) for j in range(len(keys)) for k in range(len(keys))],
        lambda i, j, k: (
            a.product(a.alpha_map(bas[i]), a.product(bas[j], bas[k])),
            a.product(a.product(bas[i], bas[j]), a.alpha_map(bas[k])),
        ),
    )
    rep.run(
        "hom-unit",
        [(i,) for i in range(len(keys))],
        lambda i: (a.product(unit, bas[i]), a.alpha_map(bas[i])),
    )
    rep.run(
        "hom-unit-right",
        [(i,) for i in range(len(keys))],
        lambda i: (a.product(bas[i], unit), a.alpha_map(bas[i])),
    )
    rep.run(
        "alpha-multiplicative",
        [(i, j) for i in range(len(keys)) for j in range(len(keys))],
        lambda i, j: (
            a.alpha_map(a.product(bas[i], bas[j])),
            a.product(a.alpha_map(bas[i]), a.alpha_map(bas[j])),
        ),
    )
    rep.run("alpha-unit", [()], lambda: (a.alpha_map(unit), unit))
    return rep


def fresh_copy(t):
    """A copy of a tensor-product Hopf object (`DoubleCrossProduct`,
    `Bicrossproduct`) with an empty memo: it shares the factors, and
    every map it is asked for is computed from them."""
    out = copy.copy(t)
    out._memo = {}
    return out


class FreshPerKey:
    """A tensor-product Hopf object whose coproduct and antipode are
    evaluated for each basis key on a fresh copy of it, so that no
    coproduct or antipode image is ever read from a table; every other
    attribute is the wrapped object's."""

    def __init__(self, t):
        self.inner = t

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def comult_map(self, x, **kw):
        return extend(lambda k: fresh_copy(self.inner).comult_map(LinComb.basis(k), **kw), x)

    def antipode_map(self, x, **kw):
        return extend(lambda k: fresh_copy(self.inner).antipode_map(LinComb.basis(k), **kw), x)


e = LinComb.basis


def check_mutual_pair_graded_untabulated(m):
    """`cross_products._check_mutual_pair_graded` as every tuple evaluating
    its own leg images: the coaction is paired through the left action on
    each call, nabla(u)(w) = alpha^-2(w) |> u, and comp-I pairs f with each
    term of its right side."""
    F, U, V = m.f, m.u, m.v
    n = V.truncation_degree
    fk, uk, vk = F.basis_keys(), U.basis_keys(), V.basis_keys()
    rep = _check_action_side(m)
    kone = e("k")

    def nabla_pair(u, w):
        return m.mp.lt(V.alpha_pow(-2, w), u)

    pair_tests = [
        (w1, w2) for w1 in vk for w2 in vk if V.degree(w1) + V.degree(w2) <= n
    ]

    def comod_coassoc(i, w1, w2):
        u = e(i)
        lhs = U.alpha_map(nabla_pair(u, V.alpha_pow(-2, V.product(e(w1), e(w2)))))
        rhs = nabla_pair(nabla_pair(u, V.alpha_inv(e(w2))), e(w1))
        return lhs, rhs

    rep.run(
        "coaction/hom-comodule-coassoc",
        [(i, w1, w2) for i in uk for (w1, w2) in pair_tests],
        comod_coassoc,
    )
    rep.run(
        "coaction/hom-comodule-counit",
        [(i,) for i in uk],
        lambda i: (nabla_pair(e(i), V.unit_elem()), U.alpha_map(e(i))),
    )
    rep.run(
        "Hom-comod-coalg-00",
        [(i, w) for i in uk for w in vk],
        lambda i, w: (
            nabla_pair(U.beta_map(e(i)), e(w)),
            U.beta_map(nabla_pair(e(i), V.beta_inv(e(w)))),
        ),
    )
    _comult_compat(
        rep, "Hom-comod-coalg-I", U, V, U,
        lambda u, w: nabla_pair(u, V.beta_pow(-2, w)),
    )
    _counit_compat(rep, "Hom-comod-coalg-II", U, V, U, nabla_pair)
    rep.run(
        "lt-f-comp",
        [(i, w) for i in uk for w in vk],
        lambda i, w: (
            nabla_pair(U.alpha_map(e(i)), e(w)),
            U.alpha_map(nabla_pair(e(i), V.alpha_inv(e(w)))),
        ),
    )

    def comp1(i, k, w1, w2):
        u, f = e(i), e(k)
        lhs = F.pair(m.act(u, f), V.alpha_pow(-2, V.product(e(w1), e(w2))))

        def term(us, xs):
            carried = m.mp.lt(V.beta_pow(2, V.alpha_pow(-5, e(xs[0]))), e(us[0]))
            avec = m.mp.rt(
                V.alpha_pow(-2, e(w1)), U.alpha_pow(-2, U.beta_inv(carried))
            )
            bvec = V.beta_map(
                m.mp.rt(
                    V.alpha_pow(-2, V.beta_pow(-2, e(xs[1]))),
                    U.alpha_inv(U.beta_pow(-2, e(us[1]))),
                )
            )
            return F.pair(f, V.alpha_pow(-2, V.product(avec, bvec))) * kone

        rhs = bilinear(term, U.comult_map(u), V.comult_map(e(w2)))
        return e("k", lhs), rhs

    rep.run(
        "comp-I",
        [(i, k, w1, w2) for i in uk for k in fk for (w1, w2) in pair_tests],
        comp1,
    )
    _counit_compat(rep, "comp-II", U, F, F, m.act)

    def comp3(i, j, w):
        u, u2 = e(i), e(j)
        lhs = nabla_pair(U.product(u, u2), e(w))

        def term(us, xs):
            first = U.beta_inv(nabla_pair(e(us[0]), V.alpha_inv(e(xs[0]))))
            z = V.beta_map(
                m.mp.rt(
                    V.alpha_pow(-2, V.beta_pow(-2, e(xs[1]))),
                    U.alpha_pow(-3, e(us[1])),
                )
            )
            return U.product(first, nabla_pair(u2, z))

        return lhs, bilinear(term, U.comult_map(u), V.comult_map(e(w)))

    rep.run("comp-III", [(i, j, w) for i in uk for j in uk for w in vk], comp3)

    def comp4(i, k, w):
        f = e(k)
        du, dw = U.comult_map(e(i)), V.comult_map(e(w))

        def side(a, b):
            def term(us, xs):
                s = F.pair(m.act(e(us[b]), f), V.beta_pow(-2, e(xs[b])))
                return s * nabla_pair(e(us[a]), V.alpha_pow(-2, e(xs[a])))

            return bilinear(term, du, dw)

        return side(0, 1), side(1, 0)

    rep.run("comp-IV", [(i, k, w) for i in uk for k in fk for w in vk], comp4)
    return rep


# ---------------------------------------------------------------------------
# constructions only the tests use


class Pairing:
    """Bilinear pairing given by an evaluation table (f-key, x-key) -> scalar."""

    def __init__(self, left_keys, right_keys, eval_table):
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.eval_table = {k: scalar(v) for k, v in dict(eval_table).items() if v}

    @classmethod
    def canonical(cls, keys):
        return cls(keys, keys, {(k, k): 1 for k in keys})

    def pair(self, f, x):
        out = ZERO
        for i, a in f.items():
            for j, b in x.items():
                out += a * b * self.eval_table.get((i, j), ZERO)
        return out

    def is_nondegenerate(self):
        rows = RowSpace()
        for i in self.left_keys:
            rows.add(LinComb({j: self.eval_table.get((i, j), ZERO) for j in self.right_keys}))
        return rows.rank == len(self.left_keys) == len(self.right_keys)


def quotient_projection(keys, rowspace):
    """Projection of span(keys) onto the non-pivot complement of rowspace.

    Idempotent; kernel is exactly the subspace.  The surviving indices
    (the section) are the non-pivot keys.
    """
    cols = {}
    survivors = []
    for k in keys:
        img = rowspace.reduce(LinComb.basis(k))
        cols[k] = img
        if k not in rowspace.rows:
            survivors.append(k)
    op = LinearOperator(cols)
    op.survivors = survivors
    return op


def solve_linear(equations, unknowns):
    """Solve a linear system over Q.

    equations: iterable of (coeffs: dict unknown -> scalar, rhs: scalar).
    Returns one solution as a dict (free unknowns set to 0), or None when
    the system is inconsistent.
    """
    order = {u: i for i, u in enumerate(unknowns)}
    AUG = "#rhs"
    rs = RowSpace(order=lambda k: (1, 0) if k == AUG else (0, order[k]))
    for coeffs, rhs in equations:
        row = dict(coeffs)
        rhs = scalar(rhs)
        if rhs:
            row[AUG] = -rhs
        rs.add(LinComb(row))
    if AUG in rs.rows:
        return None  # row reduces to 0 = nonzero
    sol = {u: ZERO for u in unknowns}
    for piv, row in rs.rows.items():
        # row reads: pivot + (free terms) + b*AUG = 0 with AUG standing for 1
        sol[piv] = -row.get(AUG)
    return sol


def antipode_from_convolution(h):
    """Solve for the convolution inverse of the identity map.

    Unknown operator S' satisfies mult(S'(b^-2 h1) x b^-2 h2) = eps(h) unit
    for every basis element; returns the operator or None when no solution
    exists.  Independent route to the antipode used as a uniqueness oracle.
    """
    keys = h.basis_keys()
    unknowns = [(i, j) for i in keys for j in keys]  # S'(e_i) = sum_j s_ij e_j
    eqs = []
    unit = h.unit_elem()

    def unshift(x):
        return h.beta_pow(-2, x)

    for k in keys:
        # insert beta^-2 on both legs of Delta(e_k)
        shifted = pair_apply(unshift, unshift, h.comult_map(LinComb.basis(k)))
        rhs_vec = h.counit_map(LinComb.basis(k)) * unit
        coeffs_by_out = {}
        for (k1, k2), v in shifted.items():
            # S'(e_k1) * e_k2 = sum_j s_{k1,j} (e_j * e_k2)
            for j in keys:
                prod = h.product(LinComb.basis(j), LinComb.basis(k2))
                for out_key, w in prod.items():
                    cur = coeffs_by_out.setdefault(out_key, {})
                    cur[(k1, j)] = cur.get((k1, j), ZERO) + v * w
        for out_key in keys:
            eqs.append((coeffs_by_out.get(out_key, {}), rhs_vec.get(out_key)))
    sol = solve_linear(eqs, unknowns)
    if sol is None:
        return None
    cols = {}
    for i in keys:
        cols[i] = LinComb({j: sol[(i, j)] for j in keys})
    return LinearOperator(cols)


def action_from_coaction(v, carrier_keys, coaction_table):
    """Inverse reading of the pairing of the coaction that
    `semidual.semidualize` builds: v |> u = u_(0) <u_(1), alpha^2(v)>."""
    table = {}
    for vkey in v.basis_keys():
        shifted = v.alpha_pow(2, LinComb.basis(vkey))
        for ukey in carrier_keys:
            table[(vkey, ukey)] = extend(
                lambda t: shifted.get(t[1]) * LinComb.basis(t[0]),
                coaction_table[ukey],
            )
    return table


def coaction_column(lt, v, ukey):
    """The coaction read off a left action of v through the dual pairing:
    nabla(u) = sum_w (alpha^-2(w) |> u) x w*, over (u', w) pairs."""
    e = LinComb.basis
    return LinComb._wrap(
        {
            (k2, w): c
            for w in v.basis_keys()
            for k2, c in lt(v.alpha_pow(-2, e(w)), e(ukey)).items()
        }
    )


def semidualize_to_tables(p):
    """The semidual of a finite matched pair with its coaction copied into
    a table, one column per U key; no order constraint is checked."""
    U, V = p.u, p.v
    dual = dual_hom_hopf(V)
    coaction = {u: coaction_column(p.lt, V, u) for u in U.basis_keys()}
    return MutualPairHopf(dual, U, _dual_action_table(U, V, p.rt), coaction)


def hopf_data(t):
    """A double cross product or bicrossproduct of finite factors
    materialized as explicit tables."""
    keys = t.basis_keys()
    e = LinComb.basis

    def op(fn):
        return LinearOperator({k: fn(e(k)) for k in keys})

    mult = {(k1, k2): t.product(e(k1), e(k2)) for k1 in keys for k2 in keys}
    comult = {k: t.comult_map(e(k)) for k in keys}
    counit = {k: t.counit_map(e(k)) for k in keys}
    return HomHopfData(
        len(keys), mult, t.unit_elem(), op(t.alpha_map), comult, counit,
        op(t.beta_map), op(t.antipode_map), keys=keys,
    )


# ---------------------------------------------------------------------------
# module checks of an action given by its table


def check_hom_module(a, m):
    """Hom-module axioms of an action m of a with carrier map gamma, on the
    side m declares:
    Left:  (p*q) |> gamma(v) = alpha(p) |> (q |> v)  and  1 |> v = gamma(v).
    Right: gamma(v) <| (p*q) = (v <| p) <| alpha(q)  and  v <| 1 = gamma(v),
    where m.apply(p, v) stands for v <| p."""
    rep = CheckReport()
    e = LinComb.basis
    akeys = a.basis_keys()
    act, gamma = m.apply, m.gamma

    def assoc(i, j, k):
        outer, inner = (i, j) if m.side == "left" else (j, i)
        lhs = act(a.product(e(i), e(j)), gamma(e(k)))
        return lhs, act(a.alpha_map(e(outer)), act(e(inner), e(k)))

    rep.run(
        "hom-module-assoc",
        [(i, j, k) for i in akeys for j in akeys for k in m.carrier_keys],
        assoc,
    )
    rep.run(
        "hom-module-unit",
        [(k,) for k in m.carrier_keys],
        lambda k: (act(a.unit_elem(), e(k)), gamma(e(k))),
    )
    return rep


def check_module_coalgebra(h, c, act):
    """Hom-module coalgebra conditions for a left action act of h on the
    coalgebra c: beta-compatibility, diagonal coproduct, counit kill."""
    rep = CheckReport()
    _module_coalgebra(rep, "", h, c, c, act)
    return rep

