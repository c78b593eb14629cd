"""Weighted planar binary trees with Lie-algebra decorations, the free
Hom-Hopf structure they carry (grafting, the shift map, the coproduct
that grafts the coproducts of the two subtrees leg by leg, the mirror
antipode), the reassociation and enveloping ideals,
and the degree-truncated universal enveloping Hom-Hopf algebra of a
Hom-Lie algebra together with the lifted matched-pair actions.

Tree keys
---------
The unit is the string key "1".  Every other key is a decorated tree
(shape, weights, decorations): shape is a nested tuple (() for a leaf,
(left, right) for a join), weights are naturals and decorations index the
Lie algebra basis, one of each per leaf from left to right.  Linear
combinations of trees realize multilinearity of decorations.

Quotients are computed by linear closure and row reduction per degree,
never by rewriting.  Row-reduction pivots prefer high degree and high
weight, so normal forms concentrate in low filtration levels and weight
zero, matching the classical picture when the twist is the identity.
Only the weight-0 relations are closed and stored, as the ideal J0 with
reduction P0; the projection of U(g) is P0(sigma(x)), where sigma replaces
each leaf (s, xi) by (0, phi^s(xi)).  This is exact because sigma fixes
weight-0 trees, commutes with grafting and the shift map, and sends every
relation into J0.  So each weighted tree t is a pivot whose reduced row
t - P0(sigma(t)) is derived on demand, never stored, and no list of the
weighted trees is kept: the normal forms come from the weight-0 trees, and
`TruncatedUEA` generates the pairs (pivot, normal form) in pivot order.  The
well-definedness report checks a linear map M on a row t - P(t) as
M(t) = M(P(t)), building M(P(t)) once per distinct P(t).
"""

from collections import deque
from itertools import product as iproduct
from math import prod
from operator import itemgetter

from .cross_products import MatchedPairHopf
from .errors import NotHomLie, NotMatchedPair, TruncationOverflow
from .foundation import (
    ZERO,
    LinComb,
    RowSpace,
    bilinear,
    extend,
    pair_extend,
    scalar,
)
from .hom_core import CheckReport, HomStructure, memo_lookup
from .hom_lie import check_hom_lie, check_matched_pair_lie

UNIT = "1"
LEAF = ()

_shape_cache = {1: [LEAF]}


def shapes(n):
    """All planar binary tree shapes with n leaves (Catalan enumeration)."""
    if n not in _shape_cache:
        out = []
        for k in range(1, n):
            for left in shapes(k):
                for right in shapes(n - k):
                    out.append((left, right))
        _shape_cache[n] = out
    return _shape_cache[n]


_mirror_cache = {LEAF: LEAF}


def mirror(shape):
    """The shape reflected left to right (memoized per shape)."""
    if shape not in _mirror_cache:
        _mirror_cache[shape] = (mirror(shape[1]), mirror(shape[0]))
    return _mirror_cache[shape]


def leaf_count(shape):
    if shape == LEAF:
        return 1
    return leaf_count(shape[0]) + leaf_count(shape[1])


def split(key):
    """The left and right subtree keys of a join key."""
    nl = leaf_count(key[0][0])
    return (
        (key[0][0],) + tuple(part[:nl] for part in key[1:]),
        (key[0][1],) + tuple(part[nl:] for part in key[1:]),
    )


_code_cache = {LEAF: (0,)}


def shape_code(shape):
    """Preorder serialization: stable total order on shapes (memoized per
    shape, so the sort keys of trees of one shape share one tuple)."""
    if shape not in _code_cache:
        _code_cache[shape] = (1,) + shape_code(shape[0]) + shape_code(shape[1])
    return _code_cache[shape]


def tree_degree(key):
    if key == UNIT:
        return 0
    return len(key[1])


def max_degree(x):
    """Largest degree appearing in the support of a tree combination."""
    return max((tree_degree(k) for k in x), default=0)


def pivot_order(key):
    """Sort key for row reduction: high degree and high weight first."""
    if key == UNIT:
        return (1,)
    shape, weights, decs = key
    return (0, -len(weights), tuple(-w for w in weights), shape_code(shape), decs)


def display_order(key):
    """Sort key for listings: unit first, then by degree, weight, shape."""
    if key == UNIT:
        return (0,)
    shape, weights, decs = key
    return (1, len(weights), weights, shape_code(shape), decs)


def weighted(key):
    """Whether key is a tree with a leaf of nonzero weight."""
    return key != UNIT and any(key[1])


def leaves(x, weight=0):
    """The single-leaf trees of one weight decorated by a Lie combination x."""
    return extend(lambda j: LinComb.basis((LEAF, (weight,), (j,))), x)


def _compile_leg(leg):
    """A coproduct template leg as (shape, getter, decorations), the getter
    mapping a tree's weights to the tuple of those at the leg's leaf
    positions; the unit leg as None."""
    if leg == UNIT:
        return None
    positions = leg[1]
    if len(positions) == 1:
        (i,) = positions
        return (leg[0], lambda weights: (weights[i],), leg[2])
    return (leg[0], itemgetter(*positions), leg[2])


def tree_label(key):
    if key == UNIT:
        return "1"
    shape, weights, decs = key

    def render(sh, pos):
        if sh == LEAF:
            i = pos[0]
            pos[0] += 1
            return "%d;g%d" % (weights[i], decs[i])
        return "(%s v %s)" % (render(sh[0], pos), render(sh[1], pos))

    return render(shape, [0])


class TreeOps:
    """Grafting, shift map, coproduct, counit and antipode on the trees
    decorated by a Lie algebra with invertible twist phi.  The shift map
    applies phi to every decoration and leaves the weights alone.

    The shift map reads no weight, so its images are stored once per
    (shape, decorations, power), as the image of the weight-0 tree, and a
    weighted tree gets the stored image with its own weights put back.
    The memo so holds one entry per weight-0 tree and power, however many
    weighted trees (ideal pivots, coproduct template legs, rows of the
    lift's ideal walk) are shifted.  The antipode is not stored.
    """

    def __init__(self, phi):
        self.phi = phi
        self._shift_cache = {}
        self._phi_powers = {}
        self._coproduct_cache = {}
        self._template_cache = {}

    # -- shift map

    def a_shift_key(self, key, power=1):
        if key == UNIT or power == 0:
            return LinComb.basis(key)
        shape, weights, decs = key
        image = self._shift_cache.get((shape, decs, power))
        if image is None:
            image = self.phi_leafwise(key, (power,) * len(weights), (0,) * len(weights))
            self._shift_cache[(shape, decs, power)] = image
        if not any(weights):
            return image
        return LinComb._wrap({(shape, weights, k[2]): c for k, c in image.items()})

    def phi_leafwise(self, key, powers, weights):
        """The decorated tree of the shape of key with the given weights
        and phi^powers[i] applied to the decoration of leaf i,
        multilinearly."""
        per_leaf = []
        for d, p in zip(key[2], powers):
            img = self._phi_powers.get((d, p))
            if img is None:
                img = self._phi_powers[(d, p)] = self.phi.power(p, LinComb.basis(d))
            per_leaf.append(img.items())
        if all(len(img) == 1 for img in per_leaf):
            decs, coeffs = zip(*[next(iter(img)) for img in per_leaf])
            return LinComb._wrap({(key[0], weights, decs): scalar(prod(coeffs))})
        return LinComb({
            (key[0], weights, tuple(d for d, _ in combo)): prod(c for _, c in combo)
            for combo in iproduct(*per_leaf)
        })

    def a_shift(self, x, power=1):
        return extend(lambda k: self.a_shift_key(k, power), x)

    def sigma_key(self, key):
        """sigma(key): each leaf (s, xi) read as (0, phi^s(xi))."""
        return self.phi_leafwise(key, key[1], (0,) * len(key[1]))

    # -- grafting

    def graft_keys(self, k1, k2):
        if k1 == UNIT and k2 == UNIT:
            return LinComb.basis(UNIT)
        if k2 == UNIT:
            return self.a_shift_key(k1)
        if k1 == UNIT:
            return self.a_shift_key(k2)
        return LinComb.basis(((k1[0], k2[0]), k1[1] + k2[1], k1[2] + k2[2]))

    def graft(self, x, y):
        return bilinear(self.graft_keys, x, y)

    # -- coproduct: a leaf is primitive, and a join is the graft of the
    # coproducts of its subtrees, leg by leg,
    #   Delta(t v t') = sum graft(a, c) x graft(b, d)
    # over a x b in Delta(t) and c x d in Delta(t').  Unrolled, this is
    # the sum over leaf subsets S of (t with the leaves outside S replaced
    # by the unit) x (t with the leaves in S replaced by the unit).
    #
    # The recursion reads weights only by position: grafting concatenates
    # them and the shift map leaves them alone.  So it runs once per
    # (shape, decorations), on the template key whose leaf i has weight i,
    # reading the coproducts of the subtrees off their own templates.
    # coproduct_terms(t) is the template of t with each leg's weights read
    # through the weights of t, by a getter stored with the leg (the leaf
    # positions it holds); distinct template terms meet when t repeats a
    # weight.  TruncatedUEA projects these terms as they come, so it never
    # builds Delta of an ideal pivot; coproduct_key sums them and memoizes
    # per tree, for the lifted actions, which reuse whole trees.

    def _graft_legs(self, p, q):
        return self.graft_keys(p[0], q[0]) @ self.graft_keys(p[1], q[1])

    def _template(self, marked):
        if marked[0] == LEAF:
            return LinComb({(UNIT, marked): 1, (marked, UNIT): 1})
        kl, kr = split(marked)
        child = self._summed_terms
        return bilinear(self._graft_legs, child(kl), child(kr))

    def coproduct_terms(self, key):
        """The terms ((a, b), c) of Delta(key) = sum c a x b; on a tree
        that repeats a weight, a pair of legs (a, b) may occur more than
        once."""
        if key == UNIT:
            return self.coproduct_key(key).items()
        template = self._template_cache.get((key[0], key[2]))
        if template is None:
            marked = (key[0], tuple(range(len(key[1]))), key[2])
            template = self._template_cache[(key[0], key[2])] = tuple(
                (_compile_leg(a), _compile_leg(b), c)
                for (a, b), c in self._template(marked).items()
            )
        weights = key[1]
        return [
            (
                (
                    UNIT if a is None else (a[0], a[1](weights), a[2]),
                    UNIT if b is None else (b[0], b[1](weights), b[2]),
                ),
                c,
            )
            for a, b, c in template
        ]

    def _summed_terms(self, key):
        """Delta(key) summed from coproduct_terms, not memoized."""
        out = {}
        for legs, c in self.coproduct_terms(key):
            out[legs] = out.get(legs, ZERO) + c
        return LinComb(out)

    def coproduct_key(self, key):
        if key == UNIT:
            return LinComb.basis((UNIT, UNIT))
        cached = self._coproduct_cache.get(key)
        if cached is None:
            cached = self._coproduct_cache[key] = self._summed_terms(key)
        return cached

    def counit(self, x):
        return sum((a for k, a in x.items() if k == UNIT), ZERO)

    # -- antipode: signed mirror.  A leaf is sent to its negative and
    # S(t v t') = S(t') v S(t); grafting concatenates weights and
    # decorations, so unrolled, S(t) = (-1)^deg(t) mirror(t), where mirror
    # reflects the shape and reverses the weights and decorations.

    def antipode_key(self, key):
        if key == UNIT:
            return LinComb.basis(UNIT)
        shape, weights, decs = key
        sign = -1 if len(weights) % 2 else 1
        return LinComb.basis((mirror(shape), weights[::-1], decs[::-1]), sign)

    # -- basis enumeration

    def basis_keys(self, degree, weight_bound, lie_dim):
        out = [
            (shape, weights, decs)
            for shape in shapes(degree)
            for weights in iproduct(range(weight_bound + 1), repeat=degree)
            for decs in iproduct(range(lie_dim), repeat=degree)
        ]
        out.sort(key=display_order)
        return out


# ---------------------------------------------------------------------------
# ideals


def _close_under_ops(rowspace, seeds, ops, basis_by_degree, n_max):
    """Span closure under grafting by basis trees and the shift map.

    Every inserted vector that enlarges the span is grafted against all
    basis trees within the degree budget and shifted both ways; linearity
    makes applying the closure maps to generators sufficient.  The shift
    map keeps weights and degrees, so the closure stays within the basis
    lists; it is invertible because the twist is.
    """
    queue = deque(seeds)
    while queue:
        v = queue.popleft()
        if not v or not rowspace.add(v):
            continue
        d = max_degree(v)
        for e in range(1, n_max - d + 1):
            for t in basis_by_degree.get(e, ()):
                tb = LinComb.basis(t)
                queue.append(ops.graft(v, tb))
                queue.append(ops.graft(tb, v))
        for power in (1, -1):
            queue.append(ops.a_shift(v, power))


def _reassociation_seeds(ops, basis_by_degree, n_max):
    """Instances of the reassociation relation (x v y) v a(z) - a(x) v (y v z)
    on basis trees within the degree budget."""
    seeds = []
    for d1 in range(1, n_max - 1):
        for d2 in range(1, n_max - d1):
            for d3 in range(1, n_max - d1 - d2 + 1):
                for x in basis_by_degree[d1]:
                    bx = LinComb.basis(x)
                    ax = ops.a_shift(bx)
                    for y in basis_by_degree[d2]:
                        by = LinComb.basis(y)
                        xy = ops.graft(bx, by)
                        for z in basis_by_degree[d3]:
                            bz = LinComb.basis(z)
                            seeds.append(
                                ops.graft(xy, ops.a_shift(bz))
                                - ops.graft(ax, ops.graft(by, bz))
                            )
    return seeds


def _enveloping_ideal(g, n_max):
    """The weight-0 part J0 of the reassociation and enveloping ideal on
    trees decorated by g, as (ops, row space).

    The enveloping relations are the commutators
    (xi1 xi2) - (xi2 xi1) - leaf([xi1, xi2]) and weight absorption
    (s, xi) - (0, phi^s(xi)).  Only weight 0 is closed: the reassociation
    and commutator seeds on weight-0 trees, under grafting by weight-0
    trees and the shift map, span J0 with reduction P0.  Let sigma replace
    each leaf (s, xi) by (0, phi^s(xi)).  Then v lies in the ideal exactly
    when sigma(v) lies in J0, because sigma fixes weight-0 trees, commutes
    with grafting and the shift map, and sends every seed into J0.  Every
    weighted tree t sorts before the weight-0 trees of its degree, so t is
    a pivot of the whole ideal and its reduced row is t - P0(sigma(t));
    TruncatedUEA derives those rows from J0.
    """
    ops = TreeOps(g.phi)
    weight0 = {n: ops.basis_keys(n, 0, g.dim) for n in range(1, n_max + 1)}
    t2 = (LEAF, LEAF)
    seeds = _reassociation_seeds(ops, weight0, n_max) + [
        LinComb.basis((t2, (0, 0), (x1, x2)))
        - LinComb.basis((t2, (0, 0), (x2, x1)))
        - leaves(g.bracket(x1, x2))
        for x1 in range(g.dim)
        for x2 in range(x1 + 1, g.dim)
        if n_max >= 2
    ]
    rs = RowSpace(order=pivot_order)
    _close_under_ops(rs, seeds, ops, weight0, n_max)
    return ops, rs


class _Projections(dict):
    """P0(sigma(k)) per tree key k, computed and stored on first lookup."""

    __slots__ = ("ops", "rowspace")

    def __init__(self, ops, rowspace):
        super().__init__()
        self.ops = ops
        self.rowspace = rowspace

    def __missing__(self, key):
        x = self.ops.sigma_key(key) if weighted(key) else LinComb.basis(key)
        val = self[key] = self.rowspace.reduce(x)
        return val


class TruncatedUEA(HomStructure):
    """The universal enveloping Hom-Hopf algebra of a Hom-Lie algebra,
    truncated at a tree degree.

    Normal forms are the non-pivot decorated trees after quotienting the
    budgeted tree span by the reassociation and enveloping ideals.  The
    grafting product raises TruncationOverflow past the degree bound; the
    coproduct, counit, antipode and twist are total.

    `keys` lists the normal forms, the weight-0 trees that are not pivots
    of J0; `rowspace` holds J0 only, and `ideal_rows` generates the
    weighted trees within `weight_bound` and derives their rows.  No tree
    list is kept: `ambient` is a range whose length is the number of trees
    within the weight bound.

    The twist powers, the antipode and the coproduct are linear extensions
    of per-key tables of projected images: P(a^n(k)), P(S(k)) and Delta(k)
    with projected legs.  The tables keep the images of normal forms only
    (`_stores`), so each holds at most one entry per normal form (and
    power); the image of a pivot is built again on each call.  The
    projection P0(sigma(k)) of each tree k is stored in `_projected`, which
    the coproduct reads its legs from.  The well-definedness report applies
    these maps to each ideal row's pivot and compares the image with that
    of the row's normal form, built once per report.
    """

    def __init__(self, lie, truncation_degree, ops, rowspace, weight_bound):
        self.lie = lie
        self.truncation_degree = truncation_degree
        self.ops = ops
        self.rowspace = rowspace
        self.weight_bound = weight_bound
        degrees = range(1, truncation_degree + 1)
        # only the length is read: the number of trees within the weight
        # bound, |shapes(n)| * ((W + 1) * dim)^n in degree n, and the unit
        count, labels = 1, 1
        for n in degrees:
            labels *= (weight_bound + 1) * lie.dim
            count += len(shapes(n)) * labels
        self.ambient = range(count)
        self.keys = [UNIT] + [
            k
            for n in degrees
            for k in ops.basis_keys(n, 0, lie.dim)
            if k not in rowspace.rows
        ]
        # a weighted row t - P0(sigma(t)) has the one degree of t when P0
        # preserves degree, that is when every row of J0 does
        self.graded = all(
            len({tree_degree(k) for k in row}) == 1 for row in rowspace.rows.values()
        )
        self._product_cache = {}
        self._comult_cache = {}
        self._alpha_cache = {}
        self._antipode_cache = {}
        self._projected = _Projections(ops, rowspace)

    # -- bookkeeping

    def degree(self, key):
        return tree_degree(key)

    def dims_per_degree(self):
        dims = [0] * (self.truncation_degree + 1)
        for k in self.keys:
            dims[tree_degree(k)] += 1
        return dims

    def project(self, x):
        """P0(sigma(x)); sigma runs only when x holds a weighted tree."""
        if not any(map(weighted, x)):
            return self.rowspace.reduce(x)
        return extend(self._projected.__getitem__, x)

    def _weighted_trees(self, n):
        """The trees of degree n with a leaf of nonzero weight within the
        weight bound, in pivot order: weights in descending lexicographic
        order, then shapes by `shape_code`, then decorations ascending."""
        forms = sorted(shapes(n), key=shape_code)
        for weights in iproduct(range(self.weight_bound, -1, -1), repeat=n):
            if any(weights):
                for shape in forms:
                    for decs in iproduct(range(self.lie.dim), repeat=n):
                        yield (shape, weights, decs)

    def _pivot_forms(self):
        """Each row t - P(t) of the reduced ideal as (t, P(t)), in pivot
        order: per degree from the top down, (t, P0(sigma(t))) for each
        weighted tree t, then the pivots of J0 of that degree."""
        j0 = {}
        for p in self.rowspace.pivots():
            j0.setdefault(tree_degree(p), []).append(p)
        for n in range(self.truncation_degree, 0, -1):
            for t in self._weighted_trees(n):
                yield t, self._projected[t]
            for p in j0.get(n, ()):
                yield p, LinComb.basis(p) - self.rowspace.rows[p]

    def _row(self, t, nf):
        """The row t - P(t) of `_pivot_forms`; a J0 row as it is stored."""
        return self.rowspace.rows.get(t) or LinComb.basis(t) - nf

    def ideal_rows(self):
        """Every row of the reduced ideal, in pivot order, as a list."""
        return [self._row(t, nf) for t, nf in self._pivot_forms()]

    # -- Hom-Hopf protocol

    def unit_elem(self):
        return LinComb.basis(UNIT)

    def product(self, x, y):
        return bilinear(self._product_key, x, y)

    def _product_key(self, k1, k2):
        d = tree_degree(k1) + tree_degree(k2)
        if d > self.truncation_degree:
            raise TruncationOverflow(
                "product degree %d exceeds truncation %d" % (d, self.truncation_degree)
            )
        val = self._product_cache.get((k1, k2))
        if val is None:
            val = self.project(self.ops.graft_keys(k1, k2))
            self._product_cache[(k1, k2)] = val
        return val

    def _stores(self, k):
        """The memo rule of the per-key tables: k is a normal form.  A
        pivot (a J0 pivot or a weighted tree) occurs in one ideal row only,
        so storing its image buys nothing."""
        return k not in self.rowspace.rows and not weighted(k)

    # own maps: perfbench/spans.py wraps all three through this class's __dict__
    def alpha_map(self, x):
        return extend(lambda k: self._alpha_key(1, k), x)

    def alpha_inv(self, x):
        return extend(lambda k: self._alpha_key(-1, k), x)

    def alpha_pow(self, n, x):
        return extend(lambda k: self._alpha_key(n, k), x) if n else x

    def _alpha_key(self, n, k):
        val = self._alpha_cache.get((n, k))
        if val is None:
            val = self.project(self.ops.a_shift_key(k, n))
            if self._stores(k):
                self._alpha_cache[(n, k)] = val
        return val

    def comult_map(self, x):
        return extend(self._comult_key, x)

    def _comult_key(self, k):
        val = self._comult_cache.get(k)
        if val is None:
            leg = self._projected.__getitem__
            val = pair_extend(leg, leg, self.ops.coproduct_terms(k))
            if self._stores(k):
                self._comult_cache[k] = val
        return val

    def counit_map(self, x):
        return self.ops.counit(x)

    def beta_pow(self, n, x):
        return x

    def antipode_map(self, x):
        return extend(self._antipode_key, x)

    def _antipode_key(self, k):
        val = self._antipode_cache.get(k)
        if val is None:
            val = self.project(self.ops.antipode_key(k))
            if self._stores(k):
                self._antipode_cache[k] = val
        return val

    # -- well-definedness of the induced structure

    def well_definedness_report(self):
        """M(t - P(t)) = 0 for each map M and ideal row, checked as M(t) =
        M(P(t)), M(t) first, with M(P(t)) built once per map, power and list
        of P(t)'s terms and values.  Where they differ, lhs is M(row)."""
        rep = CheckReport()
        classes = {}
        forms = [
            (t, nf, classes.setdefault(tuple(nf.items()), len(classes)))
            for t, nf in self._pivot_forms()
        ]

        def check(eq_id, m, powers=((),)):
            memo = {}

            def fn(i, *power):
                t, nf, c = forms[i]
                lhs = m(*power, LinComb.basis(t))
                if lhs == memo_lookup(memo, (c,) + power, m, *power, nf):
                    return ZERO, ZERO
                return m(*power, self._row(t, nf)), LinComb.zero()

            rep.run(eq_id, ((i,) + s for i in range(len(forms)) for s in powers), fn)

        check("ideal-counit", lambda x: LinComb.basis("k", self.ops.counit(x)))
        check("ideal-antipode", self.antipode_map)
        check("ideal-shift", self.alpha_pow, ((1,), (-1,)))
        check("ideal-coproduct", self.comult_map)
        return rep


def build_truncated_uea(g, truncation_degree, weight_bound=3):
    """Construct the truncated universal enveloping Hom-Hopf algebra."""
    if not check_hom_lie(g).passed:
        raise NotHomLie("structure constants fail the Hom-Lie axioms")
    ops, rs = _enveloping_ideal(g, truncation_degree)
    return TruncatedUEA(g, truncation_degree, ops, rs, weight_bound)


# ---------------------------------------------------------------------------
# matched-pair actions on the enveloping algebras


class UEAActionContext:
    """Recursions defining the mutual actions between U(g) and U(h) for a
    matched pair of Hom-Lie algebras, memoized at the raw-tree level.

    For trees v, v' over h and u over g (sums over coproduct legs implied):
        1 |> u = a(u)
        (v v v') |> u = a(v) |> (v' |> a^-1(u))
        v <| 1 = a(v);  1 <| u = 0 for deg(u) >= 1
        (v v v') <| u = [v <| (a^-1(v'_(1)) |> a^-2(u_(1)))] v [v'_(2) <| a^-1(u_(2))]
    A weighted leaf (s, eta) acts as sigma of itself, the weight-0 leaf of
    phi^s(eta).  A weight-0 leaf eta recurses over the tree of g:
        eta |> 1 = 0
        eta |> (s, xi) = (s, alpha^-s(eta) |> xi)
        eta |> (t v t') = (alpha^-1(eta) |> t) v a(t')
            + a(t_(1)) v [(alpha^-2(eta) <| a^-1(t_(2))) |> t']
        eta <| (s, xi) = eta <| phi^s(xi)
        eta <| (t v t') = (alpha^-1(eta) <| t) <| a(t')
    where alpha^-k(eta) is the shifted leaf and eta <| t is a combination
    of weight-0 leaves.  Each join rule returns a term as soon as the
    factor it computes first is zero: the actor of a |> term, the right
    factor v'_(2) <| a^-1(u_(2)) of a <| term.

    Since sigma commutes with alpha and grafting, two identities hold for
    every weighted h-tree t and every g-tree u, whatever the input:
        omega|>(t, u) = omega|>(sigma t, u)    as combinations,
        sigma(omega<|(t, u)) = omega<|(sigma t, u),
    where the raw <| images differ, because v <| 1 = a(v) keeps weights.

    A weighted g-leaf (s, xi) is not read through sigma_g: eta acts on it
    through alpha^-s(eta).  When both Lie actions meet `lie-module-i`,
    gamma(xi.v) = phi(xi).gamma(v), which the lift reads off the report
    of `check_matched_pair_lie`, its iterate
        phi_g^s(alpha^-s(eta) |> xi) = eta |> phi_g^s(xi)
    is the leaf case of an induction over the recursions, which gives, for
    every h-tree v and every weighted g-tree t,
        sigma_g(omega|>(v, t)) = sigma_g(omega|>(v, sigma_g t)),
        omega<|(v, t) = omega<|(v, sigma_g t).
    Without it both can fail.
    """

    def __init__(self, pair):
        self.pair = pair
        self.g = pair.g
        self.h = pair.h
        self.gops = TreeOps(pair.g.phi)
        self.hops = TreeOps(pair.h.phi)
        self._omega_left = {}
        self._omega_right = {}

    # Omega |> u : U(h)-tree acting on U(g)-trees

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
                if not actor:
                    return actor
                return self.gops.graft(
                    self.gops.a_shift_key(t[0]), self.omega_left(actor, LinComb.basis(kr))
                )

            out = head + extend(term, self.gops.coproduct_key(kl))
        self._omega_left[(vkey, ukey)] = out
        return out

    def omega_left(self, v, u):
        return bilinear(self.omega_left_key, v, u)

    # Omega <| u : U(g)-trees acting on U(h)-trees from the right

    def omega_right_key(self, vkey, ukey):
        memo = self._omega_right.get((vkey, ukey))
        if memo is not None:
            return memo
        if ukey == UNIT:
            out = self.hops.a_shift_key(vkey)
        elif vkey == UNIT:
            out = LinComb.zero()  # 1 <| u = eps(u) 1 and deg(u) >= 1 here
        elif vkey[0] != LEAF:
            vl, vr = split(vkey)

            def term(o, t):
                right = self.omega_right(
                    LinComb.basis(o[1]), self.gops.a_shift_key(t[1], -1)
                )
                if not right:
                    return right
                inner = self.omega_left(
                    self.hops.a_shift_key(o[0], -1), self.gops.a_shift_key(t[0], -2)
                )
                left = self.omega_right(LinComb.basis(vl), inner)
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

    def omega_right(self, v, u):
        return bilinear(self.omega_right_key, v, u)


def _ideal_failure(ctx, ug, uh, pairs, messages):
    """The refusal of the first (v, u) of pairs, v in U(h) and u in U(g),
    with v |> u nonzero in U(g) (messages[0]) or v <| u nonzero in U(h)
    (messages[1]); None if there is none."""
    for v, u in pairs:
        if ug.project(ctx.omega_left(v, u)):
            return messages[0]
        if uh.project(ctx.omega_right(v, u)):
            return messages[1]
    return None


def lift_to_Uh_action(pair, truncation_degree, weight_bound=3):
    """Lift the matched-pair actions to the truncated enveloping algebras.

    Returns the matched pair of U(g) and U(h) whose tables, over
    normal-form bases, hold v |> u in U(g) and v <| u in U(h), both keyed
    (v, u) with v a U(h) key and u a U(g) key.  Both ideals are first
    verified to be stable under the actions, so the tables are well defined
    on the quotients; NotHomLie is raised otherwise.  Then a pair that
    fails `check_matched_pair_lie` (run once, first) raises NotMatchedPair.

    Each ideal is accepted through its stored rows J0.  For the h-ideal,
    on every U(g) normal form, that always suffices: every weighted row is
    t - P0(sigma t), the projection P_h of U(h) satisfies
    P_h(sigma x) = P_h(x), and by the identities of UEAActionContext the
    row acts, after projection, as sigma t - P0(sigma t) does, which is a
    combination of J0 rows.  For the g-ideal, on every U(h) normal form,
    it suffices when both Lie actions pass `lie-module-i`,
    gamma(xi.v) = phi(xi).gamma(v): then, by the second pair of
    identities of UEAActionContext and P_g = P0 sigma_g, the weighted
    row t - P0(sigma_g t) acts, after projection, as
    sigma_g t - P0(sigma_g t) does.  When the twists are not compatible,
    or a J0 row is not preserved, every row of `ideal_rows` is walked in
    pivot order, so that the refusal is that of the first row that fails;
    the weighted g-rows then test the twist compatibility and its powers.
    """
    rep = check_matched_pair_lie(pair)
    ug = build_truncated_uea(pair.g, truncation_degree, weight_bound)
    uh = build_truncated_uea(pair.h, truncation_degree, weight_bound)
    ctx = UEAActionContext(pair)

    vs = [LinComb.basis(k) for k in uh.basis_keys()]
    us = [LinComb.basis(k) for k in ug.basis_keys()]
    twists = all(q.passed for q in rep.equations if q.eq_id.endswith("/lie-module-i"))
    for alg, j0_suffices, pairs, messages in (
        (ug, twists, lambda rows: ((v, r) for v in vs for r in rows),
         ("h-action does not preserve the g-ideal",
          "right action does not preserve the g-ideal")),
        (uh, True, lambda rows: ((r, u) for r in rows for u in us),
         ("lifted action does not kill the h-ideal",
          "right action does not kill the h-ideal")),
    ):
        j0 = pairs(alg.rowspace.basis_rows())
        if not j0_suffices or _ideal_failure(ctx, ug, uh, j0, messages):
            failure = _ideal_failure(ctx, ug, uh, pairs(alg.ideal_rows()), messages)
            if failure:
                raise NotHomLie(failure)

    left_table = {}
    right_table = {}
    for vkey in uh.basis_keys():
        for ukey in ug.basis_keys():
            left_table[(vkey, ukey)] = ug.project(
                ctx.omega_left_key(vkey, ukey)
            )
            right_table[(vkey, ukey)] = uh.project(
                ctx.omega_right_key(vkey, ukey)
            )
    if not rep.passed:
        q = next(q for q in rep.equations if not q.passed)
        raise NotMatchedPair(
            "%s fails on %d of %d tuples" % (q.eq_id, len(q.violations), q.checked)
        )
    return MatchedPairHopf(ug, uh, left_table, right_table)
