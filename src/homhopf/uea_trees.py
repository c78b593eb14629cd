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
t - P0(sigma(t)) is derived on demand, never stored.
"""

from collections import deque
from itertools import product as iproduct
from math import prod

from .cross_products import MatchedPairHopf
from .errors import NotHomLie, TruncationOverflow
from .foundation import (
    ZERO,
    LinComb,
    RowSpace,
    bilinear,
    extend,
    pair_extend,
)
from .hom_core import CheckReport
from .hom_lie import check_hom_lie

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


def shape_code(shape):
    """Preorder serialization: stable total order on shapes."""
    if shape == LEAF:
        return (0,)
    return (1,) + shape_code(shape[0]) + shape_code(shape[1])


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


def leaves(x, weight=0):
    """The single-leaf trees of one weight decorated by a Lie combination x."""
    return extend(lambda j: LinComb.basis((LEAF, (weight,), (j,))), x)


def _relabel(leg, weights):
    """A coproduct template leg with leaf position i read as weights[i]."""
    if leg == UNIT:
        return UNIT
    return (leg[0], tuple([weights[i] for i in leg[1]]), leg[2])


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
    """

    def __init__(self, phi):
        self.phi = phi
        self._shift_cache = {}
        self._phi_powers = {}
        self._coproduct_cache = {}
        self._template_cache = {}
        self._antipode_cache = {}

    # -- shift map

    def a_shift_key(self, key, power=1):
        if key == UNIT or power == 0:
            return LinComb.basis(key)
        cached = self._shift_cache.get((key, power))
        if cached is not None:
            return cached
        out = self.phi_leafwise(key, (power,) * len(key[1]), key[1])
        self._shift_cache[(key, power)] = out
        return out

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
    # through the weights of t; distinct template terms meet when t repeats
    # a weight.  TruncatedUEA projects these terms as they come, so it never
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
            template = self._template(marked)
            self._template_cache[(key[0], key[2])] = template
        weights = key[1]
        return [
            ((_relabel(a, weights), _relabel(b, weights)), c)
            for (a, b), c in template.items()
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

    # -- antipode: signed mirror

    def antipode_key(self, key):
        if key == UNIT:
            return LinComb.basis(UNIT)
        cached = self._antipode_cache.get(key)
        if cached is not None:
            return cached
        if key[0] == LEAF:
            out = -1 * LinComb.basis(key)
        else:
            kl, kr = split(key)
            out = self.graft(self.antipode_key(kr), self.antipode_key(kl))
        self._antipode_cache[key] = out
        return out

    def antipode(self, x):
        return extend(self.antipode_key, x)

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


class TruncatedUEA:
    """The universal enveloping Hom-Hopf algebra of a Hom-Lie algebra,
    truncated at a tree degree.

    Normal forms are the non-pivot decorated trees after quotienting the
    budgeted tree span by the reassociation and enveloping ideals.  The
    grafting product raises TruncationOverflow past the degree bound; the
    coproduct, counit, antipode and twist are total.

    `ambient` lists every tree within the weight bound; `rowspace` holds
    J0 only, and `ideal_rows` derives the rows of the weighted trees.
    """

    is_truncated = True

    def __init__(self, lie, truncation_degree, ops, rowspace, ambient):
        self.lie = lie
        self.truncation_degree = truncation_degree
        self.ops = ops
        self.rowspace = rowspace
        self.ambient = ambient
        self._weighted = frozenset(k for k in ambient if k != UNIT and any(k[1]))
        self.nf_keys = [
            k for k in ambient if k not in self._weighted and k not in rowspace.rows
        ]
        self.nf_keys.sort(key=display_order)
        # a weighted row t - P0(sigma(t)) has the one degree of t when P0
        # preserves degree, that is when every row of J0 does
        self.graded = all(
            len({tree_degree(k) for k in row}) == 1 for row in rowspace.rows.values()
        )
        self._product_cache = {}
        self._comult_cache = {}
        self._projected = {}

    # -- bookkeeping

    def basis_keys(self):
        return list(self.nf_keys)

    def degree(self, key):
        return tree_degree(key)

    def dims_per_degree(self):
        dims = [0] * (self.truncation_degree + 1)
        for k in self.nf_keys:
            dims[tree_degree(k)] += 1
        return dims

    def project(self, x):
        """P0(sigma(x)); sigma runs only when x holds a weighted tree."""
        if self._weighted.isdisjoint(x.terms):
            return self.rowspace.reduce(x)
        return extend(self._projected_key, x)

    def ideal_rows(self):
        """Every row of the reduced ideal, in pivot order: the stored rows
        of J0 and t - P0(sigma(t)) for each weighted tree t."""
        rows = {t: LinComb.basis(t) - self._projected_key(t) for t in self._weighted}
        rows.update(self.rowspace.rows)
        return [rows[p] for p in sorted(rows, key=pivot_order)]

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

    def alpha_map(self, x):
        return self.project(self.ops.a_shift(x, 1))

    def alpha_inv(self, x):
        return self.project(self.ops.a_shift(x, -1))

    def alpha_pow(self, n, x):
        return self.project(self.ops.a_shift(x, n)) if n else x

    def comult_map(self, x):
        return extend(self._comult_key, x)

    def _comult_key(self, k):
        val = self._comult_cache.get(k)
        if val is None:
            leg = self._projected_key
            val = pair_extend(leg, leg, self.ops.coproduct_terms(k))
            # a pivot occurs in one ideal row only: caching it buys nothing
            if k not in self.rowspace.rows and k not in self._weighted:
                self._comult_cache[k] = val
        return val

    def _projected_key(self, key):
        val = self._projected.get(key)
        if val is None:
            x = self.ops.sigma_key(key) if key in self._weighted else LinComb.basis(key)
            val = self._projected[key] = self.rowspace.reduce(x)
        return val

    def counit_map(self, x):
        return self.ops.counit(x)

    def beta_map(self, x):
        return x

    def beta_inv(self, x):
        return x

    def beta_pow(self, n, x):
        return x

    def antipode_map(self, x):
        return self.project(self.ops.antipode(x))

    # -- well-definedness of the induced structure

    def well_definedness_report(self):
        rep = CheckReport()
        rows = self.ideal_rows()
        rep.run(
            "ideal-counit",
            [(i,) for i in range(len(rows))],
            lambda i: (LinComb.basis("k", self.ops.counit(rows[i])), LinComb.zero()),
        )
        rep.run(
            "ideal-antipode",
            [(i,) for i in range(len(rows))],
            lambda i: (self.project(self.ops.antipode(rows[i])), LinComb.zero()),
        )
        rep.run(
            "ideal-shift",
            [(i, s) for i in range(len(rows)) for s in (1, -1)],
            lambda i, s: (self.project(self.ops.a_shift(rows[i], s)), LinComb.zero()),
        )

        rep.run(
            "ideal-coproduct",
            [(i,) for i in range(len(rows))],
            lambda i: (self.comult_map(rows[i]), LinComb.zero()),
        )
        return rep


def build_truncated_uea(g, truncation_degree, weight_bound=3):
    """Construct the truncated universal enveloping Hom-Hopf algebra."""
    if not check_hom_lie(g).passed:
        raise NotHomLie("structure constants fail the Hom-Lie axioms")
    ops, rs = _enveloping_ideal(g, truncation_degree)
    ambient = [UNIT]
    for n in range(1, truncation_degree + 1):
        ambient.extend(ops.basis_keys(n, weight_bound, g.dim))
    return TruncatedUEA(g, truncation_degree, ops, rs, ambient)


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


def _h_ideal_failure(ctx, ug, uh, rows):
    """Why the first of rows that some U(g) normal form does not kill,
    under either lifted action, is refused; None if there is none."""
    for row in rows:
        for ukey in ug.basis_keys():
            if ug.project(ctx.omega_left(row, LinComb.basis(ukey))):
                return "lifted action does not kill the h-ideal"
            if uh.project(ctx.omega_right(row, LinComb.basis(ukey))):
                return "right action does not kill the h-ideal"
    return None


def lift_to_Uh_action(pair, truncation_degree, weight_bound=3):
    """Lift the matched-pair actions to the truncated enveloping algebras.

    Returns the matched pair of U(g) and U(h) whose tables, over
    normal-form bases, hold v |> u in U(g) and v <| u in U(h), both keyed
    (v, u) with v a U(h) key and u a U(g) key.  Both ideals are first
    verified to be stable under the actions, so the tables are well defined
    on the quotients; NotHomLie is raised otherwise.

    Every row of the g-ideal (`ideal_rows`) is checked on every U(h) normal
    form: its weighted rows test that the actions commute with the twist.
    The h-ideal is accepted through the stored rows J0, on every U(g) normal
    form.  That suffices: every weighted row is t - P0(sigma t), so the
    projection P_h of U(h) satisfies P_h(sigma x) = P_h(x), and by the
    identities of UEAActionContext the row acts, after projection, as
    sigma t - P0(sigma t) does, which is a combination of J0 rows.  When a
    J0 row is not killed, every row is walked in pivot order, so that the
    refusal is that of the first row that fails.
    """
    ug = build_truncated_uea(pair.g, truncation_degree, weight_bound)
    uh = build_truncated_uea(pair.h, truncation_degree, weight_bound)
    ctx = UEAActionContext(pair)

    g_rows = ug.ideal_rows()
    for vkey in uh.basis_keys():
        for row in g_rows:
            if ug.project(ctx.omega_left(LinComb.basis(vkey), row)):
                raise NotHomLie("h-action does not preserve the g-ideal")
            if uh.project(ctx.omega_right(LinComb.basis(vkey), row)):
                raise NotHomLie("right action does not preserve the g-ideal")
    if _h_ideal_failure(ctx, ug, uh, uh.rowspace.basis_rows()):
        raise NotHomLie(_h_ideal_failure(ctx, ug, uh, uh.ideal_rows()))

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
    return MatchedPairHopf(ug, uh, left_table, right_table)
