"""Module/comodule (co)algebra symmetry checkers, matched pairs of Hom-Hopf
algebras with their double cross product, and mutual pairs with their
bicrossproduct.

All checkers enumerate basis tuples exhaustively.  When a factor is degree
truncated, tuples whose intermediate products leave the budget are skipped
and counted, so reports carry an honest coverage fraction.  For a dual
factor truncated past degree 0 the mutual-pair equations are evaluated
pairing-wise: every functional leg is paired against the normal-form test
vectors of each degree, which reduces each equation to exact rational
arithmetic.  A finite dual factor is compared leg for leg.
"""

from .errors import TruncationOverflow
from .foundation import (
    ZERO,
    LinComb,
    bilinear,
    extend,
)
from .hom_core import (
    CheckReport,
    HomStructure,
    _comult_compat,
    _comult_twist,
    _counit_compat,
    _counit_leg,
    _pairs,
    _twist_compat,
    _unit_compat,
    check_hom_comodule,
    check_memo,
    memo_lookup,
    module_axioms,
)

e = LinComb.basis


# ---------------------------------------------------------------------------
# the module-coalgebra block of both sides of a matched pair.  The equation
# forms that it and the checkers below share with one another and with
# hom_core's checkers are written once in hom_core (`_twist_compat`,
# `_comult_compat`, `_counit_compat`, `_unit_compat`, `_comult_twist`,
# `_counit_leg`); here they run over basis keys, (x key, y key) in that
# order for a pair, so a failure is named by its keys


def _module_coalgebra(rep, prefix, x, y, target, act):
    """Hom-module coalgebra conditions of act: x on y, valued in target:
    beta-compatibility, diagonal coproduct, counit kill."""
    _twist_compat(
        rep, prefix + "Hom-mod-coalg-00", _pairs(x, y), act,
        target.beta_map, x.beta_map, y.beta_map,
    )
    _comult_compat(rep, prefix + "Hom-mod-coalg-I", x, y, target, act)
    _counit_compat(rep, prefix + "Hom-mod-coalg-II", x, y, target, act)


# ---------------------------------------------------------------------------
# the module and comodule symmetry checkers


def check_module_algebra(h, a, act):
    """Hom-module algebra conditions for a left action of h on the algebra a:
    alpha(h |> x) = psi(h) |> alpha(x);
    psi^2(h) |> (x . y) = (h_(1) |> x) . (h_(2) |> y);
    h |> 1 = eps(h) 1."""
    rep = CheckReport()
    hk = h.basis_keys()
    ak = a.basis_keys()
    _twist_compat(
        rep, "Hom-mod-alg-00", _pairs(h, a), act, a.alpha_map, h.beta_map, a.alpha_map
    )

    def diag(i, j, k):
        x, y = e(j), e(k)
        lhs = act(h.beta_pow(2, e(i)), a.product(x, y))
        rhs = extend(
            lambda t: a.product(act(e(t[0]), x), act(e(t[1]), y)),
            h.comult_map(e(i)),
        )
        return lhs, rhs

    rep.run("Hom-mod-alg-I", [(i, j, k) for i in hk for j in ak for k in ak], diag)
    _unit_compat(rep, "Hom-mod-alg-II", h, a, act)
    return rep


def check_comodule_coalgebra(h, c, coact):
    """Hom-comodule coalgebra conditions for a right coaction of h on c."""
    rep = CheckReport()
    ck = c.basis_keys()
    beta = c.beta_map
    _comult_twist(rep, "Hom-comod-coalg-00", ck, e, coact, beta, beta, h.alpha_map)

    def cond1(j):
        # c_(0)(1) x c_(0)(2) x phi^2(c_(1)) = c_(1)(0) x c_(2)(0) x c_(1)(1).c_(2)(1)
        def split(s):
            tail = h.alpha_pow(2, e(s[1]))
            return extend(lambda t: e(t[0]) @ (e(t[1]) @ tail), c.comult_map(e(s[0])))

        def glue(s1, s2):
            return e(s1[0]) @ (e(s2[0]) @ h.product(e(s1[1]), e(s2[1])))

        lhs = extend(split, coact(e(j)))
        rhs = extend(
            lambda t: bilinear(glue, coact(e(t[0])), coact(e(t[1]))),
            c.comult_map(e(j)),
        )
        return lhs, rhs

    rep.run("Hom-comod-coalg-I", [(j,) for j in ck], cond1)
    _counit_leg(
        rep, "Hom-comod-coalg-II", ck, e, coact, c.counit_map, 0,
        lambda x: c.counit_map(x) * h.unit_elem(),
    )
    return rep


# ---------------------------------------------------------------------------
# matched pairs and the double cross product


class MatchedPairHopf:
    """Two Hom-Hopf-type objects with mutual actions.

    left[(v, u)] is v |> u in U; right[(v, u)] is v <| u in V.  U carries
    twists (phi, psi) = (alpha_U, beta_U), V carries (alpha, beta).
    """

    def __init__(self, u, v, left, right):
        self.u = u
        self.v = v
        self.left = dict(left)
        self.right = dict(right)

    def lt(self, v, u):
        return bilinear(lambda i, j: self.left[(i, j)], v, u)

    def rt(self, v, u):
        return bilinear(lambda i, j: self.right[(i, j)], v, u)


def check_matched_pair_hopf(p):
    """Module axioms, module-coalgebra conditions, the two twist
    compatibilities, and the four mixed equations."""
    rep = CheckReport()
    U, V = p.u, p.v
    uk, vk = U.basis_keys(), V.basis_keys()

    # Hom-module axioms; the right ones are written out because their
    # tuples put the carrier first
    module_axioms(rep, "left", V, uk, p.lt, U.alpha_map)
    rep.run(
        "right-module-assoc",
        [(i, j, k) for i in vk for j in uk for k in uk],
        lambda i, j, k: (
            p.rt(V.alpha_map(e(i)), U.product(e(j), e(k))),
            p.rt(p.rt(e(i), e(j)), U.alpha_map(e(k))),
        ),
    )
    rep.run(
        "right-module-unit",
        [(i,) for i in vk],
        lambda i: (p.rt(e(i), U.unit_elem()), V.alpha_map(e(i))),
    )

    # module-coalgebra conditions and twist compatibility of |> (values in
    # U), then of <| (values in V)
    for side, act, target, compat in (
        ("lt", p.lt, U, "rt-phi-compatibility"),
        ("rt", p.rt, V, "lt-a-compatibility"),
    ):
        _module_coalgebra(rep, side + "/", V, U, target, act)
        _twist_compat(
            rep, compat, _pairs(V, U), act, target.alpha_map, V.alpha_map, U.alpha_map
        )

    # the four mixed equations; each sub-term on coproduct legs is built once per check
    once = check_memo()

    def first(v0, u0):
        return p.lt(V.alpha_inv(V.beta_inv(e(v0))), U.beta_inv(e(u0)))

    def inner(v1, u1):
        return p.rt(V.alpha_pow(-2, V.beta_inv(e(v1))), U.alpha_inv(U.beta_inv(e(u1))))

    def v_rt_uu(i, j, k):
        v, u, u2 = e(i), e(j), e(k)
        lhs = p.lt(v, U.product(u, u2))

        def term(vs, us):
            return U.product(
                once(first, vs[0], us[0]), p.lt(once(inner, vs[1], us[1]), u2)
            )

        return lhs, bilinear(term, V.comult_map(v), U.comult_map(u))

    rep.run("v-rt-uu'", [(i, j, k) for i in vk for j in uk for k in uk], v_rt_uu)

    def lt_inner(w0, u0):
        return p.lt(V.alpha_inv(V.beta_inv(e(w0))), U.alpha_pow(-2, U.beta_inv(e(u0))))

    def second(w1, u1):
        return p.rt(V.beta_inv(e(w1)), U.alpha_inv(U.beta_inv(e(u1))))

    def vv_rt_u(i, j, k):
        v, v2, u = e(i), e(j), e(k)
        lhs = p.rt(V.product(v, v2), u)

        def term(ws, us):
            mid, rest = once(lt_inner, ws[0], us[0]), once(second, ws[1], us[1])
            return V.product(p.rt(v, mid), rest)

        return lhs, bilinear(term, V.comult_map(v2), U.comult_map(u))

    rep.run("vv'-lt-u", [(i, j, k) for i in vk for j in vk for k in uk], vv_rt_u)

    def switch(i, k):
        dv, du = V.comult_map(e(i)), U.comult_map(e(k))
        lhs = bilinear(
            lambda s, t: p.rt(e(s[0]), e(t[0])) @ p.lt(e(s[1]), e(t[1])), dv, du
        )
        rhs = bilinear(
            lambda s, t: p.rt(e(s[1]), e(t[1])) @ p.lt(e(s[0]), e(t[0])), dv, du
        )
        return lhs, rhs

    rep.run("v-lt-u-ot-v-rt-u-switch", _pairs(V, U), switch)
    _unit_compat(rep, "actions-on-1", V, U, p.lt)
    _unit_compat(rep, "actions-on-1-right", U, V, lambda u, v: p.rt(v, u))
    return rep


class _TensorHopf(HomStructure):
    """What the double cross product and the bicrossproduct share: the pair
    basis of A x B, the unit, the counit and twists applied leg by leg.
    Each subclass names the factor powers that make up its twists in
    `_twists`: "alpha" and "beta" -> (n-th power on A, n-th power on B),
    and computes one product of basis keys in `product_keys`.

    The product, the twist powers, the coproduct and the antipode are
    compiled lazily, one key pair or key at a time, once per instance;
    every later call reads the stored value.
    """

    def __init__(self, a, b):
        self._factors = (a, b)
        self.keys = [(ka, kb) for ka in a.basis_keys() for kb in b.basis_keys()]
        # (k1, k2) -> product, (map, k) -> image of k under the coproduct,
        # the antipode or a twist power (map = (name, n)); a factor key is
        # never a map name, so the two kinds of entry never collide
        self._memo = {}

    def _product_key(self, k1, k2):
        val = self._memo.get((k1, k2))
        if type(val) is LinComb:
            return val
        return memo_lookup(self._memo, (k1, k2), self.product_keys, k1, k2)

    def _keywise(self, name, build, x):
        """Linear extension of the basis map build, stored under (name, k)."""
        return extend(lambda k: memo_lookup(self._memo, (name, k), build, k), x)

    def _twist_pow(self, name, n, x):
        f, g = self._twists[name]
        return self._keywise((name, n), lambda k: f(n, e(k[0])) @ g(n, e(k[1])), x)

    def alpha_pow(self, n, x):
        return self._twist_pow("alpha", n, x)

    def beta_pow(self, n, x):
        return self._twist_pow("beta", n, x)

    def unit_elem(self):
        a, b = self._factors
        return a.unit_elem() @ b.unit_elem()

    def counit_map(self, x):
        a, b = self._factors
        out = ZERO
        for (ka, kb), c in x.items():
            out += c * a.counit_map(e(ka)) * b.counit_map(e(kb))
        return out


class DoubleCrossProduct(_TensorHopf):
    """The double cross product on U x V with componentwise twists.

    (u, v)(u', v') = u (a^-1 b^-1(v1) |> f^-1 p^-1(u'1))
                       x (a^-1 b^-1(v2) <| f^-1 p^-1(u'2)) v'
    with f = alpha_U, p = beta_U, a = alpha_V, b = beta_V.  Its |> leg per
    (v1, u'1) and its <| leg per (v2, u'2) are kept in `_legs` and read as
    `Bicrossproduct` reads its legs: an overflow is stored, any other error
    escapes.
    """

    def __init__(self, pair):
        _TensorHopf.__init__(self, pair.u, pair.v)
        self.pair = pair
        self.u = U = pair.u
        self.v = V = pair.v
        self._twists = {
            "alpha": (U.alpha_pow, V.alpha_pow),
            "beta": (U.beta_pow, V.beta_pow),
        }
        # ("lt", V key, U key) -> mid, ("rt", V key, U key) -> tail
        self._legs = {}

    def product_keys(self, k1, k2):
        U, V, p, legs = self.u, self.v, self.pair, self._legs
        u, v2 = e(k1[0]), e(k2[1])

        def shifted(k, side):
            # a^-1 b^-1 on the V leg and f^-1 p^-1 on the U leg
            return side.alpha_inv(side.beta_inv(e(k)))

        def acted(act, kv, ku):
            return act(shifted(kv, V), shifted(ku, U))

        def term(vs, us):
            mid = memo_lookup(legs, ("lt", vs[0], us[0]), acted, p.lt, vs[0], us[0])
            tail = memo_lookup(legs, ("rt", vs[1], us[1]), acted, p.rt, vs[1], us[1])
            return U.product(u, mid) @ V.product(tail, v2)

        return bilinear(term, V.comult_map(e(k1[1])), U.comult_map(e(k2[0])))

    # not on _TensorHopf: perfbench/spans.py wraps it through this class's __dict__
    def product(self, x, y):
        return bilinear(self._product_key, x, y)

    def comult_map(self, x):
        U, V = self.u, self.v

        def comult_key(k):
            return bilinear(
                lambda s, t: e(((s[0], t[0]), (s[1], t[1]))),
                U.comult_map(e(k[0])),
                V.comult_map(e(k[1])),
            )

        return self._keywise("comult", comult_key, x)

    def antipode_map(self, x):
        U, V = self.u, self.v

        def antipode_key(k):
            left = U.unit_elem() @ V.antipode_map(V.alpha_inv(e(k[1])))
            right = U.antipode_map(U.alpha_inv(e(k[0]))) @ V.unit_elem()
            return self.product(left, right)

        return self._keywise("antipode", antipode_key, x)


# ---------------------------------------------------------------------------
# mutual pairs and the bicrossproduct


class MutualPairHopf:
    """A Hom-Hopf pair (F, U) with an action of U on F and a coaction of U
    into U x F, both finite tables, as `bicross` inputs give them.

    action[(u, f)] is u |> f in F; coaction[u] is nabla(u) as a combination
    over (u', f) pairs.
    """

    def __init__(self, f, u, action, coaction):
        self.f = f
        self.u = u
        self.action = dict(action)
        self.coaction = dict(coaction)

    def act(self, u, f):
        return bilinear(lambda i, j: self.action[(i, j)], u, f)

    def coaction_legs(self, x):
        return extend(self.coaction.__getitem__, x)


class GradedMutualPair(MutualPairHopf):
    """The semidual of a matched pair: F is the degreewise dual of its
    second factor V, a truncated enveloping algebra or a finite one read as
    its truncation at degree 0, and the coaction exists through its
    pairings, u_(0) <u_(1), w> = alpha^-2(w) |> u, read from the left
    action of the matched pair.

    The coaction is complete, so that coaction_legs is exact, when F is
    finite, which retains all of V at degree 0, or when the left action has
    the counital pattern v |> u = eps(v) alpha_U(u); then its dual support
    is concentrated on the unit functional.  (For enveloping algebras the
    in-budget pattern forces the Lie-level action to vanish, which
    propagates the pattern to all degrees through the recursion.)
    """

    def __init__(self, f, u, action, matched_pair):
        self.f = f
        self.u = u
        self.v = f.v
        self.action = dict(action)
        self.mp = matched_pair
        self.coaction_complete = f.truncation_degree == 0 or self._counital_pattern()
        # (U key, V key) -> nabla(e_u) paired with e_w, and (U key,) -> the
        # coaction column of e_u
        self._nabla = {}

    def _counital_pattern(self):
        for (vkey, ukey), val in self.mp.left.items():
            eps = self.v.counit_map(e(vkey))
            if val != eps * self.u.alpha_map(e(ukey)):
                return False
        return True

    def _nabla_key(self, i, w):
        return memo_lookup(
            self._nabla, (i, w), lambda: self.mp.lt(self.v.alpha_pow(-2, e(w)), e(i))
        )

    def nabla_pair(self, u, w):
        """The defining pairing of the coaction, u_(0) <u_(1), w> =
        alpha^-2(w) |> u, extended bilinearly from a table of basis pairs
        filled on first use."""
        return bilinear(self._nabla_key, u, w)

    def coaction_legs(self, x):
        if not self.coaction_complete:
            raise TruncationOverflow(
                "coaction support exceeds the retained dual degrees"
            )
        return self.coaction_legs_truncated(x)

    def _column(self, i):
        vk = self.v.basis_keys()
        return LinComb._wrap(
            {(k2, w): c for w in vk for k2, c in self._nabla_key(i, w).items()}
        )

    def coaction_legs_truncated(self, x):
        """Coaction with dual legs restricted to the retained degrees; exact
        when coaction_complete, a declared truncation otherwise.  Each
        column sum_w (alpha^-2(w) |> u) x w* is built once."""
        return extend(lambda i: memo_lookup(self._nabla, (i,), self._column, i), x)


def check_mutual_pair(m):
    """A finite F (truncation degree 0) is checked leg for leg from its
    coaction; a truncated one pairing-wise, against the retained test
    vectors."""
    if m.f.truncation_degree:
        return _check_mutual_pair_graded(m)
    return _check_mutual_pair_finite(m)


def _check_action_side(m):
    """The equations on the action alone, shared by the finite and the
    graded checker: Hom-module axioms, module-algebra conditions, and the
    compatibility of the action with the twists."""
    rep = CheckReport()
    F, U = m.f, m.u
    module_axioms(rep, "left", U, F.basis_keys(), m.act, F.beta_map)
    rep.merge(check_module_algebra(U, F, m.act))
    _twist_compat(
        rep, "rt-f-comp", _pairs(U, F), m.act, F.beta_map, U.alpha_map, F.beta_map
    )
    return rep


def _check_mutual_pair_finite(m):
    F, U = m.f, m.u
    fk, uk = F.basis_keys(), U.basis_keys()
    rep = _check_action_side(m)

    rep.merge(
        check_hom_comodule(F, uk, m.coaction_legs, U.alpha_map), prefix="coaction/"
    )
    rep.merge(check_comodule_coalgebra(F, U, m.coaction_legs))
    _comult_twist(
        rep, "lt-f-comp", uk, e, m.coaction_legs, U.alpha_map, U.alpha_map, F.beta_map
    )

    # each sub-term of comp-I and comp-III on legs alone is built once per check
    once = check_memo()

    def first(m0, f0):
        return m.act(U.beta_inv(e(m0)), e(f0))

    def second(m1, u1, f1):
        tail = U.alpha_map(U.beta_pow(-2, e(u1)))
        shifted = F.alpha_pow(-4, F.beta_pow(3, e(m1)))
        return F.product(shifted, m.act(tail, F.alpha_inv(e(f1))))

    def comp1(i, k):
        u, f = e(i), e(k)
        lhs = F.comult_map(m.act(u, f))
        fd = F.comult_map(f)

        def over_u(us):
            def term(ms, fs):
                return once(first, ms[0], fs[0]) @ once(second, ms[1], us[1], fs[1])

            return bilinear(term, m.coaction_legs(e(us[0])), fd)

        return lhs, extend(over_u, U.comult_map(u))

    rep.run("comp-I", [(i, k) for i in uk for k in fk], comp1)
    _counit_compat(rep, "comp-II", U, F, F, m.act)

    def upart(a0, b0):
        return U.product(U.beta_inv(e(a0)), e(b0))

    def fpart(a1, u1, b1):
        shifted = F.alpha_pow(-2, F.beta_map(e(a1)))
        return F.product(shifted, m.act(U.alpha_inv(e(u1)), F.alpha_inv(e(b1))))

    def comp3(i, j):
        u, u2 = e(i), e(j)
        lhs = m.coaction_legs(U.product(u, u2))
        legs2 = m.coaction_legs(u2)

        def over_u(us):
            def term(s1, s2):
                return once(upart, s1[0], s2[0]) @ once(fpart, s1[1], us[1], s2[1])

            return bilinear(term, m.coaction_legs(e(us[0])), legs2)

        return lhs, extend(over_u, U.comult_map(u))

    rep.run("comp-III", [(i, j) for i in uk for j in uk], comp3)

    def comp4(i, k):
        u, f = e(i), e(k)
        du = U.comult_map(u)

        def shifted(x):
            return F.alpha_pow(-2, F.beta_pow(2, e(x)))

        lhs = extend(
            lambda us: extend(
                lambda ms: e(ms[0]) @ F.product(shifted(ms[1]), m.act(e(us[1]), f)),
                m.coaction_legs(e(us[0])),
            ),
            du,
        )
        rhs = extend(
            lambda us: extend(
                lambda ms: e(ms[0]) @ F.product(m.act(e(us[0]), f), shifted(ms[1])),
                m.coaction_legs(e(us[1])),
            ),
            du,
        )
        return lhs, rhs

    rep.run("comp-IV", [(i, k) for i in uk for k in fk], comp4)
    return rep


def _check_mutual_pair_graded(m):
    """Pairing-wise evaluation of the mutual-pair equations: every dual leg
    is contracted against normal-form test vectors within the budget.

    The image of each coproduct leg, alpha_V^-2(w1 w2) and u |> f are built
    once per check (`check_memo`), and comp-I pairs with f only at the end,
    so its right side is built once per (u, w1, w2).  An overflow raises on
    every lookup, so a tuple is skipped exactly when its direct evaluation
    would be.  comp-IV cannot fail on a pair of enveloping algebras: its two
    sides swap the legs of Delta(u) and Delta(w), and both coproducts are
    cocommutative."""
    F, U, V = m.f, m.u, m.v
    n = V.truncation_degree
    fk, uk, vk = F.basis_keys(), U.basis_keys(), V.basis_keys()
    rep = _check_action_side(m)
    kone = LinComb.basis("k")
    once = check_memo()

    pair_tests = [
        (w1, w2)
        for w1 in vk
        for w2 in vk
        if V.degree(w1) + V.degree(w2) <= n
    ]

    def shifted_product(w1, w2):
        return V.alpha_pow(-2, V.product(e(w1), e(w2)))

    def comod_coassoc(i, w1, w2):
        u = e(i)
        lhs = U.alpha_map(m.nabla_pair(u, once(shifted_product, w1, w2)))
        rhs = m.nabla_pair(m.nabla_pair(u, V.alpha_inv(e(w2))), e(w1))
        return lhs, rhs

    rep.run(
        "coaction/hom-comodule-coassoc",
        [(i, w1, w2) for i in uk for (w1, w2) in pair_tests],
        comod_coassoc,
    )
    rep.run(
        "coaction/hom-comodule-counit",
        [(i,) for i in uk],
        lambda i: (m.nabla_pair(e(i), V.unit_elem()), U.alpha_map(e(i))),
    )
    rep.run(
        "Hom-comod-coalg-00",
        [(i, w) for i in uk for w in vk],
        lambda i, w: (
            m.nabla_pair(U.beta_map(e(i)), e(w)),
            U.beta_map(m.nabla_pair(e(i), V.beta_inv(e(w)))),
        ),
    )

    _comult_compat(
        rep, "Hom-comod-coalg-I", U, V, U,
        lambda u, w: m.nabla_pair(u, V.beta_pow(-2, w)),
    )
    _counit_compat(rep, "Hom-comod-coalg-II", U, V, U, m.nabla_pair)
    rep.run(
        "lt-f-comp",
        [(i, w) for i in uk for w in vk],
        lambda i, w: (
            m.nabla_pair(U.alpha_map(e(i)), e(w)),
            U.alpha_map(m.nabla_pair(e(i), V.alpha_inv(e(w)))),
        ),
    )

    def carried(xs0, us0):
        # alpha^-2 beta^-1 of beta^2 alpha^-5(w2_(1)) |> u_(1)
        lt = m.mp.lt(V.beta_pow(2, V.alpha_pow(-5, e(xs0))), e(us0))
        return U.alpha_pow(-2, U.beta_inv(lt))

    def bvec(xs1, us1):
        x = V.alpha_pow(-2, V.beta_pow(-2, e(xs1)))
        return V.beta_map(m.mp.rt(x, U.alpha_inv(U.beta_pow(-2, e(us1)))))

    def comp1_rhs(i, w1, w2):
        # the right side of comp-I before f pairs with it
        a1 = V.alpha_pow(-2, e(w1))

        def term(us, xs):
            avec = m.mp.rt(a1, once(carried, xs[0], us[0]))
            return V.alpha_pow(-2, V.product(avec, once(bvec, xs[1], us[1])))

        return bilinear(term, U.comult_map(e(i)), V.comult_map(e(w2)))

    def acted(i, k):
        return m.act(e(i), e(k))

    def comp1(i, k, w1, w2):
        lhs = F.pair(once(acted, i, k), once(shifted_product, w1, w2))
        rhs = F.pair(e(k), once(comp1_rhs, i, w1, w2))
        return LinComb.basis("k", lhs), rhs * kone

    rep.run(
        "comp-I",
        [
            (i, k, w1, w2)
            for i in uk
            for k in fk
            for (w1, w2) in pair_tests
        ],
        comp1,
    )
    _counit_compat(rep, "comp-II", U, F, F, m.act)

    def first(us0, xs0):
        return U.beta_inv(m.nabla_pair(e(us0), V.alpha_inv(e(xs0))))

    def z(xs1, us1):
        x = V.alpha_pow(-2, V.beta_pow(-2, e(xs1)))
        return V.beta_map(m.mp.rt(x, U.alpha_pow(-3, e(us1))))

    def comp3(i, j, w):
        u, u2 = e(i), e(j)
        lhs = m.nabla_pair(U.product(u, u2), e(w))

        def term(us, xs):
            return U.product(
                once(first, us[0], xs[0]), m.nabla_pair(u2, once(z, xs[1], us[1]))
            )

        return lhs, bilinear(term, U.comult_map(u), V.comult_map(e(w)))

    rep.run(
        "comp-III", [(i, j, w) for i in uk for j in uk for w in vk], comp3
    )

    def paired(ub, k, xb):
        return F.pair(m.act(e(ub), e(k)), V.beta_pow(-2, e(xb)))

    def nabla_leg(ua, xa):
        return m.nabla_pair(e(ua), V.alpha_pow(-2, e(xa)))

    def comp4(i, k, w):
        du, dw = U.comult_map(e(i)), V.comult_map(e(w))

        def side(a, b):
            # <u_(b) |> f, beta^-2 w_(b)> times nabla(u_(a)) paired with w_(a)
            def term(us, xs):
                return once(paired, us[b], k, xs[b]) * once(nabla_leg, us[a], xs[a])

            return bilinear(term, du, dw)

        return side(0, 1), side(1, 0)

    rep.run("comp-IV", [(i, k, w) for i in uk for k in fk for w in vk], comp4)
    return rep


class Bicrossproduct(_TensorHopf):
    """The bicrossproduct on F x U: smash-type product against the action,
    cosmash-type coproduct against the coaction, twists (beta x phi) on the
    algebra side and (alpha x psi) on the coalgebra side.

    The product of keys (f, u)(f', u') is the sum over the terms us of
    Delta(e_u) of
        alpha_F^-1 beta_F(f) (alpha_U^-1 beta_U^-1(us_1) |> alpha_F^-1(f'))
          x beta_U^-1(us_2) u'.
    Its legs that no key pair owns, the acting leg per (us_1, f') and
    beta_U^-1(us_2) per us_2, are kept in `_legs` on first use, so each
    key pair computes only its head and its two products.  A leg is read
    where the pair would compute it, so a leg that overflows makes every
    pair that reads it overflow, and any other error escapes, as before.
    """

    def __init__(self, m):
        _TensorHopf.__init__(self, m.f, m.u)
        self.m = m
        self.f = F = m.f
        self.u = U = m.u
        self._twists = {
            "alpha": (F.beta_pow, U.alpha_pow),
            "beta": (F.alpha_pow, U.beta_pow),
        }
        # (U key, F key) -> acting leg, (U key,) -> beta_U^-1 of the key
        self._legs = {}

    def product_keys(self, k1, k2):
        F, U, m, legs = self.f, self.u, self.m, self._legs
        head = F.alpha_inv(F.beta_map(e(k1[0])))
        kf, u2 = k2[0], e(k2[1])

        def acting(k):
            return m.act(U.alpha_inv(U.beta_inv(e(k))), F.alpha_inv(e(kf)))

        def term(us):
            fpart = F.product(head, memo_lookup(legs, (us[0], kf), acting, us[0]))
            return fpart @ U.product(memo_lookup(legs, us[1:], U.beta_inv, e(us[1])), u2)

        return extend(term, U.comult_map(e(k1[1])))

    # not on _TensorHopf: perfbench/spans.py wraps it through this class's __dict__
    def product(self, x, y):
        return bilinear(self._product_key, x, y)

    # the truncated=True variants, for F a TruncatedDual, are stored under
    # names of their own, apart from the default maps, which overflow where
    # the coaction is not complete

    def comult_map(self, x, truncated=False):
        F, U, m = self.f, self.u, self.m
        legs_of = m.coaction_legs_truncated if truncated else m.coaction_legs
        fproduct = F.product_dropped if truncated else F.product

        def comult_key(k):
            fd = F.comult_map(e(k[0]))

            def over_u(us):
                def term(fs, ms):
                    left = F.alpha_map(F.beta_inv(e(fs[0]))) @ U.alpha_inv(e(ms[0]))
                    right = fproduct(
                        F.beta_inv(e(fs[1])), F.alpha_pow(-2, e(ms[1]))
                    ) @ e(us[1])
                    return left @ right

                return bilinear(term, fd, legs_of(e(us[0])))

            return extend(over_u, U.comult_map(e(k[1])))

        name = "truncated_comult" if truncated else "comult"
        return self._keywise(name, comult_key, x)

    def antipode_map(self, x, truncated=False):
        F, U, m = self.f, self.u, self.m
        legs_of = m.coaction_legs_truncated if truncated else m.coaction_legs
        fproduct = F.product_dropped if truncated else F.product

        def antipode_key(k):
            def term(ms):
                head = F.unit_elem() @ U.antipode_map(U.alpha_pow(-2, e(ms[0])))
                tail = F.antipode_map(
                    fproduct(
                        F.alpha_inv(F.beta_inv(e(k[0]))),
                        F.alpha_pow(-2, F.beta_inv(e(ms[1]))),
                    )
                ) @ U.unit_elem()
                return self.product(head, tail)

            return extend(term, legs_of(e(k[1])))

        name = "truncated_antipode" if truncated else "antipode"
        return self._keywise(name, antipode_key, x)

