"""Hom-Lie algebras from antisymmetric structure constants: axiom checking,
Lie modules and matched pairs.
"""

from .errors import NotHomLie
from .foundation import LinComb, bilinear
from .hom_core import CheckReport, _pairs, _twist_compat

_ZERO = LinComb.zero()


class HomLieData:
    """Hom-Lie algebra: sparse antisymmetric bracket plus invertible twist phi.

    The bracket table stores (i, j) -> LinComb for i < j only; the accessor
    fills in antisymmetry and the diagonal.  Entries given for both (i, j)
    and (j, i) must be negatives of each other.  A singular phi raises
    NotInvertible.
    """

    def __init__(self, dim, bracket, phi):
        self.dim = dim
        self.table = {}
        for (i, j), v in dict(bracket).items():
            if i == j:
                if v:
                    raise NotHomLie("bracket(%d,%d) must vanish" % (i, j))
                continue
            if i > j:
                i, j, v = j, i, -1 * v
            if self.table.setdefault((i, j), v) != v:
                raise NotHomLie("bracket(%d,%d) is not -bracket(%d,%d)" % (j, i, i, j))
        phi.inverted()
        self.phi = phi

    def basis_keys(self):
        return list(range(self.dim))

    def bracket(self, i, j):
        if i == j:
            return LinComb.zero()
        if i < j:
            return self.table.get((i, j), LinComb.zero())
        return -1 * self.table.get((j, i), LinComb.zero())

    def bracket_lc(self, x, y):
        return bilinear(self.bracket, x, y)

    def phi_map(self, x):
        return self.phi.apply(x)

    def phi_pow(self, n, x):
        return self.phi.power(n, x)


class LieActionData:
    """A Hom-Lie algebra acting on a carrier: table (xi, v) -> LinComb."""

    def __init__(self, lie, carrier_keys, act, gamma):
        self.lie = lie
        self.carrier_keys = list(carrier_keys)
        self.act = dict(act)
        self.gamma = gamma

    def apply(self, xi, v):
        """Bilinear extension; a missing table entry reads as zero."""
        return bilinear(lambda i, j: self.act.get((i, j), _ZERO), xi, v)


class MatchedPairLie:
    """Two Hom-Lie algebras acting on one another.

    h_on_g is |> : h x g -> g and g_on_h is <| read as h <| xi, stored with
    the acting algebra first: act[(xi-index, eta-index)] = eta <| xi.
    """

    def __init__(self, g, h, h_on_g, g_on_h):
        self.g = g
        self.h = h
        self.h_on_g = h_on_g
        self.g_on_h = g_on_h

    def left(self, eta, xi):
        """eta |> xi in g."""
        return self.h_on_g.apply(eta, xi)

    def right(self, eta, xi):
        """eta <| xi in h."""
        return self.g_on_h.apply(xi, eta)


def check_hom_lie(g):
    """Antisymmetry, the phi-twisted Jacobi identity, multiplicativity of phi."""
    rep = CheckReport()
    keys = g.basis_keys()
    bas = [LinComb.basis(k) for k in keys]

    pairs = _pairs(g, g)
    rep.run("antisymmetry", pairs, lambda i, j: (g.bracket(i, j), -1 * g.bracket(j, i)))

    def jacobi(i, j, k):
        s = g.bracket_lc(g.phi_map(bas[i]), g.bracket(j, k))
        s = s + g.bracket_lc(g.phi_map(bas[k]), g.bracket(i, j))
        s = s + g.bracket_lc(g.phi_map(bas[j]), g.bracket(k, i))
        return s, LinComb.zero()

    rep.run("hom-jacobi", [(i, j, k) for i in keys for j in keys for k in keys], jacobi)
    phi = g.phi_map
    _twist_compat(rep, "phi-multiplicative", pairs, g.bracket_lc, phi, phi, phi)
    return rep


def check_lie_module(g, m):
    """Lie-module axioms of an action m of g on its carrier:
    lie-module-i   gamma(xi.v) = phi(xi).gamma(v),
    lie-module-ii  [xi,xi'].gamma(v) = phi(xi).(xi'.v) - phi(xi').(xi.v)."""
    rep = CheckReport()
    keys = g.basis_keys()
    bas = [LinComb.basis(k) for k in keys]
    _twist_compat(
        rep, "lie-module-i", [(i, v) for i in keys for v in m.carrier_keys],
        m.apply, m.gamma.apply, g.phi_map, m.gamma.apply,
    )

    def axiom_ii(i, j, v):
        vv = LinComb.basis(v)
        lhs = m.apply(g.bracket(i, j), m.gamma.apply(vv))
        rhs = m.apply(g.phi_map(bas[i]), m.apply(bas[j], vv)) - m.apply(
            g.phi_map(bas[j]), m.apply(bas[i], vv)
        )
        return lhs, rhs

    rep.run(
        "lie-module-ii",
        [(i, j, v) for i in keys for j in keys for v in m.carrier_keys],
        axiom_ii,
    )
    return rep


def check_matched_pair_lie(p):
    """Both Lie-module axioms of each action (`check_lie_module`), then the
    two mixed compatibility equations."""
    rep = CheckReport()
    for prefix, lie, m in (("h-on-g/", p.h, p.h_on_g), ("g-on-h/", p.g, p.g_on_h)):
        rep.merge(check_lie_module(lie, m), prefix=prefix)

    g, h = p.g, p.h
    gk, hk = g.basis_keys(), h.basis_keys()

    def eq1(e, i, j):
        # alpha(eta) |> [xi, xi'] =
        #   [eta |> xi, phi(xi')] + [phi(xi), eta |> xi']
        #   + (eta <| xi) |> phi(xi') - (eta <| xi') |> phi(xi)
        eta = LinComb.basis(e)
        xi, xi2 = LinComb.basis(i), LinComb.basis(j)
        lhs = p.left(h.phi_map(eta), g.bracket(i, j))
        rhs = g.bracket_lc(p.left(eta, xi), g.phi_map(xi2))
        rhs = rhs + g.bracket_lc(g.phi_map(xi), p.left(eta, xi2))
        rhs = rhs + p.left(p.right(eta, xi), g.phi_map(xi2))
        rhs = rhs - p.left(p.right(eta, xi2), g.phi_map(xi))
        return lhs, rhs

    rep.run(
        "matched-pair-Hom-Lie-alg-I",
        [(e, i, j) for e in hk for i in gk for j in gk],
        eq1,
    )

    def eq2(e, f, i):
        # [eta, eta'] <| phi(xi) =
        #   [alpha(eta), eta' <| xi] + [eta <| xi, alpha(eta')]
        #   + alpha(eta) <| (eta' |> xi) - alpha(eta') <| (eta |> xi)
        eta, eta2 = LinComb.basis(e), LinComb.basis(f)
        xi = LinComb.basis(i)
        lhs = p.right(h.bracket(e, f), g.phi_map(xi))
        rhs = h.bracket_lc(h.phi_map(eta), p.right(eta2, xi))
        rhs = rhs + h.bracket_lc(p.right(eta, xi), h.phi_map(eta2))
        rhs = rhs + p.right(h.phi_map(eta), p.left(eta2, xi))
        rhs = rhs - p.right(h.phi_map(eta2), p.left(eta, xi))
        return lhs, rhs

    rep.run(
        "matched-pair-Hom-Lie-alg-II",
        [(e, f, i) for e in hk for f in hk for i in gk],
        eq2,
    )
    return rep
