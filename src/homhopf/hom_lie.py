"""Hom-Lie algebras from antisymmetric structure constants: axiom checking,
Lie modules, matched pairs, and the bicrossed-sum algebra on g (+) h whose
bracket mixes the two actions.
"""

from .errors import NotHomLie, NotMatchedPair
from .foundation import LinComb, LinearOperator, bilinear
from .hom_core import CheckReport

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

    rep.run(
        "antisymmetry",
        [(i, j) for i in keys for j in keys],
        lambda i, j: (g.bracket(i, j), -1 * g.bracket(j, i)),
    )

    def jacobi(i, j, k):
        s = g.bracket_lc(g.phi_map(bas[i]), g.bracket(j, k))
        s = s + g.bracket_lc(g.phi_map(bas[k]), g.bracket(i, j))
        s = s + g.bracket_lc(g.phi_map(bas[j]), g.bracket(k, i))
        return s, LinComb.zero()

    rep.run("hom-jacobi", [(i, j, k) for i in keys for j in keys for k in keys], jacobi)
    rep.run(
        "phi-multiplicative",
        [(i, j) for i in keys for j in keys],
        lambda i, j: (
            g.phi_map(g.bracket(i, j)),
            g.bracket_lc(g.phi_map(bas[i]), g.phi_map(bas[j])),
        ),
    )
    return rep


def check_lie_module(g, m):
    """Module axioms: gamma(xi.v) = phi(xi).gamma(v) and
    [xi,xi'].gamma(v) = phi(xi).(xi'.v) - phi(xi').(xi.v)."""
    rep = CheckReport()
    keys = g.basis_keys()
    bas = [LinComb.basis(k) for k in keys]

    rep.run(
        "lie-module-i",
        [(i, v) for i in keys for v in m.carrier_keys],
        lambda i, v: (
            m.gamma.apply(m.apply(bas[i], LinComb.basis(v))),
            m.apply(g.phi_map(bas[i]), m.gamma.apply(LinComb.basis(v))),
        ),
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
    """Module axioms for both actions plus the two mixed compatibility equations."""
    rep = CheckReport()
    rep.merge(check_lie_module(p.h, p.h_on_g), prefix="h-on-g/")
    rep.merge(check_lie_module(p.g, p.g_on_h), prefix="g-on-h/")

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


def build_double_sum_lie(p, check=True):
    """Hom-Lie structure on g (+) h:

    [(xi, eta), (xi', eta')] =
        ([xi, xi'] + eta |> xi' - eta' |> xi,
         [eta, eta'] + eta <| xi' - eta' <| xi),
    with structure map phi x alpha.
    """
    if check and not check_matched_pair_lie(p).passed:
        raise NotMatchedPair("matched-pair equations fail; cannot build the sum")
    g, h = p.g, p.h
    dg = g.dim
    dim = dg + h.dim

    def embed_g(x):
        return LinComb({i: c for i, c in x.items()})

    def embed_h(x):
        return LinComb({dg + i: c for i, c in x.items()})

    def pair_bracket(a, b):
        # a, b are indices in the sum; split into (g, h) parts
        xi = LinComb.basis(a) if a < dg else LinComb.zero()
        eta = LinComb.basis(a - dg) if a >= dg else LinComb.zero()
        xi2 = LinComb.basis(b) if b < dg else LinComb.zero()
        eta2 = LinComb.basis(b - dg) if b >= dg else LinComb.zero()
        gpart = g.bracket_lc(xi, xi2) + p.left(eta, xi2) - p.left(eta2, xi)
        hpart = h.bracket_lc(eta, eta2) + p.right(eta, xi2) - p.right(eta2, xi)
        return embed_g(gpart) + embed_h(hpart)

    bracket = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            v = pair_bracket(a, b)
            if v:
                bracket[(a, b)] = v
    phi_cols = {}
    for i in range(dg):
        phi_cols[i] = g.phi_map(LinComb.basis(i))
    for i in range(h.dim):
        phi_cols[dg + i] = embed_h(h.phi_map(LinComb.basis(i)))
    phi = LinearOperator(phi_cols)
    return HomLieData(dim, bracket, phi)
