"""Small exactly-presented structures used by the tests, with the
constructors that build them from classical data.

All of these are desk-scale (dimension <= 4) so the exhaustive checkers
run them in well under a second.  `hopf_twist` and `twist_algebra` deform
a classical Hopf algebra or associative algebra along endomorphisms,
`lie_twist` a Lie algebra along a Lie endomorphism; each refuses a map
that is not one.  `ActionData` is an algebra action given by its table,
on the side it declares, and `coregular_actions` are the two actions of
a Hom-algebra on its dual, whose twist `transpose_operator` builds.
`trivial_hopf_matched_pair` is two copies of the twisted k[Z/4] with
counital actions.
"""

from homhopf.cross_products import MatchedPairHopf
from homhopf.duality import transpose_table
from homhopf.errors import HomHopfError
from homhopf.foundation import LinComb, LinearOperator, bilinear, pair_apply
from homhopf.hom_core import HomAlgebraData, HomHopfData, check_hom_algebra
from homhopf.hom_lie import HomLieData, LieActionData, MatchedPairLie


class NotAssociative(HomHopfError):
    """An input algebra expected to be associative is not."""


class NotEndomorphism(HomHopfError):
    """A twisting map is not an algebra endomorphism."""


class NotCommutingPair(HomHopfError):
    """Two twisting maps that must commute do not."""


class NotBialgebraMorphism(HomHopfError):
    """A twisting map is not a bialgebra endomorphism."""


class NotLieEndomorphism(HomHopfError):
    """A twisting map does not preserve the Lie bracket."""


# ---------------------------------------------------------------------------
# twisting constructors


def _is_algebra_endo(a, t):
    """t(x*y) == t(x)*t(y) on all basis pairs and t fixes the unit."""
    for i in a.basis_keys():
        for j in a.basis_keys():
            lhs = t.apply(a.mult[(i, j)])
            rhs = a.product(t.apply(LinComb.basis(i)), t.apply(LinComb.basis(j)))
            if lhs != rhs:
                return False
    return t.apply(a.unit) == a.unit


def _is_coalgebra_endo(c, t):
    for i in c.basis_keys():
        e = LinComb.basis(i)
        if c.comult_map(t.apply(e)) != pair_apply(t.apply, t.apply, c.comult_map(e)):
            return False
        if c.counit_map(t.apply(e)) != c.counit_map(e):
            return False
    return True


def twist_algebra(assoc, t):
    """Deform an associative algebra along an algebra endomorphism t.

    Returns the Hom-algebra with multiplication t(x*y) and twist t.
    """
    plain = check_hom_algebra(
        HomAlgebraData(assoc.dim, assoc.mult, assoc.unit, LinearOperator.identity(assoc.basis_keys()))
    )
    if not plain.passed:
        raise NotAssociative("input algebra fails associativity/unit checks")
    if not _is_algebra_endo(assoc, t):
        raise NotEndomorphism("t is not a unital algebra endomorphism")
    mult = {key: t.apply(val) for key, val in assoc.mult.items()}
    return HomAlgebraData(assoc.dim, mult, assoc.unit, t)


def hopf_twist(h, a, b):
    """Deform a classical Hopf algebra along commuting bialgebra endos a, b.

    Result: multiplication a(x*y), comultiplication (b x b)Delta, twists
    (a, b), antipode unchanged.
    """
    if not (h.alpha.is_identity() and h.beta.is_identity()):
        raise NotAssociative("hopf_twist expects a classical Hopf algebra input")
    for t in (a, b):
        if not _is_algebra_endo(h, t) or not _is_coalgebra_endo(h, t):
            raise NotBialgebraMorphism("twisting map is not a bialgebra endomorphism")
    for k in h.basis_keys():
        e = LinComb.basis(k)
        if a.apply(b.apply(e)) != b.apply(a.apply(e)):
            raise NotCommutingPair("twisting maps do not commute on basis %r" % k)
    mult = {key: a.apply(val) for key, val in h.mult.items()}
    comult = {i: h.comult_map(b.apply(LinComb.basis(i))) for i in h.basis_keys()}
    return HomHopfData(h.dim, mult, h.unit, a, comult, h.counit, b, h.antipode)


def lie_twist(g, t):
    """Deform a Lie algebra along a Lie endomorphism: bracket t([x,y]), twist t."""
    keys = g.basis_keys()
    for i in keys:
        for j in keys:
            lhs = t.apply(g.bracket(i, j))
            rhs = g.bracket_lc(t.apply(LinComb.basis(i)), t.apply(LinComb.basis(j)))
            if lhs != rhs:
                raise NotLieEndomorphism("t fails on bracket(%d, %d)" % (i, j))
    bracket = {}
    for (i, j), v in g.table.items():
        bracket[(i, j)] = t.apply(v)
    return HomLieData(g.dim, bracket, t)


def transpose_operator(op, keys):
    """Dual operator on the dual basis: column i is sum_k [op e_k]_i e_k."""
    images = ((k, op.apply(LinComb.basis(k))) for k in keys)
    return LinearOperator(transpose_table(images, keys))


# ---------------------------------------------------------------------------
# actions given by their tables


class ActionData:
    """An algebra action on a carrier: table (h, m) -> LinComb, carrier map
    gamma (a callable), and the side it acts from; for a right action the
    table holds m <| h under the key (h, m)."""

    def __init__(self, algebra, carrier_keys, act, gamma, side="left"):
        self.algebra = algebra
        self.carrier_keys = list(carrier_keys)
        self.act = dict(act)
        self.gamma = gamma
        self.side = side

    def apply(self, h, m):
        """Bilinear extension; h over algebra keys, m over carrier keys."""
        return bilinear(lambda i, j: self.act[(i, j)], h, m)


def coregular_actions(a):
    """The two coregular actions of a Hom-algebra on its dual.

    Left:  (p |> f)(x) = f(alpha^-2(x . p))
    Right: (f <| p)(x) = f(alpha^-2(p . x))
    Both carriers use the structure map f -> f o alpha^-1.
    """
    keys = a.basis_keys()
    gamma = transpose_operator(a.alpha.inverted(), keys)

    def table(mirror):
        act = {}
        for p in keys:
            ep = LinComb.basis(p)

            def image(x):
                ex = LinComb.basis(x)
                lhs = a.product(ep, ex) if mirror else a.product(ex, ep)
                return a.alpha_pow(-2, lhs)

            cols = transpose_table(((x, image(x)) for x in keys), keys)
            for q in keys:
                act[(p, q)] = cols[q]
        return act

    left = ActionData(a, keys, table(False), gamma.apply, side="left")
    right = ActionData(a, keys, table(True), gamma.apply, side="right")
    return left, right


# ---------------------------------------------------------------------------
# structures


def cyclic_group_hopf(n=4):
    """Classical group algebra k[Z/n] with its standard Hopf structure."""
    mult = {(i, j): LinComb.basis((i + j) % n) for i in range(n) for j in range(n)}
    comult = {i: LinComb({(i, i): 1}) for i in range(n)}
    counit = {i: 1 for i in range(n)}
    inv = [[1 if (n - j) % n == i else 0 for j in range(n)] for i in range(n)]
    return HomHopfData(
        n,
        mult,
        LinComb.basis(0),
        LinearOperator.identity(range(n)),
        comult,
        counit,
        LinearOperator.identity(range(n)),
        LinearOperator.from_matrix(inv),
    )


def inversion_operator(n=4):
    """Group inversion g -> g^-1 on k[Z/n], an order-2 bialgebra automorphism."""
    mat = [[1 if (n - j) % n == i else 0 for j in range(n)] for i in range(n)]
    return LinearOperator.from_matrix(mat, inverse=mat)


def kz4_twisted_hopf():
    """The Z/4 group algebra deformed along inversion on both sides.

    The workhorse fixture: a genuine (alpha, beta)-type Hom-Hopf algebra
    with alpha = beta = inversion and the group antipode.
    """
    h = cyclic_group_hopf(4)
    t = inversion_operator(4)
    return hopf_twist(h, t, t)


def sweedler_hopf():
    """Sweedler's 4-dimensional Hopf algebra; its antipode has order 4.

    Basis 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx,
    Delta(g) = g x g, Delta(x) = x x 1 + g x x.
    """
    I, G, X, GX = range(4)
    e = LinComb.basis
    z = LinComb.zero()
    mult = {
        (I, I): e(I), (I, G): e(G), (I, X): e(X), (I, GX): e(GX),
        (G, I): e(G), (G, G): e(I), (G, X): e(GX), (G, GX): e(X),
        (X, I): e(X), (X, G): -1 * e(GX), (X, X): z, (X, GX): z,
        (GX, I): e(GX), (GX, G): -1 * e(X), (GX, X): z, (GX, GX): z,
    }
    comult = {
        I: LinComb({(I, I): 1}),
        G: LinComb({(G, G): 1}),
        X: LinComb({(X, I): 1, (G, X): 1}),
        GX: LinComb({(GX, G): 1, (I, GX): 1}),
    }
    counit = {I: 1, G: 1, X: 0, GX: 0}
    # S(1)=1, S(g)=g, S(x)=-gx, S(gx)=x  (columns of the matrix)
    s = [[0] * 4 for _ in range(4)]
    s[I][I] = 1
    s[G][G] = 1
    s[GX][X] = -1
    s[X][GX] = 1
    return HomHopfData(
        4,
        mult,
        e(I),
        LinearOperator.identity(range(4)),
        comult,
        counit,
        LinearOperator.identity(range(4)),
        LinearOperator.from_matrix(s),
    )


def sweedler_twisted_hopf():
    """Sweedler's algebra deformed along alpha: x, gx -> 2x, 2gx and
    beta: x, gx -> 4x, 4gx (1 and g fixed).  Both are bialgebra
    automorphisms; alpha has infinite order, alpha != beta, and
    alpha^4 beta^-2 = id."""
    I, G, X, GX = range(4)

    def scaling(c):
        return LinearOperator(
            {k: (c if k in (X, GX) else 1) * LinComb.basis(k) for k in (I, G, X, GX)}
        )

    return hopf_twist(sweedler_hopf(), scaling(2), scaling(4))


def upper_triangular_algebra():
    """The 3-dimensional algebra of upper triangular 2x2 matrices."""
    E11, E12, E22 = range(3)
    e = LinComb.basis
    z = LinComb.zero()
    mult = {
        (E11, E11): e(E11), (E11, E12): e(E12), (E11, E22): z,
        (E12, E11): z, (E12, E12): z, (E12, E22): e(E12),
        (E22, E11): z, (E22, E12): z, (E22, E22): e(E22),
    }
    unit = LinComb({E11: 1, E22: 1})
    return HomAlgebraData(3, mult, unit, LinearOperator.identity(range(3)))


def triangular_conjugation():
    """Conjugation by diag(1, -1): fixes E11, E22 and negates E12."""
    mat = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    return LinearOperator.from_matrix(mat, inverse=mat)


def group_like_hom_bialgebra(n=4):
    """k[Z/n] with multiplication gamma(gh) and Delta(g) = gamma(g) x gamma(g)."""
    gamma = inversion_operator(n)
    h = cyclic_group_hopf(n)
    return hopf_twist(h, gamma, gamma)


def abelian_lie(dim, phi=None):
    """Abelian Lie algebra with an arbitrary invertible twist."""
    if phi is None:
        phi = LinearOperator.identity(range(dim))
    return HomLieData(dim, {}, phi)


def sl2():
    """sl2 with basis e, f, h: [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    E, Fb, H = range(3)
    bracket = {
        (E, Fb): LinComb.basis(H),
        (H, E): 2 * LinComb.basis(E),
        (H, Fb): -2 * LinComb.basis(Fb),
    }
    return HomLieData(3, bracket, LinearOperator.identity(range(3)))


def sl2_involution():
    """e -> -e, f -> -f, h -> h: a Lie algebra automorphism of sl2."""
    mat = [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
    return LinearOperator.from_matrix(mat, inverse=mat)


def solvable2_lie():
    """The 2-dimensional solvable algebra [x, y] = y (basis order x, y)."""
    X, Y = range(2)
    bracket = {(X, Y): LinComb.basis(Y)}
    return HomLieData(2, bracket, LinearOperator.identity(range(2)))


def fixture_b_lie_pair():
    """Matched pair splitting [x,y] = y: g = <y>, h = <x>, x |> y = y, x <| y = 0."""
    g = abelian_lie(1)
    h = abelian_lie(1)
    h_on_g = LieActionData(h, [0], {(0, 0): LinComb.basis(0)}, LinearOperator.identity([0]))
    g_on_h = LieActionData(g, [0], {(0, 0): LinComb.zero()}, LinearOperator.identity([0]))
    return MatchedPairLie(g, h, h_on_g, g_on_h)


def fixture_a_prime_lie_pair():
    """1-dim abelian g and h with phi = alpha = -Id and zero actions."""
    neg = LinearOperator.from_matrix([[-1]], inverse=[[-1]])
    g = abelian_lie(1, neg)
    neg2 = LinearOperator.from_matrix([[-1]], inverse=[[-1]])
    h = abelian_lie(1, neg2)
    h_on_g = LieActionData(h, [0], {(0, 0): LinComb.zero()}, neg)
    g_on_h = LieActionData(g, [0], {(0, 0): LinComb.zero()}, neg2)
    return MatchedPairLie(g, h, h_on_g, g_on_h)


def self_action(a):
    """An algebra acting on itself by its own multiplication."""
    return ActionData(a, a.basis_keys(), dict(a.mult), a.alpha_map)


def trivial_left_action(h, target):
    """h |> a := eps(h) * gamma(a) with gamma the target's algebra twist."""
    act = {}
    for i in h.basis_keys():
        eps = h.counit_map(LinComb.basis(i))
        for j in target.basis_keys():
            act[(i, j)] = eps * target.alpha_map(LinComb.basis(j))
    return ActionData(h, target.basis_keys(), act, target.alpha_map)


def trivial_hopf_matched_pair():
    """Two copies of the twisted group algebra with counital actions."""
    e = LinComb.basis
    u, v = kz4_twisted_hopf(), kz4_twisted_hopf()
    left, right = {}, {}
    for i in v.basis_keys():
        eps_v = v.counit_map(e(i))
        for j in u.basis_keys():
            left[(i, j)] = eps_v * u.alpha_map(e(j))
            right[(i, j)] = u.counit_map(e(j)) * v.alpha_map(e(i))
    return MatchedPairHopf(u, v, left, right)
