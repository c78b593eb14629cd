"""The Lie-algebra twists and matched pairs that the tests build.

The golden recorder, the lift and semidual tests and the table tests all
take their pairs from here, so that a pair means the same structure
constants wherever it is used.  `perturbations` moves one action constant
of a pair at a time, for the sweeps of the lift and Lie-level tests.
"""

from fractions import Fraction

from homhopf.foundation import LinComb, LinearOperator
from homhopf.hom_lie import HomLieData, LieActionData, MatchedPairLie

from fixtures import abelian_lie, solvable2_lie

e = LinComb.basis


def swap_phi():
    """The swap of two basis vectors, an involution."""
    return LinearOperator.from_matrix([[0, 1], [1, 0]], inverse=[[0, 1], [1, 0]])


def diag23():
    """diag(2, 3): the weight-s rows hold phi^s, so W=3 pins 2^3 and 3^3."""
    return LinearOperator.from_matrix(
        [[2, 0], [0, 3]], inverse=[[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
    )


def anticommuting_pair():
    """phi_g = swap, alpha_h = -1, action diag(1, -1): swap A = -A swap.
    The right action is zero."""
    g = abelian_lie(2, swap_phi())
    h = abelian_lie(1, LinearOperator.from_matrix([[-1]], inverse=[[-1]]))
    h_on_g = LieActionData(h, [0, 1], {(0, 0): e(0), (0, 1): -1 * e(1)}, g.phi)
    g_on_h = LieActionData(g, [0], {}, h.phi)
    return MatchedPairLie(g, h, h_on_g, g_on_h)


def sl2_split_pair(lam=1):
    """sl2 split as g = <e> and h = <h, f>: h |> e = 2e, f <| e = -h and
    [h, f] = -2f, so both actions are nonzero.  lam != 1 deforms every
    bracket and action along the automorphism e -> lam e, f -> f/lam,
    h -> h, which becomes the twist of g and h: lam = -1 is the Chevalley
    involution (order 2), and any lam other than +-1 has infinite order."""
    inv = Fraction(1, lam)
    phi = LinearOperator.from_matrix([[lam]], inverse=[[inv]])
    alpha = LinearOperator.from_matrix([[1, 0], [0, inv]], inverse=[[1, 0], [0, lam]])
    g = HomLieData(1, {}, phi)
    h = HomLieData(2, {(0, 1): -2 * inv * e(1)}, alpha)
    h_on_g = LieActionData(h, [0], {(0, 0): 2 * lam * e(0)}, phi)
    g_on_h = LieActionData(g, [0, 1], {(0, 1): -1 * e(0)}, alpha)
    return MatchedPairLie(g, h, h_on_g, g_on_h)


def sl2_gaussian_split_pair():
    """sl2_split_pair at lam = i, over Q(i) read as a Q-vector space:
    g = <e, ie> and h = <h, ih, f, if>, basis indices in that order.  phi_g
    sends e -> ie -> -e and phi_h fixes h and ih and sends f -> -if,
    if -> f, so both twists have order 4 and the pair meets the order
    constraint; both actions are nonzero:
      [h, f] = 2 if, [h, if] = -2f, [ih, f] = -2f, [ih, if] = -2 if;
      h |> e = 2 ie, h |> ie = -2e, ih |> e = -2e, ih |> ie = -2 ie;
      f <| e = -h, if <| e = -ih, f <| ie = -ih, if <| ie = h."""
    phi = LinearOperator.from_matrix([[0, -1], [1, 0]], inverse=[[0, 1], [-1, 0]])
    alpha = LinearOperator(
        {0: e(0), 1: e(1), 2: -1 * e(3), 3: e(2)}, {0: e(0), 1: e(1), 2: e(3), 3: -1 * e(2)}
    )
    g = HomLieData(2, {}, phi)
    h = HomLieData(
        4, {(0, 2): 2 * e(3), (0, 3): -2 * e(2), (1, 2): -2 * e(2), (1, 3): -2 * e(3)}, alpha
    )
    h_on_g = LieActionData(
        h, [0, 1], {(0, 0): 2 * e(1), (0, 1): -2 * e(0), (1, 0): -2 * e(0), (1, 1): -2 * e(1)},
        phi,
    )
    g_on_h = LieActionData(
        g, range(4), {(0, 2): -1 * e(0), (0, 3): -1 * e(1), (1, 2): -1 * e(1), (1, 3): e(0)},
        alpha,
    )
    return MatchedPairLie(g, h, h_on_g, g_on_h)


def sl2_reverse_split_pair(twisted=False):
    """sl2 split the other way, as g = <e, h> and h = <f>: f |> e = -h,
    f <| h = 2f and [e, h] = -2e.  (f <| h) <| h = 4f, so the right action
    iterates.  twisted=True deforms the bracket and both actions along the
    Chevalley involution e -> -e, f -> -f, which becomes the twist of g and
    h (order 2)."""
    s = -1 if twisted else 1
    phi = LinearOperator.from_matrix([[s, 0], [0, 1]], inverse=[[s, 0], [0, 1]])
    alpha = LinearOperator.from_matrix([[s]], inverse=[[s]])
    g = HomLieData(2, {(0, 1): -2 * s * e(0)}, phi)
    h = HomLieData(1, {}, alpha)
    h_on_g = LieActionData(h, [0, 1], {(0, 0): -1 * e(1)}, phi)
    g_on_h = LieActionData(g, [0], {(1, 0): 2 * s * e(0)}, alpha)
    return MatchedPairLie(g, h, h_on_g, g_on_h)


def solvable_on_line(diag):
    """g = solvable2 ([x, y] = y) with the 1-dim abelian h acting on g by
    diag(diag) and g acting on h by zero."""
    g, h = solvable2_lie(), abelian_lie(1)
    h_on_g = LieActionData(
        h, range(2), {(0, j): c * e(j) for j, c in enumerate(diag)}, g.phi
    )
    return MatchedPairLie(g, h, h_on_g, LieActionData(g, [0], {}, h.phi))


def _untwisted_pair(g, h, h_on_g, g_on_h):
    return MatchedPairLie(
        g, h, LieActionData(h, range(g.dim), h_on_g, g.phi),
        LieActionData(g, range(h.dim), g_on_h, h.phi),
    )


def right_action_moving_g_ideal():
    """eta <| x = eta <| y = eta for g = solvable2: eta <| [x, y] should be
    eta <| y = eta, but the commutator of two identical actions is 0."""
    return _untwisted_pair(
        solvable2_lie(), abelian_lie(1), {}, {(0, 0): e(0), (1, 0): e(0)}
    )


def left_action_missing_h_ideal():
    """x |> xi = y |> xi = xi for h = solvable2 acting on a 1-dim g."""
    return _untwisted_pair(
        abelian_lie(1), solvable2_lie(), {(0, 0): e(0), (1, 0): e(0)}, {}
    )


def right_action_missing_h_ideal():
    """x <| xi = y <| xi = x for h = solvable2 (basis x, y) and a 1-dim g."""
    return _untwisted_pair(
        abelian_lie(1), solvable2_lie(), {}, {(0, 0): e(0), (0, 1): e(0)}
    )


def perturbations(pair):
    """pair with one Lie-level action constant increased by 1, for every
    constant of both actions, zero constants included: (label, pair)."""
    for side in ("h_on_g", "g_on_h"):
        action = getattr(pair, side)
        for a in action.lie.basis_keys():
            for b in action.carrier_keys:
                for k in action.carrier_keys:
                    act = dict(action.act)
                    act[(a, b)] = act.get((a, b), LinComb.zero()) + e(k)
                    moved = LieActionData(action.lie, action.carrier_keys, act, action.gamma)
                    actions = {"h_on_g": pair.h_on_g, "g_on_h": pair.g_on_h, side: moved}
                    yield "%s%r+e%d" % (side, (a, b), k), MatchedPairLie(
                        pair.g, pair.h, actions["h_on_g"], actions["g_on_h"]
                    )
