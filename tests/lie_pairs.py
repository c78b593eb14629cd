"""The Lie-algebra twists and matched pairs that the tests build.

The golden recorder, the lift and semidual tests and the table tests all
take their pairs from here, so that a pair means the same structure
constants wherever it is used.
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


def sl2_split_pair(twisted=False):
    """sl2 split as g = <e> and h = <h, f>: h |> e = 2e, f <| e = -h and
    [h, f] = -2f, so both actions are nonzero.  twisted=True deforms every
    bracket and action along the Chevalley involution e -> -e, f -> -f,
    which becomes the twist of g and h (order 2)."""
    s = -1 if twisted else 1
    phi = LinearOperator.from_matrix([[s]], inverse=[[s]])
    alpha = LinearOperator.from_matrix([[1, 0], [0, s]], inverse=[[1, 0], [0, s]])
    g = HomLieData(1, {}, phi)
    h = HomLieData(2, {(0, 1): -2 * s * e(1)}, alpha)
    h_on_g = LieActionData(h, [0], {(0, 0): 2 * s * e(0)}, phi)
    g_on_h = LieActionData(g, [0, 1], {(0, 1): -1 * e(0)}, alpha)
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
