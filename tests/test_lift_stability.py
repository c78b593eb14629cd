"""The stability loops of the lifted actions against the loops they replace.

`lift_to_Uh_action` returns a join term of the lifted actions as soon as
its zero factor is known, and accepts the h-ideal through the rows of its
weight-0 part J0, the only rows U(h) stores.
`oracles.lift_to_Uh_action_full_walk` evaluates both factors of every term
and walks every row of both ideals, the weighted rows that `ideal_rows`
derives included.  On every pair below the two must give the same left
and right tables, entry for entry and term for term in the same order, or
refuse the pair with the same message.

The acceptance through the weight-0 rows rests on two identities of the
recursions, pinned here for every input, matched pair or not:
    omega|>(t, u) = omega|>(sigma t, u),
    sigma(omega<|(t, u)) = omega<|(sigma t, u),
for every weighted h-tree t and every U(g) tree u, where sigma replaces
each leaf (s, eta) by (0, alpha^s(eta)).
"""

import pytest

from homhopf.errors import NotHomLie
from homhopf.foundation import LinComb, extend
from homhopf.hom_lie import LieActionData, MatchedPairLie, check_matched_pair_lie
from homhopf.uea_trees import UEAActionContext, build_truncated_uea, lift_to_Uh_action

from fixtures import fixture_a_prime_lie_pair, fixture_b_lie_pair
from lie_pairs import (
    anticommuting_pair,
    left_action_missing_h_ideal,
    right_action_missing_h_ideal,
    right_action_moving_g_ideal,
    sl2_reverse_split_pair,
    sl2_split_pair,
    solvable_on_line,
)
from oracles import lift_to_Uh_action_full_walk

e = LinComb.basis

PAIRS = {
    "fixture_b": fixture_b_lie_pair,
    "fixture_a_prime": fixture_a_prime_lie_pair,
    "anticommuting": anticommuting_pair,
    "sl2_split": sl2_split_pair,
    "sl2_split_twisted": lambda: sl2_split_pair(True),
    "sl2_reverse_split_twisted": lambda: sl2_reverse_split_pair(True),
}

# the refused pairs of test_uea_trees, at its (N, W = 0) and with weighted rows
REFUSED = {
    "not_a_derivation": lambda: solvable_on_line((1, 1)),
    "right_action_moving_g_ideal": right_action_moving_g_ideal,
    "left_action_missing_h_ideal": left_action_missing_h_ideal,
    "right_action_missing_h_ideal": right_action_missing_h_ideal,
}


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


def outcome(lift, pair, n, w):
    """Both tables of lift(pair, n, w), each as its (entry, terms) list in
    order, or the message that refuses the pair."""
    try:
        mp = lift(pair, n, w)
    except NotHomLie as exc:
        return str(exc)
    return [
        [(key, list(val.items())) for key, val in table.items()]
        for table in (mp.left, mp.right)
    ]


def assert_same_lift(pair, n, w):
    got = outcome(lift_to_Uh_action, pair, n, w)
    assert got == outcome(lift_to_Uh_action_full_walk, pair, n, w)
    return got


@pytest.mark.parametrize("w", [1, 3])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_lift_matches_full_walk(name, w):
    assert not isinstance(assert_same_lift(PAIRS[name](), 3, w), str)


@pytest.mark.parametrize("w", [0, 1])
@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refusal_matches_full_walk(name, w):
    assert isinstance(assert_same_lift(REFUSED[name](), 2, w), str)


def test_perturbed_lifts_match_full_walk():
    outcomes = {
        (name, label): assert_same_lift(pair, 3, 1)
        for name in ("fixture_b", "sl2_split_twisted")
        for label, pair in perturbations(PAIRS[name]())
    }
    # the weight-0 rows refuse one of them, so the full walk of the h-ideal
    # runs to name the first row that fails
    assert "right action does not kill the h-ideal" in outcomes.values()


def sigma(ops, x):
    """Each leaf (s, eta) of x read as (0, phi^s(eta))."""
    return extend(lambda k: ops.phi_leafwise(k, k[1], (0,) * len(k[1])), x)


def not_a_matched_pair():
    """The twisted sl2 split with f <| e = -h + f."""
    return dict(perturbations(sl2_split_pair(True)))["g_on_h(0, 1)+e1"]


def test_perturbed_pair_is_not_a_matched_pair():
    assert not check_matched_pair_lie(not_a_matched_pair()).passed


@pytest.mark.parametrize("name", sorted(PAIRS) + ["not_a_matched_pair"])
def test_weighted_h_leaves_act_through_sigma(name):
    pair = not_a_matched_pair() if name == "not_a_matched_pair" else PAIRS[name]()
    n, w = 3, 1
    ug = build_truncated_uea(pair.g, n, w)
    ctx = UEAActionContext(pair)
    hops = ctx.hops
    weighted = [
        t
        for d in range(1, n + 1)
        for t in hops.basis_keys(d, w, pair.h.dim)
        if any(t[1])
    ]
    for t in weighted:
        st = sigma(hops, e(t))
        for u in ug.ambient:
            assert ctx.omega_left(e(t), e(u)) == ctx.omega_left(st, e(u)), (t, u)
            assert sigma(hops, ctx.omega_right(e(t), e(u))) == ctx.omega_right(
                st, e(u)
            ), (t, u)
