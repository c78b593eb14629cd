"""The stability loops of the lifted actions against the loops they replace.

`lift_to_Uh_action` returns a join term of the lifted actions as soon as
its zero factor is known.  It accepts the h-ideal through the rows of its
weight-0 part J0, the only rows U(h) stores, and the g-ideal through J0
of U(g) when both Lie actions meet `lie-module-i`.
`oracles.lift_to_Uh_action_full_walk` evaluates both factors of every term
and walks every row of both ideals, the weighted rows that `ideal_rows`
derives included.  On every pair below the two must give the same left
and right tables, entry for entry and term for term in the same order, or
refuse the pair with the same message.  The oracle has no Lie-level gate:
where it accepts a pair that fails `check_matched_pair_lie`, the lift
must refuse it with NotMatchedPair, and give the oracle's tables once
that refusal is lifted.

The acceptance of the h-ideal rests on two identities of the recursions,
pinned here for every input, matched pair or not:
    omega|>(t, u) = omega|>(sigma t, u),
    sigma(omega<|(t, u)) = omega<|(sigma t, u),
for every weighted h-tree t and every U(g) tree u, where sigma replaces
each leaf (s, eta) by (0, alpha^s(eta)).  The acceptance of the g-ideal
rests on two more, pinned on every pair of PAIRS:
    sigma_g(omega|>(v, t)) = sigma_g(omega|>(v, sigma_g t)),
    omega<|(v, t) = omega<|(v, sigma_g t),
for every U(h) normal form v and every weighted g-tree t.  They need the
twist compatibility `lie-module-i`, and a pair that fails it shows so.
"""

import pytest

from homhopf import uea_trees
from homhopf.errors import NotHomLie, NotMatchedPair
from homhopf.foundation import LinComb, extend
from homhopf.hom_core import CheckReport
from homhopf.hom_lie import check_matched_pair_lie
from homhopf.uea_trees import (
    UEAActionContext,
    _ideal_failure,
    build_truncated_uea,
    lift_to_Uh_action,
)

from fixtures import fixture_a_prime_lie_pair, fixture_b_lie_pair
from lie_pairs import (
    anticommuting_pair,
    left_action_missing_h_ideal,
    perturbations,
    right_action_missing_h_ideal,
    right_action_moving_g_ideal,
    sl2_reverse_split_pair,
    sl2_split_pair,
    solvable_on_line,
)
from oracles import ambient_trees, lift_to_Uh_action_full_walk

e = LinComb.basis

PAIRS = {
    "fixture_b": fixture_b_lie_pair,
    "fixture_a_prime": fixture_a_prime_lie_pair,
    "anticommuting": anticommuting_pair,
    "sl2_split": sl2_split_pair,
    "sl2_split_twisted": lambda: sl2_split_pair(-1),
    # a twist of infinite order: phi^s differs from phi^(s mod 2)
    "sl2_split_lambda2": lambda: sl2_split_pair(2),
    "sl2_reverse_split_twisted": lambda: sl2_reverse_split_pair(True),
}

# the refused pairs of test_uea_trees, at its (N, W = 0) and with weighted rows
REFUSED = {
    "not_a_derivation": lambda: solvable_on_line((1, 1)),
    "right_action_moving_g_ideal": right_action_moving_g_ideal,
    "left_action_missing_h_ideal": left_action_missing_h_ideal,
    "right_action_missing_h_ideal": right_action_missing_h_ideal,
}


def outcome(lift, pair, n, w):
    """Both tables of lift(pair, n, w), each as its (entry, terms) list in
    order, or the message that refuses the pair."""
    try:
        mp = lift(pair, n, w)
    except NotHomLie as exc:
        return str(exc)
    except NotMatchedPair as exc:
        return "NotMatchedPair: %s" % exc
    return [
        [(key, list(val.items())) for key, val in table.items()]
        for table in (mp.left, mp.right)
    ]


class PassingReport(CheckReport):
    """A report whose verdict is pass, whatever its equations say."""

    passed = True


def ungated_lift(pair, n, w):
    """`lift_to_Uh_action` with its NotMatchedPair refusal lifted: it still
    reads `lie-module-i` off the report of `check_matched_pair_lie`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            uea_trees,
            "check_matched_pair_lie",
            lambda p: PassingReport().merge(check_matched_pair_lie(p)),
        )
        return lift_to_Uh_action(pair, n, w)


def assert_same_lift(pair, n, w):
    """The lift's outcome on pair, after checking it against the full walk:
    the same tables or NotHomLie refusal, except that a pair the full walk
    accepts and `check_matched_pair_lie` fails is refused with
    NotMatchedPair, with the full walk's tables once that is lifted."""
    want = outcome(lift_to_Uh_action_full_walk, pair, n, w)
    got = outcome(lift_to_Uh_action, pair, n, w)
    if isinstance(want, str) or check_matched_pair_lie(pair).passed:
        assert got == want
    else:
        assert got.startswith("NotMatchedPair: ")
        assert outcome(ungated_lift, pair, n, w) == want
    return got


@pytest.mark.parametrize("w", [1, 3])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_lift_matches_full_walk(name, w):
    assert not isinstance(assert_same_lift(PAIRS[name](), 3, w), str)


@pytest.mark.parametrize("w", [0, 1])
@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refusal_matches_full_walk(name, w):
    assert isinstance(assert_same_lift(REFUSED[name](), 2, w), str)


# the pairs whose perturbations the lift sweeps, here and in test_lie_gate
SWEPT = ("fixture_b", "fixture_a_prime", "anticommuting", "sl2_split_twisted")


def test_perturbed_lifts_match_full_walk():
    outcomes = {
        (name, label, n): assert_same_lift(pair, n, 1)
        for name in SWEPT
        for label, pair in perturbations(PAIRS[name]())
        for n in (1, 3)
    }
    # the weight-0 rows refuse one of them, so the full walk of the h-ideal
    # runs to name the first row that fails
    assert "right action does not kill the h-ideal" in outcomes.values()
    # at N=1 some pass both ideals and are refused by the Lie-level check
    assert any(str(o).startswith("NotMatchedPair") for o in outcomes.values())


def sigma(ops, x):
    """Each leaf (s, eta) of x read as (0, phi^s(eta))."""
    return extend(lambda k: ops.phi_leafwise(k, k[1], (0,) * len(k[1])), x)


def not_a_matched_pair():
    """The twisted sl2 split with f <| e = -h + f."""
    return dict(perturbations(sl2_split_pair(-1)))["g_on_h(0, 1)+e1"]


def test_perturbed_pair_is_not_a_matched_pair():
    assert not check_matched_pair_lie(not_a_matched_pair()).passed


def weighted_trees(ops, lie, n, w):
    """The decorated trees of degree <= n with some leaf of weight 1..w."""
    return [
        t
        for d in range(1, n + 1)
        for t in ops.basis_keys(d, w, lie.dim)
        if any(t[1])
    ]


@pytest.mark.parametrize("name", sorted(PAIRS) + ["not_a_matched_pair"])
def test_weighted_h_leaves_act_through_sigma(name):
    pair = not_a_matched_pair() if name == "not_a_matched_pair" else PAIRS[name]()
    n, w = 3, 1
    ctx = UEAActionContext(pair)
    hops = ctx.hops
    for t in weighted_trees(hops, pair.h, n, w):
        st = sigma(hops, e(t))
        for u in ambient_trees(pair.g, n, w):
            assert ctx.omega_left(e(t), e(u)) == ctx.omega_left(st, e(u)), (t, u)
            assert sigma(hops, ctx.omega_right(e(t), e(u))) == ctx.omega_right(
                st, e(u)
            ), (t, u)


def twist_incompatible_pair():
    """The twisted sl2 split with f |> e = e: phi_g(f |> e) = -e, but
    alpha(f) |> phi_g(e) = e, so `lie-module-i` of the h-action fails."""
    return dict(perturbations(sl2_split_pair(-1)))["h_on_g(1, 0)+e0"]


def g_sigma_mismatches(pair, n, w):
    """The (v, t), v a U(h) normal form and t a weighted g-tree of degree
    <= n, on which sigma_g(omega|>(v, t)) and sigma_g(omega|>(v, sigma_g t))
    differ, and those on which omega<|(v, t) and omega<|(v, sigma_g t) do."""
    uh = build_truncated_uea(pair.h, n, w)
    ctx = UEAActionContext(pair)
    gops = ctx.gops
    left, right = [], []
    for t in weighted_trees(gops, pair.g, n, w):
        st = sigma(gops, e(t))
        for v in uh.basis_keys():
            if sigma(gops, ctx.omega_left(e(v), e(t))) != sigma(
                gops, ctx.omega_left(e(v), st)
            ):
                left.append((v, t))
            if ctx.omega_right(e(v), e(t)) != ctx.omega_right(e(v), st):
                right.append((v, t))
    return left, right


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_weighted_g_leaves_act_through_sigma(name):
    assert g_sigma_mismatches(PAIRS[name](), 3, 2) == ([], [])


def test_weighted_g_leaves_need_compatible_twists():
    left, right = g_sigma_mismatches(twist_incompatible_pair(), 3, 1)
    assert (len(left), len(right)) == (94, 6)


def test_twist_check_is_load_bearing(monkeypatch):
    pair = twist_incompatible_pair()
    rep = check_matched_pair_lie(pair)
    assert [q.eq_id for q in rep.equations if q.eq_id.endswith("/lie-module-i")] == [
        "h-on-g/lie-module-i", "g-on-h/lie-module-i",
    ]
    assert not rep.equations[0].passed
    ug = build_truncated_uea(pair.g, 3, 1)
    uh = build_truncated_uea(pair.h, 3, 1)
    # both actions preserve J0 of the g-ideal: its rows alone would accept it
    ctx = UEAActionContext(pair)
    vs = [e(v) for v in uh.basis_keys()]
    j0 = [(v, r) for v in vs for r in ug.rowspace.basis_rows()]
    assert _ideal_failure(ctx, ug, uh, j0, ("left", "right")) is None
    assert assert_same_lift(pair, 3, 1) == "h-action does not preserve the g-ideal"
    # without the Lie-level check the weighted g-rows go unwalked, and the
    # refusal comes only from the h-ideal
    monkeypatch.setattr(uea_trees, "check_matched_pair_lie", lambda pair: CheckReport())
    assert (
        outcome(lift_to_Uh_action, pair, 3, 1)
        == "lifted action does not kill the h-ideal"
    )
