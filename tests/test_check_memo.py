"""Differential test of the per-check memo of the mixed equations.

`check_matched_pair_hopf` and both mutual-pair checkers build the
sub-terms of their mixed equations that depend on fewer indices than the
tuple through `hom_core.check_memo`, once per check.  Each case runs the
checkers twice, on structures built afresh: once as they are, and once
with `check_memo` in `cross_products` replaced by one whose
once(build, *args) is build(*args), which is what the memo replaces.  The
two reports must agree equation by equation: id, checked and skipped
counts, and for each violation its witness, lhs and rhs as ordered term
lists.

The cases:
- fixture B lifted at N=3, W=1, where the mixed equations skip tuples;
- the lambda = 2 sl2 split at N=3, semidualized with the order constraint
  off, whose pairing-wise comp-I and comp-III fail;
- one perturbation of the kz4 matched pair and two of the Z/4 mutual pair
  (one of its action, one of its coaction), from the sweeps of
  `test_sensitivity`, which fail the matched-pair mixed equations and the
  finite comp-I and comp-III;
- tables with one key removed, on which both paths raise the same error,
  also where it is raised inside a stored sub-term.
"""

from collections import Counter

import pytest

from homhopf import cross_products
from homhopf.cli import parse_input
from homhopf.cross_products import (
    GradedMutualPair,
    MatchedPairHopf,
    MutualPairHopf,
    check_matched_pair_hopf,
    check_mutual_pair,
)
from homhopf.foundation import LinComb
from homhopf.hom_core import check_memo
from homhopf.semidual import semidualize
from homhopf.uea_trees import lift_to_Uh_action

from fixtures import fixture_b_lie_pair
from lie_pairs import sl2_split_pair
from record_golden import SAMPLES, _sample_matched_pair

e = LinComb.basis


def terms(x):
    """x as its ordered list of (key, coefficient, coefficient type)."""
    return [(k, c, type(c)) for k, c in x.items()]


def outcome(rep):
    """Every equation of a report in order: id, counts, and each violation's
    witness, lhs and rhs as ordered term lists."""
    return [
        (
            eq.eq_id,
            eq.checked,
            eq.skipped,
            [(v.witness, terms(v.lhs), terms(v.rhs)) for v in eq.violations],
        )
        for eq in rep.equations
    ]


def lifted_reports(pair, enforce=True):
    """check_matched_pair_hopf on the pair lifted at N=3, W=1, and
    check_mutual_pair on its semidual."""
    mp = lift_to_Uh_action(pair, 3, 1)
    m = semidualize(mp, enforce_order_constraint=enforce)
    return [check_matched_pair_hopf(mp), check_mutual_pair(m)]


def z4_mutual_pair():
    return parse_input(str(SAMPLES / "z4_trivial_bicross.json")).mutual_pairs["m"]


def plus(table, key, vec):
    out = dict(table)
    out[key] = out[key] + vec
    return out


def kz4_perturbed():
    mp = _sample_matched_pair()
    left = plus(mp.left, (1, 1), e(0))
    return [check_matched_pair_hopf(MatchedPairHopf(mp.u, mp.v, left, mp.right))]


def z4_perturbed():
    m = z4_mutual_pair()
    action, coaction = plus(m.action, (1, 0), e(1)), plus(m.coaction, 0, e((1, 0)))
    return [
        check_mutual_pair(MutualPairHopf(m.f, m.u, action, m.coaction)),
        check_mutual_pair(MutualPairHopf(m.f, m.u, m.action, coaction)),
    ]


MIXED = {"v-rt-uu'", "vv'-lt-u", "comp-I", "comp-II", "comp-III", "comp-IV"}

# case -> the reports it makes, and the mixed equations of each that fail
CASES = {
    "fixture_b_n3_w1": (lambda: lifted_reports(fixture_b_lie_pair()), [set(), set()]),
    "sl2_split_lambda2_n3": (
        lambda: lifted_reports(sl2_split_pair(2), enforce=False),
        [set(), {"comp-I", "comp-III"}],
    ),
    "kz4_left_1_1": (kz4_perturbed, [{"v-rt-uu'", "vv'-lt-u"}]),
    "z4_action_and_coaction": (
        z4_perturbed, [{"comp-I", "comp-II", "comp-III"}, {"comp-I", "comp-III"}]
    ),
}


def direct():
    """The check_memo that stores nothing: once(build, *args) = build(*args)."""
    return lambda build, *args: build(*args)


def counting_memo(counts):
    """check_memo, counting every lookup and every build it makes."""

    def make():
        once, counted = check_memo(), {}

        def lookup(build, *args):
            counts["lookups"] += 1
            if build not in counted:

                def built(*a, build=build):
                    counts["builds"] += 1
                    return build(*a)

                counted[build] = built
            return once(counted[build], *args)

        return lookup

    return make


@pytest.mark.parametrize("case", sorted(CASES))
def test_memo_gives_the_reports_of_the_direct_evaluation(case, monkeypatch):
    make, mixed = CASES[case]
    counts = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(cross_products, "check_memo", counting_memo(counts))
        stored = [outcome(rep) for rep in make()]
    with monkeypatch.context() as patch:
        patch.setattr(cross_products, "check_memo", direct)
        unstored = [outcome(rep) for rep in make()]
    assert stored == unstored
    # the memo is read: some lookups find a stored sub-term
    assert 0 < counts["builds"] < counts["lookups"]
    failed = [{eq_id for eq_id, _, _, bad in rep if bad} for rep in stored]
    assert [f & MIXED for f in failed] == mixed
    if case == "fixture_b_n3_w1":
        # the mixed equations skip tuples here
        skips = {eq_id: skipped for rep in stored for eq_id, _, skipped, _ in rep}
        assert all(skips[eq_id] for eq_id in ("v-rt-uu'", "vv'-lt-u", "comp-III"))


def without(table, key):
    out = dict(table)
    del out[key]
    return out


def missing_key_checks():
    """(label, check) pairs: a checker on a structure whose action table
    lacks one key."""
    kz4 = _sample_matched_pair()
    m = z4_mutual_pair()
    yield "kz4 left", lambda: check_matched_pair_hopf(
        MatchedPairHopf(kz4.u, kz4.v, without(kz4.left, (1, 1)), kz4.right)
    )
    yield "kz4 right", lambda: check_matched_pair_hopf(
        MatchedPairHopf(kz4.u, kz4.v, kz4.left, without(kz4.right, (2, 1)))
    )
    yield "z4 action", lambda: check_mutual_pair(
        MutualPairHopf(m.f, m.u, without(m.action, (1, 0)), m.coaction)
    )

    def graded(side):
        mp = lift_to_Uh_action(fixture_b_lie_pair(), 2, 1)
        g = semidualize(mp)
        if side == "action":
            key = sorted(g.action, key=repr)[-1]
            return GradedMutualPair(g.f, g.u, without(g.action, key), mp)
        # the right action is read by comp-I and comp-III alone, inside
        # their stored sub-terms
        key = max(mp.right, key=lambda k: (mp.v.degree(k[0]), mp.u.degree(k[1])))
        broken = MatchedPairHopf(mp.u, mp.v, mp.left, without(mp.right, key))
        return GradedMutualPair(g.f, g.u, g.action, broken)

    for side in ("action", "right action"):
        yield "fixture_b graded " + side, lambda s=side: check_mutual_pair(graded(s))


def raised(check):
    """(type, args, the names of the frames it passed) of what check
    raises."""
    try:
        check()
    except Exception as exc:
        frames, tb = [], exc.__traceback__
        while tb is not None:
            frames.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        return type(exc), exc.args, frames
    return None


def test_an_error_other_than_an_overflow_escapes_on_both_paths(monkeypatch):
    for label, check in missing_key_checks():
        stored = raised(check)
        with monkeypatch.context() as patch:
            patch.setattr(cross_products, "check_memo", direct)
            unstored = raised(check)
        assert stored is not None and stored[0] is KeyError, label
        assert stored[:2] == unstored[:2], label
        if label.endswith("right action"):
            assert "memo_lookup" in stored[2] and "memo_lookup" not in unstored[2]
