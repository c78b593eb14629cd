from collections import Counter

import pytest

from homhopf.errors import NotHomLie, NotInvertible, NotMatchedPair
from homhopf.foundation import LinComb, LinearOperator
from homhopf.hom_lie import (
    HomLieData,
    LieActionData,
    MatchedPairLie,
    check_hom_lie,
    check_lie_module,
    check_matched_pair_lie,
)

from fixtures import (
    NotLieEndomorphism,
    abelian_lie,
    fixture_a_prime_lie_pair,
    fixture_b_lie_pair,
    lie_twist,
    sl2,
    sl2_involution,
    solvable2_lie,
)
from lie_pairs import perturbations, sl2_split_pair
from oracles import build_double_sum_lie

e = LinComb.basis


def test_check_hom_lie_basics():
    neg = LinearOperator.from_matrix([[-1, 0], [0, -1]], inverse=[[-1, 0], [0, -1]])
    assert check_hom_lie(abelian_lie(2, neg)).passed
    assert check_hom_lie(sl2()).passed
    # perturb one sl2 structure constant: [e, f] = h + e breaks Jacobi
    bad = HomLieData(
        3,
        {(0, 1): e(2) + e(0), (2, 0): 2 * e(0), (2, 1): -2 * e(1)},
        LinearOperator.identity(range(3)),
    )
    rep = check_hom_lie(bad)
    assert not rep.passed
    assert any(eq.eq_id == "hom-jacobi" and eq.violations for eq in rep.equations)


def test_mirrored_bracket_entries_must_be_antisymmetric():
    ident = LinearOperator.identity(range(2))
    with pytest.raises(NotHomLie, match=r"bracket\(1,0\) is not -bracket\(0,1\)"):
        HomLieData(2, {(0, 1): e(0), (1, 0): e(0)}, ident)
    with pytest.raises(NotHomLie):
        HomLieData(2, {(1, 0): e(1), (0, 1): e(0)}, ident)


def test_nonzero_diagonal_bracket_entry_is_rejected():
    ident = LinearOperator.identity(range(2))
    with pytest.raises(NotHomLie, match=r"bracket\(0,0\) must vanish"):
        HomLieData(2, {(0, 0): e(0)}, ident)


def test_singular_twist_is_rejected():
    # the enveloping algebra closes its ideal under the inverse shift, and
    # its well-definedness check applies it, so phi must be invertible
    with pytest.raises(NotInvertible, match="singular operator"):
        HomLieData(1, {}, LinearOperator.from_matrix([[0]]))
    with pytest.raises(NotInvertible):
        HomLieData(2, {}, LinearOperator.from_matrix([[1, 1], [1, 1]]))


def test_consistent_mirrored_bracket_entries_are_accepted():
    g = HomLieData(2, {(0, 1): e(1), (1, 0): -1 * e(1)}, LinearOperator.identity(range(2)))
    assert g.bracket(0, 1) == e(1)
    assert g.bracket(1, 0) == -1 * e(1)
    assert g.table == solvable2_lie().table


def test_lie_twist():
    g = sl2()
    t = sl2_involution()
    tg = lie_twist(g, t)
    assert check_hom_lie(tg).passed
    # t fixes h, so [e, f]_t = t(h) = h
    assert tg.bracket(0, 1) == e(2)
    # [h, e]_t = t(2e) = -2e
    assert tg.bracket(2, 0) == -2 * e(0)

    ident = LinearOperator.identity(range(3))
    assert lie_twist(g, ident).table == g.table

    neg = LinearOperator.from_matrix([[-1]], inverse=[[-1]])
    tw = lie_twist(abelian_lie(1), neg)
    assert check_hom_lie(tw).passed

    with pytest.raises(NotLieEndomorphism):
        lie_twist(g, LinearOperator.from_matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_lie_modules():
    g = sl2()
    adj = LieActionData(
        g,
        range(3),
        {(i, j): g.bracket(i, j) for i in range(3) for j in range(3)},
        LinearOperator.identity(range(3)),
    )
    assert check_lie_module(g, adj).passed
    zero = LieActionData(g, range(3), {}, LinearOperator.identity(range(3)))
    assert check_lie_module(g, zero).passed
    # adjoint action with a mismatched carrier map fails axiom (i)
    skew = LieActionData(
        g,
        range(3),
        {(i, j): g.bracket(i, j) for i in range(3) for j in range(3)},
        sl2_involution(),
    )
    rep = check_lie_module(g, skew)
    assert any(eq.eq_id == "lie-module-i" and eq.violations for eq in rep.equations)


# the failures of the h-on-g/ and g-on-h/ blocks of check_matched_pair_lie
# on each +1 perturbation of the sl2 split pair at lam = -1 that fails one:
# (equation, witness, lhs, rhs).  Keys: g = <e> (0), h = <h (0), f (1)>,
# phi_g = -1, alpha_h = diag(1, -1), [h, f] = 2f; h acts on g by h.e = -2e
# and g on h by e.f = -h (f <| e = -h).
# g-on-h/lie-module-i asks alpha_h(e.v) = phi_g(e).alpha_h(v) = -(e.alpha_h(v)):
# - e.h = h: at (e, h) the lhs is alpha_h(h) = h, the rhs -(e.h) = -h;
# - e.f = -h + f: at (e, f) the lhs is alpha_h(-h + f) = -h - f, the rhs
#   -(e.(-f)) = e.f = -h + f.
# (e.h = f passes: alpha_h(f) = -f = -(e.h).)
# h-on-g/lie-module-i asks phi_g(x.e) = alpha_h(x).phi_g(e): with f.e = e,
# at (f, e) the lhs is -e and the rhs (-f).(-e) = e.  lie-module-ii at
# (h, f, e) then reads [h, f].phi_g(e) = -2(f.e) = -2e against
# h.(f.e) + f.(h.e) = -2e - 2e = -4e, and (f, h, e) is its negative.
MODULE_BLOCK_FAILURES = {
    "h_on_g(1, 0)+e0": [
        ("h-on-g/lie-module-i", (1, 0), -1 * e(0), e(0)),
        ("h-on-g/lie-module-ii", (0, 1, 0), -2 * e(0), -4 * e(0)),
        ("h-on-g/lie-module-ii", (1, 0, 0), 2 * e(0), 4 * e(0)),
    ],
    "g_on_h(0, 0)+e0": [("g-on-h/lie-module-i", (0, 0), e(0), -1 * e(0))],
    "g_on_h(0, 1)+e1": [
        ("g-on-h/lie-module-i", (0, 1), -1 * e(0) - e(1), -1 * e(0) + e(1)),
    ],
}


def module_block_failures(p):
    return [
        (q.eq_id, v.witness, v.lhs, v.rhs)
        for q in check_matched_pair_lie(p).equations
        if q.eq_id.startswith(("h-on-g/", "g-on-h/"))
        for v in q.violations
    ]


def test_matched_pair_check_runs_the_module_check_on_each_action():
    """check_matched_pair_lie holds the report of check_lie_module on the
    h-action, then on the g-action: valid pairs pass both blocks, and the
    +1 perturbations of the sl2 split pair's actions fail them with the
    witnesses derived above."""
    for p in (fixture_b_lie_pair(), fixture_a_prime_lie_pair(), sl2_split_pair(-1)):
        assert module_block_failures(p) == []
    got = {}
    for label, p in perturbations(sl2_split_pair(-1)):
        failures = module_block_failures(p)
        if failures:
            got[label] = failures
    assert got == MODULE_BLOCK_FAILURES
    failing = Counter(
        eq_id for failures in got.values() for eq_id in {f[0] for f in failures}
    )
    assert failing == {
        "h-on-g/lie-module-i": 1, "h-on-g/lie-module-ii": 1, "g-on-h/lie-module-i": 2,
    }


def test_lie_action_missing_entry_reads_zero():
    g = sl2()
    sparse = LieActionData(g, range(3), {(0, 1): e(2)}, LinearOperator.identity(range(3)))
    assert sparse.apply(e(0), e(1) + e(2)) == e(2)
    assert sparse.apply(e(1), e(0)) == LinComb.zero()
    assert sparse.apply(e(0) + e(2), 3 * e(1)) == 3 * e(2)


def test_trivial_actions_always_matched():
    g = sl2()
    h = abelian_lie(2)
    pair = MatchedPairLie(
        g,
        h,
        LieActionData(h, range(3), {}, g.phi),
        LieActionData(g, range(2), {}, h.phi),
    )
    assert check_matched_pair_lie(pair).passed
    summed = build_double_sum_lie(pair)
    assert check_hom_lie(summed).passed
    assert summed.bracket(0, 1) == e(2)  # the sl2 part embeds untouched
    assert summed.bracket(3, 4) == LinComb.zero()


def test_fixture_b_matched_and_recovers_solvable():
    pair = fixture_b_lie_pair()
    assert check_matched_pair_lie(pair).passed
    summed = build_double_sum_lie(pair)
    assert check_hom_lie(summed).passed
    # basis: 0 = y (from g), 1 = x (from h); [y, x] = -(x |> y) = -y
    assert summed.bracket(0, 1) == -1 * e(0)
    assert summed.bracket(1, 0) == e(0)
    # so [x, y] = y: the 2-dimensional solvable algebra
    s = solvable2_lie()
    assert s.bracket(0, 1) == e(1)


def test_fixture_a_prime_matched():
    pair = fixture_a_prime_lie_pair()
    assert check_matched_pair_lie(pair).passed
    summed = build_double_sum_lie(pair)
    assert check_hom_lie(summed).passed
    assert summed.phi.apply(e(0)) == -1 * e(0)


def test_matched_pair_failure_two_dim():
    # g = <y> abelian, h = <x0, x1> abelian; x0 |> y = y and x1 <| y = x0.
    # Equation II at (x0, x1, y) reads 0 = -(x1 <| y), which fails.
    g = abelian_lie(1)
    h = abelian_lie(2)
    h_on_g = LieActionData(h, [0], {(0, 0): e(0)}, g.phi)
    g_on_h = LieActionData(g, [0, 1], {(0, 1): e(0)}, h.phi)
    pair = MatchedPairLie(g, h, h_on_g, g_on_h)
    rep = check_matched_pair_lie(pair)
    assert not rep.passed
    failed = {eq.eq_id for eq in rep.equations if not eq.passed}
    assert "matched-pair-Hom-Lie-alg-II" in failed
    with pytest.raises(NotMatchedPair):
        build_double_sum_lie(pair)
    # theorem probe, failing direction: the unchecked sum fails the Jacobi scan
    summed = build_double_sum_lie(pair, check=False)
    rep2 = check_hom_lie(summed)
    assert any(eq.eq_id == "hom-jacobi" and eq.violations for eq in rep2.equations)


def test_double_sum_iff_matched_on_fixture_corpus():
    fixtures = [fixture_b_lie_pair(), fixture_a_prime_lie_pair()]
    for pair in fixtures:
        matched = check_matched_pair_lie(pair).passed
        summed = build_double_sum_lie(pair, check=False)
        assert check_hom_lie(summed).passed == matched
