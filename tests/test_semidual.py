import pytest

from homhopf.errors import OrderConstraintViolated, TruncationOverflow
from homhopf.foundation import LinComb, LinearOperator
from homhopf.hom_core import check_hom_comodule, check_hom_hopf
from homhopf.duality import dual_hom_hopf
from homhopf.cross_products import (
    Bicrossproduct,
    DoubleCrossProduct,
    MatchedPairHopf,
    check_comodule_coalgebra,
    check_matched_pair_hopf,
    check_mutual_pair,
)
from homhopf.semidual import build_hom_lie_hopf, semidualize
from homhopf.uea_trees import lift_to_Uh_action

from fixtures import (
    abelian_lie,
    fixture_a_prime_lie_pair,
    fixture_b_lie_pair,
    kz4_twisted_hopf,
    sl2,
    trivial_hopf_matched_pair,
)
from lie_pairs import (
    anticommuting_pair,
    sl2_reverse_split_pair,
    sl2_split_pair,
)
from oracles import (
    ClassicalBicrossOracle,
    action_from_coaction,
    build_double_sum_lie,
    check_module_coalgebra,
)

e = LinComb.basis


def test_coaction_from_action_trivial():
    mp = trivial_hopf_matched_pair()
    U, V = mp.u, mp.v
    m = semidualize(mp)
    # trivial action dualizes to u -> phi(u) x eps
    dual_unit = dual_hom_hopf(V).unit_elem()
    for i in U.basis_keys():
        want = LinComb()
        for k2, c in U.alpha_map(e(i)).items():
            for w, d in dual_unit.items():
                want = want + LinComb({(k2, w): c * d})
        assert m.coaction_legs(e(i)) == want
    assert check_hom_comodule(m.f, U.basis_keys(), m.coaction_legs, U.alpha_map).passed


def test_action_coaction_round_trip():
    mp = trivial_hopf_matched_pair()
    U, V = mp.u, mp.v
    m = semidualize(mp)
    coaction = {i: m.coaction_legs(e(i)) for i in U.basis_keys()}
    recovered = action_from_coaction(V, U.basis_keys(), coaction)
    assert recovered == mp.left


def test_semidualize_trivial_pair_is_mutual():
    mp = trivial_hopf_matched_pair()
    m = semidualize(mp)
    rep = check_mutual_pair(m)
    assert rep.passed, rep.violations
    assert check_hom_hopf(Bicrossproduct(m)).passed


def test_semidualize_iff_under_perturbations():
    outcomes = []
    base = trivial_hopf_matched_pair()
    outcomes.append(
        (check_matched_pair_hopf(base).passed,
         check_mutual_pair(semidualize(base)).passed)
    )
    perturbations = [("left", (1, 1)), ("right", (2, 3)), ("left", (3, 0))]
    for side, key in perturbations:
        p = trivial_hopf_matched_pair()
        table = p.left if side == "left" else p.right
        table[key] = table[key] + e(0)
        outcomes.append(
            (check_matched_pair_hopf(p).passed,
             check_mutual_pair(semidualize(p)).passed)
        )
    assert outcomes[0] == (True, True)
    for matched, mutual in outcomes[1:]:
        assert matched is False and mutual is False
    # both directions of the equivalence observed on the corpus
    assert all(m == mu for m, mu in outcomes)


def test_order_constraint_enforcement():
    # alpha = 2 id of infinite order with beta = id: alpha^4 beta^-2 != id
    u = kz4_twisted_hopf()
    v = kz4_twisted_hopf()
    doubling = LinearOperator.from_matrix([[2 if i == j else 0 for j in range(4)] for i in range(4)])
    ident = LinearOperator.identity(range(4))
    from homhopf.hom_core import HomHopfData

    v_bad = HomHopfData(
        4, v.mult, v.unit, doubling, v.comult, v.counit, ident, v.antipode
    )
    left = {}
    right = {}
    for i in v_bad.basis_keys():
        for j in u.basis_keys():
            left[(i, j)] = v_bad.counit_map(e(i)) * u.alpha_map(e(j))
            right[(i, j)] = u.counit_map(e(j)) * v_bad.alpha_map(e(i))
    mp = MatchedPairHopf(u, v_bad, left, right)
    with pytest.raises(OrderConstraintViolated):
        semidualize(mp)
    # the override lets the pipeline continue
    m = semidualize(mp, enforce_order_constraint=False)
    assert m is not None


def test_graded_semidual_fixture_a_prime():
    pair = fixture_a_prime_lie_pair()
    res = build_hom_lie_hopf(pair, 2, 1)
    assert res.matched_report.passed
    assert res.mutual_report.passed, res.mutual_report.violations
    assert res.mutual.coaction_complete
    assert res.suite_report.passed, res.suite_report.violations
    assert (
        res.matched_report.passed and res.mutual_report.passed
        and res.suite_report.passed
    )


def test_graded_semidual_iff_perturbation():
    good = lift_to_Uh_action(fixture_b_lie_pair(), 2, 1)
    U, V = good.u, good.v
    assert check_matched_pair_hopf(good).passed
    assert check_mutual_pair(semidualize(good)).passed

    y = [k for k in U.basis_keys() if U.degree(k) == 1][0]
    x = [k for k in V.basis_keys() if V.degree(k) == 1][0]
    pert = dict(good.right)
    pert[(x, y)] = pert[(x, y)] + e(x)
    bad = MatchedPairHopf(U, V, good.left, pert)
    assert not check_matched_pair_hopf(bad).passed
    rep = check_mutual_pair(semidualize(bad))
    assert not rep.passed
    failed = {eq.eq_id for eq in rep.equations if not eq.passed}
    assert failed & {"comp-I", "comp-III", "comp-IV"}


def test_hom_lie_hopf_order_constraint():
    # a twist of order 3 violates the order-4 hypothesis
    third = LinearOperator.from_matrix(
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    )
    g = abelian_lie(3, third)
    h = abelian_lie(1)
    from homhopf.hom_lie import LieActionData, MatchedPairLie

    pair = MatchedPairLie(
        g, h,
        LieActionData(h, range(3), {}, g.phi),
        LieActionData(g, [0], {}, h.phi),
    )
    with pytest.raises(OrderConstraintViolated):
        build_hom_lie_hopf(pair, 2, 0)


def test_hom_lie_hopf_rejects_truncation_degree_zero():
    with pytest.raises(ValueError, match="truncation degree must be at least 1"):
        build_hom_lie_hopf(fixture_b_lie_pair(), 0, 0)


def test_hom_lie_hopf_fixture_b_matches_classical_oracle():
    pair = fixture_b_lie_pair()
    n = 3
    res = build_hom_lie_hopf(pair, n, 3)
    assert res.matched_report.passed
    assert res.mutual_report.passed, res.mutual_report.violations
    bi = res.bicross
    U, F = res.matched_pair.u, res.mutual.f

    # identify keys by degree on both sides (all graded pieces are 1-dim)
    u_by_deg = {U.degree(k): k for k in U.basis_keys()}
    f_by_deg = {F.degree(k): k for k in F.basis_keys()}
    ours = {(a, m): (f_by_deg[a], u_by_deg[m]) for a in range(n + 1) for m in range(n + 1)}
    oracle = ClassicalBicrossOracle(n)

    def decode(x):
        back = {v: k for k, v in ours.items()}
        return {back[key]: c for key, c in x.items()}

    for k1 in oracle.keys:
        for k2 in oracle.keys:
            want = oracle.product(k1, k2)
            if want is None:
                with pytest.raises(TruncationOverflow):
                    bi.product(e(ours[k1]), e(ours[k2]))
                continue
            got = decode(bi.product(e(ours[k1]), e(ours[k2])))
            assert got == want, (k1, k2)

    for k in oracle.keys:
        got = bi.comult_map(e(ours[k]), truncated=True)
        flat = {}
        for (p1, p2), c in got.items():
            back1 = next(ab for ab, kk in ours.items() if kk == p1)
            back2 = next(ab for ab, kk in ours.items() if kk == p2)
            flat[(back1, back2)] = c
        assert flat == oracle.comult(k), k

        assert bi.counit_map(e(ours[k])) == oracle.counit(k)
        got_s = decode(bi.antipode_map(e(ours[k]), truncated=True))
        assert got_s == oracle.antipode(k), k

        # classical fixture: both twists are the identity
        assert bi.alpha_map(e(ours[k])) == e(ours[k])
        assert bi.beta_map(e(ours[k])) == e(ours[k])


def test_comodule_coalgebra_from_module_coalgebra_round_trip():
    mp = trivial_hopf_matched_pair()
    U, V = mp.u, mp.v
    assert check_module_coalgebra(V, U, mp.lt).passed
    m = semidualize(mp)
    rep = check_comodule_coalgebra(m.f, U, m.coaction_legs)
    assert rep.passed, rep.violations

    # a broken diagonal compatibility dualizes to a broken coaction diagonal
    broken = dict(mp.left)
    broken[(1, 1)] = broken[(1, 1)] + e(0)
    mp2 = MatchedPairHopf(U, V, broken, mp.right)
    rep_in = check_module_coalgebra(V, U, mp2.lt)
    assert any(
        eq.eq_id == "Hom-mod-coalg-I" and eq.violations for eq in rep_in.equations
    )
    m2 = semidualize(mp2)
    rep_out = check_comodule_coalgebra(m2.f, U, m2.coaction_legs)
    assert any(
        eq.eq_id == "Hom-comod-coalg-I" and eq.violations for eq in rep_out.equations
    )


def test_swap_twisted_pair_with_nontrivial_action():
    # phi = swap on a 2-dim abelian g, alpha = id on h = <x>, x acting by a
    # swap-commuting matrix and trivial <|: a genuinely twisted matched pair
    from homhopf.hom_lie import LieActionData, MatchedPairLie, check_matched_pair_lie

    swap = LinearOperator.from_matrix([[0, 1], [1, 0]], inverse=[[0, 1], [1, 0]])
    g = abelian_lie(2, swap)
    h = abelian_lie(1)
    h_on_g = LieActionData(
        h, [0, 1], {(0, 0): e(0) + e(1), (0, 1): e(0) + e(1)}, swap
    )
    g_on_h = LieActionData(g, [0], {}, h.phi)
    pair = MatchedPairLie(g, h, h_on_g, g_on_h)
    assert check_matched_pair_lie(pair).passed
    res = build_hom_lie_hopf(pair, 2, 1)
    assert res.matched_report.passed, res.matched_report.violations
    assert res.mutual_report.passed, res.mutual_report.violations
    assert res.matched_pair.u.dims_per_degree() == [1, 2, 3]
    # nontrivial action: the coaction support exceeds the budget, so the
    # bicross coproduct is only reported through its truncated tables
    assert not res.mutual.coaction_complete


def test_fixture_a_prime_depth_three():
    pa = fixture_a_prime_lie_pair()
    res = build_hom_lie_hopf(pa, 3, 2)
    assert res.matched_report.passed
    assert res.mutual_report.passed
    assert res.suite_report.passed
    assert res.matched_pair.u.dims_per_degree() == [1, 1, 1, 1]


def test_fixture_b_oracle_depth_four():
    pb = fixture_b_lie_pair()
    n = 4
    res = build_hom_lie_hopf(pb, n, 1)
    assert res.matched_report.passed and res.mutual_report.passed
    bi, U, F = res.bicross, res.matched_pair.u, res.mutual.f
    u_by_deg = {U.degree(k): k for k in U.basis_keys()}
    f_by_deg = {F.degree(k): k for k in F.basis_keys()}
    ours = {
        (a, m): (f_by_deg[a], u_by_deg[m])
        for a in range(n + 1)
        for m in range(n + 1)
    }
    back = {v: k for k, v in ours.items()}
    oracle = ClassicalBicrossOracle(n)
    for k1 in oracle.keys:
        for k2 in oracle.keys:
            want = oracle.product(k1, k2)
            if want is None:
                continue
            got = {
                back[key]: c
                for key, c in bi.product(e(ours[k1]), e(ours[k2])).items()
            }
            assert got == want, (k1, k2)
    for k in oracle.keys:
        got = {
            (back[p1], back[p2]): c
            for (p1, p2), c in bi.comult_map(e(ours[k]), truncated=True).items()
        }
        assert got == oracle.comult(k), k
        gs = {
            back[key]: c
            for key, c in bi.antipode_map(e(ours[k]), truncated=True).items()
        }
        assert gs == oracle.antipode(k), k


def nontrivial_finite_matched_pair():
    """k[Z/4] acting on itself through inversion powers, both factors
    deformed along inversion: a matched pair with a nontrivial action."""
    u, v = kz4_twisted_hopf(), kz4_twisted_hopf()
    inv = lambda k: (4 - k) % 4
    left, right = {}, {}
    for j in range(4):
        for k in range(4):
            left[(j, k)] = e(inv((k * pow(3, j, 4)) % 4))
            right[(j, k)] = u.counit_map(e(k)) * v.alpha_map(e(j))
    return MatchedPairHopf(u, v, left, right)


def test_nontrivial_finite_pair_full_cycle():
    mp = nontrivial_finite_matched_pair()
    assert check_matched_pair_hopf(mp).passed
    assert check_hom_hopf(DoubleCrossProduct(mp)).passed
    m = semidualize(mp)
    assert check_mutual_pair(m).passed
    assert check_hom_hopf(Bicrossproduct(m)).passed
    # the coaction genuinely moves through the dual basis
    assert any(
        any(x != i for (_, x) in m.coaction_legs(e(i))) for i in mp.u.basis_keys()
    )


def test_anticommuting_action_pipeline():
    # the pair of the golden lift table: a matched pair whose lifted
    # actions interact with both twists
    from homhopf.hom_lie import check_matched_pair_lie

    pair = anticommuting_pair()
    assert check_matched_pair_lie(pair).passed
    res = build_hom_lie_hopf(pair, 2, 1)
    assert res.matched_report.passed, res.matched_report.violations
    assert res.mutual_report.passed, res.mutual_report.violations
    assert res.matched_pair.u.dims_per_degree() == [1, 2, 3]


def test_sl2_borel_split_pipeline():
    # a matched pair with a nonzero right action: f <| e = -h
    from homhopf.hom_lie import check_hom_lie

    for lam in (1, -1):
        res = build_hom_lie_hopf(sl2_split_pair(lam), 2, 1)
        assert res.matched_report.passed, (lam, res.matched_report.violations)
        assert res.mutual_report.passed, (lam, res.mutual_report.violations)
    # the double sum over the basis (e, h, f) is sl2 over its basis (e, f, h)
    d = build_double_sum_lie(sl2_split_pair())
    assert check_hom_lie(d).passed
    to_sl2 = {0: 0, 1: 2, 2: 1}
    for i in range(3):
        for j in range(3):
            got = LinComb({to_sl2[k]: c for k, c in d.bracket(i, j).items()})
            assert got == sl2().bracket(to_sl2[i], to_sl2[j]), (i, j)


def test_sl2_reverse_split_pipeline():
    # the right action iterates: (f <| h) <| h = 4f
    from homhopf.hom_lie import check_hom_lie

    for twisted in (False, True):
        res = build_hom_lie_hopf(sl2_reverse_split_pair(twisted), 2, 1)
        assert res.matched_report.passed, (twisted, res.matched_report.violations)
        assert res.mutual_report.passed, (twisted, res.mutual_report.violations)
    # the double sum over the basis (e, h, f) is sl2 over its basis (e, f, h)
    d = build_double_sum_lie(sl2_reverse_split_pair())
    assert check_hom_lie(d).passed
    to_sl2 = {0: 0, 1: 2, 2: 1}
    for i in range(3):
        for j in range(3):
            got = LinComb({to_sl2[k]: c for k, c in d.bracket(i, j).items()})
            assert got == sl2().bracket(to_sl2[i], to_sl2[j]), (i, j)
