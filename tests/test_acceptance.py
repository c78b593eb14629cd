"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single [criterion-N] PASS line (run with -s to see them
on success) and asserts its stated wall-clock budget.
"""

import time

from homhopf.errors import TruncationOverflow
from homhopf.foundation import LinComb, LinearOperator, extend
from homhopf.hom_core import check_hom_hopf
from homhopf.duality import dual_hom_hopf
from homhopf.cross_products import (
    Bicrossproduct,
    DoubleCrossProduct,
    MatchedPairHopf,
    MutualPairHopf,
    check_matched_pair_hopf,
    check_mutual_pair,
)
from homhopf.semidual import build_hom_lie_hopf, semidualize
from homhopf.uea_trees import TreeOps, build_truncated_uea, lift_to_Uh_action

from fixtures import (
    abelian_lie,
    fixture_a_prime_lie_pair,
    fixture_b_lie_pair,
    kz4_twisted_hopf,
)
from oracles import ClassicalBicrossOracle, antipode_from_convolution, sym_algebra_dims

e = LinComb.basis


def _elapsed_ok(t0, bound, label):
    dt = time.monotonic() - t0
    assert dt < bound, "%s took %.1fs (budget %ss)" % (label, dt, bound)
    return dt


def _trivial_hopf_matched_pair():
    u, v = kz4_twisted_hopf(), kz4_twisted_hopf()
    left, right = {}, {}
    for i in v.basis_keys():
        for j in u.basis_keys():
            left[(i, j)] = v.counit_map(e(i)) * u.alpha_map(e(j))
            right[(i, j)] = u.counit_map(e(j)) * v.alpha_map(e(i))
    return MatchedPairHopf(u, v, left, right)


def test_criterion_1_hom_hopf_axiom_suite():
    t0 = time.monotonic()
    h = kz4_twisted_hopf()
    rep = check_hom_hopf(h)
    assert rep.passed, rep.violations
    ids = {eq.eq_id for eq in rep.equations}
    assert {"bialg-%d" % i for i in range(1, 10)} <= ids
    assert {"antipode-left", "antipode-right"} <= ids
    derived = {
        "antipode-unit",
        "eps-antipode",
        "antipode-antimultiplicative",
        "antipode-anticomultiplicative",
    }
    assert derived <= ids
    assert rep.total_skipped() == 0  # finite fixture: full coverage
    dt = _elapsed_ok(t0, 1.0, "criterion 1")
    print("\n[criterion-1] PASS hom-hopf axiom suite on k[Z/4] twist (%.2fs)" % dt)


def test_criterion_2_duality():
    t0 = time.monotonic()
    h = kz4_twisted_hopf()
    d = dual_hom_hopf(h)
    assert check_hom_hopf(d).passed
    dd = dual_hom_hopf(d)
    assert dd.mult == h.mult and dd.comult == h.comult
    assert dd.unit == h.unit and dd.counit == h.counit
    for i in h.basis_keys():
        assert dd.alpha.apply(e(i)) == h.alpha.apply(e(i))
        assert dd.beta.apply(e(i)) == h.beta.apply(e(i))
        assert dd.antipode.apply(e(i)) == h.antipode.apply(e(i))
    s = antipode_from_convolution(h)
    assert s is not None
    for i in h.basis_keys():
        assert s.apply(e(i)) == h.antipode_map(e(i))
    dt = _elapsed_ok(t0, 1.0, "criterion 2")
    print("\n[criterion-2] PASS dual suite, double dual, antipode uniqueness (%.2fs)" % dt)


def test_criterion_3_uea_dimensions():
    t0 = time.monotonic()
    u1 = build_truncated_uea(abelian_lie(1), 3, 3)
    assert u1.dims_per_degree() == sym_algebra_dims(1, 3) == [1, 1, 1, 1]
    u2 = build_truncated_uea(abelian_lie(2), 3, 3)
    assert u2.dims_per_degree() == sym_algebra_dims(2, 3) == [1, 2, 3, 4]
    dt = _elapsed_ok(t0, 30.0, "criterion 3")
    print("\n[criterion-3] PASS classical enveloping dimensions at N=3 (%.2fs)" % dt)


def test_criterion_4_tree_hopf_structure():
    t0 = time.monotonic()
    swap = LinearOperator.from_matrix([[0, 1], [1, 0]], inverse=[[0, 1], [1, 0]])
    ops = TreeOps(swap)
    checked = 0
    for n in range(1, 5):
        for key in ops.basis_keys(n, 1, 2):
            d = ops.coproduct_key(key)
            lhs = LinComb()
            rhs = LinComb()
            for (k1, k2), v in d.items():
                lhs = lhs.add_scaled(e(k1) @ extend(ops.coproduct_key, e(k2)), v)
                rhs = rhs.add_scaled(extend(ops.coproduct_key, e(k1)) @ e(k2), v)
            lhs = LinComb({(a, b, c): w for (a, (b, c)), w in lhs.items()})
            rhs = LinComb({(a, b, c): w for ((a, b), c), w in rhs.items()})
            assert lhs == rhs, key
            checked += 1
    assert checked == 1428

    # generator membership (coideal/antipode/shift stability of the ideals)
    budgets = [
        (abelian_lie(1), 4, 2),
        (abelian_lie(2, swap), 3, 1),
    ]
    for g, n, w in budgets:
        u = build_truncated_uea(g, n, w)
        rep = u.well_definedness_report()
        assert rep.passed, rep.violations
        assert rep.total_checked() > 0
    dt = _elapsed_ok(t0, 60.0, "criterion 4")
    print(
        "\n[criterion-4] PASS coassociativity on %d trees and ideal membership (%.2fs)"
        % (checked, dt)
    )


def test_criterion_5_matched_pair_lift():
    t0 = time.monotonic()
    mp = lift_to_Uh_action(fixture_b_lie_pair(), 3, 3)
    rep = check_matched_pair_hopf(mp)
    assert rep.passed, rep.violations
    for eq_id in (
        "v-rt-uu'",
        "vv'-lt-u",
        "v-lt-u-ot-v-rt-u-switch",
        "actions-on-1",
        "actions-on-1-right",
    ):
        eq = rep.equation(eq_id)
        assert eq.checked > 0 and not eq.violations, eq_id

    # single-constant perturbation of x <| y must produce a violation
    U, V = mp.u, mp.v
    y = [k for k in U.basis_keys() if U.degree(k) == 1][0]
    x = [k for k in V.basis_keys() if V.degree(k) == 1][0]
    pert = dict(mp.right)
    pert[(x, y)] = pert[(x, y)] + e(x)
    rep_bad = check_matched_pair_hopf(MatchedPairHopf(U, V, mp.left, pert))
    assert len(rep_bad.violations) >= 1
    assert not rep_bad.equation("vv'-lt-u").passed
    dt = _elapsed_ok(t0, 120.0, "criterion 5")
    print("\n[criterion-5] PASS matched-pair lift at N=3 plus perturbation (%.2fs)" % dt)


def test_criterion_6_double_cross_product():
    t0 = time.monotonic()
    mp = lift_to_Uh_action(fixture_b_lie_pair(), 3, 3)
    assert check_matched_pair_hopf(mp).passed
    dcp = DoubleCrossProduct(mp)
    rep = check_hom_hopf(dcp)
    assert rep.passed, rep.violations

    U, V = mp.u, mp.v
    onev = V.unit_elem()
    pairs = 0
    for ku in U.basis_keys():
        for ku2 in U.basis_keys():
            try:
                got = dcp.product(e(ku) @ onev, e(ku2) @ onev)
                want = U.product(e(ku), e(ku2)) @ onev
            except TruncationOverflow:
                continue
            assert got == want
            pairs += 1
    assert pairs > 0
    dt = _elapsed_ok(t0, 120.0, "criterion 6")
    print(
        "\n[criterion-6] PASS double cross product suite, %d embedded products (%.2fs)"
        % (pairs, dt)
    )


def test_criterion_7_bicrossproduct():
    t0 = time.monotonic()
    f, u = kz4_twisted_hopf(), kz4_twisted_hopf()
    action = {}
    for i in u.basis_keys():
        for j in f.basis_keys():
            action[(i, j)] = u.counit_map(e(i)) * f.beta_map(e(j))
    coaction = {i: u.alpha_map(e(i)) @ f.unit_elem() for i in u.basis_keys()}
    m = MutualPairHopf(f, u, action, coaction)
    assert check_mutual_pair(m).passed
    bi = Bicrossproduct(m)
    rep = check_hom_hopf(bi)
    assert rep.passed, rep.violations
    for k1 in bi.basis_keys():
        for k2 in bi.basis_keys():
            assert bi.counit_map(bi.product(e(k1), e(k2))) == bi.counit_map(
                e(k1)
            ) * bi.counit_map(e(k2))
    dt = _elapsed_ok(t0, 30.0, "criterion 7")
    print("\n[criterion-7] PASS bicrossproduct suite on finite fixtures (%.2fs)" % dt)


def test_criterion_8_semidualization_iff():
    t0 = time.monotonic()
    cases = [("base", None, None)]
    cases += [
        ("perturb-left-1-1", "left", (1, 1)),
        ("perturb-right-2-3", "right", (2, 3)),
        ("perturb-left-3-0", "left", (3, 0)),
    ]
    agreements = []
    for name, side, key in cases:
        p = _trivial_hopf_matched_pair()
        if side is not None:
            table = p.left if side == "left" else p.right
            table[key] = table[key] + e(0)
        matched = check_matched_pair_hopf(p).passed
        mutual = check_mutual_pair(semidualize(p)).passed
        agreements.append((name, matched, mutual))
        assert matched == mutual, name
    assert agreements[0][1] is True
    assert all(not m for _, m, _ in agreements[1:])
    dt = _elapsed_ok(t0, 60.0, "criterion 8")
    print("\n[criterion-8] PASS matched/mutual equivalence on 4 variants (%.2fs)" % dt)


def test_criterion_9_hom_lie_hopf_pipeline():
    t0 = time.monotonic()
    # Fixture A': twists of order two, trivial actions, N = 2
    pa = fixture_a_prime_lie_pair()
    res_a = build_hom_lie_hopf(pa, 2, 1)
    assert res_a.matched_report.passed
    assert res_a.mutual_report.passed, res_a.mutual_report.violations
    assert res_a.suite_report.passed, res_a.suite_report.violations

    # Fixture B at N = 3: tables agree with the classical oracle
    pb = fixture_b_lie_pair()
    n = 3
    res_b = build_hom_lie_hopf(pb, n, 3)
    assert res_b.matched_report.passed
    assert res_b.mutual_report.passed
    bi, U, F = res_b.bicross, res_b.ug, res_b.mutual.f
    u_by_deg = {U.degree(k): k for k in U.basis_keys()}
    f_by_deg = {F.degree(k): k for k in F.basis_keys()}
    ours = {
        (a, m): (f_by_deg[a], u_by_deg[m])
        for a in range(n + 1)
        for m in range(n + 1)
    }
    back = {v: k for k, v in ours.items()}
    oracle = ClassicalBicrossOracle(n)
    entries = 0
    for k1 in oracle.keys:
        for k2 in oracle.keys:
            want = oracle.product(k1, k2)
            if want is None:
                continue
            got = {back[key]: c for key, c in bi.product(e(ours[k1]), e(ours[k2])).items()}
            assert got == want, (k1, k2)
            entries += 1
    for k in oracle.keys:
        got = {}
        for (p1, p2), c in bi.comult_map(e(ours[k]), truncated=True).items():
            got[(back[p1], back[p2])] = c
        assert got == oracle.comult(k), k
        assert bi.counit_map(e(ours[k])) == oracle.counit(k)
        got_s = {back[key]: c for key, c in bi.antipode_map(e(ours[k]), truncated=True).items()}
        assert got_s == oracle.antipode(k), k
        entries += 3
    dt = _elapsed_ok(t0, 300.0, "criterion 9")
    print(
        "\n[criterion-9] PASS end-to-end pipeline; %d oracle table entries agree (%.2fs)"
        % (entries, dt)
    )
