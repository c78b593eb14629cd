import pytest

from homhopf.errors import TruncationOverflow
from homhopf.foundation import LinComb, pair_apply
from homhopf.hom_core import CoactionData, check_hom_hopf
from homhopf.cross_products import (
    Bicrossproduct,
    DoubleCrossProduct,
    MatchedPairHopf,
    MutualPairHopf,
    check_comodule_coalgebra,
    check_matched_pair_hopf,
    check_module_algebra,
    check_mutual_pair,
)
from homhopf.semidual import semidualize
from homhopf.uea_trees import UNIT, lift_to_Uh_action

from fixtures import ActionData, fixture_a_prime_lie_pair, fixture_b_lie_pair, kz4_twisted_hopf
from oracles import (
    antipode_from_convolution,
    check_hom_module,
    check_module_coalgebra,
    fresh_copy,
    hopf_data,
)

e = LinComb.basis


def trivial_hopf_matched_pair():
    """Two copies of the twisted group algebra with counital actions."""
    u, v = kz4_twisted_hopf(), kz4_twisted_hopf()
    left, right = {}, {}
    for i in v.basis_keys():
        eps_v = v.counit_map(e(i))
        for j in u.basis_keys():
            left[(i, j)] = eps_v * u.alpha_map(e(j))
            right[(i, j)] = u.counit_map(e(j)) * v.alpha_map(e(i))
    return MatchedPairHopf(u, v, left, right)


def uea_matched_pair(n=3, w=3):
    return lift_to_Uh_action(fixture_b_lie_pair(), n, w)


def trivial_mutual_pair():
    """Counital action and unit-valued coaction between two finite fixtures."""
    f, u = kz4_twisted_hopf(), kz4_twisted_hopf()
    action = {}
    for i in u.basis_keys():
        eps = u.counit_map(e(i))
        for j in f.basis_keys():
            action[(i, j)] = eps * f.beta_map(e(j))
    coaction = {i: u.alpha_map(e(i)) @ f.unit_elem() for i in u.basis_keys()}
    return MutualPairHopf(f, u, action, coaction)


# ---------------------------------------------------------------------------


def test_module_algebra_trivial_action():
    h = kz4_twisted_hopf()
    a = kz4_twisted_hopf()
    act = {}
    for i in h.basis_keys():
        eps = h.counit_map(e(i))
        for j in a.basis_keys():
            act[(i, j)] = eps * a.alpha_map(e(j))
    action = ActionData(h, a.basis_keys(), act, a.alpha)
    assert check_hom_module(h, action).passed
    assert check_module_algebra(h, a, action).passed
    # breaking the unit condition fails Hom-mod-alg-II
    act[(1, 0)] = act[(1, 0)] + e(0)
    rep = check_module_algebra(h, a, ActionData(h, a.basis_keys(), act, a.alpha))
    assert any(eq.eq_id == "Hom-mod-alg-II" and eq.violations for eq in rep.equations)


def test_module_algebra_over_ground_field():
    h = kz4_twisted_hopf()
    from homhopf.hom_core import HomAlgebraData
    from homhopf.foundation import LinearOperator

    k = HomAlgebraData(1, {(0, 0): e(0)}, e(0), LinearOperator.identity([0]))
    act = {(i, 0): h.counit_map(e(i)) * e(0) for i in h.basis_keys()}
    action = ActionData(h, [0], act, LinearOperator.identity([0]))
    assert check_module_algebra(h, k, action).passed


def test_module_coalgebra_on_uea_pair():
    mp = uea_matched_pair(2, 1)
    U, V = mp.u, mp.v

    class _Act:
        @staticmethod
        def apply(h, x):
            return mp.lt(h, x)

    rep = check_module_coalgebra(V, U, _Act)
    assert rep.passed, rep.violations
    # break the diagonal compatibility
    broken = dict(mp.left)
    y = [k for k in U.basis_keys() if U.degree(k) == 1][0]
    x = [k for k in V.basis_keys() if V.degree(k) == 1][0]
    broken[(x, y)] = broken[(x, y)] + e(UNIT)
    mp2 = MatchedPairHopf(U, V, broken, mp.right)

    class _Act2:
        @staticmethod
        def apply(h, xx):
            return mp2.lt(h, xx)

    rep2 = check_module_coalgebra(V, U, _Act2)
    assert any(eq.eq_id == "Hom-mod-coalg-I" and eq.violations for eq in rep2.equations)


def test_comodule_coalgebra():
    h = kz4_twisted_hopf()
    coact = CoactionData(
        h, h.basis_keys(), {i: h.beta_map(e(i)) @ h.unit_elem() for i in range(4)},
        h.beta,
    )
    assert check_comodule_coalgebra(h, h, coact).passed
    tbl = {i: h.beta_map(e(i)) @ h.unit_elem() for i in range(4)}
    tbl[1] = tbl[1] + LinComb({(1, 1): 1})
    bad = CoactionData(h, h.basis_keys(), tbl, h.beta)
    rep = check_comodule_coalgebra(h, h, bad)
    assert any(
        eq.eq_id == "Hom-comod-coalg-II" and eq.violations for eq in rep.equations
    )


def test_trivial_matched_pair_passes():
    mp = trivial_hopf_matched_pair()
    rep = check_matched_pair_hopf(mp)
    assert rep.passed, rep.violations


def test_uea_matched_pair_passes_with_coverage():
    mp = uea_matched_pair()
    rep = check_matched_pair_hopf(mp)
    assert rep.passed, rep.violations
    for eq_id in ("v-rt-uu'", "vv'-lt-u", "v-lt-u-ot-v-rt-u-switch", "actions-on-1"):
        eq = rep.equation(eq_id)
        assert eq.checked > 0 and not eq.violations
    assert rep.total_skipped() > 0  # honest budget accounting


def test_uea_matched_pair_perturbation_fails():
    mp = uea_matched_pair()
    U, V = mp.u, mp.v
    y = [k for k in U.basis_keys() if U.degree(k) == 1][0]
    x = [k for k in V.basis_keys() if V.degree(k) == 1][0]
    pert = dict(mp.right)
    pert[(x, y)] = pert[(x, y)] + e(x)
    rep = check_matched_pair_hopf(MatchedPairHopf(U, V, mp.left, pert))
    assert not rep.passed
    failed = {eq.eq_id for eq in rep.equations if not eq.passed}
    assert "vv'-lt-u" in failed


def test_double_cross_product_finite():
    mp = trivial_hopf_matched_pair()
    assert check_matched_pair_hopf(mp).passed
    dcp = DoubleCrossProduct(mp)
    rep = check_hom_hopf(dcp)
    assert rep.passed, rep.violations
    assert check_hom_hopf(hopf_data(dcp)).passed


def test_double_cross_product_embeds_factors():
    mp = uea_matched_pair()
    assert check_matched_pair_hopf(mp).passed
    dcp = DoubleCrossProduct(mp)
    U, V = mp.u, mp.v
    onev = V.unit_elem()
    for ku in U.basis_keys():
        for ku2 in U.basis_keys():
            if U.degree(ku) + U.degree(ku2) > U.truncation_degree:
                continue
            got = dcp.product(e(ku) @ onev, e(ku2) @ onev)
            want = U.product(e(ku), e(ku2)) @ onev
            assert got == want
    oneu = U.unit_elem()
    for kv in V.basis_keys():
        for kv2 in V.basis_keys():
            if V.degree(kv) + V.degree(kv2) > V.truncation_degree:
                continue
            got = dcp.product(oneu @ e(kv), oneu @ e(kv2))
            want = oneu @ V.product(e(kv), e(kv2))
            assert got == want
    unit = dcp.unit_elem()
    assert dcp.product(unit, unit) == dcp.alpha_map(unit) == unit
    assert dcp.antipode_map(unit) == unit


def test_double_cross_product_suite_truncated():
    mp = uea_matched_pair()
    assert check_matched_pair_hopf(mp).passed
    rep = check_hom_hopf(DoubleCrossProduct(mp))
    assert rep.passed, rep.violations
    assert rep.total_skipped() > 0


def test_double_cross_product_rejects_broken_pair():
    mp = trivial_hopf_matched_pair()
    mp.left[(1, 1)] = mp.left[(1, 1)] + e(0)
    assert not check_matched_pair_hopf(mp).passed


def test_trivial_mutual_pair_and_bicrossproduct():
    m = trivial_mutual_pair()
    rep = check_mutual_pair(m)
    assert rep.passed, rep.violations
    bi = Bicrossproduct(m)
    suite = check_hom_hopf(bi)
    assert suite.passed, suite.violations
    # eps is multiplicative on the bicrossproduct as displayed
    for k1 in bi.basis_keys():
        for k2 in bi.basis_keys():
            lhs = bi.counit_map(bi.product(e(k1), e(k2)))
            rhs = bi.counit_map(e(k1)) * bi.counit_map(e(k2))
            assert lhs == rhs
    assert bi.antipode_map(bi.unit_elem()) == bi.unit_elem()
    assert check_hom_hopf(hopf_data(bi)).passed


def test_mutual_pair_perturbed_coaction_fails_comp3():
    m = trivial_mutual_pair()
    m.coaction[2] = m.coaction[2] + LinComb({(1, 1): 1})
    rep = check_mutual_pair(m)
    assert not rep.passed
    failed = {eq.eq_id for eq in rep.equations if not eq.passed}
    assert "comp-III" in failed


def test_double_cross_product_antipode_is_convolution_inverse():
    data = hopf_data(DoubleCrossProduct(trivial_hopf_matched_pair()))
    s = antipode_from_convolution(data)
    assert s is not None
    for k in data.basis_keys():
        assert s.apply(e(k)) == data.antipode_map(e(k))


def test_bicross_product_of_fiber_elements():
    # (f, 1)(f', 1) = (a^-1 b(f) * a^-1 b(f'), 1)
    m = trivial_mutual_pair()
    bi = Bicrossproduct(m)
    F, U = m.f, m.u
    one_u = U.unit_elem()
    for kf in F.basis_keys():
        for kf2 in F.basis_keys():
            got = bi.product(e(kf) @ one_u, e(kf2) @ one_u)
            want = F.product(
                F.alpha_inv(F.beta_map(e(kf))), F.alpha_inv(F.beta_map(e(kf2)))
            ) @ one_u
            assert got == want


# ---------------------------------------------------------------------------
# the tabulated product, twists, coproduct and antipode of the
# tensor-product Hopf objects against the uncached maps they replace

TWIST_METHODS = {
    "alpha": "alpha_map",
    "alpha_inv": "alpha_inv",
    "beta": "beta_map",
    "beta_inv": "beta_inv",
}


def lie_bicross(pair, n, w):
    return Bicrossproduct(semidualize(lift_to_Uh_action(pair, n, w)))


# fixture A' is the one case whose alpha and beta twists differ, so a table
# that mixes up twist names shows there
TENSOR_CASES = {
    "fixture_b_bicross_n3_w1": lambda: lie_bicross(fixture_b_lie_pair(), 3, 1),
    "fixture_a_prime_bicross_n3_w1": lambda: lie_bicross(fixture_a_prime_lie_pair(), 3, 1),
    "kz4_doublecross": lambda: DoubleCrossProduct(trivial_hopf_matched_pair()),
    "z4_trivial_bicross": lambda: Bicrossproduct(trivial_mutual_pair()),
}


def terms(x):
    """Terms in order, so that equality includes term order."""
    return list(x.items())


def memo_terms(t):
    return {k: v if isinstance(v, str) else terms(v) for k, v in t._memo.items()}


@pytest.mark.parametrize("case", sorted(TENSOR_CASES))
def test_tabulated_tensor_maps_match_uncached(case):
    t = TENSOR_CASES[case]()
    keys = t.basis_keys()
    overflows = 0
    # the second pass reads every entry, overflows included, from the table
    for _ in range(2):
        for k1 in keys:
            for k2 in keys:
                try:
                    want = t.product_keys(k1, k2)
                except TruncationOverflow:
                    overflows += 1
                    with pytest.raises(TruncationOverflow):
                        t.product(e(k1), e(k2))
                    continue
                assert terms(t.product(e(k1), e(k2))) == terms(want), (k1, k2)
    assert overflows or not t.is_truncated
    for name, (f, g) in t._twists.items():
        method = getattr(t, TWIST_METHODS[name])
        for k in keys:
            for _ in range(2):
                assert terms(method(e(k))) == terms(pair_apply(f, g, e(k))), (name, k)
    # the coproduct and the antipode against a fresh copy for every key
    for name in ("comult_map", "antipode_map"):
        for k in keys:
            try:
                want = getattr(fresh_copy(t), name)(e(k))
            except TruncationOverflow:
                for _ in range(2):
                    with pytest.raises(TruncationOverflow):
                        getattr(t, name)(e(k))
                continue
            for _ in range(2):
                assert terms(getattr(t, name)(e(k))) == terms(want), (name, k)
    assert not any(isinstance(v, BaseException) for v in t._memo.values())

    # the tables hand out shared instances: a full suite must leave them as is
    first = check_hom_hopf(t)
    before = memo_terms(t)
    second = check_hom_hopf(t)
    assert memo_terms(t) == before
    assert [(q.eq_id, q.checked, q.skipped) for q in first.equations] == [
        (q.eq_id, q.checked, q.skipped) for q in second.equations
    ]
    assert first.passed and second.passed
