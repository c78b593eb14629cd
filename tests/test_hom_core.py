from functools import partial

import pytest

from homhopf.foundation import LinComb, LinearOperator, extend
from homhopf.hom_core import (
    HomHopfData,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    check_hom_hopf,
    check_hom_comodule,
)

from fixtures import (
    ActionData,
    NotBialgebraMorphism,
    NotEndomorphism,
    _is_algebra_endo,
    _is_coalgebra_endo,
    cyclic_group_hopf,
    group_like_hom_bialgebra,
    hopf_twist,
    inversion_operator,
    kz4_twisted_hopf,
    self_action,
    sweedler_hopf,
    triangular_conjugation,
    trivial_left_action,
    twist_algebra,
    upper_triangular_algebra,
)
from oracles import antipode_from_convolution, check_hom_module

e = LinComb.basis


def raw_hom_assoc_holds(mult, alpha_mat, dim):
    """Independent dense-table evaluation of twisted associativity."""
    def mul_vec(x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, c in mult[(i, j)].items():
                    out[k] = out.get(k, 0) + a * b * c
        return {k: v for k, v in out.items() if v}

    def alpha_vec(x):
        out = {}
        for j, a in x.items():
            for i in range(dim):
                if alpha_mat[i][j]:
                    out[i] = out.get(i, 0) + a * alpha_mat[i][j]
        return {k: v for k, v in out.items() if v}

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = mul_vec(alpha_vec({i: 1}), mul_vec({j: 1}, {k: 1}))
                rhs = mul_vec(mul_vec({i: 1}, {j: 1}), alpha_vec({k: 1}))
                if lhs != rhs:
                    return False
    return True


def test_twist_of_triangular_algebra():
    a = upper_triangular_algebra()
    t = triangular_conjugation()
    tw = twist_algebra(a, t)
    assert check_hom_algebra(tw).passed
    # independent brute-force oracle over raw dicts
    mat = [[t.columns[j].get(i) for j in range(3)] for i in range(3)]
    assert raw_hom_assoc_holds(tw.mult, mat, 3)


def test_twist_rejects_non_endomorphism():
    # pointwise product on k^2; e0 -> e0 + e1 is not multiplicative
    mult = {(0, 0): e(0), (0, 1): LinComb.zero(), (1, 0): LinComb.zero(), (1, 1): e(1)}
    from homhopf.hom_core import HomAlgebraData

    a = HomAlgebraData(2, mult, e(0) + e(1), LinearOperator.identity(range(2)))
    bad = LinearOperator.from_matrix([[1, 0], [1, 1]])
    with pytest.raises(NotEndomorphism):
        twist_algebra(a, bad)
    # hand check: t(e0*e1) = 0 while t(e0)*t(e1) = (e0+e1)*e1 = e1
    assert bad.apply(mult[(0, 1)]) == LinComb.zero()
    assert a.product(bad.apply(e(0)), bad.apply(e(1))) == e(1)


def test_identity_twist_is_classical():
    a = upper_triangular_algebra()
    tw = twist_algebra(a, LinearOperator.identity(range(3)))
    assert tw.mult == a.mult
    assert check_hom_algebra(tw).passed


def test_perturbed_mult_fails_with_witness():
    a = upper_triangular_algebra()
    tw = twist_algebra(a, triangular_conjugation())
    tw.mult[(0, 1)] = tw.mult[(0, 1)] + e(0)
    rep = check_hom_algebra(tw)
    assert not rep.passed
    assert rep.violations[0].witness is not None


def test_kz4_twist_passes_full_suite():
    h = kz4_twisted_hopf()
    rep = check_hom_hopf(h)
    assert rep.passed, rep.violations
    ids = {eq.eq_id for eq in rep.equations}
    assert {"bialg-%d" % i for i in range(1, 10)} <= ids
    assert {
        "antipode-left",
        "antipode-right",
        "antipode-unit",
        "eps-antipode",
        "antipode-antimultiplicative",
        "antipode-anticomultiplicative",
    } <= ids


def test_hopf_twist_identity_maps_returns_input():
    h = cyclic_group_hopf(4)
    ident = LinearOperator.identity(range(4))
    tw = hopf_twist(h, ident, ident)
    assert tw.mult == h.mult and tw.comult == h.comult


def test_hopf_twist_rejects_non_bialgebra_map():
    h = cyclic_group_hopf(4)
    # multiplicative (group hom z -> 2z is not... use the map g -> g^2 which is
    # a monoid hom on Z/4 but not comultiplicative-compatible? it is; instead
    # take a linear map that permutes group-likes wrongly: swap e1, e2 only.
    mat = [[0] * 4 for _ in range(4)]
    mat[0][0] = mat[3][3] = 1
    mat[2][1] = mat[1][2] = 1
    bad = LinearOperator.from_matrix(mat)
    with pytest.raises(NotBialgebraMorphism):
        hopf_twist(h, bad, bad)


def test_group_like_bialgebra_passes():
    b = group_like_hom_bialgebra(4)
    assert check_hom_bialgebra(b).passed


def test_bialgebra_beta_alpha_commutation_failure_detected():
    h = kz4_twisted_hopf()
    # replace beta by a non-commuting map: shift g -> g+1 (still invertible)
    shift = LinearOperator.from_matrix(
        [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    )
    broken = HomHopfData(
        4, h.mult, h.unit, h.alpha, h.comult, h.counit, shift, h.antipode
    )
    rep = check_hom_bialgebra(broken)
    bad = {eq.eq_id for eq in rep.equations if not eq.passed}
    assert "bialg-9" in bad


def test_matrix_coalgebra_with_identity_beta():
    # 2x2 matrix coalgebra: Delta(e_ij) = sum_k e_ik x e_kj
    idx = {(i, j): 2 * i + j for i in range(2) for j in range(2)}
    comult = {}
    counit = {}
    for (i, j), a in idx.items():
        comult[a] = LinComb({(idx[(i, k)], idx[(k, j)]): 1 for k in range(2)})
        counit[a] = 1 if i == j else 0
    from homhopf.hom_core import HomCoalgebraData

    c = HomCoalgebraData(4, comult, counit, LinearOperator.identity(range(4)))
    assert check_hom_coalgebra(c).passed


def test_cotwist_of_coalgebra_passes():
    h = cyclic_group_hopf(4)
    t = inversion_operator(4)
    from homhopf.hom_core import HomCoalgebraData

    comult = {i: h.comult_map(t.apply(e(i))) for i in range(4)}
    c = HomCoalgebraData(4, comult, h.counit, t)
    assert check_hom_coalgebra(c).passed
    broken = dict(comult)
    broken[1] = broken[1] + LinComb({(0, 2): 1})
    bad = HomCoalgebraData(4, broken, h.counit, t)
    assert not check_hom_coalgebra(bad).passed


def test_antipode_axiom_failure_witness():
    h = kz4_twisted_hopf()
    broken = HomHopfData(
        4, h.mult, h.unit, h.alpha, h.comult, h.counit, h.beta,
        LinearOperator.identity(range(4)),
    )
    rep = check_hom_hopf(broken)
    failed = {eq.eq_id for eq in rep.equations if not eq.passed}
    assert "antipode-left" in failed or "antipode-right" in failed


def test_sweedler_hopf_and_op_cop():
    h = sweedler_hopf()
    assert check_hom_hopf(h).passed
    # S^2 is not the identity but S is invertible
    x = e(2)
    s2 = h.antipode_map(h.antipode_map(x))
    assert s2 == -1 * x


def test_self_module_and_zero_carrier():
    h = kz4_twisted_hopf()
    assert check_hom_module(h, self_action(h)).passed
    empty = ActionData(h, [], {}, LinearOperator.identity([]).apply)
    assert check_hom_module(h, empty).passed


def test_module_with_wrong_gamma_fails():
    h = kz4_twisted_hopf()
    act = self_action(h)
    act.gamma = LinearOperator.identity(range(4)).apply
    assert not check_hom_module(h, act).passed


def test_comodule_self_and_trivial():
    h = kz4_twisted_hopf()
    keys = h.basis_keys()
    assert check_hom_comodule(h, keys, h.comult_map, h.beta_map).passed
    trivial = {
        i: h.beta_map(e(i)) @ h.unit for i in range(4)
    }
    triv = partial(extend, trivial.__getitem__)
    assert check_hom_comodule(h, keys, triv, h.beta_map).passed
    # drop the theta twist: coaction v -> v x 1 fails counitality vs theta
    flat = partial(extend, {i: e(i) @ h.unit for i in range(4)}.__getitem__)
    assert not check_hom_comodule(h, keys, flat, h.beta_map).passed


def test_antipode_uniqueness_oracle():
    for h in (kz4_twisted_hopf(), sweedler_hopf()):
        s = antipode_from_convolution(h)
        assert s is not None
        for i in h.basis_keys():
            assert s.apply(e(i)) == h.antipode_map(e(i))


def test_trivial_action_is_module_algebra_shaped():
    h = kz4_twisted_hopf()
    act = trivial_left_action(h, h)
    assert check_hom_module(h, act).passed


def test_hopf_twist_rejects_multiplicative_not_comultiplicative():
    # g^k -> (-1)^k g^k is an algebra endomorphism of k[Z/4] (since
    # (-g)^4 = 1) but fails Delta(t g) = (t x t) Delta(g)
    h = cyclic_group_hopf(4)
    mat = [[0] * 4 for _ in range(4)]
    for k in range(4):
        mat[k][k] = (-1) ** k
    t = LinearOperator.from_matrix(mat, inverse=mat)
    assert _is_algebra_endo(h, t)
    assert not _is_coalgebra_endo(h, t)
    with pytest.raises(NotBialgebraMorphism):
        hopf_twist(h, t, t)


def test_dual_numbers_identity_twist():
    # k[x]/(x^2) with t = id stays associative and passes the checker
    mult = {(0, 0): e(0), (0, 1): e(1), (1, 0): e(1), (1, 1): LinComb.zero()}
    from homhopf.hom_core import HomAlgebraData

    a = HomAlgebraData(2, mult, e(0), LinearOperator.identity(range(2)))
    tw = twist_algebra(a, LinearOperator.identity(range(2)))
    assert tw.mult == a.mult
    assert check_hom_algebra(tw).passed
