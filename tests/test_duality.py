import pytest

from homhopf.errors import NotInvertibleBeta
from homhopf.foundation import LinComb, LinearOperator
from homhopf.hom_core import (
    HomCoalgebraData,
    HomHopfData,
    check_hom_algebra,
    check_hom_coalgebra,
    check_hom_hopf,
)
from homhopf.duality import (
    dual_algebra_of_coalgebra,
    dual_coalgebra_of_algebra,
    dual_hom_hopf,
)

from fixtures import abelian_lie, coregular_actions, kz4_twisted_hopf, sweedler_hopf
from oracles import Pairing, antipode_from_convolution, check_hom_module

e = LinComb.basis


def trivial_hopf():
    """The ground field as a Hom-Hopf algebra."""
    ident = LinearOperator.identity([0])
    return HomHopfData(
        1, {(0, 0): e(0)}, e(0), ident, {0: LinComb({(0, 0): 1})}, {0: 1},
        LinearOperator.identity([0]), LinearOperator.identity([0]),
    )


def test_pairing_canonical():
    p = Pairing.canonical([0, 1])
    assert p.pair(e(0), e(0)) == 1
    assert p.pair(e(0), e(1)) == 0
    assert p.is_nondegenerate()
    degenerate = Pairing([0, 1], [0, 1], {(0, 0): 1})
    assert not degenerate.is_nondegenerate()


def test_float_scalars_raise():
    # a float is not exact: 0.1 would be stored as a binary fraction
    ident = LinearOperator.identity([0])
    with pytest.raises(TypeError):
        HomCoalgebraData(1, {0: LinComb({(0, 0): 1})}, {0: 0.1}, ident)
    with pytest.raises(TypeError):
        Pairing([0], [0], {(0, 0): 0.1})


def test_convolution_inverse_of_identity_is_antipode():
    h = kz4_twisted_hopf()
    s = antipode_from_convolution(h)
    for i in range(4):
        assert s.apply(e(i)) == h.antipode_map(e(i))


def test_dual_algebra_of_group_like_coalgebra():
    h = kz4_twisted_hopf()
    dual = dual_algebra_of_coalgebra(h)
    assert check_hom_algebra(dual).passed
    assert dual.unit == LinComb({0: 1, 1: 1, 2: 1, 3: 1})
    # Delta_twist(e_i) = e_{-i} x e_{-i} and beta^-2 = id, so
    # (e_i* . e_j*) picks out x with (-x, -x) = (i, j): zero unless i == j.
    assert dual.mult[(1, 2)] == LinComb.zero()
    assert dual.mult[(1, 1)] == e(3)


def test_dual_algebra_requires_invertible_beta():
    h = kz4_twisted_hopf()
    broken = HomCoalgebraData(
        4, h.comult, h.counit,
        LinearOperator.from_matrix([[1, 0, 0, 0]] + [[0] * 4] * 3),
    )
    with pytest.raises(NotInvertibleBeta):
        dual_algebra_of_coalgebra(broken)


def test_dual_coalgebra_of_algebra():
    h = kz4_twisted_hopf()
    dual = dual_coalgebra_of_algebra(h)
    assert check_hom_coalgebra(dual).passed
    k = trivial_hopf()
    assert dual_coalgebra_of_algebra(k).comult[0] == LinComb({(0, 0): 1})


def test_dual_hom_hopf_suite_and_double_dual():
    for h in (kz4_twisted_hopf(), sweedler_hopf(), trivial_hopf()):
        d = dual_hom_hopf(h)
        assert check_hom_hopf(d).passed
        dd = dual_hom_hopf(d)
        assert dd.mult == h.mult
        assert dd.comult == h.comult
        assert dd.unit == h.unit
        assert dd.counit == h.counit
        for i in h.basis_keys():
            assert dd.alpha.apply(e(i)) == h.alpha.apply(e(i))
            assert dd.beta.apply(e(i)) == h.beta.apply(e(i))
            assert dd.antipode.apply(e(i)) == h.antipode.apply(e(i))


def test_coregular_actions():
    h = kz4_twisted_hopf()
    left, right = coregular_actions(h)
    assert check_hom_module(h, left).passed
    assert check_hom_module(h, right).passed
    # commutative fixture: the two coregular actions coincide
    assert left.act == right.act
    k = trivial_hopf()
    l2, r2 = coregular_actions(k)
    assert check_hom_module(k, l2).passed and check_hom_module(k, r2).passed


def test_coregular_actions_of_sweedler_depend_on_side():
    """Sweedler's algebra is not commutative, so each coregular action is a
    Hom-module only for its own side: read with the other side's
    associativity law, it fails."""
    h = sweedler_hopf()
    for action in coregular_actions(h):
        assert check_hom_module(h, action).passed
        flipped = "right" if action.side == "left" else "left"
        action.side = flipped
        rep = check_hom_module(h, action)
        assert [eq.eq_id for eq in rep.equations if not eq.passed] == [
            "hom-module-assoc"
        ]


def test_graded_dual_dimensions():
    from homhopf.duality import TruncatedDual
    from homhopf.uea_trees import build_truncated_uea

    def dims(d):
        return [sum(d.degree(k) == n for k in d.basis_keys()) for n in range(4)]

    u1 = build_truncated_uea(abelian_lie(1), 3, 2)
    d1 = TruncatedDual(u1)
    assert dims(d1) == [1, 1, 1, 1]  # degree zero pairs with the unit
    assert d1.counit_map(d1.unit_elem()) == 1

    u2 = build_truncated_uea(abelian_lie(2), 2, 1)
    d2 = TruncatedDual(u2)
    assert dims(d2) == [1, 2, 3, 0]


def test_graded_dual_product_respects_budget():
    from homhopf.duality import TruncatedDual
    from homhopf.uea_trees import build_truncated_uea
    from homhopf.errors import TruncationOverflow
    import pytest as _pytest

    u = build_truncated_uea(abelian_lie(1), 2, 1)
    d = TruncatedDual(u)
    keys = sorted(d.basis_keys(), key=d.degree)
    one, y1, y2 = keys
    # (y1)* . (y1)* picks out the coefficient of the split in Delta(y^2)
    prod = d.product(e(y1), e(y1))
    assert prod == 2 * e(y2)
    with _pytest.raises(TruncationOverflow):
        d.product(e(y1), e(y2))


def test_dual_algebra_of_cotwist_coalgebra():
    from fixtures import cyclic_group_hopf, inversion_operator

    h = cyclic_group_hopf(4)
    t = inversion_operator(4)
    comult = {i: h.comult_map(t.apply(e(i))) for i in range(4)}
    c = HomCoalgebraData(4, comult, h.counit, t)
    assert check_hom_coalgebra(c).passed
    dual = dual_algebra_of_coalgebra(c)
    assert check_hom_algebra(dual).passed


# ---------------------------------------------------------------------------
# the tabulated degreewise dual against the pairing loops it replaced


def _dual_case(name):
    from homhopf.duality import TruncatedDual
    from fixtures import (
        fixture_a_prime_lie_pair,
        fixture_b_lie_pair,
        lie_twist,
        sl2,
        sl2_involution,
    )
    from homhopf.uea_trees import build_truncated_uea

    # the quarter turn is the one twist here whose inverse differs from it
    quarter_turn = LinearOperator.from_matrix([[0, -1], [1, 0]], inverse=[[0, 1], [-1, 0]])
    lie = {
        "fixture_b": lambda: fixture_b_lie_pair().h,
        "fixture_a_prime": lambda: fixture_a_prime_lie_pair().h,
        "sl2": sl2,
        "sl2_twisted": lambda: lie_twist(sl2(), sl2_involution()),
        "abelian2_quarter_turn": lambda: abelian_lie(2, quarter_turn),
    }[name]()
    return TruncatedDual(build_truncated_uea(lie, 3, 1))


@pytest.mark.parametrize(
    "name",
    ["fixture_b", "fixture_a_prime", "sl2", "sl2_twisted", "abelian2_quarter_turn"],
)
def test_truncated_dual_tables_match_pairing(name):
    from homhopf.errors import TruncationOverflow
    from oracles import (
        dual_antipode_by_pairing,
        dual_comult_basis_by_pairing,
        dual_precompose_by_pairing,
        dual_product_by_pairing,
    )

    d = _dual_case(name)
    keys = d.basis_keys()
    overflowing = []
    for k1 in keys:
        f = e(k1)
        for k2 in keys:
            g = e(k2)
            dropped = d.product_dropped(f, g)
            assert dropped == dual_product_by_pairing(d, f, g)
            try:
                assert d.product(f, g) == dropped
            except TruncationOverflow:
                overflowing.append((k1, k2))
        for n in (-2, -1, 1, 2):
            assert d.alpha_pow(n, f) == dual_precompose_by_pairing(d, f, -n, True)
            assert d.beta_pow(n, f) == dual_precompose_by_pairing(d, f, -n, False)
        assert d.antipode_map(f) == dual_antipode_by_pairing(d, f)
        if d.v.graded:
            assert d.comult_map(f) == dual_comult_basis_by_pairing(d, k1)
        else:
            with pytest.raises(TruncationOverflow):
                d.comult_map(f)
    # the degree guard refuses exactly the pairs past the truncation
    assert overflowing == [
        (k1, k2)
        for k1 in keys
        for k2 in keys
        if d.degree(k1) + d.degree(k2) > d.truncation_degree
    ]
    assert overflowing

    # linearity: combinations with several terms, some of them cancelling
    f = LinComb({k: i + 1 for i, k in enumerate(keys)})
    g = LinComb({k: (-1) ** i for i, k in enumerate(keys)})
    assert d.product_dropped(f, g) == dual_product_by_pairing(d, f, g)
    assert d.product_dropped(f - f, g) == LinComb()
    assert d.alpha_pow(2, g) == dual_precompose_by_pairing(d, g, -2, True)
    assert d.antipode_map(f) == dual_antipode_by_pairing(d, f)


def test_truncated_dual_tables_are_lazy_and_per_instance():
    from homhopf.duality import TruncatedDual
    from homhopf.uea_trees import build_truncated_uea

    d2 = TruncatedDual(build_truncated_uea(abelian_lie(1), 2, 1))
    d3 = TruncatedDual(build_truncated_uea(abelian_lie(1), 3, 1))
    assert d2._tables == {} and d3._tables == {}

    _, y1, y2, y3 = (e(k) for k in sorted(d3.basis_keys(), key=d3.degree))
    assert d3.product_dropped(y1, y2) == 3 * y3
    assert set(d3._tables) == {"product"}
    table = d3._tables["product"]
    d3.product_dropped(y2, y1)
    assert d3._tables["product"] is table
    assert d2._tables == {}

    # the N = 2 dual drops the degree-3 product instead of reading N = 3's
    _, z1, z2 = (e(k) for k in sorted(d2.basis_keys(), key=d2.degree))
    assert d2.product_dropped(z1, z2) == LinComb()
    for d, x in ((d2, z1), (d3, y1)):
        d.alpha_map(x)
        d.beta_inv(x)
        d.antipode_map(x)
        d.comult_map(x)
    assert set(d2._tables) == set(d3._tables)
    for name, table in d3._tables.items():
        assert all(table is not other for other in d2._tables.values()), name
