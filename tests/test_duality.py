import pytest

from homhopf.errors import NotInvertibleAlpha, NotInvertibleBeta
from homhopf.foundation import LinComb, LinearOperator
from homhopf.hom_core import (
    HomCoalgebraData,
    HomHopfData,
    check_hom_algebra,
    check_hom_coalgebra,
    check_hom_hopf,
)
from homhopf.duality import TruncatedDual, dual_hom_hopf

from fixtures import (
    abelian_lie,
    coregular_actions,
    kz4_twisted_hopf,
    sweedler_hopf,
    sweedler_twisted_hopf,
)
from oracles import (
    Pairing,
    antipode_from_convolution,
    check_hom_module,
    dual_algebra_of_coalgebra,
    dual_coalgebra_of_algebra,
    dual_hom_hopf_tables,
)

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
    singular = LinearOperator.from_matrix([[1, 0, 0, 0]] + [[0] * 4] * 3)
    broken = HomCoalgebraData(4, h.comult, h.counit, singular)
    with pytest.raises(NotInvertibleBeta):
        dual_algebra_of_coalgebra(broken)
    # dual_hom_hopf refuses a singular beta up front, and a singular alpha
    # as well; beta is asked first
    for alpha, beta, err in (
        (h.alpha, singular, NotInvertibleBeta),
        (singular, h.beta, NotInvertibleAlpha),
        (singular, singular, NotInvertibleBeta),
    ):
        broken = HomHopfData(
            4, h.mult, h.unit, alpha, h.comult, h.counit, beta, h.antipode
        )
        with pytest.raises(err):
            dual_hom_hopf(broken)


def test_dual_coalgebra_of_algebra():
    h = kz4_twisted_hopf()
    dual = dual_coalgebra_of_algebra(h)
    assert check_hom_coalgebra(dual).passed
    k = trivial_hopf()
    assert dual_coalgebra_of_algebra(k).comult[0] == LinComb({(0, 0): 1})


def test_dual_hom_hopf_suite_and_double_dual():
    for h in (kz4_twisted_hopf(), sweedler_hopf(), trivial_hopf(), sweedler_twisted_hopf()):
        d = dual_hom_hopf(h)
        assert check_hom_hopf(d).passed
        dd = dual_hom_hopf(d)
        keys = h.basis_keys()
        assert dd.basis_keys() == keys
        for i in keys:
            for j in keys:
                assert dd.product(e(i), e(j)) == h.product(e(i), e(j))
            assert dd.comult_map(e(i)) == h.comult_map(e(i))
        assert dd.unit_elem() == h.unit_elem()
        for i in keys:
            assert dd.counit_map(e(i)) == h.counit_map(e(i))
            assert dd.alpha_map(e(i)) == h.alpha_map(e(i))
            assert dd.beta_map(e(i)) == h.beta_map(e(i))
            assert dd.antipode_map(e(i)) == h.antipode_map(e(i))


# the eager tables of the dual against the degree-0 TruncatedDual that
# replaced them; the twisted Sweedler algebra is the one case with
# alpha != beta and twists of order > 2, so a swapped or inverted twist
# shows there
DUAL_CASES = {
    "kz4": kz4_twisted_hopf,
    "sweedler": sweedler_hopf,
    "trivial": trivial_hopf,
    "sweedler_twisted": sweedler_twisted_hopf,
}
DUAL_MAPS = (
    "comult_map", "counit_map", "alpha_map", "alpha_inv", "beta_map", "beta_inv",
    "antipode_map",
)


@pytest.mark.parametrize("name", sorted(DUAL_CASES))
def test_dual_hom_hopf_matches_eager_tables(name):
    h = DUAL_CASES[name]()
    d = dual_hom_hopf(h)
    ref = dual_hom_hopf_tables(h)
    assert isinstance(d, TruncatedDual)
    keys = ref.basis_keys()
    assert d.basis_keys() == keys
    assert d.unit_elem() == ref.unit_elem()
    for i in keys:
        for j in keys:
            assert d.product(e(i), e(j)) == ref.product(e(i), e(j)), (i, j)
        for m in DUAL_MAPS:
            assert getattr(d, m)(e(i)) == getattr(ref, m)(e(i)), (m, i)
    # linearity: a combination with several terms
    f = LinComb({k: n + 1 for n, k in enumerate(keys)})
    for m in DUAL_MAPS:
        assert getattr(d, m)(f) == getattr(ref, m)(f), m
    assert d.product(f, f) == ref.product(f, f)


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


UEA_DUAL_CASES = ["fixture_b", "fixture_a_prime", "sl2", "sl2_twisted", "abelian2_quarter_turn"]


@pytest.mark.parametrize("name", UEA_DUAL_CASES)
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


# ---------------------------------------------------------------------------
# the one coproduct table against the per-degree tables it replaced


def _fixture_b_h_dual():
    from fixtures import fixture_b_lie_pair
    from homhopf.uea_trees import build_truncated_uea

    return TruncatedDual(build_truncated_uea(fixture_b_lie_pair().h, 4, 1))


COMULT_CASES = {name: (lambda b=b: dual_hom_hopf(b())) for name, b in DUAL_CASES.items()}
COMULT_CASES.update({name: (lambda n=name: _dual_case(n)) for name in UEA_DUAL_CASES})
COMULT_CASES["fixture_b_h_n4"] = _fixture_b_h_dual


@pytest.mark.parametrize("name", sorted(COMULT_CASES))
def test_dual_comult_is_the_per_degree_tables_term_for_term(name):
    """On a graded primal only the pairs of total degree deg k reach k*, so
    the table over the whole budget gives every coproduct with the terms
    of the per-degree tables, in their order.  A primal that is not graded
    is refused before any table is built.  The double dual is graded in
    every case, since the dual's product preserves degree."""
    from homhopf.errors import TruncationOverflow
    from oracles import dual_comult_by_degree

    d = COMULT_CASES[name]()
    if not d.v.graded:
        with pytest.raises(TruncationOverflow):
            d.comult_map(d.unit_elem())
        assert d._tables == {}
    # the double dual's coproduct fills d's product and twist tables
    for dual in ([d] if d.v.graded else []) + [TruncatedDual(d)]:
        for k in dual.basis_keys():
            got = dual.comult_map(e(k))
            assert list(got.terms.items()) == list(
                dual_comult_by_degree(dual, e(k)).terms.items()
            ), k
        assert list(dual._tables) == ["comult"]


def test_an_overflowing_table_build_is_stored_and_raised_again():
    from homhopf.errors import TruncationOverflow

    d = dual_hom_hopf(kz4_twisted_hopf())
    builds = []

    def overflowing(x):
        builds.append(x)
        raise TruncationOverflow("primal antipode overflows")

    d.v.antipode_map = overflowing
    for _ in range(2):
        with pytest.raises(TruncationOverflow, match="^primal antipode overflows$"):
            d.antipode_map(e(0))
    assert len(builds) == 1
    assert d._tables == {"antipode": "primal antipode overflows"}


# ---------------------------------------------------------------------------
# the twisting principle (Yau 2009) as a table oracle for the dual: the dual
# of k[Z/n] twisted by the bialgebra automorphisms a, b is the dual of
# k[Z/n] twisted by (b^-1)^T and (a^-1)^T


def yau_twist_mismatches(n, a, b):
    """The (map, keys) at which dual_hom_hopf of k[Z/n] twisted by
    alpha = x a, beta = x b differs from the Yau twist of the classical
    dual; the expected twists are computed from a and b."""
    from fixtures import (
        cyclic_group_hopf,
        hopf_twist,
        multiplication_operator,
        transpose_operator,
        twisted_cyclic_hopf,
    )

    h = cyclic_group_hopf(n)
    d = dual_hom_hopf(twisted_cyclic_hopf(n, a, b))
    alpha, beta = multiplication_operator(a, n), multiplication_operator(b, n)
    keys = h.basis_keys()
    want = hopf_twist(
        dual_hom_hopf_tables(h),
        transpose_operator(beta.inverted(), keys),
        transpose_operator(alpha.inverted(), keys),
    )
    out = [("unit",)] if d.unit_elem() != want.unit_elem() else []
    out += [
        ("product", i, j)
        for i in keys
        for j in keys
        if d.product(e(i), e(j)) != want.product(e(i), e(j))
    ]
    for m in ("comult_map", "counit_map", "antipode_map", "alpha_map", "beta_map"):
        out += [(m, k) for k in keys if getattr(d, m)(e(k)) != getattr(want, m)(e(k))]
    return out


# (n, alpha, beta): alpha != beta, both of order > 2, alpha^4 = beta^2
TWISTED_CYCLIC = [(9, 4, 7), (7, 3, 2)]


@pytest.mark.parametrize("n,a,b", TWISTED_CYCLIC)
def test_dual_of_a_twisted_cyclic_group_is_the_yau_twist_of_its_dual(n, a, b):
    assert yau_twist_mismatches(n, a, b) == []
