"""Basis images computed once: the per-key coproduct and antipode of the
double cross product and the bicrossproduct, the legs of the products
of both, the twist and product tables of one
`check_hom_algebra` run, and the coaction table and coproduct-leg tables
of the graded mutual-pair check, against the paths they replace (`oracles.FreshPerKey`,
`oracles.BicrossDirectProduct`, `oracles.DoubleCrossDirectProduct`,
`oracles.check_hom_algebra_untabulated`,
`oracles.check_mutual_pair_graded_untabulated`).  The hom-assoc tuples
and the key pairs of the pair equations that the checks decide from the
product table to overflow are compared tuple by tuple with the ones the
untabulated check skips.

Reports are compared in full: per equation the checked and skipped
counts, and per violation its witness, lhs and rhs, with their term order
except in the mutual-pair check, whose coaction table pairs u before w.
"""

import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

from homhopf import hom_core, uea_trees
from homhopf.cli import parse_input
from homhopf.cross_products import (
    Bicrossproduct,
    DoubleCrossProduct,
    GradedMutualPair,
    MatchedPairHopf,
    check_matched_pair_hopf,
    check_mutual_pair,
)
from homhopf.errors import TruncationOverflow, UnknownBasisIndex
from homhopf.foundation import LinComb, LinearOperator, bilinear
from homhopf.hom_core import (
    CheckReport,
    HomAlgebraData,
    check_hom_algebra,
    check_hom_hopf,
)
from homhopf.semidual import semidualize
from homhopf.uea_trees import UNIT, TruncatedUEA, build_truncated_uea, lift_to_Uh_action

from fixtures import (
    counital_matched_pair,
    fixture_a_prime_lie_pair,
    fixture_b_lie_pair,
    kz4_twisted_hopf,
    sl2,
    trivial_hopf_matched_pair,
    twisted_cyclic_hopf,
)
from lie_pairs import (
    anticommuting_pair,
    sl2_gaussian_split_pair,
    sl2_reverse_split_pair,
    sl2_split_pair,
)
from oracles import (
    BicrossDirectProduct,
    DoubleCrossDirectProduct,
    FreshPerKey,
    check_hom_algebra_untabulated,
    check_mutual_pair_graded_untabulated,
    coaction_column,
    fresh_copy,
)
from record_golden import SAMPLES, perturbed_graded_mutual_pairs

e = LinComb.basis


def perfbench_doc(generator):
    """An input document as perfbench/jobs.py generates it."""
    path = SAMPLES.parent / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs.GENERATORS[generator]()


def parsed(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        return parse_input(str(path))


def lie_semidual(pair, n, w=1):
    return semidualize(lift_to_Uh_action(pair, n, w))


def lie_bicross(pair, n, w):
    return Bicrossproduct(lie_semidual(pair, n, w))


def terms(x):
    """Terms in order, so that equality includes term order."""
    return list(x.items())


def report_terms(rep):
    return [
        (
            q.eq_id,
            q.checked,
            q.skipped,
            [(v.eq_id, v.witness, terms(v.lhs), terms(v.rhs)) for v in q.violations],
        )
        for q in rep.equations
    ]


class PerturbedUEA(TruncatedUEA):
    """U(g) with the unit added to the product of its first two degree-1
    normal forms; every other product is U(g)'s."""

    def __init__(self, u):
        TruncatedUEA.__init__(
            self, u.lie, u.truncation_degree, u.ops, u.rowspace, u.weight_bound
        )
        self.pair = tuple(k for k in self.keys if self.degree(k) == 1)[:2]

    def _product_key(self, k1, k2):
        val = TruncatedUEA._product_key(self, k1, k2)
        return val + e(UNIT) if (k1, k2) == self.pair else val


CASES = {
    "kz4": kz4_twisted_hopf,
    "kz4_perturbed": lambda: parse_input(
        str(SAMPLES / "kz4_perturbed_verify.json")
    ).hopf["kz4_twisted"],
    "sl2_uea_n3_w1": lambda: build_truncated_uea(sl2(), 3, 1),
    "fixture_b_bicross_n3_w1": lambda: lie_bicross(fixture_b_lie_pair(), 3, 1),
    "fixture_b_bicross_n4_w1": lambda: lie_bicross(fixture_b_lie_pair(), 4, 1),
    "fixture_b_dual_n3_w1": lambda: lie_semidual(fixture_b_lie_pair(), 3).f,
    "sl2_uea_n3_w1_perturbed": lambda: PerturbedUEA(build_truncated_uea(sl2(), 3, 1)),
    "fixture_a_prime_bicross_n3_w1": lambda: lie_bicross(fixture_a_prime_lie_pair(), 3, 1),
    "kz4_doublecross": lambda: DoubleCrossProduct(trivial_hopf_matched_pair()),
    "z4_mutual_bicross": lambda: Bicrossproduct(
        parsed(perfbench_doc("z4_mutual")).mutual_pairs["z4"]
    ),
}


def test_perturbed_sample_is_the_perfbench_input():
    doc = json.loads((SAMPLES / "kz4_perturbed_verify.json").read_text())
    assert doc == perfbench_doc("kz4_perturbed")


@pytest.mark.parametrize("case", sorted(CASES))
def test_hom_hopf_report_matches_replaced_path(case, monkeypatch):
    got = check_hom_hopf(CASES[case]())
    monkeypatch.setattr(hom_core, "check_hom_algebra", check_hom_algebra_untabulated)
    ref = CASES[case]()
    if hasattr(ref, "_memo"):
        ref = FreshPerKey(ref)
    want = check_hom_hopf(ref)
    assert report_terms(got) == report_terms(want)
    assoc = got.equations[0]
    assert assoc.eq_id == "hom-assoc"
    if case == "kz4_perturbed":
        assert len(assoc.violations) == 12
    if case in ("sl2_uea_n3_w1", "sl2_uea_n3_w1_perturbed"):
        assert assoc.skipped and assoc.checked
    if case == "sl2_uea_n3_w1_perturbed":
        assert assoc.violations


class ProductFailsOnE1E2(HomAlgebraData):
    """An algebra whose product raises UnknownBasisIndex on e_1 . e_2."""

    def product(self, x, y):
        if x == e(1) and y == e(2):
            raise UnknownBasisIndex("(1, 2)")
        return HomAlgebraData.product(self, x, y)


def test_other_errors_escape_the_tables():
    # with alpha = 2 id, only the table entry e_1 e_2 multiplies e_1 by e_2;
    # its error stops the check as before, instead of being stored as a skip
    h = kz4_twisted_hopf()
    double = LinearOperator({k: 2 * e(k) for k in h.basis_keys()})
    a = ProductFailsOnE1E2(h.dim, h.mult, h.unit, double)
    for check in (check_hom_algebra, check_hom_algebra_untabulated):
        with pytest.raises(UnknownBasisIndex):
            check(a)


# ---------------------------------------------------------------------------
# fixture B's coaction is not complete, so the default coproduct and
# antipode of its bicrossproduct overflow on every key, while the
# truncated=True variants have values: the two must never share an entry


def fixture_b_bicross():
    bi = lie_bicross(fixture_b_lie_pair(), 3, 1)
    assert not bi.m.coaction_complete
    return bi


@pytest.mark.parametrize("truncated_first", [True, False])
@pytest.mark.parametrize("method", ["comult_map", "antipode_map"])
def test_truncated_and_default_maps_keep_apart(method, truncated_first):
    bi = fixture_b_bicross()
    fn = getattr(bi, method)

    def truncated(k):
        want = getattr(fresh_copy(bi), method)(e(k), truncated=True)
        assert terms(fn(e(k), truncated=True)) == terms(want), k

    def default(k):
        with pytest.raises(TruncationOverflow):
            fn(e(k))

    steps = (truncated, default) if truncated_first else (default, truncated)
    # the second round reads every entry from the memo
    for _ in range(2):
        for k in bi.basis_keys():
            for step in steps:
                step(k)


def test_suite_report_is_the_same_on_a_cold_and_a_warm_memo():
    bi = fixture_b_bicross()
    cold = report_terms(check_hom_hopf(bi))
    for k in bi.basis_keys():
        bi.comult_map(e(k), truncated=True)
        bi.antipode_map(e(k), truncated=True)
    assert report_terms(check_hom_hopf(bi)) == cold
    assert report_terms(check_hom_hopf(fixture_b_bicross())) == cold


# ---------------------------------------------------------------------------
# the graded mutual-pair check reads the coaction from one table per pair
# and each coproduct-leg image from one table per check


def report_values(rep):
    """report_terms without term order: lhs and rhs compare as LinComb."""
    return [
        (q.eq_id, q.checked, q.skipped, [(v.witness, v.lhs, v.rhs) for v in q.violations])
        for q in rep.equations
    ]


def _perturbed_case(name):
    return lambda: perturbed_graded_mutual_pairs()[name]


GRADED_CASES = {
    "fixture_b_n3_w1": lambda: lie_semidual(fixture_b_lie_pair(), 3),
    "fixture_b_n4_w1": lambda: lie_semidual(fixture_b_lie_pair(), 4),
    "fixture_a_prime_n3_w1": lambda: lie_semidual(fixture_a_prime_lie_pair(), 3),
    "anticommuting_n3_w1": lambda: lie_semidual(anticommuting_pair(), 3),
    "sl2_split_n3_w1": lambda: lie_semidual(sl2_split_pair(), 3),
    "sl2_split_twisted_n3_w1": lambda: lie_semidual(sl2_split_pair(-1), 3),
    "sl2_reverse_split_n2_w1": lambda: lie_semidual(sl2_reverse_split_pair(), 2),
    "sl2_reverse_split_twisted_n2_w1": lambda: lie_semidual(
        sl2_reverse_split_pair(True), 2
    ),
    "fixture_b_n2_w1_graded_action": _perturbed_case("fixture_b_n2_w1_graded_action"),
    "fixture_b_n2_w1_graded_coaction": _perturbed_case(
        "fixture_b_n2_w1_graded_coaction"
    ),
}

# equations with witnesses on the perturbed pairs, so that the comparison
# covers violations on both the action and the coaction side
FAILING = {
    "fixture_b_n2_w1_graded_action": {"comp-I": 4},
    "fixture_b_n2_w1_graded_coaction": {
        "coaction/hom-comodule-coassoc": 1,
        "Hom-comod-coalg-I": 2,
        "comp-III": 2,
    },
}


def traced_check(check, m, monkeypatch):
    """check(m) and every tuple it evaluates, with its (lhs, rhs), or None
    where the tuple is skipped.  Passing tuples are compared too, so an
    equation that cannot fail on these pairs (comp-IV) is still compared."""
    seen = []
    run = CheckReport.run

    def recording(rep, eq_id, tuples, fn):
        def traced(*tup):
            try:
                val = fn(*tup)
            except TruncationOverflow:
                seen.append((eq_id, tup, None))
                raise
            seen.append((eq_id, tup, val))
            return val

        return run(rep, eq_id, tuples, traced)

    with monkeypatch.context() as patch:
        patch.setattr(CheckReport, "run", recording)
        rep = check(m)
    return rep, seen


@pytest.mark.parametrize("case", sorted(GRADED_CASES))
def test_graded_mutual_pair_report_matches_replaced_path(case, monkeypatch):
    got, got_seen = traced_check(check_mutual_pair, GRADED_CASES[case](), monkeypatch)
    want, want_seen = traced_check(
        check_mutual_pair_graded_untabulated, GRADED_CASES[case](), monkeypatch
    )
    assert report_values(got) == report_values(want)
    assert got_seen == want_seen
    found = {q.eq_id: len(q.violations) for q in got.equations}
    for eq_id, count in FAILING.get(case, {}).items():
        assert found[eq_id] == count
    # comp-III reads its leg tables on checked and on skipped tuples
    comp3 = [q for q in got.equations if q.eq_id == "comp-III"][0]
    assert comp3.checked and comp3.skipped


@pytest.mark.parametrize("case", ["fixture_b_n3_w1", "sl2_split_twisted_n3_w1"])
def test_coaction_legs_read_the_coaction_table(case):
    m = GRADED_CASES[case]()

    def same_columns():
        for k in m.u.basis_keys():
            want = coaction_column(m.mp.lt, m.v, k)
            assert terms(m.coaction_legs_truncated(e(k))) == terms(want), k

    same_columns()
    check_mutual_pair(m)
    same_columns()


def test_graded_check_is_the_same_on_a_cold_and_a_warm_table():
    m = lie_semidual(fixture_b_lie_pair(), 2)
    cold = report_values(check_mutual_pair(m))
    assert report_values(check_mutual_pair(m)) == cold
    # the same factors and action with a perturbed left action: the pair
    # must read its coaction from that action, not from m's warm table
    mp = perturbed_graded_mutual_pairs()["fixture_b_n2_w1_graded_coaction"].mp
    broken = GradedMutualPair(m.f, m.u, m.action, mp)
    got = check_mutual_pair(broken)
    assert not got.passed
    want = check_mutual_pair_graded_untabulated(
        GradedMutualPair(m.f, m.u, m.action, mp)
    )
    assert report_values(got) == report_values(want)
    assert report_values(check_mutual_pair(m)) == cold


class RightActionFails(MatchedPairHopf):
    """A matched pair whose right action raises UnknownBasisIndex."""

    def rt(self, v, u):
        raise UnknownBasisIndex("right action")


def test_other_errors_escape_the_leg_tables():
    m = lie_semidual(fixture_b_lie_pair(), 2)
    mp = RightActionFails(m.mp.u, m.mp.v, m.mp.left, m.mp.right)
    for check in (check_mutual_pair, check_mutual_pair_graded_untabulated):
        with pytest.raises(UnknownBasisIndex):
            check(GradedMutualPair(m.f, m.u, m.action, mp))


def overflowing_right_side_case(monkeypatch):
    """The reverse sl2 split at N=2 with V.product overflowing on f . 1 (f
    the degree-1 key of U(h)).  comp-I's left side multiplies e_w1 e_w2
    and so overflows only at (w1, w2) = (f, 1); its right side multiplies
    legs carried through both actions, and overflows on more tuples."""
    m = GRADED_CASES["sl2_reverse_split_n2_w1"]()
    V = m.v
    f = next(k for k in V.basis_keys() if V.degree(k) == 1)
    (one,) = V.unit_elem()
    product = V.product

    def overflowing(x, y):
        if f in x.terms and one in y.terms:
            raise TruncationOverflow("patched product f . 1")
        return product(x, y)

    monkeypatch.setattr(V, "product", overflowing)
    return m, (f, one)


def test_comp1_right_side_overflow_is_stored_and_raised(monkeypatch):
    m, lhs_overflow = overflowing_right_side_case(monkeypatch)
    want_m, _ = overflowing_right_side_case(monkeypatch)
    got, got_seen = traced_check(check_mutual_pair, m, monkeypatch)
    want, want_seen = traced_check(
        check_mutual_pair_graded_untabulated, want_m, monkeypatch
    )
    assert report_values(got) == report_values(want)
    assert got_seen == want_seen
    comp1 = [q for q in got.equations if q.eq_id == "comp-I"][0]
    assert comp1.skipped and comp1.checked
    # the tuples whose right side alone overflows: for each such (u, w1, w2)
    # the stored overflow is raised again for every f
    skipped = {}
    for eq_id, tup, val in got_seen:
        if eq_id == "comp-I" and val is None and tup[2:] != lhs_overflow:
            i, k, w1, w2 = tup
            skipped.setdefault((i, w1, w2), set()).add(k)
    assert skipped
    assert all(ks == set(m.f.basis_keys()) for ks in skipped.values())


# ---------------------------------------------------------------------------
# check_hom_algebra counts the hom-assoc tuples whose products overflow as
# skipped from its table, and evaluates only the others; the pair equations
# skip the pairs whose product overflows from the same table


class OuterOverflow(HomAlgebraData):
    """Five keys; the twist overflows on e_4 and the product on the key
    pairs (3, 1) and (2, 4) only.  e_2 e_2 = 0 and e_1 e_2 = e_3 + e_4, so
    that each of the hom-assoc skip reasons (an overflowing alpha(e_i), even
    with e_j e_k = 0, or alpha(e_k), e_j e_k or e_i e_j, or only an outer
    product of either side) is the one reason for some tuple."""

    OVER = {(3, 1), (2, 4)}

    def __init__(self):
        mult = {(p, q): e((p + q) % 5) for p in range(5) for q in range(5)}
        mult[(2, 2)] = LinComb()
        mult[(1, 2)] = e(3) + e(4)
        alpha = LinearOperator({0: e(0), 1: e(2), 2: e(1) + e(3), 3: e(3), 4: e(4)})
        HomAlgebraData.__init__(self, 5, mult, e(0), alpha)

    def alpha_map(self, x):
        if 4 in x.terms:
            raise TruncationOverflow("alpha(e_4)")
        return HomAlgebraData.alpha_map(self, x)

    def product(self, x, y):
        def key(p, q):
            if (p, q) in self.OVER:
                raise TruncationOverflow("e_%d e_%d" % (p, q))
            return self.mult[(p, q)]

        return bilinear(key, x, y)


ASSOC_CASES = dict(CASES, outer_overflow=OuterOverflow)


# the equations on key pairs (i, j) that begin with e_i e_j and skip the
# pairs whose product overflows from the table
PAIR_EQUATIONS = {
    "alpha-multiplicative", "bialg-2", "bialg-5", "bialg-8",
    "antipode-antimultiplicative",
}


def traced_table_equations(a, tabulated, monkeypatch):
    """check_hom_hopf(a), or check_hom_algebra(a) where a has no coproduct,
    through the tabulated or the untabulated algebra check, and the tuples
    of hom-assoc and of the pair equations it evaluates, in order, each
    with the terms of its lhs and rhs, or None where it overflows."""
    algebra = check_hom_algebra if tabulated else check_hom_algebra_untabulated
    with monkeypatch.context() as patch:
        patch.setattr(hom_core, "check_hom_algebra", algebra)
        check = check_hom_hopf if hasattr(a, "comult_map") else algebra
        rep, seen = traced_check(check, a, monkeypatch)
    return rep, [
        (eq_id, tup, None if val is None else (terms(val[0]), terms(val[1])))
        for eq_id, tup, val in seen
        if eq_id == "hom-assoc" or eq_id in PAIR_EQUATIONS
    ]


def product_overflows(a, i, j):
    keys = a.basis_keys()
    try:
        a.product(e(keys[i]), e(keys[j]))
    except TruncationOverflow:
        return True
    return False


@pytest.mark.parametrize("case", sorted(ASSOC_CASES))
def test_hom_assoc_evaluates_exactly_the_checked_tuples(case, monkeypatch):
    a = ASSOC_CASES[case]()
    got, got_seen = traced_table_equations(a, True, monkeypatch)
    want, want_seen = traced_table_equations(ASSOC_CASES[case](), False, monkeypatch)
    assert report_terms(got) == report_terms(want)
    # no hom-assoc tuple handed to CheckReport.run overflows, and no pair
    # whose product overflows is handed to a pair equation: those skips are
    # decided from the table, and the tuples evaluated are the untabulated
    # ones, with the same values
    decided = {
        (eq_id, tup)
        for eq_id, tup, val in want_seen
        if val is None and eq_id == "hom-assoc"
        or eq_id in PAIR_EQUATIONS and product_overflows(a, *tup)
    }
    assert got_seen == [row for row in want_seen if row[:2] not in decided]
    assert not any(
        product_overflows(a, *tup) for eq_id, tup, _ in got_seen if eq_id in PAIR_EQUATIONS
    )
    pair_skips = sum(1 for eq_id, _ in decided if eq_id in PAIR_EQUATIONS)
    if case == "outer_overflow":
        assoc = got.equations[0]
        assert assoc.checked and assoc.skipped and assoc.violations
        assert pair_skips == 2  # (3, 1) and (2, 4) in alpha-multiplicative
    if case == "fixture_b_bicross_n3_w1":
        # skipped from the table, and skipped on a later overflow in fn
        assert pair_skips
        assert any(val is None for eq_id, _, val in got_seen if eq_id in PAIR_EQUATIONS)


# ---------------------------------------------------------------------------
# Bicrossproduct keeps the acting leg of its product per (U key, F key) and
# the U leg per U key


PRODUCT_CASES = {
    "fixture_b_n3_w1": lambda: lie_semidual(fixture_b_lie_pair(), 3),
    "fixture_b_n4_w1": lambda: lie_semidual(fixture_b_lie_pair(), 4),
    "fixture_a_prime_n3_w1": lambda: lie_semidual(fixture_a_prime_lie_pair(), 3),
    "z4_mutual": lambda: parsed(perfbench_doc("z4_mutual")).mutual_pairs["z4"],
    # alpha != beta on both factors
    "z7_twisted_self_pair": lambda: semidualize(
        counital_matched_pair(twisted_cyclic_hopf(7, 3, 2), twisted_cyclic_hopf(7, 3, 2))
    ),
}


def key_products(bi, errors=TruncationOverflow):
    """bi.product_keys on every key pair, in order: its terms with their
    value types, or the name of the error in errors that it raises."""
    keys = bi.basis_keys()
    out = []
    for k1 in keys:
        for k2 in keys:
            try:
                val = bi.product_keys(k1, k2)
            except errors as exc:
                out.append(type(exc).__name__)
                continue
            out.append([(k, v, type(v)) for k, v in val.items()])
    return out


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_factored_bicross_product_matches_direct_formula(case):
    m = PRODUCT_CASES[case]()
    got = key_products(Bicrossproduct(m))
    assert got == key_products(BicrossDirectProduct(m))
    overflowed = got.count("TruncationOverflow")
    if case.startswith("fixture"):
        assert 0 < overflowed < len(got)
    else:
        assert overflowed == 0


class ActionFails:
    """A mutual pair whose action raises UnknownBasisIndex on one F key."""

    def __init__(self, m, key):
        self.m, self.key = m, key

    def __getattr__(self, name):
        return getattr(self.m, name)

    def act(self, u, f):
        if self.key in f.terms:
            raise UnknownBasisIndex(repr(self.key))
        return self.m.act(u, f)


def test_other_errors_escape_the_action_legs():
    # fixture B at N=3 overflows on some key pairs, so an error raised on
    # the legs of one F key must escape on every pair that reaches it, and
    # neither be stored nor be taken for an overflow
    m = PRODUCT_CASES["fixture_b_n3_w1"]()
    broken = ActionFails(m, m.f.basis_keys()[1])
    errors = (TruncationOverflow, UnknownBasisIndex)
    got = key_products(Bicrossproduct(broken), errors)
    assert got == key_products(BicrossDirectProduct(broken), errors)
    assert "UnknownBasisIndex" in got and "TruncationOverflow" in got


# ---------------------------------------------------------------------------
# DoubleCrossProduct keeps the leg v1 |> u'1 of its product per (V key,
# U key) and the leg v2 <| u'2 per (V key, U key)

DOUBLE_CROSS_CASES = {
    "kz4_doublecross": trivial_hopf_matched_pair,
    "fixture_b_n3_w1": lambda: lift_to_Uh_action(fixture_b_lie_pair(), 3, 1),
    "gaussian_n2_w1": lambda: lift_to_Uh_action(sl2_gaussian_split_pair(), 2, 1),
    # alpha != beta on both factors
    "z7_twisted_self_pair": lambda: counital_matched_pair(
        twisted_cyclic_hopf(7, 3, 2), twisted_cyclic_hopf(7, 3, 2)
    ),
}


class LeftActionFails:
    """A matched pair whose left action raises UnknownBasisIndex on one V
    key."""

    def __init__(self, p, key):
        self.p, self.key = p, key

    def __getattr__(self, name):
        return getattr(self.p, name)

    def lt(self, v, u):
        if self.key in v.terms:
            raise UnknownBasisIndex(repr(self.key))
        return self.p.lt(v, u)


@pytest.mark.parametrize("case", sorted(DOUBLE_CROSS_CASES))
def test_double_cross_legs_match_direct_formula(case):
    p = DOUBLE_CROSS_CASES[case]()
    got = key_products(DoubleCrossProduct(p))
    assert got == key_products(DoubleCrossDirectProduct(p))
    overflowed = got.count("TruncationOverflow")
    if case.startswith(("fixture", "gaussian")):
        assert 0 < overflowed < len(got)
    else:
        assert overflowed == 0
    # an error raised on the legs of one V key escapes on every pair that
    # reaches it, and is neither stored nor taken for an overflow
    broken = LeftActionFails(p, p.v.basis_keys()[1])
    errors = (TruncationOverflow, UnknownBasisIndex)
    got = key_products(DoubleCrossProduct(broken), errors)
    assert got == key_products(DoubleCrossDirectProduct(broken), errors)
    assert "UnknownBasisIndex" in got


# ---------------------------------------------------------------------------
# stored values are shared, not copied: a check that wrote to a value it
# read from a table would change that table and the next report

# every per-instance table of the checked objects, by attribute name
SHARED_TABLES = {
    "_product_cache", "_comult_cache", "_alpha_cache",  # TruncatedUEA
    "_antipode_cache", "_projected",
    "_shift_cache", "_phi_powers", "_coproduct_cache",  # TreeOps
    "_template_cache",
    "_memo", "_legs",  # DoubleCrossProduct, Bicrossproduct
    "_nabla",  # GradedMutualPair
    "_tables",  # TruncatedDual
    "_omega_left", "_omega_right",  # UEAActionContext
}


def frozen(val):
    """A copy of a table value that shares nothing with it."""
    if isinstance(val, LinComb):
        return list(val.terms.items())
    if isinstance(val, dict):
        return {k: frozen(v) for k, v in val.items()}
    if isinstance(val, tuple):
        # a coproduct template: tuples of shapes, weight getters, decorations
        # and coefficients, none of which can be written to
        return val
    assert isinstance(val, str), type(val)  # a stored overflow
    return val


def shared_tables(objects):
    return {
        (label, attr): val
        for label, obj in objects.items()
        for attr, val in vars(obj).items()
        if attr in SHARED_TABLES
    }


def checked_objects(monkeypatch):
    """Fixture B's semidual and its bicrossproduct, the sl2 split lift and
    its U(h), the kz4 double cross product and the Z/4 bicrossproduct, each
    with its checks; every UEAActionContext the lifts build is kept."""
    contexts = []

    class Kept(uea_trees.UEAActionContext):
        def __init__(self, pair):
            super().__init__(pair)
            contexts.append(self)

    monkeypatch.setattr(uea_trees, "UEAActionContext", Kept)
    semi = lie_semidual(fixture_b_lie_pair(), 3)
    semi_bi = Bicrossproduct(semi)
    lift = lift_to_Uh_action(sl2_split_pair(), 3, 1)
    double = DoubleCrossProduct(trivial_hopf_matched_pair())
    z4 = Bicrossproduct(parsed(perfbench_doc("z4_mutual")).mutual_pairs["z4"])
    objects = {
        "semidual": semi, "semidual.F": semi.f,
        "semidual.U": semi.u, "semidual.V": semi.v,
        "semidual.U.ops": semi.u.ops, "semidual.V.ops": semi.v.ops,
        "semidual.bicross": semi_bi,
        "lift.U": lift.u, "lift.V": lift.v,
        "lift.U.ops": lift.u.ops, "lift.V.ops": lift.v.ops,
        "double": double, "z4": z4,
    }
    for n, ctx in enumerate(contexts):
        objects.update({
            "ctx%d" % n: ctx, "ctx%d.g" % n: ctx.gops, "ctx%d.h" % n: ctx.hops
        })
    checks = [
        lambda: check_mutual_pair(semi),
        lambda: check_hom_hopf(semi_bi),
        lambda: check_matched_pair_hopf(lift),
        lambda: check_hom_hopf(lift.v),
        lambda: check_hom_hopf(double),
        lambda: check_mutual_pair(z4.m),
        lambda: check_hom_hopf(z4),
    ]
    return objects, checks


def test_checks_leave_every_shared_table_as_stored(monkeypatch):
    objects, checks = checked_objects(monkeypatch)
    tables = shared_tables(objects)
    built = frozen({key: table for key, table in tables.items()})
    reports = [report_terms(check()) for check in checks]
    first = frozen(tables)
    # each kind of table in SHARED_TABLES is filled by some check
    assert {attr for (_, attr), t in first.items() if t} == SHARED_TABLES
    for key, table in built.items():
        assert {k: first[key][k] for k in table} == table, key
    assert [report_terms(check()) for check in checks] == reports
    assert frozen(tables) == first
