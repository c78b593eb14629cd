"""Basis images computed once: the per-key coproduct and antipode of the
double cross product and the bicrossproduct, and the twist and product
tables of one `check_hom_algebra` run, against the paths they replace
(`oracles.FreshPerKey`, `oracles.check_hom_algebra_untabulated`).

Reports are compared in full: per equation the checked and skipped
counts, and per violation its witness, lhs and rhs with their term order.
"""

import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

from homhopf import hom_core
from homhopf.cli import parse_input
from homhopf.cross_products import Bicrossproduct, DoubleCrossProduct
from homhopf.errors import TruncationOverflow, UnknownBasisIndex
from homhopf.fixtures import (
    fixture_a_prime_lie_pair,
    fixture_b_lie_pair,
    kz4_twisted_hopf,
    sl2,
)
from homhopf.foundation import LinComb, LinearOperator
from homhopf.hom_core import HomAlgebraData, check_hom_algebra, check_hom_hopf
from homhopf.semidual import lifted_matched_pair, semidualize
from homhopf.uea_trees import build_truncated_uea

from oracles import FreshPerKey, check_hom_algebra_untabulated, fresh_copy
from record_golden import SAMPLES
from test_cross_products import trivial_hopf_matched_pair

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


def lie_bicross(pair, n, w):
    return Bicrossproduct(semidualize(lifted_matched_pair(pair, n, w)))


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


CASES = {
    "kz4": kz4_twisted_hopf,
    "kz4_perturbed": lambda: parse_input(
        str(SAMPLES / "kz4_perturbed_verify.json")
    ).hopf["kz4_twisted"],
    "sl2_uea_n3_w1": lambda: build_truncated_uea(sl2(), 3, 1),
    "fixture_b_bicross_n3_w1": lambda: lie_bicross(fixture_b_lie_pair(), 3, 1),
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
    if case == "sl2_uea_n3_w1":
        assert assoc.skipped and assoc.checked


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
