"""The semidual of a finite matched pair against the construction it
replaced.

`semidual.semidualize` returns a `GradedMutualPair` for every matched
pair: a finite second factor is its own truncation at degree 0, so its
coaction is read from the left action through the pairing, one column
per U key, as a truncated factor's is.  `oracles.semidualize_to_tables`
is the construction it replaced: a `MutualPairHopf` whose coaction is a
table of columns, copied when the pair is semidualized.

On the two finite matched pairs below and on each of the 128 +1
perturbations of their left action tables, the two semiduals must give
the same reports of `check_mutual_pair` and of `check_hom_hopf` on their
bicrossproducts: per equation the checked and skipped counts, and per
violation its witness, lhs and rhs with their term order.
"""

import pytest

from homhopf.cross_products import Bicrossproduct, MatchedPairHopf, check_mutual_pair
from homhopf.foundation import LinComb
from homhopf.hom_core import check_hom_hopf
from homhopf.semidual import semidualize

from fixtures import trivial_hopf_matched_pair
from oracles import semidualize_to_tables
from test_semidual import nontrivial_finite_matched_pair

e = LinComb.basis

BASES = {
    "kz4_trivial": trivial_hopf_matched_pair,
    "kz4_inversion": nontrivial_finite_matched_pair,
}


def terms(x):
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


def reports(m):
    """Both reports of a mutual pair, or the error its bicrossproduct
    suite raises."""
    mutual = report_terms(check_mutual_pair(m))
    try:
        suite = report_terms(check_hom_hopf(Bicrossproduct(m)))
    except Exception as exc:  # compared by type and message
        suite = (type(exc).__name__, str(exc))
    return mutual, suite


def perturbed(base):
    """The base pair, then each +1 perturbation of its left action table."""
    yield base
    for entry in base.left:
        for k in base.u.basis_keys():
            left = dict(base.left)
            left[entry] = left[entry] + e(k)
            yield MatchedPairHopf(base.u, base.v, left, base.right)


@pytest.mark.parametrize("name", sorted(BASES))
def test_finite_semidual_matches_the_table_semidual(name):
    pairs = list(perturbed(BASES[name]()))
    assert len(pairs) == 65
    passed = []
    for n, p in enumerate(pairs):
        new = semidualize(p, enforce_order_constraint=False)
        assert new.coaction_complete
        got = reports(new)
        assert got == reports(semidualize_to_tables(p)), n
        passed.append(all(not q[3] for q in got[0]))
    # the base pair is a mutual pair, and no perturbation is
    assert passed == [True] + [False] * 64
