"""Differential test of U(g)'s well-definedness report.

`TruncatedUEA.well_definedness_report` checks each map M on each ideal row
t - P(t) as M(t) = M(P(t)), with M(P(t)) built once per report for each
map, power and list of P(t)'s terms.  `oracles.well_definedness_direct`
applies M to every row, as the report did before.  The two reports must
agree equation by equation: id, checked and skipped counts, and for each
violation its witness, lhs and rhs as ordered (key, coefficient, type)
lists.

The cases:
- sl2, twisted sl2, abelian2, fixture B's g and h and the Gaussian sl2
  split's g and h at (N, W) = (3, 1), (3, 3) and (4, 1), which pass; the
  stored images of the normal forms must be built once per class of P(t)
  and read on every other row;
- the mutant of `TreeOps.coproduct_terms` that reverses the weights of
  each coproduct leg, which fails ideal-coproduct on the pivot side;
- U(g) with the stored coproduct of one degree-2 normal form perturbed,
  which fails on the normal-form side.
"""

from collections import Counter

import pytest

from homhopf import uea_trees
from homhopf.foundation import LinComb
from homhopf.hom_core import memo_lookup
from homhopf.uea_trees import UNIT, TreeOps, build_truncated_uea, pivot_order

from fixtures import abelian_lie, fixture_b_lie_pair, lie_twist, sl2, sl2_involution
from lie_pairs import sl2_gaussian_split_pair
from oracles import well_definedness_direct
from test_sensitivity import reversed_leg_weights

e = LinComb.basis

ALGEBRAS = {
    "sl2": sl2,
    "sl2_twisted": lambda: lie_twist(sl2(), sl2_involution()),
    "abelian2": lambda: abelian_lie(2),
    "fixture_b_g": lambda: fixture_b_lie_pair().g,
    "fixture_b_h": lambda: fixture_b_lie_pair().h,
    "gaussian_g": lambda: sl2_gaussian_split_pair().g,
    "gaussian_h": lambda: sl2_gaussian_split_pair().h,
}

# counit, antipode, the shifts by +1 and -1, coproduct
MAPS = 5


def terms(x):
    """x as its ordered list of (key, coefficient, coefficient type)."""
    return [(k, c, type(c)) for k, c in x.items()]


def outcome(rep):
    return [
        (
            eq.eq_id,
            eq.checked,
            eq.skipped,
            [(v.witness, terms(v.lhs), terms(v.rhs)) for v in eq.violations],
        )
        for eq in rep.equations
    ]


def counted_lookups(monkeypatch):
    """Count the report's lookups of stored normal-form images: "read" when
    the image is stored already, "built" when it is built."""
    seen = Counter()

    def lookup(memo, key, build, *args):
        seen["read" if key in memo else "built"] += 1
        return memo_lookup(memo, key, build, *args)

    monkeypatch.setattr(uea_trees, "memo_lookup", lookup)
    return seen


def normal_form_classes(u):
    """The distinct lists of terms of P(t) = t - row over the ideal rows."""
    rows = u.ideal_rows()
    return {tuple((e(min(row, key=pivot_order)) - row).items()) for row in rows}


@pytest.mark.parametrize("n, w", [(3, 1), (3, 3), (4, 1)])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_split_report_matches_direct_evaluation(name, n, w, monkeypatch):
    u = build_truncated_uea(ALGEBRAS[name](), n, w)
    seen = counted_lookups(monkeypatch)
    got = u.well_definedness_report()
    assert got.passed and got.total_skipped() == 0
    assert outcome(got) == outcome(well_definedness_direct(u))
    # each row reads its normal form's image once per map, which is built
    # for the first row of each class only
    assert seen["read"] + seen["built"] == got.total_checked()
    assert seen["built"] == MAPS * len(normal_form_classes(u))


# the 3,593 rows at N=3, W=3 (3,546 of them weighted) have 37 distinct P(t)
# on sl2 and 71 on twisted sl2
@pytest.mark.parametrize("name, classes", [("sl2", 37), ("sl2_twisted", 71)])
def test_rows_share_few_normal_forms(name, classes):
    u = build_truncated_uea(ALGEBRAS[name](), 3, 3)
    assert len(u.ideal_rows()) == 3593
    assert len(normal_form_classes(u)) == classes


@pytest.mark.parametrize("name, failing", [("sl2_twisted", 200), ("sl2", 0)])
def test_leg_weight_mutant_fails_alike(name, failing, monkeypatch):
    monkeypatch.setattr(
        TreeOps, "coproduct_terms", reversed_leg_weights(TreeOps.coproduct_terms)
    )
    u = build_truncated_uea(ALGEBRAS[name](), 3, 1)
    got = u.well_definedness_report()
    assert [len(eq.violations) for eq in got.equations] == [0, 0, 0, failing]
    assert outcome(got) == outcome(well_definedness_direct(u))


@pytest.mark.parametrize("name", ["sl2", "sl2_twisted"])
def test_perturbed_normal_form_coproduct_fails_alike(name):
    u = build_truncated_uea(ALGEBRAS[name](), 3, 1)
    rows = u.ideal_rows()
    k = next(
        k for row in rows for k in row if k in u.keys and u.degree(k) == 2
    )
    u._comult_cache[k] = u.comult_map(e(k)) + e((UNIT, UNIT))
    got = u.well_definedness_report()
    failed = {eq.eq_id for eq in got.equations if not eq.passed}
    assert failed == {"ideal-coproduct"}
    # a row fails exactly when its normal form holds k, as no pivot's
    # coproduct reads the stored table
    bad = [v.witness[0] for v in got.violations]
    assert bad == [i for i, row in enumerate(rows) if k in row]
    assert outcome(got) == outcome(well_definedness_direct(u))
