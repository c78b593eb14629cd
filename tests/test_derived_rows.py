"""The enveloping algebra built from J0 alone against the build that stored
every weighted row.

`build_truncated_uea` stores the weight-0 closure J0, projects by
P0(sigma(x)) and derives the row t - P0(sigma(t)) of each weighted tree t
in `ideal_rows`.  `oracles.build_truncated_uea_with_weighted_rows` stores
those rows and reduces against all of them.  On every case below the two
must have the same normal forms and the same reduced rows, as term lists
in the same order, and equal projections of every ambient key and its
shifts, and products, shifts, coproducts and antipodes of normal forms,
term for term.
"""

import pytest

from homhopf.errors import TruncationOverflow
from homhopf.foundation import LinComb
from homhopf.uea_trees import build_truncated_uea

from fixtures import abelian_lie, fixture_b_lie_pair, lie_twist, sl2, sl2_involution
from lie_pairs import (
    anticommuting_pair,
    diag23,
    sl2_reverse_split_pair,
    sl2_split_pair,
    swap_phi,
)
from oracles import build_truncated_uea_with_weighted_rows

e = LinComb.basis

# the golden lift cases, both factors, at N=3, W=1
LIFT_PAIRS = {
    "fixture_b": fixture_b_lie_pair,
    "anticommuting": anticommuting_pair,
    "sl2_split": sl2_split_pair,
    "sl2_split_twisted": lambda: sl2_split_pair(-1),
    "sl2_reverse_split_twisted": lambda: sl2_reverse_split_pair(True),
}

# name -> (Lie algebra, N, W)
CASES = {
    # the golden UEA tables and the build-uea sample
    "uea_sl2_n3_w1": (sl2, 3, 1),
    "uea_abelian2_swap_n3_w1": (lambda: abelian_lie(2, swap_phi()), 3, 1),
    "abelian2_build_uea_n3_w1": (lambda: abelian_lie(2), 3, 1),
    "sl2_n3_w3": (sl2, 3, 3),
    "sl2_twisted_n3_w3": (lambda: lie_twist(sl2(), sl2_involution()), 3, 3),
    "fixture_b_g_n5_w2": (lambda: fixture_b_lie_pair().g, 5, 2),
    "abelian2_diag23_n3_w3": (lambda: abelian_lie(2, diag23()), 3, 3),
    "anticommuting_h_n4_w1": (lambda: anticommuting_pair().h, 4, 1),
}
for name, make in LIFT_PAIRS.items():
    CASES["lift_%s_g_n3_w1" % name] = (lambda make=make: make().g, 3, 1)
    CASES["lift_%s_h_n3_w1" % name] = (lambda make=make: make().h, 3, 1)


def terms(x):
    return list(x.items())


def product_or_overflow(u, k1, k2):
    try:
        return terms(u.product(e(k1), e(k2)))
    except TruncationOverflow:
        return "overflow"


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_from_J0_matches_stored_weighted_rows(name):
    make, n, w = CASES[name]
    g = make()
    u = build_truncated_uea(g, n, w)
    ref = build_truncated_uea_with_weighted_rows(g, n, w)
    assert u.ambient == ref.ambient
    assert u.keys == ref.keys
    assert u.graded == ref.graded
    assert [terms(r) for r in u.ideal_rows()] == [
        terms(r) for r in ref.rowspace.basis_rows()
    ]
    for k in u.ambient:
        assert terms(u.project(e(k))) == terms(ref.project(e(k))), k
        # a shifted weighted tree is a combination of weighted trees
        for s in (1, -1):
            x = u.ops.a_shift(e(k), s)
            assert terms(u.project(x)) == terms(ref.project(x)), (k, s)
    nf = u.basis_keys()
    for k1 in nf:
        for k2 in nf:
            assert product_or_overflow(u, k1, k2) == product_or_overflow(ref, k1, k2)
    for k in nf:
        x = e(k)
        for s in (1, -1, 2):
            assert terms(u.alpha_pow(s, x)) == terms(ref.alpha_pow(s, x)), (k, s)
        assert terms(u.comult_map(x)) == terms(ref.comult_map(x)), k
        assert terms(u.antipode_map(x)) == terms(ref.antipode_map(x)), k
