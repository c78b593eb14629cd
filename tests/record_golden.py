"""Golden outputs: report bytes of the sample runs and exact structure tables.

    PYTHONPATH=src python tests/record_golden.py

writes every case of `CASES` under `tests/golden/`: report bytes as
`reports/<name>.txt` and `reports/<name>.json`, tables as `<name>.json`.
`test_golden.py` recomputes the same cases and requires exact equality,
so a refactor that changes a verdict, a normal form, a table entry or a
report byte fails it.  Re-record only when such a change is intended.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from homhopf.cli import main as cli_main, parse_input  # noqa: E402
from homhopf.cross_products import (  # noqa: E402
    Bicrossproduct,
    DoubleCrossProduct,
    GradedMutualPair,
    MatchedPairHopf,
    MutualPairHopf,
    check_matched_pair_hopf,
    check_mutual_pair,
)
from homhopf.errors import TruncationOverflow  # noqa: E402
from homhopf.foundation import LinComb, LinearOperator  # noqa: E402
from homhopf.semidual import semidualize  # noqa: E402
from homhopf.uea_trees import build_truncated_uea, lift_to_Uh_action  # noqa: E402

from fixtures import (  # noqa: E402
    ActionData,
    abelian_lie,
    coregular_actions,
    fixture_b_lie_pair,
    sl2,
    sweedler_hopf,
)
from lie_pairs import (  # noqa: E402
    anticommuting_pair,
    diag23,
    sl2_reverse_split_pair,
    sl2_split_pair,
    swap_phi,
)
from oracles import (  # noqa: E402
    check_hom_module,
    check_module_coalgebra,
    hopf_data,
    ideal_J_span,
)

GOLDEN = HERE / "golden"
SAMPLES = HERE.parent / "sample_inputs"

e = LinComb.basis


# ---------------------------------------------------------------------------
# serialization: keys by repr, coefficients as exact "p/q" strings


def lc(x):
    return sorted([repr(k), str(c)] for k, c in x.items())


def table(d):
    return sorted([repr(k), lc(v)] for k, v in d.items())


def columns(op, keys):
    return [[repr(k), lc(op.apply(e(k)))] for k in keys]


def hopf_tables(h):
    keys = h.basis_keys()
    return {
        "keys": [repr(k) for k in keys],
        "mult": table(h.mult),
        "unit": lc(h.unit_elem()),
        "alpha": columns(h.alpha, keys),
        "comult": table(h.comult),
        "counit": sorted([repr(k), str(c)] for k, c in h.counit.items()),
        "beta": columns(h.beta, keys),
        "antipode": columns(h.antipode, keys),
    }


# ---------------------------------------------------------------------------
# cases


REPORT_RUNS = [
    ("kz4_verify", "verify-hopf"),
    ("kz4_trivial_doublecross", "doublecross"),
    ("kz4_trivial_doublecross", "semidualize"),
    ("abelian2_build_uea", "build-uea"),
    ("fixture_a_prime_hom_lie_hopf", "hom-lie-hopf"),
    ("fixture_b_hom_lie_hopf", "hom-lie-hopf"),
    ("sl2_borel_hom_lie_hopf", "hom-lie-hopf"),
    # the sl2 Borel sample with h |> e = -e: a weight-0 row of the h-ideal
    # is not killed, so the lift walks every row to name the refusal
    ("sl2_borel_perturbed_hom_lie_hopf", "hom-lie-hopf"),
    # the sl2 Borel sample with h |> e = -3e at degree 1: both ideals are
    # stable, and the pair is refused because it fails
    # matched-pair-Hom-Lie-alg-II of check_matched_pair_lie
    ("sl2_borel_minus3e_hom_lie_hopf", "hom-lie-hopf"),
    ("sl2_borel_minus3e_hom_lie_hopf", "doublecross"),
    # kz4 with e1 . e1 = 2 e2: a failing report whose hom-assoc witnesses,
    # lhs and rhs are pinned byte for byte
    ("kz4_perturbed_verify", "verify-hopf"),
    # the one sample whose input is a finite mutual pair: bicross checks it
    # and then builds the bicrossproduct
    ("z4_trivial_bicross", "bicross"),
]


def report_bytes(sample, command):
    """(exit status, text bytes, JSON bytes) of `cli.main` on one sample,
    error reports included; the two formats must agree on the status."""
    out = []
    for fmt in ("text", "json"):
        argv = [command, "--input", str(SAMPLES / (sample + ".json")), "--format", fmt]
        buf = io.BytesIO()
        with redirect_stdout(io.TextIOWrapper(buf)) as stdout:
            code = cli_main(argv)
            stdout.flush()
        out.append((code, buf.getvalue()))
    (code, text), (json_code, js) = out
    assert code == json_code, (sample, command)
    return code, text, js


def uea_tables(g, n, w):
    u = build_truncated_uea(g, n, w)
    keys = u.basis_keys()
    product = []
    for k1 in keys:
        for k2 in keys:
            try:
                val = lc(u.product(e(k1), e(k2)))
            except TruncationOverflow:
                val = "overflow"
            product.append([repr(k1), repr(k2), val])
    return {
        "normal_forms": [repr(k) for k in keys],
        "dims": u.dims_per_degree(),
        "product": product,
        "coproduct": [[repr(k), lc(u.comult_map(e(k)))] for k in keys],
        "antipode": [[repr(k), lc(u.antipode_map(e(k)))] for k in keys],
        "alpha": [[repr(k), lc(u.alpha_map(e(k)))] for k in keys],
    }


def spans(rows_by_degree):
    return {str(d): [lc(r) for r in rows] for d, rows in sorted(rows_by_degree.items())}


def lifted_actions(pair):
    """Both lifted tables, v <| u keyed (u, v) as the files record it."""
    mp = lift_to_Uh_action(pair, 3, 1)
    right = {(u, v): val for (v, u), val in mp.right.items()}
    return {"left": table(mp.left), "right": table(right)}


def _sample_matched_pair():
    doc = parse_input(str(SAMPLES / "kz4_trivial_doublecross.json"))
    return doc.matched_pairs["trivial"]


def semidual_finite():
    m = semidualize(_sample_matched_pair())
    coaction = {k: m.coaction_legs(e(k)) for k in m.u.basis_keys()}
    return {"action": table(m.action), "coaction": table(coaction)}


def semidual_graded():
    mp = lift_to_Uh_action(fixture_b_lie_pair(), 3, 1)
    m = semidualize(mp)
    return {
        "action": table(m.action),
        "coaction_complete": m.coaction_complete,
        "coaction_truncated": [
            [repr(k), lc(m.coaction_legs_truncated(e(k)))] for k in m.u.basis_keys()
        ],
    }


def doublecross_hopf():
    return hopf_tables(hopf_data(DoubleCrossProduct(_sample_matched_pair())))


def bicross_hopf():
    from test_cross_products import trivial_mutual_pair

    return hopf_tables(hopf_data(Bicrossproduct(trivial_mutual_pair())))


def check_outcome(rep):
    """Every equation of a report in order: counts and each violation's
    witness, lhs and rhs."""
    return [
        {
            "id": eq.eq_id,
            "checked": eq.checked,
            "skipped": eq.skipped,
            "violations": [
                [repr(v.witness), lc(v.lhs), lc(v.rhs)] for v in eq.violations
            ],
        }
        for eq in rep.equations
    ]


def _perturbed(table, key, delta):
    out = dict(table)
    out[key] = out[key] + delta
    return out


def failing_matched_pairs():
    """check_matched_pair_hopf on two broken pairs: the kz4 sample pair with
    one constant of each action changed, and the lifted fixture-B pair
    (N=2, W=1) with one entry of the right action changed."""
    mp = _sample_matched_pair()
    left, right = _perturbed(mp.left, (1, 1), e(0)), _perturbed(mp.right, (2, 1), e(3))
    kz4 = MatchedPairHopf(mp.u, mp.v, left, right)
    mp = lift_to_Uh_action(fixture_b_lie_pair(), 2, 1)
    y = [k for k in mp.u.basis_keys() if mp.u.degree(k) == 1][0]
    x = [k for k in mp.v.basis_keys() if mp.v.degree(k) == 1][0]
    lifted = MatchedPairHopf(mp.u, mp.v, mp.left, _perturbed(mp.right, (x, y), e(x)))
    return {
        "kz4_left_right": check_outcome(check_matched_pair_hopf(kz4)),
        "fixture_b_n2_w1_right": check_outcome(check_matched_pair_hopf(lifted)),
    }


def _with_side(action, side, act=None):
    return ActionData(
        action.algebra, action.carrier_keys, action.act if act is None else act,
        action.gamma, side=side,
    )


def perturbed_graded_mutual_pairs():
    """The fixture-B semidual (N=2, W=1) with two constants of its action
    changed, and with one constant of the left action that defines its
    coaction changed: v1 |> u1 gains u1 on the degree-1 keys."""
    mp = lift_to_Uh_action(fixture_b_lie_pair(), 2, 1)
    g = semidualize(mp)
    u1 = [k for k in g.u.basis_keys() if g.u.degree(k) == 1][0]
    f1 = [k for k in g.f.basis_keys() if g.f.degree(k) == 1][0]
    v1 = [k for k in mp.v.basis_keys() if mp.v.degree(k) == 1][0]
    act = _perturbed(_perturbed(g.action, (u1, "1"), e(f1)), ("1", f1), e(f1))
    left = _perturbed(mp.left, (v1, u1), e(u1))
    return {
        "fixture_b_n2_w1_graded_action": GradedMutualPair(g.f, g.u, act, mp),
        "fixture_b_n2_w1_graded_coaction": GradedMutualPair(
            g.f, g.u, g.action, MatchedPairHopf(mp.u, mp.v, left, mp.right)
        ),
    }


def failing_module_checks():
    """Module-compatibility checkers on broken inputs:
    - check_mutual_pair on the trivial Z/4 mutual pair with one action
      constant changed, and on the fixture-B semidual (N=2, W=1) with two
      action constants changed, or with one constant of the left action
      that defines its coaction changed;
    - check_module_coalgebra on the kz4 sample pair's left action with one
      constant changed;
    - check_matched_pair_hopf on that pair with the constants changed that
      the unit laws read;
    - check_hom_module on Sweedler's coregular actions with one constant
      changed, and with their side flipped."""
    from test_cross_products import trivial_mutual_pair

    out = {}
    m = trivial_mutual_pair()
    for key, delta in (((0, 0), e(1)), ((2, 3), e(0))):
        act = _perturbed(m.action, key, delta)
        rep = check_mutual_pair(MutualPairHopf(m.f, m.u, act, m.coaction))
        out["z4_mutual_action_%d_%d" % key] = check_outcome(rep)
    for name, pair in perturbed_graded_mutual_pairs().items():
        out[name] = check_outcome(check_mutual_pair(pair))
    kz4 = _sample_matched_pair()
    broken = MatchedPairHopf(
        kz4.u, kz4.v, _perturbed(kz4.left, (1, 1), e(0)), kz4.right
    )
    rep = check_module_coalgebra(kz4.v, kz4.u, broken.lt)
    out["kz4_module_coalgebra_left"] = check_outcome(rep)
    right = _perturbed(_perturbed(kz4.right, (0, 1), e(2)), (1, 0), e(2))
    left = _perturbed(_perturbed(kz4.left, (0, 1), e(2)), (1, 0), e(2))
    units = MatchedPairHopf(kz4.u, kz4.v, left, right)
    out["kz4_matched_pair_units"] = check_outcome(check_matched_pair_hopf(units))
    h = sweedler_hopf()
    for action in coregular_actions(h):
        flipped = "right" if action.side == "left" else "left"
        act = _perturbed(action.act, (0, 3), e(0))
        out["sweedler_coregular_%s" % action.side] = check_outcome(
            check_hom_module(h, _with_side(action, action.side, act))
        )
        out["sweedler_coregular_%s_as_%s" % (action.side, flipped)] = check_outcome(
            check_hom_module(h, _with_side(action, flipped))
        )
    return out


def _neg1():
    return abelian_lie(1, LinearOperator.from_matrix([[-1]], inverse=[[-1]]))


TABLE_CASES = {
    "uea_sl2_n3_w1": lambda: uea_tables(sl2(), 3, 1),
    "uea_abelian2_swap_n3_w1": lambda: uea_tables(abelian_lie(2, swap_phi()), 3, 1),
    "ideal_J_abelian2_n2_w0": lambda: spans(ideal_J_span(abelian_lie(2), 2, 0)),
    "ideal_J_neg1_n1_w1": lambda: spans(ideal_J_span(_neg1(), 1, 1)),
    "ideal_J_abelian2_n2_w0_again": lambda: spans(ideal_J_span(abelian_lie(2), 2, 0)),
    "ideal_J_sl2_n3_w1": lambda: spans(ideal_J_span(sl2(), 3, 1)),
    "ideal_J_abelian2_diag23_n2_w3": lambda: spans(
        ideal_J_span(abelian_lie(2, diag23()), 2, 3)
    ),
    "lift_fixture_b_n3_w1": lambda: lifted_actions(fixture_b_lie_pair()),
    "lift_anticommuting_n3_w1": lambda: lifted_actions(anticommuting_pair()),
    "lift_sl2_split_n3_w1": lambda: lifted_actions(sl2_split_pair()),
    "lift_sl2_split_twisted_n3_w1": lambda: lifted_actions(sl2_split_pair(-1)),
    "lift_sl2_reverse_split_twisted_n3_w1": lambda: lifted_actions(
        sl2_reverse_split_pair(True)
    ),
    "semidual_kz4": semidual_finite,
    "semidual_fixture_b_n3_w1": semidual_graded,
    "doublecross_kz4_hopf_data": doublecross_hopf,
    "bicross_trivial_mutual_hopf_data": bicross_hopf,
    "matched_pair_violations": failing_matched_pairs,
    "module_check_violations": failing_module_checks,
}


def report_name(sample, command):
    return "%s__%s" % (sample, command)


def dump(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def main():
    (GOLDEN / "reports").mkdir(parents=True, exist_ok=True)
    codes = {}
    for sample, command in REPORT_RUNS:
        name = report_name(sample, command)
        code, text, js = report_bytes(sample, command)
        codes[name] = code
        (GOLDEN / "reports" / (name + ".txt")).write_bytes(text)
        (GOLDEN / "reports" / (name + ".json")).write_bytes(js)
    (GOLDEN / "reports" / "exit_codes.json").write_text(dump(codes))
    for name, fn in TABLE_CASES.items():
        (GOLDEN / (name + ".json")).write_text(dump(fn()))
        sys.stdout.write("recorded %s\n" % name)


if __name__ == "__main__":
    os.chdir(HERE.parent)
    main()
