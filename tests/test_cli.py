import json
import re
from pathlib import Path

import pytest

from homhopf.cli import main, parse_input
from homhopf.errors import InverseMismatch
from homhopf.foundation import LinComb

from fixtures import kz4_twisted_hopf, abelian_lie, fixture_b_lie_pair
from jsonize import hopf_to_json, lie_to_json, lie_pair_to_json, mutual_pair_to_json
from record_golden import GOLDEN, SAMPLES
from test_cross_products import trivial_mutual_pair

e = LinComb.basis


def write(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def kz4_doc():
    return {
        "field": "Q",
        "hopf": {"kz4": hopf_to_json(kz4_twisted_hopf())},
        "pipeline": {"command": "verify-hopf", "target": "kz4"},
    }


def test_verify_hopf_pass(tmp_path, capsys):
    path = write(tmp_path, kz4_doc())
    assert main(["verify-hopf", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "ALL CHECKS PASSED" in out


def test_verify_hopf_violations_exit_one(tmp_path, capsys):
    doc = kz4_doc()
    # break one multiplication entry
    doc["hopf"]["kz4"]["mult"].append([1, 1, 0, "1"])
    path = write(tmp_path, doc)
    assert main(["verify-hopf", "--input", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness" in out


def test_schema_error_exit_two(tmp_path, capsys):
    path = write(tmp_path, {"field": "R"})
    assert main(["verify-hopf", "--input", path]) == 2
    assert "field" in capsys.readouterr().err

    path = write(tmp_path, {"field": "Q", "hopf": {"h": {"dim": 0}}})
    assert main(["verify-hopf", "--input", path]) == 2

    # dangling reference carries a JSON-pointer-ish location
    doc = {
        "field": "Q",
        "hopf": {},
        "matched_pairs": {"p": {"u": "missing", "v": "missing"}},
    }
    path = write(tmp_path, doc)
    assert main(["matched-pair-check", "--input", path]) == 2
    assert "/matched_pairs/p/u" in capsys.readouterr().err


def test_inverse_mismatch(tmp_path):
    doc = kz4_doc()
    # declare a wrong inverse for alpha
    doc["hopf"]["kz4"]["alpha_inv"] = [
        ["2", "0", "0", "0"],
        ["0", "2", "0", "0"],
        ["0", "0", "2", "0"],
        ["0", "0", "0", "2"],
    ]
    path = write(tmp_path, doc)
    assert main(["verify-hopf", "--input", path]) == 2

    # singular phi with no declared inverse
    doc = {
        "field": "Q",
        "hom_lie": {
            "bad": {"dim": 2, "bracket": [], "phi": [["1", "0"], ["0", "0"]]}
        },
        "pipeline": {"target": "bad"},
    }
    path = write(tmp_path, doc)
    with pytest.raises(InverseMismatch):
        parse_input(path)


def test_json_report_deterministic(tmp_path, capsys):
    path = write(tmp_path, kz4_doc())
    assert main(["verify-hopf", "--input", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify-hopf", "--input", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["passed"] is True
    assert report["command"] == "verify-hopf"
    assert "timing_ms" not in report


def test_timing_adds_one_line_or_key_to_the_golden_report(capsysbinary):
    sample = str(SAMPLES / "kz4_verify.json")
    golden = GOLDEN / "reports" / "kz4_verify__verify-hopf"
    assert main(["verify-hopf", "--input", sample, "--timing"]) == 0
    lines = capsysbinary.readouterr().out.splitlines(keepends=True)
    timed = [i for i, line in enumerate(lines) if line.startswith(b"timing: ")]
    assert timed == [len(lines) - 2]  # just before the verdict line
    assert re.fullmatch(rb"timing: \d+ ms\n", lines.pop(timed[0]))
    assert b"".join(lines) == golden.with_suffix(".txt").read_bytes()

    assert main(["verify-hopf", "--input", sample, "--timing", "--format", "json"]) == 0
    report = json.loads(capsysbinary.readouterr().out)
    timing = report.pop("timing_ms")
    assert type(timing) is int and timing >= 0
    redone = (json.dumps(report, indent=2) + "\n").encode("utf-8")
    assert redone == golden.with_suffix(".json").read_bytes()


def test_build_uea_dims_in_report(tmp_path, capsys):
    doc = {
        "field": "Q",
        "hom_lie": {"a2": lie_to_json(abelian_lie(2))},
        "pipeline": {"target": "a2", "degree": 3, "weight_bound": 1},
    }
    path = write(tmp_path, doc)
    assert main(["build-uea", "--input", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimensions"]["per_degree"] == [1, 2, 3, 4]


def test_matched_pair_check_and_doublecross(tmp_path, capsys):
    h1, h2 = kz4_twisted_hopf(), kz4_twisted_hopf()
    left, right = [], []
    for i in range(4):
        for j in range(4):
            for k, c in (h2.counit_map(e(i)) * h1.alpha_map(e(j))).items():
                left.append([i, j, k, str(c)])
            for k, c in (h1.counit_map(e(j)) * h2.alpha_map(e(i))).items():
                right.append([i, j, k, str(c)])
    doc = {
        "field": "Q",
        "hopf": {"u": hopf_to_json(h1), "v": hopf_to_json(h2)},
        "matched_pairs": {
            "trivial": {"u": "u", "v": "v", "left": left, "right": right}
        },
        "pipeline": {"target": "trivial"},
    }
    path = write(tmp_path, doc)
    assert main(["matched-pair-check", "--input", path]) == 0
    capsys.readouterr()
    assert main(["doublecross", "--input", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {b["id"] for b in report["checks"]} == {"matched-pair", "double-cross-suite"}
    capsys.readouterr()
    assert main(["semidualize", "--input", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {b["id"] for b in report["checks"]} == {"matched-pair", "mutual-pair"}


def test_lie_pipeline_commands(tmp_path, capsys):
    pair = fixture_b_lie_pair()
    doc = {
        "field": "Q",
        "hom_lie": {"g": lie_to_json(pair.g), "h": lie_to_json(pair.h)},
        "lie_matched_pairs": {"b": lie_pair_to_json(pair, "g", "h")},
        "pipeline": {"target": "b", "degree": 2, "weight_bound": 1},
    }
    path = write(tmp_path, doc)
    assert main(["matched-pair-check", "--input", path]) == 0
    capsys.readouterr()
    assert main(["hom-lie-hopf", "--input", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimensions"]["u_per_degree"] == [1, 1, 1]
    assert report["passed"] is True
    # degree overridden from the command line
    assert main(["hom-lie-hopf", "--input", path, "--degree", "3"]) == 0


def trivial_mutual_doc():
    m = trivial_mutual_pair()
    return {
        "field": "Q",
        "hopf": {"f": hopf_to_json(m.f), "u": hopf_to_json(m.u)},
        "mutual_pairs": {"m": mutual_pair_to_json(m, "f", "u")},
        "pipeline": {"target": "m"},
    }


def test_bicross_on_a_mutual_pair(tmp_path, capsys):
    path = write(tmp_path, trivial_mutual_doc())
    assert main(["bicross", "--input", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [b["id"] for b in report["checks"]] == ["mutual-pair", "bicross-suite"]
    assert report["passed"] is True


def test_bicross_on_a_perturbed_coaction_exits_one(tmp_path, capsys):
    doc = trivial_mutual_doc()
    row = doc["mutual_pairs"]["m"]["coaction"][1]
    row[3] = str(2 * int(row[3]))
    path = write(tmp_path, doc)
    assert main(["bicross", "--input", path, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [b["id"] for b in report["checks"]] == ["mutual-pair"]
    assert report["violations_total"] > 0


def test_semidualize_on_a_lie_matched_pair(tmp_path, capsys):
    pair = fixture_b_lie_pair()
    doc = {
        "field": "Q",
        "hom_lie": {"g": lie_to_json(pair.g), "h": lie_to_json(pair.h)},
        "lie_matched_pairs": {"b": lie_pair_to_json(pair, "g", "h")},
        "pipeline": {"target": "b", "degree": 2, "weight_bound": 1},
    }
    path = write(tmp_path, doc)
    assert main(["semidualize", "--input", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [b["id"] for b in report["checks"]] == ["matched-pair", "mutual-pair"]


def test_order_constraint_flag(tmp_path, capsys):
    third = {
        "dim": 3,
        "bracket": [],
        "phi": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
    }
    pair_doc = {
        "field": "Q",
        "hom_lie": {"g3": third, "h1": lie_to_json(abelian_lie(1))},
        "lie_matched_pairs": {
            "p": {"g": "g3", "h": "h1", "h_on_g": [], "g_on_h": []}
        },
        "pipeline": {"target": "p", "degree": 2, "weight_bound": 0},
    }
    path = write(tmp_path, pair_doc)
    # order-3 twist violates the finite-order hypothesis
    assert main(["hom-lie-hopf", "--input", path]) == 1
    out = capsys.readouterr().out
    assert "OrderConstraintViolated" in out
    # the override proceeds (and the trivial actions still pass)
    assert main(["hom-lie-hopf", "--input", path, "--no-order-constraint"]) == 0
    # the file's switch is a JSON boolean, not a truthy string
    capsys.readouterr()
    pair_doc["pipeline"]["enforce_order_constraint"] = "false"
    path = write(tmp_path, pair_doc)
    argv = ["hom-lie-hopf", "--input", path]
    assert_input_error(capsys, argv, "/pipeline/enforce_order_constraint")


def a2_doc():
    return {
        "field": "Q",
        "hom_lie": {"a2": lie_to_json(abelian_lie(2))},
        "pipeline": {"target": "a2", "degree": 2, "weight_bound": 1},
    }


def assert_input_error(capsys, argv, where):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert where in captured.err
    assert "Traceback" not in captured.err


def test_negative_degree_flag_exits_two(tmp_path, capsys):
    path = write(tmp_path, a2_doc())
    argv = ["build-uea", "--input", path, "--degree", "-1"]
    assert_input_error(capsys, argv, "--degree")


def test_zero_degree_is_rejected_not_replaced(tmp_path, capsys):
    path = write(tmp_path, a2_doc())
    argv = ["build-uea", "--input", path, "--degree", "0"]
    assert_input_error(capsys, argv, "--degree")
    doc = a2_doc()
    doc["pipeline"]["degree"] = 0
    path = write(tmp_path, doc)
    assert_input_error(capsys, ["build-uea", "--input", path], "/pipeline/degree")
    doc["pipeline"]["degree"] = "3"
    path = write(tmp_path, doc)
    assert_input_error(capsys, ["build-uea", "--input", path], "/pipeline/degree")


def test_negative_weight_bound_exits_two(tmp_path, capsys):
    path = write(tmp_path, a2_doc())
    argv = ["build-uea", "--input", path, "--weight-bound", "-1"]
    assert_input_error(capsys, argv, "--weight-bound")
    doc = a2_doc()
    doc["pipeline"]["weight_bound"] = True
    path = write(tmp_path, doc)
    assert_input_error(capsys, ["build-uea", "--input", path], "/pipeline/weight_bound")
    # W = 0 stays a valid bound
    path = write(tmp_path, a2_doc())
    assert main(["build-uea", "--input", path, "--weight-bound", "0"]) == 0


def test_out_of_range_bracket_index_exits_two(tmp_path, capsys):
    doc = a2_doc()
    doc["hom_lie"]["a2"]["bracket"] = [[0, 9, ["1", "0"]]]
    path = write(tmp_path, doc)
    assert_input_error(capsys, ["build-uea", "--input", path], "/hom_lie/a2/bracket/0")
    doc["hom_lie"]["a2"]["bracket"] = 5
    path = write(tmp_path, doc)
    assert_input_error(capsys, ["build-uea", "--input", path], "/hom_lie/a2/bracket")


def test_out_of_range_comult_leg_exits_two(tmp_path, capsys):
    doc = kz4_doc()
    doc["hopf"]["kz4"]["comult"].append([0, 7, 0, "1"])
    path = write(tmp_path, doc)
    row = len(doc["hopf"]["kz4"]["comult"]) - 1
    assert_input_error(
        capsys, ["verify-hopf", "--input", path], "/hopf/kz4/comult/%d" % row
    )


def sample_doc(name):
    path = Path(__file__).resolve().parent.parent / "sample_inputs" / (name + ".json")
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "table,row",
    [("left", [0, 9, 0, "1"]), ("left", [0, 0, 4, "1"]), ("right", [4, 0, 0, "1"])],
)
def test_out_of_range_matched_pair_row_exits_two(tmp_path, capsys, table, row):
    doc = sample_doc("kz4_trivial_doublecross")
    rows = doc["matched_pairs"]["trivial"][table]
    rows.append(row)
    path = write(tmp_path, doc)
    where = "/matched_pairs/trivial/%s/%d" % (table, len(rows) - 1)
    assert_input_error(capsys, ["matched-pair-check", "--input", path], where)


@pytest.mark.parametrize(
    "table,row", [("action", [0, 0, 4, "1"]), ("coaction", [0, 4, 0, "1"])]
)
def test_out_of_range_mutual_pair_row_exits_two(tmp_path, capsys, table, row):
    doc = kz4_doc()
    doc["mutual_pairs"] = {
        "m": {"f": "kz4", "u": "kz4", "action": [[0, 0, 0, "1"]], "coaction": []}
    }
    doc["mutual_pairs"]["m"][table].append(row)
    doc["pipeline"]["target"] = "m"
    path = write(tmp_path, doc)
    where = "/mutual_pairs/m/%s/%d" % (table, len(doc["mutual_pairs"]["m"][table]) - 1)
    assert_input_error(capsys, ["bicross", "--input", path], where)


@pytest.mark.parametrize(
    "table,row", [("h_on_g", [0, 0, 1, "1"]), ("g_on_h", [1, 0, 0, "1"])]
)
def test_out_of_range_lie_action_row_exits_two(tmp_path, capsys, table, row):
    doc = sample_doc("fixture_b_hom_lie_hopf")
    rows = doc["lie_matched_pairs"]["fixture_b"][table]
    rows.append(row)
    path = write(tmp_path, doc)
    where = "/lie_matched_pairs/fixture_b/%s/%d" % (table, len(rows) - 1)
    assert_input_error(capsys, ["matched-pair-check", "--input", path], where)


def test_out_of_range_mult_target_exits_two(tmp_path, capsys):
    doc = kz4_doc()
    doc["hopf"]["kz4"]["mult"].append([1, 1, 7, "1"])
    path = write(tmp_path, doc)
    row = len(doc["hopf"]["kz4"]["mult"]) - 1
    assert_input_error(
        capsys, ["verify-hopf", "--input", path], "/hopf/kz4/mult/%d" % row
    )
    doc["hopf"]["kz4"]["mult"] = 5
    path = write(tmp_path, doc)
    assert_input_error(capsys, ["verify-hopf", "--input", path], "/hopf/kz4/mult")


def test_out_of_range_sparse_vector_index_exits_two(tmp_path, capsys):
    doc = sample_doc("abelian2_build_uea")
    doc["hom_lie"]["abelian2"]["bracket"] = [[0, 1, [[7, "1"]]]]
    path = write(tmp_path, doc)
    argv = ["build-uea", "--input", path]
    assert_input_error(capsys, argv, "/hom_lie/abelian2/bracket/0/2/0")
    # a vector that is not a list at all
    doc = kz4_doc()
    doc["hopf"]["kz4"]["counit"] = 5
    path = write(tmp_path, doc)
    assert_input_error(capsys, ["verify-hopf", "--input", path], "/hopf/kz4/counit")


@pytest.mark.parametrize("unit", [[[0, "1"]], [[0, "1/2"], [0, "1/2"]]])
def test_sparse_vector_pairs_give_the_golden_report(tmp_path, capsysbinary, unit):
    # [index, scalar] pairs instead of a dense list; a repeated index sums
    doc = sample_doc("kz4_verify")
    (name,) = doc["hopf"]
    doc["hopf"][name]["unit"] = unit
    assert main(["verify-hopf", "--input", write(tmp_path, doc)]) == 0
    golden = GOLDEN / "reports" / "kz4_verify__verify-hopf.txt"
    assert capsysbinary.readouterr().out == golden.read_bytes()


SECTIONS = {
    "hopf": ("kz4_verify", "verify-hopf"),
    "hom_lie": ("abelian2_build_uea", "build-uea"),
    "matched_pairs": ("kz4_trivial_doublecross", "matched-pair-check"),
    "mutual_pairs": ("kz4_verify", "bicross"),
    "lie_matched_pairs": ("fixture_b_hom_lie_hopf", "matched-pair-check"),
}


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_section_that_is_not_an_object_exits_two(tmp_path, capsys, section):
    sample, command = SECTIONS[section]
    doc = sample_doc(sample)
    doc[section] = []
    path = write(tmp_path, doc)
    assert_input_error(capsys, [command, "--input", path], "/" + section)


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_entry_that_is_not_an_object_exits_two(tmp_path, capsys, section):
    sample, command = SECTIONS[section]
    doc = sample_doc(sample)
    doc.setdefault(section, {})["x"] = 3
    path = write(tmp_path, doc)
    assert_input_error(capsys, [command, "--input", path], "/%s/x" % section)


def test_boolean_dim_exits_two(tmp_path, capsys):
    doc = sample_doc("abelian2_build_uea")
    doc["hom_lie"]["abelian2"]["dim"] = True
    path = write(tmp_path, doc)
    argv = ["build-uea", "--input", path]
    assert_input_error(capsys, argv, "/hom_lie/abelian2/dim")
    doc = sample_doc("kz4_verify")
    doc["hopf"]["kz4_twisted"]["dim"] = True
    path = write(tmp_path, doc)
    assert_input_error(capsys, ["verify-hopf", "--input", path], "/hopf/kz4_twisted/dim")


def test_boolean_scalar_exits_two(tmp_path, capsys):
    doc = sample_doc("kz4_verify")
    doc["hopf"]["kz4_twisted"]["unit"] = [True, 0, 0, 0]
    path = write(tmp_path, doc)
    assert_input_error(capsys, ["verify-hopf", "--input", path], "/hopf/kz4_twisted/unit")


def test_target_that_is_not_a_string_exits_two(tmp_path, capsys):
    doc = sample_doc("kz4_verify")
    doc["pipeline"]["target"] = ["x"]
    path = write(tmp_path, doc)
    assert_input_error(capsys, ["verify-hopf", "--input", path], "/pipeline/target")
    doc = sample_doc("kz4_trivial_doublecross")
    doc["matched_pairs"]["trivial"]["u"] = ["x"]
    path = write(tmp_path, doc)
    argv = ["matched-pair-check", "--input", path]
    assert_input_error(capsys, argv, "/matched_pairs/trivial/u")


def pair_of_pairs_violation(block):
    """The first antipode-anticomultiplicative violation: its lhs and rhs
    are over the pair-of-pairs keys of a tensor-product coproduct."""
    eq = next(q for q in block["equations"] if q["id"] == "antipode-anticomultiplicative")
    v = eq["violations"][0]
    return v["witness"], v["lhs"], v["rhs"]


def test_failing_double_cross_suite_labels_pair_keys(tmp_path, capsys):
    # pair-of-pairs keys such as ((0, 0), (0, 0)) are labelled as pairs,
    # not read as trees
    doc = sample_doc("kz4_trivial_doublecross")
    doc["hopf"]["v"]["antipode"][0][0] = "-1"
    path = write(tmp_path, doc)
    assert main(["doublecross", "--input", path, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [b["id"] for b in report["checks"]] == ["matched-pair", "double-cross-suite"]
    assert pair_of_pairs_violation(report["checks"][1]) == (
        ["0"], [["((0, 0), (0, 0))", "-1"]], [["((0, 0), (0, 0))", "1"]]
    )


def test_failing_bicross_suite_labels_pair_keys(tmp_path, capsys):
    doc = trivial_mutual_doc()
    doc["hopf"]["f"]["antipode"][0][0] = "-1"
    path = write(tmp_path, doc)
    assert main(["bicross", "--input", path, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [b["id"] for b in report["checks"]] == ["mutual-pair", "bicross-suite"]
    assert pair_of_pairs_violation(report["checks"][1]) == (
        ["0"], [["((0, 0), (0, 0))", "-1"]], [["((0, 0), (0, 0))", "1"]]
    )


@pytest.mark.parametrize(
    "rows,bad",
    [
        ([[0, 0, ["1", "0"]]], 0),
        ([[0, 1, ["1", "0"]], [1, 0, ["1", "0"]]], 1),
        ([[0, 1, ["1", "0"]], [0, 1, ["0", "1"]]], 1),
    ],
)
def test_contradictory_bracket_rows_exit_two(tmp_path, capsys, rows, bad):
    doc = a2_doc()
    doc["hom_lie"]["a2"]["bracket"] = rows
    path = write(tmp_path, doc)
    where = "/hom_lie/a2/bracket/%d" % bad
    assert_input_error(capsys, ["build-uea", "--input", path], where)


def test_consistent_bracket_rows_are_accepted(tmp_path):
    doc = a2_doc()
    doc["hom_lie"]["a2"]["bracket"] = [
        [0, 0, ["0", "0"]], [0, 1, ["1", "0"]], [1, 0, ["-1", "0"]],
    ]
    g = parse_input(write(tmp_path, doc)).hom_lie["a2"]
    assert g.bracket(0, 1) == e(0) and g.bracket(1, 0) == -1 * e(0)


# schema errors that no other test reaches on purpose: case -> a function
# of tmp_path giving (argv, the message of the one stderr line)


def missing_matrix(tmp_path):
    doc = sample_doc("kz4_verify")
    del doc["hopf"]["kz4_twisted"]["alpha"]
    argv = ["verify-hopf", "--input", write(tmp_path, doc)]
    return argv, "/hopf/kz4_twisted: missing matrix 'alpha'"


def short_dense_vector(tmp_path):
    doc = sample_doc("kz4_verify")
    doc["hopf"]["kz4_twisted"]["unit"] = ["1", "0", "0"]
    argv = ["verify-hopf", "--input", write(tmp_path, doc)]
    return argv, "/hopf/kz4_twisted/unit: dense vector length != 4"


def unreadable_file(tmp_path):
    path = str(tmp_path / "absent.json")
    with pytest.raises(OSError) as exc:
        open(path, encoding="utf-8")
    return ["verify-hopf", "--input", path], "/: cannot read input: %s" % exc.value


def invalid_json(tmp_path):
    path = tmp_path / "input.json"
    path.write_text('{"field": ')
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(path.read_text())
    return ["verify-hopf", "--input", str(path)], "/: invalid JSON: %s" % exc.value


def top_level_list(tmp_path):
    argv = ["verify-hopf", "--input", write(tmp_path, [])]
    return argv, "/: top level must be an object"


def malformed_bracket_row(tmp_path):
    doc = sample_doc("abelian2_build_uea")
    doc["hom_lie"]["abelian2"]["bracket"] = [[0, 1]]
    argv = ["build-uea", "--input", write(tmp_path, doc)]
    return argv, "/hom_lie/abelian2/bracket: expected [i, j, vector] rows"


def target_names_nothing(tmp_path):
    path = write(tmp_path, sample_doc("kz4_verify"))
    argv = ["verify-hopf", "--input", path, "--target", "nope"]
    return argv, "/pipeline/target: no hopf algebra named 'nope'"


SCHEMA_ERRORS = {
    f.__name__: f
    for f in (
        missing_matrix, short_dense_vector, unreadable_file, invalid_json,
        top_level_list, malformed_bracket_row, target_names_nothing,
    )
}


@pytest.mark.parametrize("case", sorted(SCHEMA_ERRORS))
def test_schema_error_is_one_stderr_line_and_exit_two(tmp_path, capsys, case):
    argv, message = SCHEMA_ERRORS[case](tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: %s\n" % message
