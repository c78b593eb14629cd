"""Input robustness: one changed or deleted leaf of a structure section
must end in a report (exit 0 or 1) or an input error (exit 2), never in an
exception escaping `cli.main`.

Each case is a (sample, command) run, the path of one node below a
structure section, and the value that replaces it (`DELETE` removes it).
The `pipeline` section is left alone; every run passes
`--degree 2 --weight-bound 1` so that the Lie samples stay small.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from homhopf.cli import main

from record_golden import REPORT_RUNS
from test_cli import sample_doc, trivial_mutual_doc

STRUCTURE_SECTIONS = (
    "hopf", "hom_lie", "matched_pairs", "mutual_pairs", "lie_matched_pairs",
)
DELETE = "<delete>"
VALUES = [DELETE, 0, 1, -1, 7, "2", "1/2", "1/0", "x", True, None, [], {}]

DOCS = {sample: sample_doc(sample) for sample, _ in REPORT_RUNS}
DOCS["z4_mutual"] = trivial_mutual_doc()
RUNS = REPORT_RUNS + [("z4_mutual", "bicross")]


def leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in leaf_paths(child, path + (key,))]


LEAVES = {
    sample: [
        p for s in STRUCTURE_SECTIONS if s in doc for p in leaf_paths(doc[s], (s,))
    ]
    for sample, doc in DOCS.items()
}

cases = st.sampled_from(RUNS).flatmap(
    lambda run: st.tuples(
        st.just(run[0]),
        st.just(run[1]),
        st.sampled_from(LEAVES[run[0]]),
        st.sampled_from(VALUES),
    )
)


def mutated(sample, path, value):
    doc = copy.deepcopy(DOCS[sample])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=80, deadline=None)
@given(cases)
# a double cross product whose suite fails: its pair-of-pairs keys used to
# be read as trees by the report labeller
@example(("kz4_trivial_doublecross", "doublecross", ("hopf", "v", "antipode", 0, 0), "-1"))
# the same for the bicrossproduct
@example(("z4_mutual", "bicross", ("hopf", "f", "antipode", 0, 0), "-1"))
# a nonzero diagonal bracket row, and two mirrored rows that disagree
@example(("abelian2_build_uea", "build-uea", ("hom_lie", "abelian2", "bracket"),
          [[0, 0, ["1", "0"]]]))
@example(("abelian2_build_uea", "build-uea", ("hom_lie", "abelian2", "bracket"),
          [[0, 1, ["1", "0"]], [1, 0, ["1", "0"]]]))
def test_one_mutated_leaf_never_escapes_main(case):
    sample, command, path, value = case
    doc = mutated(sample, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        input_path = Path(tmp) / "input.json"
        input_path.write_text(json.dumps(doc))
        out = io.TextIOWrapper(io.BytesIO())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--input", str(input_path),
                         "--degree", "2", "--weight-bound", "1"])
    assert code in (0, 1, 2)
