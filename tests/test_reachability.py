"""`src/homhopf` holds what the CLI runs: every function definition that no
REPORT_RUNS sample runs is on the keep-list below, with its reason.

A definition that is added and that no CLI command runs fails here under
its own name; move it under `tests/`, delete it, or give it a CLI path.
A nested definition is folded into its parent when the parent is listed
too.
"""

from pathlib import Path

import reachability

KEEP = {
    # ROADMAP item 4 puts it on the reports
    "hom_core.EquationResult.coverage": "item 4: checked share of an equation's tuples",
    # one- to three-line protocol methods that the tests call
    "foundation.LinComb.__neg__": "protocol: unary minus of a vector",
    "foundation.LinComb.__repr__": "protocol: how a failing assert shows a vector",
    "hom_core.Violation.__repr__": "protocol: how a failing assert shows a witness",
    "hom_core.CheckReport.violations": "protocol: all witnesses of a report, for asserts",
    "foundation.RowSpace.rank": "protocol: the rank of a row space",
    "foundation.LinearOperator.identity": "protocol: the identity twist of a fixture",
    "foundation.LinearOperator.is_identity": "protocol: hopf_twist's classical-input test",
    "foundation._default_order": "protocol: the key order of a RowSpace built without one",
}


def _names(defs):
    out = set()
    for path, _, _, name in defs:
        out.add("%s.%s" % (Path(path).stem, name))
    return {n for n in out if n.rsplit(".", 1)[0] not in out}


def test_every_definition_the_cli_never_runs_is_on_the_keep_list():
    unreached = _names(reachability.unreached())
    assert sorted(unreached - KEEP.keys()) == [], "defined in src/ but run by no CLI command"
    assert sorted(KEEP.keys() - unreached) == [], "on the keep-list but run by the CLI"
