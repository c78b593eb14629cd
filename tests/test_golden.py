"""Differential test against the golden outputs in `tests/golden/`.

The reports of the sample runs must match byte for byte in both formats,
and every recorded table must match exactly.  `record_golden.py` holds
the cases and writes the files.
"""

import json

import pytest

import record_golden
from record_golden import (
    GOLDEN,
    REPORT_RUNS,
    TABLE_CASES,
    dump,
    lc,
    report_bytes,
    report_name,
)
from test_foundation import canonical_scalar


@pytest.mark.parametrize("sample,command", REPORT_RUNS)
def test_report_bytes(sample, command):
    name = report_name(sample, command)
    code, text, js = report_bytes(sample, command)
    codes = json.loads((GOLDEN / "reports" / "exit_codes.json").read_text())
    assert code == codes[name]
    assert text == (GOLDEN / "reports" / (name + ".txt")).read_bytes()
    assert js == (GOLDEN / "reports" / (name + ".json")).read_bytes()


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_tables(name):
    want = (GOLDEN / (name + ".json")).read_text()
    assert dump(TABLE_CASES[name]()) == want


@pytest.mark.parametrize(
    "name", sorted(n for n in TABLE_CASES if n.startswith(("uea_", "ideal_", "lift_")))
)
def test_table_coefficients_are_canonical(name, monkeypatch):
    # every coefficient these tables serialize passes through record_golden.lc
    seen = []

    def checked_lc(x):
        seen.append(x)
        return lc(x)

    monkeypatch.setattr(record_golden, "lc", checked_lc)
    TABLE_CASES[name]()
    assert seen
    assert [(k, c) for x in seen for k, c in x.items() if not canonical_scalar(c)] == []


def test_every_golden_file_is_recorded():
    # a file that no case writes is compared with nothing
    written = {"reports/exit_codes.json"}
    written |= {name + ".json" for name in TABLE_CASES}
    for sample, command in REPORT_RUNS:
        name = report_name(sample, command)
        written |= {"reports/%s.txt" % name, "reports/%s.json" % name}
    on_disk = {p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file()}
    assert on_disk == written
