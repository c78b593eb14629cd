"""Differential test against the golden outputs in `tests/golden/`.

The reports of the sample runs must match byte for byte in both formats,
and every recorded table must match exactly.  `record_golden.py` holds
the cases and writes the files.
"""

import json

import pytest

from record_golden import (
    GOLDEN,
    REPORT_RUNS,
    TABLE_CASES,
    dump,
    report_bytes,
    report_name,
)


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
