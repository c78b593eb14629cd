"""Workloads, their generated inputs, and the job runner.

A job is one (command, input, --degree/--weight-bound) triple.  It runs
in-process through `homhopf.cli.main`, which calls the public
`parse_input` -> `run` -> `emit_report`; the report bytes it writes and
its exit status are captured and compared with the outcome recorded in
`expected.json`.
"""

import copy
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLES = ROOT / "sample_inputs"
EXPECTED = HERE / "expected.json"


class Job:
    """One CLI invocation.  `source` is "sample:<file stem>" or
    "gen:<generator>"; `relabel` marks generated finite tables whose basis
    the workload seed permutes; `top` marks the job `top_job_s` times."""

    def __init__(self, name, command, source, args=(), relabel=False, top=False):
        self.name = name
        self.command = command
        self.source = source
        self.args = list(args)
        self.relabel = relabel
        self.top = top


def _params(n, w):
    return ["--degree", str(n), "--weight-bound", str(w)]


WORKLOADS = {
    "lie_pipeline": [
        Job("fixture_b_sample", "hom-lie-hopf", "sample:fixture_b_hom_lie_hopf"),
        Job("fixture_a_prime_sample", "hom-lie-hopf",
            "sample:fixture_a_prime_hom_lie_hopf"),
        Job("fixture_b_n3_w1", "hom-lie-hopf", "sample:fixture_b_hom_lie_hopf",
            _params(3, 1)),
        Job("fixture_a_prime_n3_w1", "hom-lie-hopf",
            "sample:fixture_a_prime_hom_lie_hopf", _params(3, 1)),
        Job("fixture_b_n4_w1", "hom-lie-hopf", "sample:fixture_b_hom_lie_hopf",
            _params(4, 1), top=True),
    ],
    "uea_build": [
        Job("abelian2_sample", "build-uea", "sample:abelian2_build_uea"),
        Job("sl2_n3_w3", "build-uea", "gen:sl2", _params(3, 3)),
        Job("sl2_twisted_n3_w3", "build-uea", "gen:sl2_twisted", _params(3, 3),
            top=True),
        # sensitivity: [h,e] = 3e breaks Jacobi, so the build must refuse
        Job("sl2_broken_n3_w3", "build-uea", "gen:sl2_broken", _params(3, 3)),
    ],
    "finite_tables": [
        Job("kz4_verify_sample", "verify-hopf", "sample:kz4_verify"),
        Job("kz4_doublecross_sample", "doublecross",
            "sample:kz4_trivial_doublecross", top=True),
        Job("kz4_semidualize_sample", "semidualize",
            "sample:kz4_trivial_doublecross"),
        Job("z4_mutual_bicross", "bicross", "gen:z4_mutual", relabel=True),
        # sensitivity: one mult constant +1 must fail 6 equations
        Job("kz4_perturbed_verify", "verify-hopf", "gen:kz4_perturbed",
            relabel=True),
    ],
}


# ---------------------------------------------------------------------------
# generated inputs

_I3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
# e -> -e, f -> -f, h -> h, the involution lie_twist(sl2(), .) uses
_T3 = [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]


def _lie_doc(name, he, hf, phi, twist=1):
    """sl2-shaped bracket on basis e, f, h: [e,f] = h, [h,e] = he*e,
    [h,f] = hf*f, each image multiplied by the twist's eigenvalue."""
    bracket = [
        [0, 1, ["0", "0", "1"]],
        [2, 0, [str(he * twist), "0", "0"]],
        [2, 1, ["0", str(hf * twist), "0"]],
    ]
    return {
        "field": "Q",
        "hom_lie": {name: {"dim": 3, "bracket": bracket, "phi": phi}},
        "pipeline": {"target": name},
    }


def _sample(name):
    with open(SAMPLES / (name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _z4_mutual_pair():
    """k[Z/4] twisted by inversion, acting on itself counitally,
    u |> f = eps(u) beta(f), with the unit-valued coaction
    nabla(u) = alpha(u) x 1."""
    doc = _sample("kz4_verify")
    name, = doc["hopf"]
    h = doc["hopf"][name]
    dim = h["dim"]
    counit = [Fraction(c) for c in h["counit"]]
    unit = [Fraction(c) for c in h["unit"]]
    alpha = [[Fraction(c) for c in row] for row in h["alpha"]]
    beta = [[Fraction(c) for c in row] for row in h["beta"]]
    action = [
        [u, f, k, str(counit[u] * beta[k][f])]
        for u in range(dim)
        for f in range(dim)
        for k in range(dim)
        if counit[u] * beta[k][f]
    ]
    coaction = [
        [u, i, k, str(alpha[i][u] * unit[k])]
        for u in range(dim)
        for i in range(dim)
        for k in range(dim)
        if alpha[i][u] * unit[k]
    ]
    doc["mutual_pairs"] = {
        "z4": {"f": name, "u": name, "action": action, "coaction": coaction}
    }
    doc["pipeline"] = {"target": "z4"}
    return doc


def _kz4_perturbed():
    """The kz4 sample with e1 . e1 = 2 e2 in place of e2."""
    doc = _sample("kz4_verify")
    name, = doc["hopf"]
    for row in doc["hopf"][name]["mult"]:
        if row[:3] == [1, 1, 2]:
            row[3] = str(Fraction(row[3]) + 1)
    return doc


GENERATORS = {
    "sl2": lambda: _lie_doc("sl2", 2, -2, _I3),
    "sl2_twisted": lambda: _lie_doc("sl2_twisted", 2, -2, _T3, twist=-1),
    "sl2_broken": lambda: _lie_doc("sl2_broken", 3, -2, _I3),
    "z4_mutual": _z4_mutual_pair,
    "kz4_perturbed": _kz4_perturbed,
}


def relabel(doc, perm):
    """Permute the basis of every Hopf table and mutual-pair table by
    e_i -> e_perm[i].  All spaces in the generated finite documents have
    one dimension."""
    doc = copy.deepcopy(doc)
    n = len(perm)

    def dense(vec):
        out = [None] * n
        for i, c in enumerate(vec):
            out[perm[i]] = c
        return out

    def rows(table, idx):
        return sorted(
            [perm[x] if j < idx else x for j, x in enumerate(row)] for row in table
        )

    for h in doc.get("hopf", {}).values():
        if h["dim"] != n:
            raise ValueError("relabel: dimension %d != %d" % (h["dim"], n))
        for key in ("mult", "comult"):
            h[key] = rows(h[key], 3)
        for key in ("unit", "counit"):
            h[key] = dense(h[key])
        for key in ("alpha", "beta", "antipode"):
            h[key] = [dense(row) for row in dense(h[key])]
    for m in doc.get("mutual_pairs", {}).values():
        for key in ("action", "coaction"):
            m[key] = rows(m[key], 3)
    return doc


def seed_plan(jobs, seed):
    """Job order and finite-table relabelling drawn from the workload seed."""
    rng = random.Random(seed)
    order = list(jobs)
    rng.shuffle(order)
    perm = list(range(4))
    rng.shuffle(perm)
    return order, perm


def write_inputs(jobs, perm, workdir):
    """Write every input the jobs need; returns job name -> input path."""
    paths = {}
    for job in jobs:
        kind, name = job.source.split(":")
        if kind == "sample":
            paths[job.name] = SAMPLES / (name + ".json")
            continue
        doc = GENERATORS[name]()
        if job.relabel:
            doc = relabel(doc, perm)
        path = Path(workdir) / (job.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[job.name] = path
    return paths


# ---------------------------------------------------------------------------
# running and checking


def run_job(cli, job, path):
    """Run one job through the CLI entry point; returns (exit, report bytes,
    stderr text)."""
    argv = [job.command, "--input", str(path), "--format", "json"] + job.args
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def outcome(code, data):
    """What a job is checked on: exit status, verdict, error, and per
    equation its checked, skipped and violation counts."""
    report = json.loads(data) if data else {}
    return {
        "exit": code,
        "passed": report.get("passed"),
        "error": report.get("error"),
        "equations": [
            [block["id"], eq["id"], eq["checked"], eq["skipped"], len(eq["violations"])]
            for block in report.get("checks", [])
            for eq in block["equations"]
        ],
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def mismatches(got, want, check_digest):
    """Fields of `got` that differ from the recorded outcome."""
    keys = ["exit", "passed", "error", "equations"]
    if check_digest:
        keys.append("sha256")
    return [k for k in keys if got[k] != want[k]]


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)
