"""Benchmark of the homhopf batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's job list in this single-threaded process and prints,
as the last line of standard output, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0: repeats the job list while another pass fits in S seconds and
reports the end-to-end metrics (medians over passes).
--trace 1: one untraced pass, then one traced pass; reports the per-layer
metrics and fails if a span expected on the workload never fired.

Every job's exit status, verdict and per-equation counts are compared
with `expected.json`, and so are the report bytes (sha256) of every job
whose input the seed does not relabel.  The seed sets the job order and
the basis relabelling of the generated finite tables.
"""

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from time import perf_counter

import jobs
import spans
from clock import Clock

SETUP_REPEATS = 5

# spans that must fire on a workload; a missed binding is an error, not a 0
EXPECTED_SPANS = {
    "lie_pipeline": [
        "foundation.rowspace_add", "foundation.rowspace_reduce",
        "uea_trees.build_truncated_uea", "uea_trees.lift_to_Uh_action",
        "uea_trees.product", "uea_trees.comult", "uea_trees.shift",
        "uea_trees.antipode", "duality.dual_product", "duality.dual_precompose",
        "duality.dual_comult", "duality.dual_antipode", "hom_core.check_run",
        "hom_lie.check_hom_lie", "cross_products.matched_pair_check",
        "cross_products.mutual_pair_check", "cross_products.bicross_product",
        "cross_products.bicross_comult", "semidual.semidualize",
        "semidual.build_hom_lie_hopf", "cli.parse_input", "cli.emit_report",
    ],
    "uea_build": [
        "foundation.rowspace_add", "foundation.rowspace_reduce",
        "uea_trees.build_truncated_uea", "uea_trees.well_definedness",
        "uea_trees.product", "uea_trees.comult", "uea_trees.shift",
        "uea_trees.antipode", "hom_core.check_run", "hom_lie.check_hom_lie",
        "cli.parse_input", "cli.emit_report",
    ],
    "finite_tables": [
        "duality.dual_hom_hopf", "hom_core.check_run",
        "cross_products.matched_pair_check", "cross_products.mutual_pair_check",
        "cross_products.bicross_product", "cross_products.bicross_comult",
        "cross_products.doublecross_product", "semidual.semidualize",
        "cli.parse_input", "cli.emit_report",
    ],
}


def import_cli():
    """Import the package afresh from the checkout's src/."""
    for name in list(sys.modules):
        if name == "homhopf" or name.startswith("homhopf."):
            del sys.modules[name]
    return importlib.import_module("homhopf.cli")


def setup(workload, seed, workdir):
    cli = import_cli()
    order, perm = jobs.seed_plan(jobs.WORKLOADS[workload], seed)
    paths = jobs.write_inputs(order, perm, workdir)
    expected = jobs.load_expected()[workload]
    return cli, order, perm, paths, expected


class Pass:
    """One run of the job list with its checked outcomes."""

    def __init__(self):
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.top_job_s = None
        self.checked = 0
        self.skipped = 0
        self.coverage_min = Fraction(1)
        self.attempted = 0
        self.failed = 0


def run_pass(clock, cli, order, perm, paths, expected, out):
    p = Pass()
    identity = perm == sorted(perm)
    for job in order:
        p.attempted += 1
        mark = clock.mark()
        try:
            code, data, err = jobs.run_job(cli, job, paths[job.name])
        except Exception:
            p.failed += 1
            out.append("job %s raised:\n%s" % (job.name, traceback.format_exc()))
            continue
        finally:
            dt, raw = clock.since(mark)
            p.wall_s += dt
            p.raw_wall_s += raw
            if job.top:
                p.top_job_s = dt
        got = jobs.outcome(code, data)
        want = expected[job.name]
        bad = jobs.mismatches(got, want, check_digest=identity or not job.relabel)
        if bad:
            p.failed += 1
            out.append(
                "job %s: outcome differs in %s\n  got:      %s\n  expected: %s%s"
                % (job.name, ", ".join(bad), json.dumps(got), json.dumps(want),
                   "\n  stderr: " + err if err else "")
            )
        for _, _, checked, skipped, _ in got["equations"]:
            p.checked += checked
            p.skipped += skipped
            if checked + skipped:
                p.coverage_min = min(p.coverage_min, Fraction(checked, checked + skipped))
    return p


def end_to_end(passes, setup_s):
    walls = [p.wall_s for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checked, skipped = passes[0].checked, passes[0].skipped
    return {
        "wall_s": (statistics.median(walls), "s"),
        "top_job_s": (statistics.median(p.top_job_s for p in passes), "s"),
        "tuples_per_s": (statistics.median(p.checked / p.wall_s for p in passes), "1/s"),
        "tuples_checked": (checked, "count"),
        "coverage": (checked / (checked + skipped) if checked else 0.0, "ratio"),
        "match_rate": (1 - failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = jobs.ROOT / "src"
    if not (src / "homhopf" / "cli.py").is_file() or not jobs.EXPECTED.is_file():
        sys.stderr.write("perfbench: no homhopf sources or expected.json here\n")
        return 2
    sys.path.insert(0, str(src))

    notes = []
    clock = Clock()
    workdir = tempfile.mkdtemp(prefix="work-", dir=jobs.HERE)
    clock.start()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            mark = clock.mark()
            cli, order, perm, paths, expected = setup(args.workload, args.seed, workdir)
            setup_times.append(clock.since(mark)[0])
        setup_s = statistics.median(setup_times)

        passes = []
        started = perf_counter()
        while True:
            passes.append(run_pass(clock, cli, order, perm, paths, expected, notes))
            if args.trace:
                break
            elapsed = perf_counter() - started
            if elapsed + statistics.median(p.raw_wall_s for p in passes) > args.seconds:
                break

        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            traced = run_pass(clock, cli, order, perm, paths, expected, notes)
            passes.append(traced)
            # layer times in the same corrected seconds as the end-to-end ones
            metrics, calls = tracer.metrics(traced.wall_s / traced.raw_wall_s)
            for name in EXPECTED_SPANS[args.workload]:
                if not calls[name]:
                    notes.append("span %s never fired on %s" % (name, args.workload))
            metrics["hom_core.coverage_min"] = (float(traced.coverage_min), "ratio")
            metrics["trace.overhead_ratio"] = (traced.wall_s / passes[0].wall_s, "ratio")
        else:
            metrics = end_to_end(passes, setup_s)
        for p in passes[1:]:
            if (p.checked, p.skipped) != (passes[0].checked, passes[0].skipped):
                notes.append("tuple counts differ between passes")
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    print("wall_s per pass, raw/corrected: %s"
          % " ".join("%.3f/%.3f" % (p.raw_wall_s, p.wall_s) for p in passes))
    for note in notes:
        print(note)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": not notes,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
