"""Record the expected outcome of every benchmark job into expected.json.

    python3 perfbench/record.py

Run it on the commit whose outcomes are the reference, and only in a change
that redefines the benchmark.  Relabelled inputs are recorded with the
identity labelling; their report digests are checked only under it.
"""

import json
import sys
import tempfile

import jobs


def main():
    sys.path.insert(0, str(jobs.ROOT / "src"))
    from homhopf import cli

    identity = list(range(4))
    expected = {}
    with tempfile.TemporaryDirectory(prefix="work-", dir=jobs.HERE) as workdir:
        for workload, job_list in jobs.WORKLOADS.items():
            paths = jobs.write_inputs(job_list, identity, workdir)
            expected[workload] = {}
            for job in job_list:
                code, data, err = jobs.run_job(cli, job, paths[job.name])
                if err:
                    raise SystemExit("%s: %s" % (job.name, err))
                expected[workload][job.name] = jobs.outcome(code, data)
                print(workload, job.name, "exit", code, flush=True)
    with open(jobs.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
