"""Print the tracemalloc peak of every benchmark job.

    python tools/job_peaks.py [TREE]

Reads the workloads and jobs from `perfbench/jobs.py` of TREE (default: this
checkout) and runs each job in one process through `bihkit.cli.main`,
imported from TREE's `src/`: one warm-up run, then one run under
`tracemalloc`.  Prints one `workload  command scenario  peak MB  exit`
line per job, then one JSON line {workload: {job: peak MB}}.  The peak is
that of the memory the job allocates (MB = 2**20 bytes); unlike the
process's peak RSS it does not depend on when the garbage collector frees
the objects of earlier jobs, as the collector runs before each traced run.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import sys
import tracemalloc
from pathlib import Path


def load_jobs(tree):
    """The `perfbench/jobs.py` module of `tree`."""
    spec = importlib.util.spec_from_file_location("perfbench_jobs", tree / "perfbench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def job_peak(cli, report, jobs, job):
    """(peak MB, exit code) of one traced run of `job`, after a warm-up."""
    jobs.run_job(cli, report, job)
    gc.collect()
    tracemalloc.start()
    try:
        code, _text = jobs.run_job(cli, report, job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, code


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    tree = Path(args[0] if args else Path(__file__).resolve().parent.parent).resolve()
    os.chdir(tree)  # scenario paths are relative to the tree's root
    jobs = load_jobs(tree)
    sys.path.insert(0, jobs.SRC)
    from bihkit import cli, report

    peaks = {}
    for workload, spec in jobs.WORKLOADS.items():
        for job in spec["jobs"]:
            peak, code = job_peak(cli, report, jobs, job)
            peaks.setdefault(workload, {})[jobs.job_name(job)] = round(peak, 3)
            print(f"{workload:12s} {jobs.job_name(job):36s} {peak:8.3f} MB  exit {code}")
    print(json.dumps(peaks))


if __name__ == "__main__":
    main()
