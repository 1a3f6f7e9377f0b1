"""Print where the time of a benchmark workload's pass goes, stage by stage.

    python tools/stage_times.py WORKLOAD

Reads the jobs of WORKLOAD from `WORKLOADS` in `perfbench/jobs.py` and runs
each job in this process through the stages of `bihkit.cli.main`, timed
apart: parse (`load_scenario` without validation), validation
(`scenario._validate` at the command's order, with the quadrature nodes for
`energy` and `variation`), the command, and the rendering of its report.
Each job runs once untimed, and its report and exit code are checked against
the job's pinned reference (exit 1 if one differs), then `REPEATS` (15)
times, timed.  Prints one line per job with the median time of each stage in
ms and its share of the job, then the pass (the sum over the jobs of each
stage's median) with each stage's share of it, then one JSON object
{job: {stage: median ms}}.  Times are raw `time.perf_counter` intervals;
the process's import and bytecode compilation are not in them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from job_peaks import load_jobs

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("parse", "validation", "command", "render")
# timed runs per job; each stage reports their median
REPEATS = 15


def run_stages(cli, jobs, job):
    """(exit code, report text, {stage: seconds}) of one run of `job`, the
    stages of `cli.main` one after the other."""
    command, path = job[0], jobs.scenario_path(job[1])
    args = cli._PARSER.parse_args([command, path])
    clock = time.perf_counter
    t0 = clock()
    sc = cli.load_scenario(path, validate=False)
    t1 = clock()
    nodes = sc.quadrature().points if command in ("energy", "variation") else None
    blocks = cli._validate(sc, cli.ORDERS[command], nodes)
    t2 = clock()
    out = cli._base_report(sc, command, args)
    code = cli.COMMANDS[command](sc, args, out, blocks)
    t3 = clock()
    out["wall_time_ms"] = int((t3 - t0) * 1000)
    text = cli.render_report(out)
    t4 = clock()
    return code, text, dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)))


def job_medians(cli, report, jobs, job, repeats):
    """{stage: median ms} of `repeats` timed runs of `job`, after one checked
    against the job's pinned reference; None if its report differs."""
    code, text, _times = run_stages(cli, jobs, job)
    if jobs.job_failure(jobs.load_reference(job), code, report.strip_volatile(text)):
        return None
    runs = [run_stages(cli, jobs, job)[2] for _ in range(repeats)]
    return {stage: 1e3 * statistics.median(run[stage] for run in runs) for stage in STAGES}


def _line(label, medians):
    total = sum(medians.values())
    cells = "".join(f"{medians[stage]:9.2f} {100 * medians[stage] / total:3.0f}%"
                    for stage in STAGES)
    return f"{label:30s}{cells}{total:10.2f}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    args = ap.parse_args(argv)
    os.chdir(ROOT)  # scenario paths are relative to the checkout's root
    jobs = load_jobs(ROOT)
    if args.workload not in jobs.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}, one of {', '.join(jobs.WORKLOADS)}")
    sys.path.insert(0, jobs.SRC)
    from bihkit import cli, report

    print(f"{'job':30s}" + "".join(f"{stage + ' ms':>14s}" for stage in STAGES)
          + f"{'total ms':>10s}")
    table = {}
    for job in jobs.WORKLOADS[args.workload]["jobs"]:
        medians = job_medians(cli, report, jobs, job, REPEATS)
        if medians is None:
            print(f"{jobs.job_name(job)}: report differs from the pinned reference")
            return 1
        table[jobs.job_name(job)] = medians
        print(_line(jobs.job_name(job), medians))
    print(_line("pass", {stage: sum(m[stage] for m in table.values()) for stage in STAGES}))
    print(json.dumps({job: {stage: round(ms, 3) for stage, ms in medians.items()}
                      for job, medians in table.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
