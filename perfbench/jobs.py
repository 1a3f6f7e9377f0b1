"""Workloads, jobs and the pinned reference reports.

A job is one CLI invocation, `bihkit <command> <scenario>`, run in process
through `bihkit.cli.main(argv)` with stdout captured.  Its reference is the
exit code and the report after `strip_volatile`, pinned under
`perfbench/reference/` from the code the benchmark was defined on.

    python3 perfbench/jobs.py --pin     # rewrite every reference file
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
# Scenario paths are relative to the checkout root because the report prints
# the path it was given; the benchmark always runs from that root.
SCENARIO_DIR = "src/bihkit/scenarios"

CURVES = ("c01_circle_flat", "c02_curve_sasakian", "c09_curve_kenmotsu",
          "c10_curve_cp1", "c15_invariant_curve", "c16_xi_normal_curve",
          "c17_circle_c1")

# jobs: (command, scenario) pairs of one pass.  jet: (variables, order) of the
# workload's dominant jet space, then the composer's outer variable count;
# the jet micro-timings use it.
WORKLOADS = {
    # Order-4 jets in 3 variables (35 coefficients): pullback_derivative and
    # the trace terms dominate.  One pass of check and audit on both c13 and
    # c18 takes about 48 s, too long for the run budget, so the pass keeps
    # one command per scenario.
    "hyper3d": {
        "jobs": [("check", "c13_hypersphere_r4"), ("audit", "c18_hypersphere_cp2")],
        "jet": (3, 4, 4),
    },
    # 1-parameter scenarios over five ambient kinds plus props on a
    # Lagrangian torus: 5-coefficient jets, so per-operation and
    # per-invocation overhead (load, validation, props contexts) dominate.
    "curves": {
        "jobs": [(cmd, sc) for sc in CURVES for cmd in ("check", "audit", "props")]
        + [("props", "c03_lagrangian_torus")],
        "jet": (1, 4, 3),
    },
    # Value-level Christoffels and order-2 jets at every quadrature node and
    # step; barely touches trace_terms_at.  Control for calculus/residuals work.
    "variation2d": {
        "jobs": [(cmd, sc) for sc in ("c04_small_sphere", "c08_hopf_torus")
                 for cmd in ("energy", "variation")],
        "jet": (2, 2, 3),
    },
}

QUADRATURE_COMMANDS = ("energy", "variation")

# Tolerances of the ROADMAP equality rule: relative error, with an absolute
# floor for round-off-level values such as residuals near zero.
RTOL = 1e-12
ATOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def job_name(job):
    return f"{job[0]} {job[1]}"


def scenario_path(scenario):
    return f"{SCENARIO_DIR}/{scenario}.scn"


def _reference_file(job):
    return os.path.join(REFERENCE_DIR, f"{job[0]}.{job[1]}.txt")


def run_job(cli, report_mod, job):
    """Run one job through `cli.main`; returns (exit code, stripped report)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([job[0], scenario_path(job[1])])
    return code, report_mod.strip_volatile(out.getvalue())


def _numbers_match(a, b):
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return True
    return abs(x - y) <= max(RTOL * max(abs(x), abs(y)), ATOL)


def reports_match(expected, actual):
    """Byte-identical, or identical apart from numbers that agree to RTOL
    relative error or ATOL absolute error."""
    if expected == actual:
        return True
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return False
    for e, a in zip(exp_lines, act_lines):
        if e == a:
            continue
        if _NUMBER.split(e) != _NUMBER.split(a):
            return False
        if not all(map(_numbers_match, _NUMBER.findall(e), _NUMBER.findall(a))):
            return False
    return True


def load_reference(job):
    with open(_reference_file(job), encoding="utf-8") as fh:
        first, _, report = fh.read().partition("\n")
    return int(first.removeprefix("# exit ")), report


def job_failure(reference, code, report):
    """Why a job's result does not count as correct, or None."""
    ref_code, ref_report = reference
    if code in (3, 4):
        return f"exit {code}"
    if code != ref_code:
        return f"exit {code}, pinned {ref_code}"
    if not reports_match(ref_report, report):
        return "report differs from the pinned reference"
    return None


def all_jobs():
    return sorted({job for w in WORKLOADS.values() for job in w["jobs"]})


def pin():
    """Rewrite the reference file of every job from the current code."""
    sys.path.insert(0, SRC)
    from bihkit import cli, report

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for job in all_jobs():
        code, text = run_job(cli, report, job)
        with open(_reference_file(job), "w", encoding="utf-8") as fh:
            fh.write(f"# exit {code}\n{text}")
        print(f"{job_name(job)}: exit {code}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: python3 perfbench/jobs.py --pin")
    os.chdir(ROOT)
    pin()
