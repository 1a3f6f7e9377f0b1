"""bihkit benchmark: CLI time-to-verdict per workload, one process per run.

    python3 perfbench/run.py --workload hyper3d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Jobs (command x scenario, see jobs.py) go
through `bihkit.cli.main(argv)` one at a time in a closed loop with one
client: no threads, no worker processes.  The seed sets the job order and the
coefficients of the jet micro-timings; reports do not depend on it.

Times are calibrated: a fixed numpy/Python kernel that shares no code with
bihkit runs before and after every timed step, and in untraced runs every
CAL_TICK_S inside it.  Each piece of a step is scaled by CAL_REF_S over the
mean kernel time at its ends, which gives seconds at the speed of the
reference machine.  The speed of shared machines drifts by tens
of percent over minutes; that ratio stays within a few percent.  Raw times
are printed and kept in the run record.

--trace 0 prints the end-to-end metrics.  The first pass always runs in full;
after it, jobs keep cycling while the next one is expected to end within
--seconds.  wall_s is the sum over jobs of each job's median time.

--trace 1 prints the per-layer metrics: jet micro-timings on unpatched code,
one untraced pass, then one pass with every public bihkit function wrapped
from outside (tracing.py).  Every wrapper is removed before the run ends.

Every run checks each job's exit code and report against the pinned
reference, writes a run record to perfbench/results/ and prints, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import timeit
from time import perf_counter

import numpy as np

from jobs import (QUADRATURE_COMMANDS, ROOT, SRC, WORKLOADS, job_failure,
                  job_name, load_reference, run_job, scenario_path)
from tracing import Tracer, self_times

RESULTS_DIR = os.path.join(ROOT, "perfbench", "results")
SETUP_REPEATS = 3
COMMANDS = ("check", "audit", "props", "energy", "variation")
# Median calibration-kernel time on the machine where the benchmark was
# defined (Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11, numpy 2.4).
CAL_REF_S = 0.008
# Seconds between kernel samples inside a job of an untraced run.
CAL_TICK_S = 0.5


class Calibrator:
    """Times steps next to a fixed kernel shaped like bihkit's hot loop
    (small-array gather, multiply and bincount, then Python floats)."""

    def __init__(self, size=35, rounds=1000):
        i, j = np.nonzero(np.add.outer(np.arange(size), np.arange(size)) < size)
        self._i, self._j, self._k = i, j, i + j
        self._a = np.linspace(-1.0, 1.0, size)
        self._b = np.cos(np.arange(size, dtype=float))
        self._size, self._rounds = size, rounds
        self._last = None
        self.samples = []

    def _kernel(self):
        acc = 0.0
        for _ in range(self._rounds):
            c = np.bincount(self._k, weights=self._a[self._i] * self._b[self._j],
                            minlength=self._size)
            values = [float(x) for x in c[:8]]
            acc += sum(values)
        return acc

    def sample(self):
        times = []
        for _ in range(3):
            start = perf_counter()
            self._kernel()
            times.append(perf_counter() - start)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def time(self, fn, tick=None):
        """(result, raw seconds, calibrated seconds) of `fn()`.

        With `tick`, an interval timer also samples the kernel every `tick`
        seconds inside `fn`, so a long step is calibrated piece by piece.
        The sampling time is left out of the step's time.
        """
        segments = []  # (seconds, kernel time before, kernel time after)
        state = {"start": 0.0, "kernel": self._last or self.sample()}

        def cut():
            seconds = perf_counter() - state["start"]
            kernel = self.sample()
            segments.append((seconds, state["kernel"], kernel))
            state["kernel"] = kernel
            state["start"] = perf_counter()

        if tick:
            previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: cut())
            signal.setitimer(signal.ITIMER_REAL, tick, tick)
        try:
            state["start"] = perf_counter()
            result = fn()
        finally:
            if tick:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        cut()
        self._last = state["kernel"]
        raw = sum(s for s, _a, _b in segments)
        scaled = sum(s * CAL_REF_S * 2.0 / (a + b) for s, a, b in segments)
        return result, raw, scaled


def fresh_import():
    """Import bihkit from scratch (numpy stays imported)."""
    for name in [n for n in sys.modules if n == "bihkit" or n.startswith("bihkit.")]:
        del sys.modules[name]
    return importlib.import_module("bihkit")


def setup(scenarios):
    """Import bihkit and load (parse and validate) every scenario once."""
    pkg = fresh_import()
    importlib.import_module("bihkit.cli")
    return pkg, {s: pkg.scenario.load_scenario(scenario_path(s)) for s in scenarios}


class Runner:
    """Runs jobs, times them and checks them against their references."""

    def __init__(self, pkg, jobs, calibrator, tick=None):
        self.pkg = pkg
        self.jobs = jobs
        self.calibrator = calibrator
        self.tick = tick
        self.references = {job: load_reference(job) for job in jobs}
        self.attempted = 0
        self.failures = []

    def _attempt(self, job):
        try:
            code, report = run_job(self.pkg.cli, self.pkg.report, job)
        except Exception as exc:  # a raising job is a failed job, not a crash
            return f"raised {type(exc).__name__}: {exc}"
        return job_failure(self.references[job], code, report)

    def run(self, job):
        """(raw, calibrated) seconds of one job."""
        self.attempted += 1
        why, raw, scaled = self.calibrator.time(lambda: self._attempt(job), self.tick)
        if why:
            self.failures.append(f"{job_name(job)}: {why}")
        return raw, scaled

    def one_pass(self, order):
        return {job: self.run(job) for job in order}


def measure(runner, rng, seconds):
    """Closed loop: one full pass, then more jobs while they fit in `seconds`."""
    samples = {job: [] for job in runner.jobs}
    start = perf_counter()
    passes = 0
    while True:
        order = list(runner.jobs)
        rng.shuffle(order)
        passes += 1
        for job in order:
            if passes > 1 and perf_counter() - start + samples[job][0][0] > seconds:
                return samples, passes
            samples[job].append(runner.run(job))


def command_times(job_times):
    """Per-command share of wall time, from one time per job."""
    out = {}
    for (command, _scenario), t in job_times.items():
        out[command] = out.get(command, 0.0) + t
    return out


def jet_microtimings(jets, jet, rng):
    """Microseconds per jet operation in the workload's dominant space."""
    num_vars, order, outer_vars = jet
    space = jets.jet_space(num_vars, order)

    def rand_jet(sp, constant=True):
        c = rng.standard_normal(sp.size)
        if not constant:
            c[0] = 0.0
        return jets.Jet(sp, c)

    a, b = rand_jet(space), rand_jet(space)
    composer = jets.Composer([rand_jet(space, constant=False) for _ in range(outer_vars)])
    outer = rand_jet(jets.jet_space(outer_vars, order))
    composer.apply(outer)  # fill the monomial cache, as repeated use does
    ops = {
        "mul": (lambda: a * b, 2000),
        "add": (lambda: a + b, 4000),
        "truncate": (lambda: a.truncate(order - 1), 2000),
        "deriv": (lambda: a.deriv(0), 2000),
        "compose": (lambda: composer.apply(outer), 200),
    }
    out = {}
    for name, (fn, number) in ops.items():
        runs = timeit.Timer(fn).repeat(repeat=7, number=number)
        out[name] = statistics.median(runs) / number * 1e6
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, jobs, loaded):
    """Per-layer metrics of one traced pass over `jobs`."""
    n = tracer.calls
    busy = tracer.busy
    selfs = self_times(tracer.spans)
    counts = tracer.counts

    sample_points = {s: len(sc.sample_points()) for s, sc in loaded.items()}
    nodes = {s: len(sc.quadrature()) for s, sc in loaded.items()}
    quad_jobs = [s for c, s in jobs if c in QUADRATURE_COMMANDS]
    # every job validates its scenario's sample points; energy and
    # variation also evaluate every quadrature node
    quad_nodes = sum(nodes[s] for s in quad_jobs)
    points = sum(sample_points[s] for _c, s in jobs) + quad_nodes
    audit_points = sum(sample_points[s] for c, s in jobs if c == "audit")

    builds = "calculus.PointCalculus.__init__"
    trace_terms = "calculus.trace_terms_at"
    theorem = "residuals.theorem_residual"
    direct = [f"residuals.{f}" for f in
              ("bitension_direct", "f_bitension_direct", "bi_f_tension_direct")]
    direct_calls = sum(n(d) for d in direct)
    audit_busy = busy("audits.run_all_audits") + busy("audits.curvature_trace_audit")
    return {
        "scenario.load_calls": (n("scenario.load_scenario"), "count"),
        "scenario.validate_s": (busy("scenario._validate"), "s"),
        "scenario.self_s": (selfs["scenario"], "s"),
        "expr.eval_calls": (n("expr.eval_on_jets"), "count"),
        "expr.busy_s": (busy("expr.eval_on_jets") + busy("expr.parse"), "s"),
        **{f"jets.{op}_calls": (counts[op], "count")
           for op in ("mul", "add", "truncate", "deriv", "compose")},
        "spaces.christoffel_calls": (n("spaces.christoffel_jets"), "count"),
        "spaces.christoffels_at_calls": (n("spaces.christoffels_at"), "count"),
        "spaces.curvature_calls": (n("spaces.curvature_tensor_at")
                                   + n("spaces.curvature_model"), "count"),
        "spaces.self_s": (selfs["spaces"], "s"),
        "calculus.point_builds": (n(builds), "count"),
        "calculus.builds_per_point": (_ratio(n(builds), points), "ratio"),
        "calculus.pullback_calls": (n("calculus.PointCalculus.pullback_derivative"), "count"),
        "calculus.trace_terms_calls": (n(trace_terms), "count"),
        "calculus.trace_terms_per_point": (_ratio(n(trace_terms), points), "ratio"),
        "calculus.trace_terms_ms": (1e3 * _ratio(busy(trace_terms), n(trace_terms)), "ms"),
        "calculus.flags_s": (busy("calculus.verify_flags"), "s"),
        "calculus.self_s": (selfs["calculus"], "s"),
        "residuals.theorem_calls": (n(theorem), "count"),
        "residuals.theorem_per_point": (_ratio(n(theorem), points), "ratio"),
        "residuals.direct_calls": (direct_calls, "count"),
        "residuals.theorem_ms": (1e3 * _ratio(busy(theorem), n(theorem)), "ms"),
        "residuals.direct_ms": (1e3 * _ratio(sum(busy(d) for d in direct), direct_calls), "ms"),
        "residuals.self_s": (selfs["residuals"], "s"),
        "audits.ms_per_point": (1e3 * _ratio(audit_busy, audit_points), "ms"),
        "audits.self_s": (selfs["audits"], "s"),
        "props.contexts_built": (tracer.calls_under(
            "residuals.ResidualContext.__init__",
            lambda name: name == "props.proposition_checkers"), "count"),
        "props.self_s": (selfs["props"], "s"),
        "variational.builds_per_node": (_ratio(tracer.calls_under(
            builds, lambda name: name.startswith("variational.")), quad_nodes), "ratio"),
        "variational.self_s": (selfs["variational"], "s"),
        "cli.self_s": (selfs["cli"], "s"),
    }


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_untraced(runner, rng, seconds, record):
    """End-to-end metrics, plus unbounded extras printed for reading."""
    samples, passes = measure(runner, rng, seconds)
    raw = {job: statistics.median(s[0] for s in ts) for job, ts in samples.items()}
    scaled = {job: statistics.median(s[1] for s in ts) for job, ts in samples.items()}
    shares = command_times(scaled)
    record.update(passes=passes,
                  job_samples_s={job_name(j): ts for j, ts in samples.items()})
    metrics = {
        "wall_s": (sum(scaled.values()), "s"),
        "setup_s": (statistics.median(s[1] for s in record["setup_samples_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {f"{c}_s": (shares[c], "s") for c in COMMANDS if c in shares}
    extra.update({
        "failed_frac": (_ratio(len(runner.failures), runner.attempted), "ratio"),
        "wall_raw_s": (sum(raw.values()), "s"),
        "setup_raw_s": (statistics.median(s[0] for s in record["setup_samples_s"]), "s"),
        "cal_ms": (1e3 * statistics.median(runner.calibrator.samples), "ms"),
    })
    return metrics, extra


def run_traced(runner, loaded, rng, workload, record):
    """Per-layer metrics of one traced pass, next to one untraced pass."""
    pkg, jobs = runner.pkg, runner.jobs
    micro = jet_microtimings(pkg.jets, WORKLOADS[workload]["jet"],
                             np.random.default_rng(rng.randrange(2**32)))
    order = list(jobs)
    rng.shuffle(order)
    untraced = runner.one_pass(order)
    rng.shuffle(order)
    tracer = Tracer(pkg)
    with tracer:
        traced = runner.one_pass(order)
    record.update(passes=1, spans=len(tracer.spans),
                  job_samples_s={job_name(j): [untraced[j], traced[j]] for j in jobs})
    shares = command_times({job: t[1] for job, t in untraced.items()})
    metrics = layer_metrics(tracer, jobs, loaded)
    metrics.update({f"jets.{op}_us": (us, "us") for op, us in micro.items()})
    metrics.update({f"{c}_s": (shares.get(c, 0.0), "s") for c in COMMANDS})
    metrics["failed_frac"] = (_ratio(len(runner.failures), runner.attempted), "ratio")
    metrics["trace.overhead_s"] = (sum(t[0] for t in traced.values())
                                   - sum(t[0] for t in untraced.values()), "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "bihkit")):
        print(f"no bihkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)

    jobs = WORKLOADS[args.workload]["jobs"]
    scenarios = sorted({s for _c, s in jobs})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg()),
        "cal_ref_s": CAL_REF_S,
    }
    calibrator = Calibrator()
    setup_samples = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        (pkg, loaded), raw, scaled = calibrator.time(lambda: setup(scenarios), CAL_TICK_S)
        setup_samples.append((raw, scaled))
    record["setup_samples_s"] = setup_samples

    runner = Runner(pkg, jobs, calibrator, tick=None if args.trace else CAL_TICK_S)
    rng = random.Random(args.seed)
    if args.trace:
        metrics, extra = run_traced(runner, loaded, rng, args.workload, record), {}
    else:
        metrics, extra = run_untraced(runner, rng, args.seconds, record)

    record.update(attempted=runner.attempted, failures=runner.failures,
                  metrics=metrics, extra=extra, cal_samples_s=calibrator.samples)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
