"""Self-tests of the benchmark: span arithmetic, wrapper removal and the
reference check.  They run one cheap job (`check` on c10) in process."""

import inspect
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import bihkit.cli  # noqa: E402  (loads every traced module)

from jobs import ROOT, job_failure, load_reference, reports_match, run_job  # noqa: E402
from run import Calibrator, Runner  # noqa: E402
from tracing import LAYERS, Tracer, self_times  # noqa: E402

JOB = ("check", "c10_curve_cp1")
PKG = sys.modules["bihkit"]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_self_time_subtracts_child_coverage():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("calculus.trace_terms_at", 1.0, 5.0, 0),
        ("spaces.christoffel_jets", 2.0, 3.0, 1),
        ("calculus.verify_flags", 6.0, 8.0, 0),
        ("calculus.PointCalculus.__init__", 6.5, 7.0, 3),
    ]
    selfs = self_times(spans)
    assert selfs["cli"] == pytest.approx(4.0)
    assert selfs["calculus"] == pytest.approx(3.0 + 1.5 + 0.5)
    assert selfs["spaces"] == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def _bindings():
    """Every module attribute, module-level dict value and class attribute
    of the traced modules, keyed by where it is bound."""
    out = {}
    for layer in LAYERS:
        for attr, obj in vars(getattr(PKG, layer)).items():
            out[(layer, attr)] = obj
            if isinstance(obj, dict):
                for key, value in obj.items():
                    out[(layer, attr, key)] = value
            elif inspect.isclass(obj):
                for name, value in vars(obj).items():
                    out[(layer, attr, "class", name)] = value
    return out


def test_traced_run_removes_every_wrapper():
    before = _bindings()
    tracer = Tracer(PKG)
    with tracer:
        assert PKG.cli.theorem_residual is not before[("cli", "theorem_residual")]
        code, _report = run_job(PKG.cli, PKG.report, JOB)
    assert code == 0
    # calls made through imported names and cli.COMMANDS were seen
    assert tracer.calls("cli.main") == 1
    assert tracer.calls("cli.cmd_check") == 1
    assert tracer.calls("residuals.theorem_residual") > 0
    assert tracer.counts["mul"] > 0
    after = _bindings()
    moved = [key for key, obj in before.items() if after.get(key) is not obj]
    assert moved == []


def test_altered_report_counts_as_failure():
    ref_code, ref_report = load_reference(JOB)
    code, report = run_job(PKG.cli, PKG.report, JOB)
    assert job_failure((ref_code, ref_report), code, report) is None

    line = next(l for l in ref_report.splitlines() if l.startswith("max_direct_norm: "))
    value = float(line.split(": ")[1])
    nudged = ref_report.replace(line, f"max_direct_norm: {value * (1 + 1e-14)!r}")
    altered = ref_report.replace(line, f"max_direct_norm: {value * (1 + 1e-9) + 1e-9!r}")
    assert reports_match(ref_report, nudged)
    assert not reports_match(ref_report, altered)
    assert job_failure((ref_code, ref_report), 2, report) is not None

    runner = Runner(PKG, [JOB], Calibrator())
    runner.references[JOB] = (ref_code, altered)
    runner.run(JOB)
    assert runner.attempted == 1 and len(runner.failures) == 1
