"""Every bihkit name the benchmark harness traces (perfbench/run.py and the
jet counters of perfbench/tracing.py), and every target of the tests'
recorder (`RECORDED` in conftest.py), still resolves, so that a refactor
cannot silently zero one of its counters.

Stale targets that no longer resolve are left out until the benchmark
re-points them: `calculus.PointCalculus.*`, `calculus.trace_terms_at` (the
trace terms are built one term at a time, by `calculus._produce_term`),
`spaces.curvature_tensor_at` and `residuals.ResidualContext.__init__`."""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

from conftest import RECORDED, bindings  # noqa: E402
from tracing import JET_COUNTERS  # noqa: E402

TRACED = [
    "scenario.load_scenario", "scenario._validate",
    "expr.eval_on_jets", "expr.parse",
    "spaces.christoffel_jets", "spaces.christoffels_at", "spaces.curvature_model",
    "calculus.verify_flags",
    "residuals.theorem_residual", "residuals.bitension_direct",
    "residuals.f_bitension_direct", "residuals.bi_f_tension_direct",
    "audits.run_all_audits", "audits.curvature_trace_audit",
    "props.proposition_checkers",
] + [f"jets.{cls}.{attr}" for cls, methods in JET_COUNTERS.items() for attr in methods]


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves(name):
    module, *attrs = name.split(".")
    target = importlib.import_module(f"bihkit.{module}")
    for attr in attrs:
        target = vars(target)[attr]
    assert callable(target), name


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_recorded_name_resolves(name):
    """The target resolves and the recorder finds a binding to wrap."""
    assert bindings(name), name
