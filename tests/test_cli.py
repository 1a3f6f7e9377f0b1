"""The command line end to end: malformed scenarios, the mislabeled catalog,
abstract ambients, corollary validation, the pinned `curves` and `hyper3d`
reports, the catalog goldens and evaluation counts."""

import contextlib
import dataclasses
import functools
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from bihkit import audits, calculus, cli, props, residuals, scenario
from bihkit.report import strip_volatile
from bihkit.residuals import theorem_residual
from bihkit.scenario import MAX_SAMPLE_POINTS, _validate, load_scenario
from conftest import scenario_path

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from jobs import WORKLOADS, job_name, load_reference, reports_match, run_job  # noqa: E402

GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

BASE = """\
[ambient]
kind = cosymplectic_flat
n = 1

[immersion]
params = [u]
u = [0.0, 6.283185307179586, periodic]
map = ["cos(u)", "sin(u)", "0"]

[weight]
f = "1 + 0.3*cos(u)"

[sampling]
grid = [4]

[mode]
residual = both
kind = fbh
"""


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, text):
    path = tmp_path / "case.scn"
    path.write_text(text)
    return str(path)


# (replaced line of BASE or None, added lines, section, key)
MALFORMED = {
    "grid_nan": ("grid = [4]", "grid = [nan]", "sampling", "grid"),
    "grid_string": ("grid = [4]", 'grid = ["x"]', "sampling", "grid"),
    "grid_too_many_points": ("grid = [4]", f"grid = [{MAX_SAMPLE_POINTS + 1}]",
                             "sampling", "grid"),
    "rank_negative": ("n = 1", "n = -2", "ambient", "n"),
    "rank_bareword": ("n = 1", "n = abc", "ambient", "n"),
    "margin_string": ("grid = [4]", 'grid = [4]\nmargin = "wide"', "sampling", "margin"),
    "tolerance_string": (None, '[tolerances]\nmode_agreement = "tight"',
                         "tolerances", "mode_agreement"),
    "tolerance_negative": (None, "[tolerances]\nflags = -1e-8", "tolerances", "flags"),
    "mode_kind": ("kind = fbh", "kind = zzz", "mode", "kind"),
    "mode_residual": ("residual = both", "residual = bogus", "mode", "residual"),
    "mode_backend": ("kind = fbh", "kind = fbh\nbackend = model", "mode", "backend"),
    "weight_number": ('f = "1 + 0.3*cos(u)"', "f = 2", "weight", "f"),
    "rank_too_large": ("n = 1", "n = 100000", "ambient", "n"),
    "ambient_kind_list": ("kind = cosymplectic_flat", "kind = [a, b]", "ambient", "kind"),
    "axis_infinite": ("u = [0.0, 6.283185307179586, periodic]", "u = [0.0, inf, open]",
                      "immersion", "u"),
    "seed_string": ("grid = [4]", "grid = [4]\nseed = x", "sampling", "seed"),
    "variation_component": (None, '[variation]\ncomponents = ["u", "1/", "0"]',
                            "variation", "components"),
    "rank_seven": ("n = 1", "n = 7", "ambient", "n"),
    "mode_sweep_target": ("kind = fbh", "kind = fbh\nsweep_target = check",
                          "mode", "sweep_target"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_exits_3_naming_section_and_key(tmp_path, case):
    old, new, section, key = MALFORMED[case]
    text = BASE.replace(old, new) if old else BASE + "\n" + new + "\n"
    code, out, err = run_cli(["check", write(tmp_path, text)])
    assert code == 3, err
    assert f"section [{section}]" in err and f"key {key!r}" in err
    assert "np.float64" not in err and "Traceback" not in err
    assert out == ""


def test_docstrings_list_the_commands_and_mode_keys():
    """The `cli` docstring lists exactly the commands, and the scenario
    grammar names every [mode] key."""
    listed = [line.split()[1] for line in cli.__doc__.splitlines()
              if line.strip().startswith("bihkit ")]
    assert sorted(listed) == sorted(cli.COMMANDS)
    grammar = scenario.__doc__.split("[mode]", 1)[1].split("[variation]", 1)[0]
    for key in scenario.MODE_CHOICES:
        assert f"{key} =" in grammar, key


def test_rejected_sample_point_prints_plain_floats(tmp_path):
    text = BASE.replace('"sin(u)"', '"0"')  # dpsi vanishes at u = 0, the first point
    code, _out, err = run_cli(["check", write(tmp_path, text)])
    assert code == 3
    assert "sample point [0.0]" in err and "np.float64" not in err


OPEN_AXIS = """\
[ambient]
kind = {kind}

[immersion]
params = [u]
u = [0.0, 1.0, open]
map = {map}

[weight]
f = "{f}"

[sampling]
grid = [5]
margin = 0.0
"""

# Scenarios whose sample points u = 0, 0.25, ..., 1 fail first at a middle
# point, with the message the per-point validation printed.
FAILING_POINT = {
    "off_the_ball": (
        "complex_hyperbolic\nn = 1\nhol = -4.0",
        '["(0.5 + 2*u*(1 - u))*cos(u)", "(0.5 + 2*u*(1 - u))*sin(u)"]', "1",
        "sample point [0.5] rejected: complex_hyperbolic chart requires |x| < 1 "
        "(section [sampling], key 'grid')"),
    "rank_deficient": (
        "cosymplectic_flat\nn = 1", '["(u - 0.5)^2", "(u - 0.5)^3", "0"]', "1",
        "sample point [0.5] rejected: immersion rank-deficient at [0.5]: "
        "gram det 0.000e+00 (section [sampling], key 'grid')"),
    "weight_not_positive": (
        "cosymplectic_flat\nn = 1", '["cos(u)", "sin(u)", "0"]', "1 - 4*u*(1 - u)",
        "weight not positive at [0.5] (f = 0.000e+00) (section [weight], key 'f')"),
    # f vanishes at u = 0.25, before the rank-deficient point u = 0.5
    "weight_before_rank": (
        "cosymplectic_flat\nn = 1", '["(u - 0.5)^2", "(u - 0.5)^3", "0"]', "(u - 0.25)^2",
        "weight not positive at [0.25] (f = 0.000e+00) (section [weight], key 'f')"),
    # exp(750) overflows a float
    "weight_overflow": (
        "cosymplectic_flat\nn = 1", '["u", "0.5*u*u", "0"]', "exp(1000*u)",
        "sample point [0.75] rejected: math range error (section [sampling], key 'grid')"),
    # the induced metric overflows to inf at every point
    "map_overflow": (
        "cosymplectic_flat\nn = 1", '["1e200*u", "u^2", "0"]', "1",
        "sample point [0.0] rejected: induced metric not finite at [0.]: gram det inf "
        "(section [sampling], key 'grid')"),
    "weight_infinite": (
        "cosymplectic_flat\nn = 1", '["cos(u)", "sin(u)", "0"]', "1e308*1e308",
        "weight not finite at [0.0] (f = inf) (section [weight], key 'f')"),
}


@pytest.mark.parametrize("case", sorted(FAILING_POINT))
def test_batched_validation_names_the_first_failing_point(tmp_path, case):
    """One batched evaluation checks the sample points; the error is the
    one the first failing point gives alone."""
    kind, chart_map, weight, message = FAILING_POINT[case]
    text = OPEN_AXIS.format(kind=kind, map=chart_map, f=weight)
    code, out, err = run_cli(["check", write(tmp_path, text)])
    assert code == 3 and out == ""
    assert err == f"validation error: {message}\n"


@pytest.mark.parametrize("case", ["map_overflow", "weight_infinite"])
def test_overflow_prints_only_the_validation_error(tmp_path, case):
    """numpy's overflow and invalid-value warnings stay off stderr: a
    separate `python -m bihkit.cli` process (pytest's capture would hide
    them in process) prints the one validation error line."""
    kind, chart_map, weight, message = FAILING_POINT[case]
    path = write(tmp_path, OPEN_AXIS.format(kind=kind, map=chart_map, f=weight))
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    run = subprocess.run([sys.executable, "-m", "bihkit.cli", "check", path],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == f"validation error: {message}\n"


# Scenarios whose sample points u = 0, 0.25, ..., 1 pass `check` but whose
# 5-node Gauss quadrature fails at a node, with the message it fails with.
FAILING_NODE = {
    "off_the_ball": (
        "complex_hyperbolic\nn = 1\nhol = -4.0",
        '["0.5 + 3*u*(u-0.25)*(u-0.5)*(u-0.75)*(u-1)*400", "0.1*u"]', "1",
        "quadrature node [0.04691007703066802] rejected: complex_hyperbolic chart "
        "requires |x| < 1 (section [sampling], key 'grid')"),
    # dpsi vanishes at the second node
    "rank_deficient": (
        "cosymplectic_flat\nn = 1",
        '["(u-0.23076534494715845)^2", "(u-0.23076534494715845)^3", "0"]', "1",
        "quadrature node [0.23076534494715845] rejected: immersion rank-deficient at "
        "[0.23076534]: gram det 0.000e+00 (section [sampling], key 'grid')"),
    # f < 0 only near the second node
    "weight_not_positive": (
        "cosymplectic_flat\nn = 1", '["u", "0.5*u*u", "0"]',
        "(u - 0.23076534494715845)^2 - 0.00001",
        "quadrature node [0.23076534494715845] rejected: weight not positive at "
        "[0.23076534494715845] (f = -1.000e-05) (section [weight], key 'f')"),
}


@pytest.mark.parametrize("command", ["energy", "variation"])
@pytest.mark.parametrize("case", sorted(FAILING_NODE))
def test_failing_quadrature_node_exits_3_naming_it(tmp_path, case, command):
    kind, chart_map, weight, message = FAILING_NODE[case]
    path = write(tmp_path, OPEN_AXIS.format(kind=kind, map=chart_map, f=weight))
    assert run_cli(["check", path])[0] == 0
    code, out, err = run_cli([command, path])
    assert code == 3 and out == ""
    assert err == f"validation error: {message}\n"


def test_omitted_ambient_key_takes_the_constructor_default(tmp_path):
    """complex_hyperbolic without `hol` has hol = -4, its constructor's
    default."""
    text = OPEN_AXIS.format(kind="complex_hyperbolic\nn = 1",
                            map='["0.5*cos(u)", "0.5*sin(u)"]', f="1")
    text = text.replace("[0.0, 1.0, open]", "[0.0, 6.283185307179586, periodic]")
    code, out, err = run_cli(["check", write(tmp_path, text)])
    assert code == 0, err
    assert "mode_agreement: true" in out


def test_variation_leaving_the_chart_exits_3(tmp_path):
    text = OPEN_AXIS.format(kind="complex_hyperbolic\nn = 1\nhol = -4.0",
                            map='["0.5*cos(u)", "0.5*sin(u)"]', f="1")
    text = text.replace("[0.0, 1.0, open]", "[0.0, 6.283185307179586, periodic]")
    text = text.replace("grid = [5]", "grid = [8]")
    text += '\n[variation]\ncomponents = ["60*cos(u)", "60*sin(u)"]\n'
    code, out, err = run_cli(["variation", write(tmp_path, text)])
    assert code == 3 and out == ""
    assert err == ("validation error: the deformed map exits the ambient chart at node 0 "
                   "(t=0.01) (section [variation], key 'components')\n")


def test_overflowing_variation_components_exit_3(tmp_path):
    text = OPEN_AXIS.format(kind="cosymplectic_flat\nn = 1",
                            map='["cos(u)", "sin(u)", "0"]', f="1")
    text += '\n[variation]\ncomponents = ["exp(1000*u)", "0", "0"]\n'
    code, out, err = run_cli(["variation", write(tmp_path, text)])
    assert code == 3 and out == ""
    assert err == ("validation error: variation components fail at the quadrature nodes: "
                   "math range error (section [variation], key 'components')\n")


MISLABELED = {
    "m1_bad_lagrangian": ("flags", "lagrangian"),
    "m2_bad_complex": ("flags", "complex"),
    "m3_bad_xi_tangent": ("flags", "xi_tangent"),
    "m4_bad_xi_normal": ("flags", "xi_normal"),
    "m5_bad_periodic": ("immersion", "u"),
    "m6_bad_parallel": ("flags", "parallel_H"),
}


@pytest.mark.parametrize("name", sorted(MISLABELED))
def test_mislabeled_scenario_exits_3_on_its_flag(name):
    """Every command validates alike, the quadrature commands at order 3."""
    section, key = MISLABELED[name]
    for command in ("check", "energy", "variation"):
        code, _out, err = run_cli([command, scenario_path(name)])
        assert code == 3, command
        assert f"section [{section}], key {key!r}" in err, command


ABSTRACT = """\
[ambient]
kind = abstract_gcsf
alpha = "1 + 0.1*x1"
beta = "1 - 0.1*x1"

[immersion]
params = [u]
u = [0.0, 6.283185307179586, periodic]
map = ["0.3*cos(u)", "0.3*sin(u)", "0", "0"]

[sampling]
grid = [4]
"""


@pytest.mark.parametrize("command,expected",
                         [("check", 3), ("props", 3), ("energy", 3), ("audit", 0)])
def test_abstract_ambient_runs_audit_only(tmp_path, command, expected):
    code, out, err = run_cli([command, write(tmp_path, ABSTRACT)])
    assert code == expected, err
    if expected == 0:
        assert "curvature_trace_audit:" in out
    else:
        assert "section [ambient], key 'kind'" in err


def test_abstract_audit_does_not_evaluate_the_weight(tmp_path):
    """The curvature-model audit reads only the map: a weight undefined at
    the sample point u = 0 does not fail it."""
    text = ABSTRACT.replace("[sampling]", '[weight]\nf = "log(u)"\n\n[sampling]')
    code, out, err = run_cli(["audit", write(tmp_path, text)])
    assert code == 0, err
    assert "curvature_trace_audit:" in out


def _assert_matches_reference(monkeypatch, job, reference=None):
    monkeypatch.chdir(ROOT)  # reports print the scenario path they were given
    code, report = run_job(cli, sys.modules["bihkit.report"], job)
    ref_code, ref_report = reference or load_reference(job)
    assert code == ref_code
    assert reports_match(ref_report, report)


# Reports pinned under tests/golden/<command>.<scenario>.txt, in the format
# of the benchmark's references.
GOLDEN_JOBS = sorted(tuple(name.split(".")[:2]) for name in os.listdir(GOLDEN_DIR))


@pytest.mark.parametrize("job", GOLDEN_JOBS, ids=job_name)
def test_catalog_reports_match_goldens(monkeypatch, job):
    """The catalog reports the benchmark does not pin, with their exit
    codes: complex and Lagrangian flags, hypersurfaces with tangent Reeb
    field, spheres in flat and curved ambients, `props` exit 2 on c08, c11,
    c13 and c18, and every curvature term on c12."""
    with open(os.path.join(GOLDEN_DIR, f"{job[0]}.{job[1]}.txt"), encoding="utf-8") as fh:
        first, _, report = fh.read().partition("\n")
    _assert_matches_reference(monkeypatch, job, (int(first.removeprefix("# exit ")), report))


@pytest.mark.parametrize("job", WORKLOADS["curves"]["jobs"], ids=job_name)
def test_curves_reports_match_pinned_references(monkeypatch, job):
    _assert_matches_reference(monkeypatch, job)


@pytest.mark.parametrize("job", WORKLOADS["hyper3d"]["jobs"], ids=job_name)
def test_hyper3d_reports_match_pinned_references(monkeypatch, job):
    _assert_matches_reference(monkeypatch, job)


@pytest.mark.parametrize("corollary,expected", [
    ("fbh_gssf_xi_tangent", 3),   # xi is normal on c16: the hypothesis is not asserted
    ("fbh_gcsf_curve", 3),        # a Hermitian reduction on a Sasakian ambient
    ("fbh_gssf_xi_normal", 0),
])
def test_corollary_needs_its_flags_and_equation_family(tmp_path, corollary, expected):
    with open(scenario_path("c16_xi_normal_curve"), encoding="utf-8") as fh:
        text = fh.read().replace("kind = fbh", f"kind = fbh\ncorollary = {corollary}")
    code, out, err = run_cli(["check", write(tmp_path, text)])
    assert code == expected, err
    if expected == 3:
        assert "section [mode], key 'corollary'" in err and out == ""
    else:
        assert f"corollary: {corollary}" in out and "reduction_agreement: true" in out


def test_curve_corollary_on_a_complex_space_form(tmp_path):
    """The curve reduction of the Hermitian equation substitutes
    -H - m^2 H for kl H."""
    text = OPEN_AXIS.format(kind="fubini_study\nn = 2",
                            map='["0.3*cos(u)", "0.2*sin(u)", "0.1*u", "0.15*sin(2*u)"]',
                            f="1 + 0.2*sin(u)")
    text += "\n[flags]\ncurve = asserted\n\n[mode]\nkind = fbh\ncorollary = fbh_gcsf_curve\n"
    code, out, err = run_cli(["check", write(tmp_path, text)])
    assert code == 0, err
    assert "corollary: fbh_gcsf_curve" in out and "reduction_agreement: true" in out


def test_reduction_delta_measures_with_the_ambient_metric(tmp_path):
    """The corollary reduction delta is a length in the ambient metric, like
    its scale and every other residual norm.  On a deformed Sasakian sphere
    (ctilde = 3, so the chart metric is not the identity on the circle) with
    xi only nearly normal, the reduction leaves a measurable delta."""
    with open(scenario_path("c16_xi_normal_curve"), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (("ctilde = 1.0", "ctilde = 3.0"),
                     ('"0", "sin(u)"', '"0.02*sin(u)", "sin(u)"'),
                     ("anti_invariant = asserted\nparallel_H = asserted\ncmc = asserted\n", ""),
                     ("kind = fbh", "kind = fbh\ncorollary = fbh_gssf_xi_normal")):
        assert old in text
        text = text.replace(old, new)
    path = write(tmp_path, text + "\n[tolerances]\nflags = 0.05\n")
    code, out, err = run_cli(["check", path])
    assert code == 2, err  # the reduction does not hold off its hypothesis
    reported = float(out.split("max_reduction_delta: ")[1].split("\n")[0])
    expected = 0.0
    for ev in _validate(load_scenario(path, validate=False)):
        parent = theorem_residual(ev, kind="fbh", errata=True)
        reduced = theorem_residual(ev, kind="fbh", errata=True,
                                   corollary="fbh_gssf_xi_normal")
        for i in range(len(ev)):
            expected = max(expected, max(ev.norm(parent.normal - reduced.normal)[i],
                                         ev.norm(parent.tangent - reduced.tangent)[i])
                           / parent.scale[i])
    assert expected > 1e-7
    assert reported == pytest.approx(expected, rel=1e-12)


def test_nan_in_one_block_fails_check(monkeypatch):
    """A NaN direct field in the second of c08's three blocks makes its mode
    deltas NaN; the maxima keep it, so `check` exits 2."""
    direct_field = residuals.direct_field
    calls = []

    def poisoned(kind, ev):
        calls.append(len(ev))
        out = direct_field(kind, ev)
        return np.full_like(out, np.nan) if len(calls) == 2 else out

    monkeypatch.setattr(residuals, "direct_field", poisoned)
    code, out, err = run_cli(["check", scenario_path("c08_hopf_torus")])
    assert calls == [16, 16, 4]
    assert code == 2, err
    assert "max_mode_delta: nan" in out and "mode_agreement: false" in out


# A cylinder in flat R^3 with the Reeb axis as its rulings and f = cosh(v):
# a CMC hypersurface with tangent Reeb field whose |B|^2 identity holds
# (|B|^2 = 1 = -(Delta f)/f), so `props` calls it consistent and passes.
CYLINDER = """\
[ambient]
kind = cosymplectic_flat
n = 1

[immersion]
params = [u, v]
u = [0.0, 6.283185307179586, periodic]
v = [-1.0, 1.0, open]
map = ["cos(u)", "sin(u)", "v"]

[weight]
f = "0.5*(exp(v) + exp(-v))"

[sampling]
grid = [4, 5]
"""


def _nan_at_a_later_point(values):
    """Copy of per-point values with a NaN at the last point: Python's max
    keeps its first argument and drops a NaN found later."""
    out = np.array(values, dtype=float)
    out[-1] = np.nan
    return out


@pytest.mark.parametrize("command", ["audit", "props"])
def test_nan_residual_fails_audit_and_props(tmp_path, monkeypatch, command):
    """One NaN residual, at the last point of the cylinder's second block,
    fails `audit` (a NaN lemgene3 delta) and `props` (a NaN |B|^2, so a
    NaN identity residual): the maxima keep it, and each exits 2."""
    path = write(tmp_path, CYLINDER)
    code, out, err = run_cli([command, path])
    assert code == 0 and "pass: true" in out, err
    blocks = []
    if command == "audit":
        lemgene3 = audits.audit_lemgene3

        def poisoned(ev):
            blocks.append(ev)
            out = lemgene3(ev)
            if len(blocks) == 2:
                out = {**out, "delta": _nan_at_a_later_point(out["delta"])}
            return out

        monkeypatch.setattr(audits, "audit_lemgene3", poisoned)
    else:
        build = calculus.trace_terms_at

        def poisoned(ev):
            blocks.append(ev)
            t = build(ev)
            if len(blocks) == 2:
                t = dataclasses.replace(t, b_norm2=_nan_at_a_later_point(t.b_norm2))
            return t

        monkeypatch.setattr(calculus, "trace_terms_at", poisoned)
    code, out, err = run_cli([command, path])
    assert [len(ev) for ev in blocks] == [16, 4]
    assert code == 2, err
    assert "pass: false" in out
    assert ("max_delta: nan" if command == "audit" else "identity_residual: nan") in out


def _count_builds(monkeypatch):
    """Orders of the points evaluated from now on, one entry per point of
    each batched evaluation."""
    builds = []
    init = calculus.Evaluation.__init__

    def counted(self, imm, points, order, *args):
        builds.extend([order] * len(points))
        init(self, imm, points, order, *args)

    monkeypatch.setattr(calculus.Evaluation, "__init__", counted)
    return builds


def test_check_builds_one_evaluation_per_sample_point(monkeypatch):
    """`check` evaluates each sample point once: validation's evaluation
    blocks are the ones the command consumes."""
    builds = _count_builds(monkeypatch)
    path = scenario_path("c17_circle_c1")
    points = len(load_scenario(path, validate=False).sample_points())
    code, _out, _err = run_cli(["check", path])
    assert code == 0
    assert builds.count(4) == points


@pytest.mark.parametrize("name,blocks", [("c13_hypersphere_r4", [16] * 4),
                                         ("c02_curve_sasakian", [12])])
def test_check_builds_the_trace_terms_once_per_block(monkeypatch, name, blocks):
    """The trace terms are built once per block of points: on c13 (64
    points) validation's parallel_H pre-check builds them and `check`
    reuses them."""
    sizes = []
    build = calculus.trace_terms_at
    monkeypatch.setattr(calculus, "trace_terms_at", lambda ev: sizes.append(len(ev)) or build(ev))
    code, _out, err = run_cli(["check", scenario_path(name)])
    assert code == 0, err
    assert sizes == blocks


def test_quadrature_commands_validate_at_order_3_without_trace_terms(monkeypatch):
    """`energy` and `variation` discard the sample points' evaluations, so
    validation evaluates them at order 3 and the parallel_H pre-check of
    c08 builds no trace terms; `check` validates at order 4."""
    path = scenario_path("c08_hopf_torus")
    sample = load_scenario(path, validate=False).sample_points()
    validated, trace_terms = [], []
    evaluate_points = scenario.evaluate_points

    def recorded(sc, points, order=4):
        validated.append((order, np.array(points)))
        return evaluate_points(sc, points, order)

    build = calculus.trace_terms_at
    monkeypatch.setattr(scenario, "evaluate_points", recorded)
    monkeypatch.setattr(calculus, "trace_terms_at",
                        lambda ev: trace_terms.append(len(ev)) or build(ev))
    for command, order in (("energy", 3), ("variation", 3), ("check", 4)):
        validated.clear()
        trace_terms.clear()
        code, _out, err = run_cli([command, path])
        assert code == 0, err
        assert [o for o, _p in validated] == [order], command
        assert np.array_equal(validated[0][1], sample), command
        assert trace_terms == ([] if order == 3 else [16, 16, 4]), command


@pytest.mark.parametrize("command,expected", [("audit", 0), ("props", 2)])
def test_audit_and_props_build_one_evaluation_per_sample_point(monkeypatch, command,
                                                                expected):
    builds = _count_builds(monkeypatch)
    path = scenario_path("c08_hopf_torus")
    code, _out, err = run_cli([command, path])
    assert code == expected, err
    assert builds.count(4) == 36


def _counting(counts, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_audit_computes_each_quantity_once_per_point(monkeypatch):
    """`audit` on c08 (36 points in blocks of 16, 16 and 4, anti-invariant
    asserted), counted per block: two rough Laplacians per block (tr
    nabla^2 H and tr nabla^2 grad f), one structure decomposition per block
    shared by validation and the audits, one identity suite per block."""
    counts = {"rough_laplacian": 0, "decomposition": 0, "identity_suite": 0}
    EV = calculus.Evaluation
    monkeypatch.setattr(EV, "rough_laplacian",
                        _counting(counts, "rough_laplacian", EV.rough_laplacian))
    decomposition = functools.cached_property(
        _counting(counts, "decomposition", EV.decomposition_operators.func))
    decomposition.__set_name__(EV, "decomposition_operators")
    monkeypatch.setattr(EV, "decomposition_operators", decomposition)
    monkeypatch.setattr(audits, "identity_suite",
                        _counting(counts, "identity_suite", audits.identity_suite))
    code, _out, err = run_cli(["audit", scenario_path("c08_hopf_torus")])
    assert code == 0, err
    blocks = 3
    assert counts == {"rough_laplacian": 2 * blocks, "decomposition": blocks,
                      "identity_suite": blocks}


def test_internal_error_in_a_hypothesis_check_exits_4(monkeypatch):
    """A hypothesis the ambient structure does not support is reported in
    the verdict (FlagError); any other error inside the flag check is an
    internal error."""
    def broken(imm, blocks, name):
        raise RuntimeError("broken flag check")

    monkeypatch.setattr(props, "flag_deviation", broken)
    code, _out, err = run_cli(["props", scenario_path("c10_curve_cp1")])
    assert code == 4
    assert "internal error: broken flag check" in err


def test_internal_error_during_validation_exits_4(monkeypatch):
    def broken(imm, blocks, tol):
        raise RuntimeError("broken flag pre-check")

    monkeypatch.setattr(scenario, "verify_flags", broken)
    code, out, err = run_cli(["check", scenario_path("c10_curve_cp1")])
    assert (code, out) == (4, "")
    assert err == "internal error: broken flag pre-check\n"


@pytest.mark.parametrize("name", ["c16_xi_normal_curve", "c08_hopf_torus",
                                  "c18_hypersphere_cp2"])
def test_reports_do_not_depend_on_block_size(monkeypatch, name):
    """`check`, `audit` and `props` give byte-identical reports whether the
    sample points are evaluated one per block or BATCH_POINTS per block:
    on the phi H ratios of c16 (quotients of round-off), on a contact torus
    (36 points) and on a curved Hermitian hypersurface (3 parameters).  At
    each block size the three commands share one validation."""
    path = scenario_path(name)
    reports = {}
    for size in (1, calculus.BATCH_POINTS):
        monkeypatch.setattr(calculus, "BATCH_POINTS", size)
        sc = load_scenario(path, validate=False)
        validated = _validate(sc)
        assert max(map(len, validated)) == min(size, len(sc.sample_points()))
        monkeypatch.setattr(cli, "_validate", lambda sc, order: list(validated))
        for command in ("check", "audit", "props"):
            code, out, err = run_cli([command, path])
            reports.setdefault(command, []).append((code, strip_volatile(out), err))
    for command, (single, batched) in reports.items():
        assert single == batched, command
