"""The command line end to end: malformed scenarios, the mislabeled catalog,
abstract ambients, corollary validation, the pinned `curves` and `hyper3d`
reports, the catalog goldens and evaluation counts."""

import contextlib
import hashlib
import io
import itertools
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from bihkit import audits, calculus, cli, props, residuals, scenario, spaces
from bihkit.report import strip_volatile
from bihkit.residuals import theorem_residual
from bihkit.scenario import MAX_SAMPLE_POINTS, _validate, load_scenario
from conftest import record, same_bits, scenario_path

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
    # a key or section that SECTION_KEYS does not list, in every section
    "ambient_key": ("n = 1", "n = 1\nhol = 4.0", "ambient", "hol"),
    "immersion_key": ("params = [u]", "params = [u]\nv = [0.0, 1.0, open]", "immersion", "v"),
    "weight_key": ('f = "1 + 0.3*cos(u)"', 'weight = "1 + 0.3*cos(u)"', "weight", "weight"),
    "flags_key": (None, "[flags]\nminimal = asserted", "flags", "minimal"),
    "sampling_key": ("grid = [4]", "grdi = [4]", "sampling", "grdi"),
    "tolerances_key": (None, "[tolerances]\nmode_agreemnt = 1e-6", "tolerances",
                       "mode_agreemnt"),
    "variation_key": (None, '[variation]\ncomponent = ["0", "0", "0"]', "variation",
                      "component"),
    "section_unknown": ("[sampling]", "[sampleing]", "sampleing", "grid"),
    "params_repeated": ("params = [u]", "params = [u, u]", "immersion", "params"),
    "map_unknown_identifier": ('map = ["cos(u)", "sin(u)", "0"]',
                               'map = ["cos(x)", "sin(u)", "0"]', "immersion", "map"),
    # the sample points pass; the close-up check fails at u = 2 pi
    "periodic_map_fails_at_end": ('"0"]', '"sqrt(6.283185307179586 - u)"]', "immersion", "u"),
    # an integer power multiplies |n| - 1 times: u^1e308 would not end
    "weight_exponent_beyond_bound": ('f = "1 + 0.3*cos(u)"', 'f = "1 + 0.3*cos(u)^1025"',
                                     "weight", "f"),
    # hi - lo overflows: the margin-shaved linspace was NaN
    "axis_span_overflows": ("u = [0.0, 6.283185307179586, periodic]", "u = [-1e308, 1e308, open]",
                            "immersion", "u"),
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


@pytest.mark.parametrize("command", ["check", "energy"])
@pytest.mark.parametrize("at", [0, 60])
def test_scenario_file_not_utf8_exits_3_at_its_byte_offset(tmp_path, command, at):
    """A file that is not UTF-8 (here a UTF-16 byte-order mark, or one stray
    byte inside a line) is a validation error with the offset of its first
    bad byte, not an internal error."""
    data = BASE.encode()
    path = tmp_path / "case.scn"
    path.write_bytes(data[:at] + b"\xff\xfe" + data[at:])
    code, out, err = run_cli([command, str(path)])
    assert (code, out) == (3, "")
    assert err == f"validation error: not UTF-8 text: invalid start byte (offset {at})\n"


def test_tolerance_defaults_are_declared_once():
    """A scenario without [tolerances] reads each default of
    `scenario.TOLERANCES`, and the grammar lists every key with it."""
    sc = scenario.parse_scenario(BASE, validate=False)
    section = " ".join(scenario.__doc__.split()).split("[tolerances]")[1].split("[mode]")[0]
    for key, default in scenario.TOLERANCES.items():
        assert sc.tolerance(key) == default, key
        printed = f"{default:.0e}".replace("e-0", "e-")  # 1e-6, 1e-10
        assert printed in section.split(key, 1)[1].split(")")[0], key


def test_syntax_error_offset_counts_bytes(tmp_path):
    """A syntax error gives the byte offset of its line, as the not-UTF-8
    error does: after a first line of 14 characters in 16 bytes, the
    malformed header starts at byte 16."""
    data = "# h\u00e9llo w\u00f6rld\n[ambient\n".encode()
    assert data.index(b"[ambient") == 16
    path = tmp_path / "case.scn"
    path.write_bytes(data)
    code, out, err = run_cli(["check", str(path)])
    assert (code, out) == (3, "")
    assert err == "validation error: malformed section header (offset 16)\n"


@pytest.mark.parametrize("command", ["check", "energy"])
def test_huge_weight_exponent_exits_3_naming_the_weight(tmp_path, command):
    """f = 1 + 0.3 cos(u)^1e308 is refused as it is parsed, naming [weight]
    f, instead of multiplying 1e308 - 1 times (the parse is checked first,
    so that a tree without the bound fails here rather than hangs)."""
    from bihkit.expr import ParseError, parse

    with pytest.raises(ParseError):
        parse("1 + 0.3*cos(u)^1e308", ["u"])
    path = write(tmp_path, BASE.replace('f = "1 + 0.3*cos(u)"', 'f = "1 + 0.3*cos(u)^1e308"'))
    code, out, err = run_cli([command, path])
    assert (code, out) == (3, "")
    assert err == ("validation error: weight rejected: exponent beyond 1024 in magnitude "
                   "(offset 16) (section [weight], key 'f')\n")


def test_axis_span_that_overflows_is_named_without_warnings(tmp_path):
    """An axis whose hi - lo is not finite is rejected as it is parsed,
    naming [immersion] u, before numpy computes NaN sample points."""
    path = write(tmp_path, BASE.replace("u = [0.0, 6.283185307179586, periodic]",
                                        "u = [-1e308, 1e308, open]"))
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    run = subprocess.run([sys.executable, "-m", "bihkit.cli", "check", path],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == ("validation error: axis 'u' needs hi > lo and a finite hi - lo "
                          "(section [immersion], key 'u')\n")


def test_a_repeated_parameter_is_named(tmp_path):
    """With one grid count per name the repeated name reaches evaluation,
    which found the immersion rank-deficient and blamed [sampling] grid."""
    text = BASE.replace("params = [u]", "params = [u, u]").replace("grid = [4]", "grid = [4, 4]")
    code, out, err = run_cli(["check", write(tmp_path, text)])
    assert code == 3 and out == ""
    assert "parameter 'u' is repeated (section [immersion], key 'params')" in err, err


def test_main_does_not_build_the_parser(monkeypatch):
    """The argument parser is built once, on import: `main` parses with it."""
    def fail():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", fail)
    code, out, err = run_cli(["check", scenario_path("c01_circle_flat")])
    assert code == 0, err
    assert out.startswith("tool_version")


def test_scenario_digest_is_the_sha256_of_the_file(catalog_names, mislabeled_paths):
    """The scenario digest, taken from the lean internal SHA-256 module, is
    hashlib's SHA-256 of the file's text, on every catalog file."""
    for path in [scenario_path(name) for name in catalog_names] + mislabeled_paths:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        sc = load_scenario(path, validate=False)
        assert sc.digest == hashlib.sha256(text.encode()).hexdigest(), path


def test_importing_the_cli_does_not_load_openssl():
    """`import bihkit.cli` leaves hashlib's OpenSSL module `_hashlib`
    unloaded: a fresh process, since pytest itself may have loaded it."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    run = subprocess.run([sys.executable, "-c",
                          "import sys, bihkit.cli; print('_hashlib' in sys.modules)"],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


def test_load_scenario_validates_at_order_3_in_one_block(recorder):
    """`load_scenario` validates c13's 64 sample points with one evaluation
    at jet order 3: it keeps none of them, so order 4 would be wasted."""
    load_scenario(scenario_path("c13_hypersphere_r4"))
    assert recorder.of("calculus.evaluate") == [(64, 3)]


def test_docstrings_list_the_commands_and_mode_keys():
    """The `cli` docstring lists exactly the commands, each with the options
    it reads, and the scenario grammar names every [mode] key, every key of
    the section table under its section and every ambient kind and key."""
    listed = [line.split()[1] for line in cli.__doc__.splitlines()
              if line.strip().startswith("bihkit ")]
    assert sorted(listed) == sorted(cli.COMMANDS)
    usage = cli.__doc__.split("    bihkit ")[1:]
    for entry in usage:
        command = entry.split()[0]
        assert re.findall(r"--\w+", entry.split("\n\n")[0]) == list(cli.OPTIONS[command])
    assert "`--report PATH`" in cli.__doc__ and "`--quiet`" in cli.__doc__
    grammar = scenario.__doc__.split("[mode]", 1)[1].split("[variation]", 1)[0]
    for key in scenario.MODE_CHOICES:
        assert f"{key} =" in grammar, key
    grammar = scenario.__doc__.split("Sections and keys", 1)[1].split("Validation", 1)[0]
    blocks = dict(zip(*[iter(re.split(r"^    \[(\w+)\]", grammar, flags=re.M)[1:])] * 2))
    assert list(blocks) == list(scenario.SECTION_KEYS)
    ambient_keys = [key for kind in spaces.SPACES for key in scenario._ambient_keys(kind)]
    for section, keys in scenario.SECTION_KEYS.items():
        extra = [*spaces.SPACES, *ambient_keys] if section == "ambient" else []
        for key in [*keys, *extra]:
            assert re.search(rf"\b{key}\b", blocks[section]), (section, key)


def test_catalog_diff_passes_check_only_options_it_reads():
    """`tools/catalog_diff.py` runs `check` with options that `check` reads."""
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    import catalog_diff

    assert {option for option, _value in catalog_diff.CHECK_OPTIONS} <= set(cli.OPTIONS["check"])


def test_catalog_diff_run_drops_the_wall_time_line_with_strip_volatile(monkeypatch):
    """`tools/catalog_diff.py` normalizes a run's stdout with the report's
    own `strip_volatile`: the wall-time line goes, every other line stays,
    and each tree's path becomes `<tree>`."""
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    import catalog_diff

    assert catalog_diff.strip_volatile is strip_volatile
    tree = catalog_diff.Path(ROOT)
    stdout = f"scenario: {tree}/c01.scn\n  wall_time_ms: 12.5\npass: true\n"
    done = subprocess.CompletedProcess([], 0, stdout=stdout, stderr=f"{tree} warns\n")
    monkeypatch.setattr(catalog_diff.subprocess, "run", lambda *args, **kwargs: done)
    assert catalog_diff.run(tree, ["check", "c01"]) == (
        0, "<tree> warns\n", "scenario: <tree>/c01.scn\npass: true")


def test_stage_times_splits_a_curves_job_into_the_stages_of_main(monkeypatch):
    """`tools/stage_times.py` runs `check c01` of the `curves` workload
    through the stages of `cli.main`: the report it renders matches the
    job's pinned reference, and each of the four stages takes some time."""
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    import stage_times
    from bihkit import report

    monkeypatch.chdir(ROOT)
    jobs = stage_times.load_jobs(stage_times.ROOT)
    job = ("check", "c01_circle_flat")
    assert job in jobs.WORKLOADS["curves"]["jobs"]
    medians = stage_times.job_medians(cli, report, jobs, job, 1)
    assert list(medians) == ["parse", "validation", "command", "render"]
    assert all(ms > 0.0 for ms in medians.values())


def test_catalog_diff_counts_the_source_lines(monkeypatch, capsys):
    """`tools/catalog_diff.py` counts the lines of `src/bihkit/*.py` as
    `wc -l` does and prints that count of both trees in one line before the
    runs; with no runs its summary line and exit code are as before."""
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    import catalog_diff

    expected = 0
    for name in os.listdir(os.path.join(ROOT, "src", "bihkit")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "src", "bihkit", name), "rb") as fh:
                expected += fh.read().count(b"\n")
    assert catalog_diff.src_lines(ROOT) == expected > 0
    # the revision's tree is this checkout, and neither tree has runs
    monkeypatch.setattr(catalog_diff, "export", lambda rev, dest: catalog_diff.ROOT)
    monkeypatch.setattr(catalog_diff, "runs", lambda tree: [])
    assert catalog_diff.main(["REV"]) == 0
    assert capsys.readouterr().out == (
        f"src/ lines: {expected} in REV, {expected} in this checkout\n"
        "0 of 0 runs differ from REV, 0 of them only in numbers within the 1e-12 rule\n")


def test_catalog_diff_compares_with_a_directory(monkeypatch, capsys):
    """`tools/catalog_diff.py` takes a directory as well as a git revision:
    a tree with no commit is compared as it stands, without `git archive`."""
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    import catalog_diff

    monkeypatch.setattr(catalog_diff, "runs", lambda tree: [])
    lines = catalog_diff.src_lines(ROOT)
    assert catalog_diff.main([ROOT]) == 0
    assert capsys.readouterr().out == (
        f"src/ lines: {lines} in {ROOT}, {lines} in this checkout\n"
        f"0 of 0 runs differ from {ROOT}, 0 of them only in numbers within the 1e-12 rule\n")


def test_catalog_diff_labels_a_differing_run():
    """A run whose exit code and stderr agree and whose numbers agree to the
    1e-12 rule is within it; 9e-13 against 2e-13 passes by the absolute
    floor and is left out of the worst relative change."""
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    import catalog_diff

    ours, near = (0, "", "x: 1.0\ny: 2e-13"), (0, "", "x: 1.0000000000005\ny: 9e-13")
    assert catalog_diff.within_rule(ours, near)
    assert f"{catalog_diff.worst_relative_change(ours[2], near[2]):.2g}" == "5e-13"
    assert not catalog_diff.within_rule(ours, (0, "", "x: 1.1\ny: 2e-13"))
    assert not catalog_diff.within_rule(ours, (2, *near[1:]))
    assert not catalog_diff.within_rule(ours, (0, "warning", near[2]))


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
    # psi overflows from u = 0.25 on, before the chart metric is composed
    "map_not_finite": (
        "euclidean_complex\nn = 2", '["(1e200*u)*(1e200*u)", "0.3*sin(u)", "0", "0"]', "1",
        "sample point [0.25] rejected: map not finite (section [sampling], key 'grid')"),
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


def test_failing_block_is_halved_down_to_its_first_failing_point(tmp_path, recorder):
    """A failing block is evaluated again in halves, not point by point: c13
    with a map that fails only at the last of its 64 sample points takes 13
    evaluations (64, then 32 and 32, ..., 1 and 1), and the error is the one
    that point gives alone."""
    with open(scenario_path("c13_hypersphere_r4"), encoding="utf-8") as fh:
        text = fh.read()
    good = '"0.9*sin(v)*cos(w)"'
    assert good in text
    # u*w + v is largest, 23.473, at the last sample point only
    path = write(tmp_path, text.replace(good, '"0.9*sin(v)*cos(w) + 0*sqrt(23.47 - u*w - v)"'))
    code, out, err = run_cli(["check", path])
    assert (code, out) == (3, "")
    assert err == ("validation error: sample point [4.71238898038469, 1.2665, "
                   "4.71238898038469] rejected: sqrt of non-positive jet value "
                   "(section [sampling], key 'grid')\n")
    assert [size for size, _order in recorder.of("calculus.evaluate")] == [64] + [
        size for size in (32, 16, 8, 4, 2, 1) for _ in range(2)]


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
    # the map has a pole at the first node: the nodes' evaluation blocks are
    # the only place the map is built there
    "map_pole": (
        "cosymplectic_flat\nn = 1", '["u", "1/(u - 0.04691007703066802)", "0"]', "1",
        "quadrature node [0.04691007703066802] rejected: division by jet with zero "
        "constant term (section [sampling], key 'grid')"),
    # the map fails only at jet order 3, at the first node: `energy` reads the
    # nodes at the order validation needs, 3, as `variation` reads them at 4
    "order_3_pole": (
        "cosymplectic_flat\nn = 1",
        '["u", "0.5*u*u", "1e-90/(1e-81 + (u - 0.04691007703066802)^2)"]', "1",
        "quadrature node [0.04691007703066802] rejected: float division by zero "
        "(section [sampling], key 'grid')"),
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


def test_variation_components_error_comes_before_the_node_error(tmp_path):
    """With a pole at the first quadrature node in both the map and the
    [variation] components, `variation` reports the components, which it
    checks before it takes the node blocks, and `energy` the node; the
    sample points pass `check`."""
    pole = "1/(u - 0.04691007703066802)"
    text = OPEN_AXIS.format(kind="cosymplectic_flat\nn = 1", map=f'["u", "{pole}", "0"]', f="1")
    path = write(tmp_path, text + f'\n[variation]\ncomponents = ["{pole}", "0", "0"]\n')
    assert run_cli(["check", path])[0] == 0
    assert run_cli(["variation", path]) == (
        3, "", "validation error: variation components fail at the quadrature nodes: division "
        "by jet with zero constant term (section [variation], key 'components')\n")
    assert run_cli(["energy", path]) == (
        3, "", "validation error: quadrature node [0.04691007703066802] rejected: division by "
        "jet with zero constant term (section [sampling], key 'grid')\n")


# One map on a periodic and on an open axis: its third component fails only
# at jet order 4, at the sample point u = 0.
ORDER_4_MAP = '["cos(u)", "sin(u)", "1e-70/(1e-65 + (1 - cos(u))^2)"]'
ORDER_4_AXES = {
    "periodic": BASE.replace('["cos(u)", "sin(u)", "0"]', ORDER_4_MAP)
                    .replace('f = "1 + 0.3*cos(u)"', 'f = "1"'),
    "open": OPEN_AXIS.format(kind="cosymplectic_flat\nn = 1", map=ORDER_4_MAP, f="1"),
}


@pytest.mark.parametrize("axis", sorted(ORDER_4_AXES))
def test_sample_point_failing_only_at_order_4_is_named_by_variation(tmp_path, axis):
    """`variation` validates its sample points at the order it reads, 4, on
    every axis kind, so a point whose map fails only at order 4 is rejected
    as a sample point, as `check` rejects it; `energy`, at order 3,
    passes."""
    path = write(tmp_path, ORDER_4_AXES[axis])
    message = ("validation error: sample point [0.0] rejected: float division by zero "
               "(section [sampling], key 'grid')\n")
    assert run_cli(["check", path])[::2] == (3, message)
    assert run_cli(["variation", path]) == (3, "", message)
    assert run_cli(["energy", path])[::2] == (0, "")


# Open-axis scenarios that fail at a sample point or flag and at a quadrature
# node (the pole at the first Gauss node of FAILING_NODE's "map_pole"), with
# the error every command reports: the sample point's or the flag's, which
# validation finds before the nodes are evaluated.
FAILING_SAMPLE_AND_NODE = {
    "flag_and_node": (
        '["u", "1/(u - 0.04691007703066802)", "0"]', "\n[flags]\ncmc = asserted\n",
        "flag pre-check failed: flag 'cmc' asserted but deviation 7.020e-01 exceeds "
        "1.0e-08 (section [flags], key 'cmc')"),
    "sample_and_node": (
        '["u", "1/((u - 0.25)*(u - 0.04691007703066802))", "0"]', "",
        "sample point [0.25] rejected: division by jet with zero constant term "
        "(section [sampling], key 'grid')"),
}


@pytest.mark.parametrize("command", ["check", "energy", "variation"])
@pytest.mark.parametrize("case", sorted(FAILING_SAMPLE_AND_NODE))
def test_sample_and_flag_errors_come_before_node_errors(tmp_path, case, command):
    """Where a sample point or an asserted flag fails and so does a
    quadrature node, `energy` and `variation` report the sample point's or
    the flag's error, as `check` does, not the node's."""
    chart_map, flags, message = FAILING_SAMPLE_AND_NODE[case]
    text = OPEN_AXIS.format(kind="cosymplectic_flat\nn = 1", map=chart_map, f="1") + flags
    assert run_cli([command, write(tmp_path, text)]) == (3, "", f"validation error: {message}\n")


def test_sample_points_are_the_quadrature_nodes_exactly_on_all_periodic_axes(catalog_names,
                                                                           mislabeled_paths):
    """On c01-c18 and m1-m6 the sample points equal the quadrature nodes,
    bit for bit, exactly when every axis is periodic: `energy` and
    `variation` take the validated blocks of the sample points as those of
    the nodes on that condition alone."""
    periodic = 0
    for path in [scenario_path(name) for name in catalog_names] + mislabeled_paths:
        sc = load_scenario(path, validate=False)
        samples, nodes = sc.sample_points(), sc.quadrature().points
        same = samples.shape == nodes.shape and same_bits(samples, nodes)
        assert same == all(ax.periodic for ax in sc.axes), path
        periodic += same
    assert periodic >= 11


def _force_block_points(monkeypatch, points):
    """Evaluate in blocks of `points` points, whatever `block_points` says."""
    monkeypatch.setattr(calculus, "block_points", lambda m, d, order: points)


def _map_builds(recorder, path):
    """(points, jet order) of each recorded build of a map component of the
    scenario at `path`."""
    components = load_scenario(path, validate=False).immersion.components
    return [call[1:] for call in recorder.calls
            if call[0] == "expr.eval_on_jets" and call.subject in components]


@pytest.mark.parametrize("command", ["energy", "variation"])
def test_quadrature_commands_build_the_map_only_in_evaluation_blocks(monkeypatch, recorder,
                                                                     command):
    """`energy` and `variation` on c08 (both axes periodic, so its 36
    trapezoid nodes are its 36 sample points) evaluate the map components
    only in the evaluation blocks, once per point: validation at the order
    the command reads (3 for `energy`, whose flag pre-check needs it, 4 for
    `variation`), whose blocks the command takes; besides, the close-up
    check evaluates the map at the two ends of both periodic axes at order
    0, in one call of 4 points.  Under the block rule the evaluation is one
    block of 36 points, so a second build over all nodes would add entries;
    in blocks of 16 points it is blocks of 16, 16 and 4, so a build over all
    nodes would also be too large."""
    path = scenario_path("c08_hopf_torus")
    order = 3 if command == "energy" else 4
    assert calculus.block_points(2, 3, order) >= 36
    for points, blocks in ((None, [36]), (16, [16, 16, 4])):
        if points:
            _force_block_points(monkeypatch, points)
        recorder.calls.clear()
        code, _out, err = run_cli([command, path])
        assert code == 0, err
        # one entry per map component and block or axis
        expected = [(size, order) for size in blocks] + [(4, 0)]
        assert sorted(_map_builds(recorder, path)) == sorted(expected * 3)


@pytest.mark.parametrize("command", ["energy", "variation"])
def test_open_axis_quadrature_commands_build_the_map_for_samples_then_nodes(monkeypatch,
                                                                            recorder, command):
    """`energy` and `variation` on c04 (v open, so its 36 Gauss-trapezoid
    nodes are not its 36 sample points) evaluate the map components in one
    pass over the 36 sample points followed by the 36 nodes, at the order
    the command reads (3 for `energy`, which validation needs, 4 for
    `variation`), and nowhere else but the close-up check, which evaluates
    the map at the two ends of the periodic axis at order 0, in one call of
    2 points.  One block of 72 points under the block rule; in blocks of 16
    points, blocks of 16, 16, 16, 16 and 8, the third holding the last 4
    sample points and the first 12 nodes."""
    path = scenario_path("c04_small_sphere")
    order = 3 if command == "energy" else 4
    assert calculus.block_points(2, 3, order) >= 72
    for points, blocks in ((None, [72]), (16, [16, 16, 16, 16, 8])):
        if points:
            _force_block_points(monkeypatch, points)
        recorder.calls.clear()
        code, _out, err = run_cli([command, path])
        assert code in (0, 2), err
        expected = [(size, order) for size in blocks] + [(2, 0)]
        assert sorted(_map_builds(recorder, path)) == sorted(expected * 3)


@pytest.mark.parametrize("command, name, rows, sizes", [
    # flat R^4: G constant, Christoffels zero, so only the constant row
    ("check", "c13_hypersphere_r4", {1}, {20}),
    # Fubini-Study: the 35 rows of G to degree 3 in 4 chart variables; the
    # inner jets of the order-4 block kept to order 3 (20 of their 35
    # coefficients), the Christoffels reading a prefix
    ("audit", "c18_hypersphere_cp2", {35}, {20}),
])
def test_composers_build_only_live_rows_to_the_kept_order(recorder, command, name, rows,
                                                           sizes):
    """The composer of each evaluation block builds its monomial table only
    to the highest degree a chart jet is nonzero at, and to the order the
    composed metric keeps (order - 1)."""
    code, _out, err = run_cli([command, scenario_path(name)])
    assert code in (0, 2), err
    built_rows, built_sizes = map(set, zip(*recorder.of("jets.Composer._table")))
    assert (built_rows, built_sizes) == (rows, sizes)


def test_omitted_ambient_key_takes_the_constructor_default(tmp_path):
    """complex_hyperbolic without `hol` has hol = -4, its constructor's
    default."""
    text = OPEN_AXIS.format(kind="complex_hyperbolic\nn = 1",
                            map='["0.5*cos(u)", "0.5*sin(u)"]', f="1")
    text = text.replace("[0.0, 1.0, open]", "[0.0, 6.283185307179586, periodic]")
    code, out, err = run_cli(["check", write(tmp_path, text)])
    assert code == 0, err
    assert "mode_agreement: true" in out


# [variation] components that leave the chart of the complex hyperbolic
# disc, with the node and step the error names: the first step, in the
# order +h, -h of each step h, that leaves it, and its first node off it.
CHART_EXIT = {
    "outward": ('["60*cos(u)", "60*sin(u)"]', 0, 0.01),
    "inward": ('["-60*cos(u)", "-60*sin(u)"]', 0, -0.01),
    "inward_where_cos_u_is_negative": ('["-60*cos(u)*cos(u)", "-60*cos(u)*sin(u)"]', 4, 0.01),
}


@pytest.mark.parametrize("case", sorted(CHART_EXIT))
def test_variation_leaving_the_chart_exits_3(tmp_path, case):
    components, node, t = CHART_EXIT[case]
    text = OPEN_AXIS.format(kind="complex_hyperbolic\nn = 1\nhol = -4.0",
                            map='["0.5*cos(u)", "0.5*sin(u)"]', f="1")
    text = text.replace("[0.0, 1.0, open]", "[0.0, 6.283185307179586, periodic]")
    text = text.replace("grid = [5]", "grid = [8]")
    text += f"\n[variation]\ncomponents = {components}\n"
    code, out, err = run_cli(["variation", write(tmp_path, text)])
    assert code == 3 and out == ""
    assert err == (f"validation error: the deformed map exits the ambient chart at node {node} "
                   f"(t={t}) (section [variation], key 'components')\n")


# [variation] components that overflow: on the flat ambient where the jet
# engine raises, and on c04 where V, or the deformed map, overflows in numpy
# arrays (no numpy warning may be printed).
OVERFLOWING_VARIATION = {
    "math_range": (None, '["exp(1000*u)", "0", "0"]',
                   "variation components fail at the quadrature nodes: math range error"),
    "deformed_map_overflows": ("c04_small_sphere", '["1e300*cos(u)", "0", "0"]',
                               "the deformed map exits the ambient chart at node 0 (t=0.01)"),
    "infinite_components": ("c04_small_sphere", '["1e200*cos(u)*1e200", "0", "0"]',
                            "variation components fail at the quadrature nodes: not finite "
                            "at node 0"),
    "densities_overflow": ("c01_circle_flat", '["1e300*cos(u)", "0", "0"]',
                           "the energy densities of the deformed map are not finite at node 0 "
                           "(t=0.01)"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_VARIATION))
def test_overflowing_variation_components_exit_3(tmp_path, case):
    name, components, message = OVERFLOWING_VARIATION[case]
    if name is None:
        text = OPEN_AXIS.format(kind="cosymplectic_flat\nn = 1",
                                map='["cos(u)", "sin(u)", "0"]', f="1")
    else:
        with open(scenario_path(name), encoding="utf-8") as fh:
            text = fh.read()
    text += f"\n[variation]\ncomponents = {components}\n"
    code, out, err = run_cli(["variation", write(tmp_path, text)])
    assert code == 3 and out == ""
    assert err == f"validation error: {message} (section [variation], key 'components')\n"


@pytest.mark.parametrize("option", ["--report", "--csv"])
def test_unwritable_output_path_exits_3_naming_it(tmp_path, option):
    path = str(tmp_path / "missing" / "x.txt")
    code, out, err = run_cli(["check", scenario_path("c17_circle_c1"), option, path])
    assert (code, out) == (3, "")
    assert err == f"output error: cannot write {option} {path}: No such file or directory\n"


def test_periodic_close_up_scales_with_the_map(tmp_path):
    """The endpoints of a periodic axis are compared relative to the map's
    size: a circle of radius 1e6 closes up (its endpoints differ by the
    round-off of 1e6 sin(2 pi), 2.4e-10), m5's half circle does not."""
    text = BASE.replace('["cos(u)", "sin(u)", "0"]', '["1e6*cos(u)", "1e6*sin(u)", "0"]')
    code, _out, err = run_cli(["check", write(tmp_path, text)])
    assert code == 0, err
    code, out, err = run_cli(["check", scenario_path("m5_bad_periodic")])
    assert (code, out) == (3, "")
    assert "map endpoints differ" in err and "section [immersion], key 'u'" in err


# c08 edits: (replaced text, new text, the stderr line before the section)
HOPF_ENDS = {
    # the sample points pass; the map fails at v = 2 pi only
    "second_axis_fails": (
        '/(1 + 0.8*sin(v))"]', '/(1 + 0.8*sin(v)) + 0*sqrt(6.283185307179586 - v)"]',
        "axis 'v' declared periodic but the map fails at its endpoints: "
        "sqrt of non-positive jet value"),
    # u does not close up and the map fails at v = 2 pi: u is checked first
    "first_axis_open": (
        '["0.6*cos(u)', '["0.6*cos(0.9*u) + 0*sqrt(6.283185307179586 - v)',
        "axis 'u' declared periodic but map endpoints differ by 1.146e-01"),
}


@pytest.mark.parametrize("case", sorted(HOPF_ENDS))
def test_periodic_close_up_names_the_first_failing_axis(tmp_path, case):
    """The ends of both periodic axes of c08 are evaluated in one call; when
    it fails, they are evaluated axis by axis, so the error names the axis
    the map fails at, or an earlier one that does not close up."""
    old, new, message = HOPF_ENDS[case]
    with open(scenario_path("c08_hopf_torus"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    name = message.split("'")[1]
    code, out, err = run_cli(["check", write(tmp_path, text.replace(old, new))])
    assert (code, out) == (3, "")
    assert err == f"validation error: {message} (section [immersion], key {name!r})\n"


C01 = scenario_path("c01_circle_flat")


def _keys(report):
    """Every key of a report, at any depth."""
    return {line.strip(" -").split(":")[0] for line in report.splitlines() if ":" in line}


DIRECT_KEYS = {"max_direct_norm", "direct_verdict", "direct_norm"}
THEOREM_KEYS = {"max_theorem_norm", "theorem_normal_norm", "theorem_tangent_norm"}
BOTH_KEYS = {"max_mode_delta", "mode_agreement", "mode_delta_normal", "mode_delta_tangent",
             "itemized_corrections"}


@pytest.mark.parametrize("mode,own,other", [("direct", DIRECT_KEYS, THEOREM_KEYS),
                                            ("theorem", THEOREM_KEYS, DIRECT_KEYS)])
def test_mode_option_prints_only_its_own_keys(mode, own, other):
    code, out, err = run_cli(["check", C01, "--mode", mode])
    assert code == 0, err
    assert own <= _keys(out)
    assert not (other | BOTH_KEYS) & _keys(out)
    assert (own | other | BOTH_KEYS) <= _keys(run_cli(["check", C01])[1])


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_tol_must_be_finite_and_non_negative(tol):
    """A `--tol` of inf would pass every verdict, nan or a negative one fail
    them all: each exits 3 with one line naming `--tol`; 0 is valid."""
    code, out, err = run_cli(["check", C01, f"--tol={tol}"])
    assert (code, out) == (3, "")
    assert err == (f"validation error: --tol must be a finite non-negative number, "
                   f"got {float(tol)!r}\n")
    code, out, err = run_cli(["check", C01, "--tol=0"])
    assert (code, err) == (2, "")
    assert "mode_agreement: false" in out.splitlines()


@pytest.mark.parametrize("argv, message", [
    (["check", C01, "--bogus"], "unrecognized arguments: --bogus"),
    (["bogus", C01], "argument command: invalid choice: 'bogus'"),
    (["check"], "the following arguments are required: scenario"),
])
def test_usage_error_exits_3_with_argparse_message(argv, message):
    """A usage error is not a failed verification (exit 2): it exits 3 with
    argparse's usage line and message on stderr; `--help` still exits 0."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 3
    assert err.getvalue().startswith("usage: bihkit ")
    assert f"bihkit: error: {message}" in err.getvalue()
    with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as stop:
        cli.main(["--help"])
    assert stop.value.code == 0 and "Exit codes:" in out.getvalue()


# The options each command reads besides --report and --quiet, and a valid
# value of every option a command may be given, `--seed` included.
READS = {"check": ("--mode", "--tol", "--errata", "--csv"), "audit": ("--tol",),
         "variation": ("--tol", "--functional"), "props": ("--tol",), "energy": ()}
VALUES = {"--mode": "direct", "--tol": "1e-6", "--errata": "on", "--csv": "norms.csv",
          "--functional": "E", "--seed": "5"}
REJECTED = [(command, option) for command in READS for option in VALUES
            if option not in READS[command]]


def test_option_table_rejects_17_pairs_besides_seed():
    """`cli.OPTIONS` is the table above: of the 25 pairs of a command and an
    option that not every command reads, 8 are accepted and 17 rejected."""
    assert len(REJECTED) == 17 + len(READS)
    assert cli.OPTIONS == READS


@pytest.mark.parametrize("command, option", REJECTED)
def test_an_option_the_command_does_not_read_exits_3(tmp_path, command, option):
    """An option the command does not read, and `--seed` on any command, is
    a usage error: exit 3, argparse's usage line on stderr, empty stdout, no
    file written."""
    value = str(tmp_path / VALUES[option]) if option == "--csv" else VALUES[option]
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          pytest.raises(SystemExit) as stop):
        cli.main([command, C01, option, value])
    assert stop.value.code == 3 and out.getvalue() == ""
    assert err.getvalue().startswith("usage: bihkit ")
    assert "bihkit: error: " in err.getvalue() and option in err.getvalue()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", [["--errata", "off"], ["--tol", "1e-300"]])
def test_errata_off_and_a_tiny_tolerance_fail_mode_agreement(option):
    code, out, err = run_cli(["check", C01, *option])
    assert code == 2, err
    assert "mode_agreement: false" in out.splitlines()


def test_report_csv_quiet_and_seed_options(tmp_path):
    report, table = tmp_path / "report.txt", tmp_path / "norms.csv"
    code, out, err = run_cli(["check", C01, "--report", str(report), "--csv", str(table)])
    assert code == 0, err
    assert report.read_text(encoding="utf-8") == out
    assert "seed: 0" in run_cli(["check", C01])[1]
    lines = table.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("point,direct_norm,mode_delta_normal,mode_delta_tangent,"
                        "theorem_normal_norm,theorem_tangent_norm")
    points = load_scenario(C01, validate=False).sample_points()
    assert [float(line.split(",")[0]) for line in lines[1:]] == points[:, 0].tolist()
    for argv, expected in ((["check", C01], 0), (["check", C01, "--errata", "off"], 2)):
        assert run_cli(argv + ["--quiet"]) == (expected, "", "")


def test_functional_option_restricts_variation():
    code, out, err = run_cli(["variation", C01, "--functional", "E"])
    assert code == 0, err
    functionals = [line.split(":")[1].strip() for line in out.splitlines()
                   if line.strip().startswith("functional:")]
    assert functionals == ["E"]


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
def test_abstract_ambient_runs_audit_only(tmp_path, recorder, command, expected):
    """`audit` builds the map at its 4 sample points once, at validation,
    and reads those values, and at the two ends of the periodic axis; the
    other commands exit 3."""
    code, out, err = run_cli([command, write(tmp_path, ABSTRACT)])
    assert code == expected, err
    if expected == 0:
        assert "curvature_trace_audit:" in out
        assert recorder.of("calculus.map_jets") == [(4, 0), (2, 0)]
    else:
        assert "section [ambient], key 'kind'" in err


def test_abstract_audit_does_not_evaluate_the_weight(tmp_path):
    """The curvature-model audit reads only the map: a weight undefined at
    the sample point u = 0 does not fail it."""
    text = ABSTRACT.replace("[sampling]", '[weight]\nf = "log(u)"\n\n[sampling]')
    code, out, err = run_cli(["audit", write(tmp_path, text)])
    assert code == 0, err
    assert "curvature_trace_audit:" in out


# Curvature-model scenarios (edits of ABSTRACT) that validation rejects,
# with the one stderr line they exit 3 with.
ABSTRACT_REJECTED = {
    "alpha_log_negative": (
        [('alpha = "1 + 0.1*x1"', 'alpha = "log(x1)"')],
        "sample point [3.141592653589793] rejected: log of non-positive jet value "
        "(section [ambient], key 'alpha')"),
    "map_log_at_zero": (
        [('"0.3*cos(u)"', '"log(u)"')],
        "sample point [0.0] rejected: log of non-positive jet value "
        "(section [sampling], key 'grid')"),
    "alpha_not_finite": (
        [('alpha = "1 + 0.1*x1"',
          'alpha = "(1e200*x1)*(1e200*x1) - (1e200*x1)*(1e200*x1)"')],
        "sample point [0.0] rejected: alpha not finite (section [ambient], key 'alpha')"),
    "map_not_periodic": (
        [("u = [0.0, 6.283185307179586, periodic]", "u = [0.0, 1.0, periodic]"),
         ('"0.3*cos(u)"', '"u"')],
        "axis 'u' declared periodic but map endpoints differ by 1.000e+00 "
        "(section [immersion], key 'u')"),
    # a curve in a 4-dimensional chart: checked from the dimensions
    "hypersurface_asserted": (
        [("[sampling]", "[flags]\nhypersurface = asserted\n\n[sampling]")],
        "flag pre-check failed: flag 'hypersurface' asserted but deviation inf exceeds "
        "1.0e-08 (section [flags], key 'hypersurface')"),
    # no evaluation blocks to measure a non-structural flag on
    "complex_denied": (
        [("[sampling]", "[flags]\ncomplex = denied\n\n[sampling]")],
        "flag pre-check failed: flag 'complex' cannot be checked on a curvature-model "
        "ambient (section [flags], key 'complex')"),
}


@pytest.mark.parametrize("case", sorted(ABSTRACT_REJECTED))
def test_abstract_scenario_is_validated(tmp_path, case):
    """A curvature-model scenario is validated like a concrete one: the map
    and the coefficients must be finite at the sample points (no numpy
    warning escapes), periodic axes must close up and asserted or denied
    flags must hold; only curve and hypersurface can be checked there."""
    edits, message = ABSTRACT_REJECTED[case]
    text = ABSTRACT
    for old, new in edits:
        text = text.replace(old, new)
    code, out, err = run_cli(["audit", write(tmp_path, text)])
    assert (code, out) == (3, "")
    assert err == f"validation error: {message}\n"


ABSTRACT_GSSF = """\
[ambient]
kind = abstract_gssf
n = 2
f1 = "1 + 0.2*x5"
f2 = "0.3*x1"
f3 = "0.1"

[immersion]
params = [u]
u = [0.0, 6.283185307179586, periodic]
map = ["0.3*cos(u)", "0.3*sin(u)", "0", "0", "0.2*sin(u)"]

[sampling]
grid = [4]
"""


@pytest.mark.parametrize("name", ["abstract_gcsf", "abstract_gssf"])
def test_abstract_audit_reports_match_goldens(tmp_path, monkeypatch, name):
    """The curvature-model audit reports, pinned under tests/golden/abstract/."""
    monkeypatch.chdir(tmp_path)  # the report prints the scenario path it was given
    text = {"abstract_gcsf": ABSTRACT, "abstract_gssf": ABSTRACT_GSSF}[name]
    (tmp_path / f"{name}.scn").write_text(text)
    code, out, err = run_cli(["audit", f"{name}.scn"])
    with open(os.path.join(GOLDEN_DIR, "abstract", f"audit.{name}.txt"), encoding="utf-8") as fh:
        first, _, report = fh.read().partition("\n")
    assert code == int(first.removeprefix("# exit ")), err
    assert reports_match(report, strip_volatile(out))


def _assert_matches_reference(monkeypatch, job, reference=None):
    monkeypatch.chdir(ROOT)  # reports print the scenario path they were given
    code, report = run_job(cli, sys.modules["bihkit.report"], job)
    ref_code, ref_report = reference or load_reference(job)
    assert code == ref_code
    assert reports_match(ref_report, report)


# Reports pinned under tests/golden/<command>.<scenario>.txt, in the format
# of the benchmark's references.
GOLDEN_JOBS = sorted(tuple(name.split(".")[:2]) for name in os.listdir(GOLDEN_DIR)
                     if name.endswith(".txt"))


@pytest.mark.parametrize("job", GOLDEN_JOBS, ids=job_name)
def test_catalog_reports_match_goldens(monkeypatch, job):
    """The catalog reports the benchmark does not pin, with their exit
    codes: complex and Lagrangian flags, hypersurfaces with tangent Reeb
    field, spheres in flat and curved ambients, `props` exit 2 on c08, c11,
    c13 and c18, and every curvature term on c12."""
    with open(os.path.join(GOLDEN_DIR, f"{job[0]}.{job[1]}.txt"), encoding="utf-8") as fh:
        first, _, report = fh.read().partition("\n")
    _assert_matches_reference(monkeypatch, job, (int(first.removeprefix("# exit ")), report))


def _parse_report(lines, level=0):
    """The nested dicts and lists of strings of the report lines `lines`
    (`report.render_report`) at indentation `level` and below, consumed
    from the front of the list."""
    out = [] if lines[0].lstrip().startswith("-") else {}
    while lines and len(lines[0]) - len(lines[0].lstrip()) == 2 * level:
        body = lines.pop(0).strip()
        nested = lines and len(lines[0]) - len(lines[0].lstrip()) > 2 * level
        if isinstance(out, list):
            out.append(_parse_report(lines, level + 1) if body == "-" else body[2:])
        elif ": " in body:
            key, value = body.split(": ", 1)
            out[key] = value
        else:
            out[body[:-1]] = _parse_report(lines, level + 1) if nested else {}
    return out


PINNED_REPORTS = sorted(
    os.path.join(folder, name)
    for folder in (GOLDEN_DIR, os.path.join(ROOT, "perfbench", "reference"))
    for name in os.listdir(folder) if name.startswith(("check.", "props.")))


# `check` reports rendered by the test, of c08 with a corollary: the [mode]
# lines, for the `max_reduction_delta` that no pinned report prints
COROLLARY_REPORTS = {
    "check.c08_fbh_gssf_xi_tangent": "kind = fbh\ncorollary = fbh_gssf_xi_tangent",
    "check.c08_bif_gssf_xi_tangent": "kind = bif\ncorollary = bif_gssf_xi_tangent"}


@pytest.mark.parametrize("path", PINNED_REPORTS + sorted(COROLLARY_REPORTS), ids=os.path.basename)
def test_printed_maxima_are_the_maxima_of_the_printed_rows(tmp_path, path):
    """In every pinned `check` and `props` report, and in `check` reports of
    c08 with a corollary, each printed maximum is the maximum of the printed
    per-point rows it summarizes, and `check`'s point count is its row
    count."""
    if path in COROLLARY_REPORTS:
        text = _catalog_text("c08_hopf_torus", "kind = fbh", COROLLARY_REPORTS[path])
        code, report, err = run_cli(["check", write(tmp_path, text)])
        assert code == 0, err
    else:
        with open(path, encoding="utf-8") as fh:
            report = fh.read().partition("\n")[2]
    doc = _parse_report(report.splitlines())
    column = lambda rows, key: [float(row[key]) for row in rows]
    checked = []
    if doc["command"] == "check":
        rows = doc["rows"]
        assert int(doc["points"]) == len(rows)
        for key, columns in (("max_direct_norm", ("direct_norm",)),
                             ("max_mode_delta", ("mode_delta_normal", "mode_delta_tangent")),
                             ("max_reduction_delta", ("reduction_delta",))):
            if key in doc:
                assert float(doc[key]) == max(v for c in columns for v in column(rows, c)), key
                checked.append(key)
    for verdict in doc.get("verdicts", []):
        rows = verdict.get("rows", [])
        scal = lambda form: [abs(a - b) for a, b in zip(column(rows, "scal_intrinsic"),
                                                        column(rows, f"scal_{form}"))]
        expected = {"max_delta": lambda: column(rows, "delta"),
                    "identity_residual": lambda: column(rows, "identity_residual"),
                    "shape_grad_f_residual": lambda: column(rows, "a_h_grad_f_norm"),
                    "scal_corrected_residual": lambda: scal("corrected"),
                    "scal_printed_residual": lambda: scal("printed")}
        for key, values in expected.items():
            if key in verdict:
                assert float(verdict[key]) == max(values()), (verdict["name"], key)
                checked.append(key)
    assert checked, "no maximum checked"
    assert ("max_reduction_delta" in checked) == (path in COROLLARY_REPORTS)


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


def _catalog_text(name, old, new):
    with open(scenario_path(name), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    return text.replace(old, new)


def test_bif_general_check_reads_the_split_curvature_traces(tmp_path):
    """`kind = bif_general`, which no catalog scenario sets, assembles its
    curvature terms from the block's curvature traces and agrees with the
    direct field on c13."""
    text = _catalog_text("c13_hypersphere_r4", "kind = bif", "kind = bif_general")
    code, out, err = run_cli(["check", write(tmp_path, text)])
    assert code == 0, err
    assert "mode_agreement: true" in out.splitlines()


def test_corollary_that_fixes_a_coefficient(tmp_path):
    """bif_gssf_xi_tangent fixes the coefficient of curv_f2_xi2_H (|xi-tan|^2
    = 1) and keeps the term's value; on c08 as a bi-f check the reduction
    agrees with the full equation."""
    text = _catalog_text("c08_hopf_torus", "kind = fbh",
                         "kind = bif\ncorollary = bif_gssf_xi_tangent")
    code, out, err = run_cli(["check", write(tmp_path, text)])
    assert code == 0, err
    assert "corollary: bif_gssf_xi_tangent" in out
    assert "reduction_agreement: true" in out.splitlines()


# Reductions of `residuals.COROLLARIES` checked on a catalog scenario:
# (corollary, scenario, the [mode] kind, [flags] lines added).  A corollary
# that replaces a row (a value or a coefficient) is checked where that row
# is nonzero.  The other eight only drop rows that their flags make vanish,
# so no example has a nonzero substituted row (ROADMAP item 10 names them);
# c07 is complex, so minimal in a Kaehler ambient, and every row of its
# f-biharmonic equation vanishes.
REDUCTIONS = [
    ("fbh_gcsf_complex", "c07_complex_curve", "fbh", ""),
    ("fbh_gcsf_complex_parallel", "c07_complex_curve", "fbh", ""),
    ("fbh_gcsf_hypersurface", "c18_hypersphere_cp2", "fbh", ""),
    ("fbh_gssf_invariant", "c15_invariant_curve", "fbh", ""),
    ("bif_gcsf_complex_parallel", "c07_complex_curve", "bif", ""),
    ("bif_gcsf_curve_parallel", "c17_circle_c1", "bif", ""),
    ("bif_gcsf_hypersurface_cmc", "c18_hypersphere_cp2", "bif", "cmc = asserted\n"),
    ("bif_gssf_invariant", "c15_invariant_curve", "bif", ""),
    ("bif_gssf_anti_invariant", "c16_xi_normal_curve", "bif", ""),
    ("bif_gssf_xi_normal", "c16_xi_normal_curve", "bif", ""),
]


@pytest.mark.parametrize("corollary,name,kind,flags", REDUCTIONS,
                         ids=[case[0] for case in REDUCTIONS])
def test_corollary_reduces_its_equation_on_a_catalog_scenario(tmp_path, corollary, name, kind,
                                                               flags):
    """`check` with `[mode] corollary` agrees with the full equation, its
    flags verified; every row the corollary replaces is nonzero there
    somewhere, coefficient times value."""
    text = _catalog_text(name, "kind = fbh", f"kind = {kind}\ncorollary = {corollary}")
    path = write(tmp_path, text.replace("[flags]\n", "[flags]\n" + flags))
    code, out, err = run_cli(["check", path])
    assert code == 0, err
    assert f"corollary: {corollary}" in out
    assert "reduction_agreement: true" in out.splitlines()
    cor = residuals.COROLLARIES[corollary]
    replaced = {key for key, value in cor.substitutions.items() if value is not None}
    rows = [k for k, term in enumerate(residuals.EQUATIONS[cor.equation])
            if term.name in replaced | set(cor.coefficients)]
    assert bool(rows) == (corollary in ("fbh_gcsf_hypersurface", "bif_gcsf_hypersurface_cmc"))
    for k in rows:
        size = max(np.abs(mat.corrected[k][:, None] * mat.fields[k]).max()
                   for mat in (residuals.term_matrix(ev, cor.equation, corollary)
                               for ev in _validate(load_scenario(path, validate=False))))
        assert size > 1e-3, (corollary, cor.equation, k)


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
    """A NaN direct field in the second of c08's three blocks (16 points a
    block) makes its mode deltas NaN; the maxima keep it, so `check` exits
    2."""
    _force_block_points(monkeypatch, 16)
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


def test_audit_reading_does_not_depend_on_point_order(tmp_path):
    """The lemgene2 reading of `audit` is that of the maxima of its two
    intrinsic deltas over all points, whichever point comes first: c08 with
    its u axis started at 5.2360, the same six u nodes modulo 2 pi, first
    samples a point where both deltas are round-off and the printed
    double-Ricci form reads smaller, and keeps c08's reading."""
    with open(scenario_path("c08_hopf_torus"), encoding="utf-8") as fh:
        text = fh.read()
    old = "u = [0.0, 6.283185307179586, periodic]"
    assert old in text
    path = write(tmp_path, text.replace(
        old, "u = [5.235987755982988, 11.519173063162574, periodic]"))
    for scenario in (scenario_path("c08_hopf_torus"), path):
        code, out, err = run_cli(["audit", scenario])
        assert code == 0, err
        assert "lemgene2_reading: single intrinsic Ricci\n" in out, scenario


def _nan_at_a_later_point(values):
    """Copy of per-point values with a NaN at the last point: Python's max
    keeps its first argument and drops a NaN found later."""
    out = np.array(values, dtype=float)
    out[-1] = np.nan
    return out


@pytest.mark.parametrize("command", ["audit", "props"])
def test_nan_residual_fails_audit_and_props(tmp_path, monkeypatch, command):
    """One NaN residual, at the last point of the cylinder's second block
    (16 points a block), fails `audit` (a NaN lemgene3 delta) and `props` (a
    NaN |B|^2, so a NaN identity residual): the maxima keep it, and each
    exits 2."""
    _force_block_points(monkeypatch, 16)
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
        produce = calculus.TRACE_TERMS["b_norm2"]

        def poisoned(ev):
            blocks.append(ev)
            out = produce(ev)
            return _nan_at_a_later_point(out) if len(blocks) == 2 else out

        monkeypatch.setitem(calculus.TRACE_TERMS, "b_norm2", poisoned)
    code, out, err = run_cli([command, path])
    assert [len(ev) for ev in blocks] == [16, 4]
    assert code == 2, err
    assert "pass: false" in out
    assert ("max_delta: nan" if command == "audit" else "identity_residual: nan") in out


def _point_orders(recorder):
    """The jet order of each point of each recorded `Evaluation`."""
    return [order for size, order in recorder.of("calculus.Evaluation.__init__")
            for _ in range(size)]


def test_check_builds_one_evaluation_per_sample_point(recorder):
    """`check` evaluates each sample point once: validation's evaluation
    blocks are the ones the command consumes."""
    path = scenario_path("c17_circle_c1")
    points = len(load_scenario(path, validate=False).sample_points())
    code, _out, _err = run_cli(["check", path])
    assert code == 0
    assert _point_orders(recorder).count(4) == points


@pytest.mark.parametrize("name,blocks", [("c13_hypersphere_r4", [16] * 4),
                                         ("c02_curve_sasakian", [12]),
                                         ("c13_hypersphere_r4", [64])])
def test_check_builds_the_trace_terms_once_per_block(monkeypatch, recorder, name, blocks):
    """No trace term is produced twice for one block of points: on c13 (64
    points, one block under the rule, four in blocks of 16) each block
    produces the same terms, once each, at order 4, for all its points."""
    if len(blocks) > 1:  # the rule makes every catalog scenario one block
        _force_block_points(monkeypatch, blocks[0])
    code, _out, err = run_cli(["check", scenario_path(name)])
    assert code == 0, err
    produced = {}
    for (term, size, order), block in zip(recorder.of("calculus._produce_term"),
                                          recorder.subjects("calculus._produce_term")):
        assert order == 4
        produced.setdefault(id(block), (size, []))[1].append(term)
    assert [size for size, _terms in produced.values()] == blocks
    terms = [sorted(terms) for _size, terms in produced.values()]
    assert all(len(set(names)) == len(names) > 0 for names in terms)
    assert all(names == terms[0] for names in terms)


def test_check_leaves_the_terms_it_does_not_read(recorder):
    """An fbh `check` on c02 (contact) produces only the trace terms it
    reads: none of the bi-f-harmonic weight terms."""
    code, _out, err = run_cli(["check", scenario_path("c02_curve_sasakian")])
    assert code == 0, err
    produced = {term for term, _size, _order in recorder.of("calculus._produce_term")}
    assert {"delta_perp_h_pos", "xi_nor", "kl_H"} <= produced
    assert not produced & {"tnb_grad_f", "tb_hess_f", "ric_grad_f", "grad_delta_f_pos"}


@pytest.mark.parametrize("command", ["check", "audit", "props"])
def test_hermitian_commands_produce_no_contact_term(recorder, command):
    """On c13 (a Hermitian ambient) no command produces a xi or eta trace
    term, and reading one is a ValueError, not a zero."""
    path = scenario_path("c13_hypersphere_r4")
    code, _out, err = run_cli([command, path])
    assert code in (0, 2), err
    contact = {"_xi", "eta_h", "xi_tan", "xi_nor", "xi_tan_norm2", "eta_grad_f"}
    produced = {term for term, _size, _order in recorder.of("calculus._produce_term")}
    assert produced and not produced & contact
    ev = calculus.evaluate(load_scenario(path, validate=False).immersion, [[0.3, 0.4, 0.5]])
    for term in sorted(contact):
        with pytest.raises(ValueError, match="contact ambient"):
            getattr(ev, term)


# The entries of `calculus.TRACE_TERMS` that are field values, not trace
# terms: G, g^-1, dpsi and the intrinsic Christoffels.
FIELD_VALUES = {"_G", "_ginv", "_dpsi", "_gam"}
# The entries `energy` reads, and `variation` (the bitension and the
# curvature operator of tau2 too).
QUADRATURE_ENTRIES = {"energy": FIELD_VALUES,
                      "variation": FIELD_VALUES | {"bitension", "curvature_operator"}}
# The entries the flag pre-checks produce: on c04 (cmc and parallel_H) the
# two deviations, H, nabla-perp H, its field and the connection it is
# derived with; on c08 also those of xi_tangent and anti_invariant, with
# the normal part of xi and the structure decomposition they read.
PRECHECK_ENTRIES = {"c04_small_sphere": {"cmc", "H", "parallel_H", "_nabla_perp_h",
                                         "nabla_perp_h_field", "_A"}}
PRECHECK_ENTRIES["c08_hopf_torus"] = PRECHECK_ENTRIES["c04_small_sphere"] | {
    "xi_tangent", "xi_nor", "_xi", "projectors", "structure", "anti_invariant",
    "_decomposition_norms", "decomposition_operators", "frames", "structure_tensor"}


def _produced_once_per_block(recorder):
    """The table entries produced, by name, each asserted once per block."""
    produced = [(term, id(block)) for (term, _size, _order), block in
                zip(recorder.of("calculus._produce_term"),
                    recorder.subjects("calculus._produce_term"))]
    assert len(set(produced)) == len(produced)
    return {term for term, _block in produced}


def test_quadrature_commands_validate_at_order_3_without_trace_terms(recorder):
    """On c08, whose quadrature nodes are its sample points, `energy` and
    `variation` validate the sample points at the order they read, 3 and 4,
    and take those blocks; they produce once the entries the flag
    pre-checks read (of the trace terms, only H and the normal part of xi)
    and those the command reads, none else.  `check` validates at order 4
    and produces its trace terms for its one block of 36 points."""
    path = scenario_path("c08_hopf_torus")
    sample = load_scenario(path, validate=False).sample_points()
    for command, order in (("energy", 3), ("variation", 4), ("check", 4)):
        recorder.calls.clear()
        code, _out, err = run_cli([command, path])
        assert code == 0, err
        assert recorder.of("calculus.evaluate_batches") == [(36, order)], command
        assert np.array_equal(recorder.subjects("calculus.evaluate_batches")[0], sample), command
        produced = _produced_once_per_block(recorder)
        read = QUADRATURE_ENTRIES.get(command, set()) | PRECHECK_ENTRIES["c08_hopf_torus"]
        assert (produced == read) == (command != "check"), command
        assert {record[1:] for record in recorder.of("calculus._produce_term")} == {
            (36, order)}, command


def test_open_axis_quadrature_commands_validate_the_sample_blocks_without_trace_terms(
        monkeypatch, recorder):
    """On c04, whose quadrature nodes are not its sample points, `energy`
    and `variation` make one validation pass, over the sample points, then
    the nodes, at the order the command reads (3, 4); the flag pre-checks
    read the blocks of the sample points cut from it, in blocks of 16
    points too, where the third block is cut.  Each block produces once
    the entries the flag pre-checks and the command read, none else."""
    path = scenario_path("c04_small_sphere")
    sc = load_scenario(path, validate=False)
    sample = sc.sample_points()
    passed = np.vstack([sample, sc.quadrature().points])
    for points, sizes in ((None, (36,)), (16, (16, 16, 4))):
        if points:
            _force_block_points(monkeypatch, points)
        for command, order in (("energy", 3), ("variation", 4)):
            recorder.calls.clear()
            code, _out, err = run_cli([command, path])
            assert code in (0, 2), err
            assert recorder.of("calculus.evaluate_batches") == [(72, order)], command
            assert same_bits(recorder.subjects("calculus.evaluate_batches")[0], passed), command
            assert recorder.of("calculus.verify_flags") == [(sizes, (order,) * len(sizes))]
            checked, = recorder.subjects("calculus.verify_flags")
            assert same_bits(np.concatenate(checked), sample), command
            assert _produced_once_per_block(recorder) == (
                QUADRATURE_ENTRIES[command] | PRECHECK_ENTRIES["c04_small_sphere"]), command


@pytest.mark.parametrize("command", ["energy", "variation"])
@pytest.mark.parametrize("name", ["c04_small_sphere", "c08_hopf_torus"])
def test_quadrature_commands_release_the_blocks_before_the_densities(recorder, name, command):
    """No evaluation block of `energy` or `variation` is alive when the
    energy densities are computed: neither c08's validated blocks, which
    the command takes from validation's list, nor c04's sample and node
    blocks."""
    evaluations = lambda: recorder.subjects("calculus.Evaluation.__init__")
    alive = []
    recorder.at("variational._densities", lambda: alive.append(
        sum(ref() is not None for ref in evaluations())))
    code, _out, err = run_cli([command, scenario_path(name)])
    assert code in (0, 2), err
    assert evaluations() and alive == [0]


# The catalog scenarios whose axes are all periodic: their trapezoid nodes
# are their sample points.
ALL_PERIODIC = ("c01_circle_flat", "c02_curve_sasakian", "c03_lagrangian_torus",
                "c08_hopf_torus", "c09_curve_kenmotsu", "c10_curve_cp1",
                "c11_hopf_torus_deformed", "c12_torus_deformed_generic",
                "c15_invariant_curve", "c16_xi_normal_curve", "c17_circle_c1")


def test_quadrature_commands_evaluate_each_point_once(recorder, catalog_names):
    """The (jet order, points) of every `calculus.evaluate` call that
    `energy` and `variation` make on the 18 catalog scenarios, runs of one
    order joined: one run per job, at the order the command reads (3 for
    `energy`, which validation needs, 4 for `variation`).  The 11 whose
    axes are all periodic evaluate their sample points, which are their
    quadrature nodes; the other 7 their sample points followed by their
    quadrature nodes."""
    assert len(catalog_names) == 18 and set(ALL_PERIODIC) < set(catalog_names)
    for name in catalog_names:
        sc = load_scenario(scenario_path(name), validate=False)
        for command, order in (("energy", 3), ("variation", 4)):
            recorder.calls.clear()
            code, _out, err = run_cli([command, scenario_path(name)])
            assert code in (0, 2), err
            ledger = zip([order for _size, order in recorder.of("calculus.evaluate")],
                         recorder.subjects("calculus.evaluate"))
            runs = [(o, np.concatenate([p for _o, p in run]))
                    for o, run in itertools.groupby(ledger, key=lambda entry: entry[0])]
            points = sc.sample_points()
            if name not in ALL_PERIODIC:
                points = np.concatenate([points, sc.quadrature().points])
            assert [o for o, _p in runs] == [order], (name, command)
            assert np.array_equal(runs[0][1], points), (name, command)


STRUCTURE = ("spaces._Hermitian.structure_jets", "spaces._Contact.structure_jets")


def test_energy_builds_no_structure_tensors(recorder):
    """`energy` reads no structure tensor, so on c04 (whose flags read none
    either) neither validation nor the evaluation of the quadrature nodes
    builds them."""
    code, _out, err = run_cli(["energy", scenario_path("c04_small_sphere")])
    assert code == 0, err
    assert recorder.of(*STRUCTURE) == []


def test_check_builds_the_structure_tensors_once_per_block(recorder):
    """`check` on c08 reads the structure tensors of its one block of 36
    points (the trace terms and the flag pre-checks): they are built once,
    on first read, after `evaluate` returned (records are taken as calls
    return, so one built inside `evaluate` would come first)."""
    code, _out, err = run_cli(["check", scenario_path("c08_hopf_torus")])
    assert code == 0, err
    names = [call[0] for call in recorder.calls if call[0] in STRUCTURE + ("calculus.evaluate",)]
    assert names == ["calculus.evaluate", "spaces._Contact.structure_jets"]
    assert recorder.of(*STRUCTURE) == [(36, 0)]


@pytest.mark.parametrize("command,expected", [("audit", 0), ("props", 2)])
def test_audit_and_props_build_one_evaluation_per_sample_point(recorder, command, expected):
    """One evaluation per sample point of c08 (36), at order 4 for `audit`
    and at order 3 for `props`, which reads no fourth derivative."""
    code, _out, err = run_cli([command, scenario_path("c08_hopf_torus")])
    assert code == expected, err
    assert _point_orders(recorder) == [{"audit": 4, "props": 3}[command]] * 36


def test_props_renders_the_same_bytes_from_order_3_and_order_4_blocks(monkeypatch,
                                                                      catalog_names):
    """`props` reads no fourth derivative: on every catalog scenario, its
    report and exit code from the order-3 blocks it validates are those
    from order-4 blocks, byte for byte (the phi H ratios of c16, quotients
    of round-off, included)."""
    assert len(catalog_names) == 18
    for name in catalog_names:
        runs = []
        for order in (3, 4):
            monkeypatch.setitem(cli.ORDERS, "props", order)
            code, out, err = run_cli(["props", scenario_path(name)])
            runs.append((code, strip_volatile(out), err))
        assert runs[0] == runs[1], name


def test_audit_computes_each_quantity_once_per_point(monkeypatch, recorder):
    """`audit` on c08 (36 points in blocks of 16, 16 and 4, anti-invariant
    asserted), counted per block: two rough Laplacians per block (tr
    nabla^2 H and tr nabla^2 grad f), one structure decomposition per block
    shared by validation and the audits, one identity suite per block."""
    _force_block_points(monkeypatch, 16)
    code, _out, err = run_cli(["audit", scenario_path("c08_hopf_torus")])
    assert code == 0, err
    blocks = [(16, 4), (16, 4), (4, 4)]
    assert sorted(recorder.of("calculus.Evaluation.rough_laplacian")) == sorted(blocks * 2)
    assert [(size, order) for term, size, order in recorder.of("calculus._produce_term")
            if term == "decomposition_operators"] == blocks
    assert recorder.of("audits.identity_suite") == blocks


def test_props_measures_each_flag_once(monkeypatch):
    """The checkers of one `props` run share their hypotheses: on c08 each
    flag is measured once after validation's flag pre-checks (cmc and
    xi_tangent were measured 4 times, hypersurface twice), and the report
    is the one of a run without the recorder."""
    path = scenario_path("c08_hopf_torus")
    code, out, err = run_cli(["props", path])
    recorder = record(monkeypatch)
    recorded_code, recorded_out, recorded_err = run_cli(["props", path])
    assert (recorded_code, strip_volatile(recorded_out), recorded_err) == (
        code, strip_volatile(out), err)
    checked = [call[0] for call in recorder.calls].index("calculus.verify_flags")
    assert sorted(call[1:] for call in recorder.calls[checked:]
                  if call[0] == "calculus.flag_deviation") == [
        ("cmc",), ("hypersurface",), ("xi_tangent",)]


def test_props_reads_the_deviations_validation_measured(recorder):
    """`props` on c08 joins into its table the per-point deviations of cmc
    and xi_tangent that validation's flag pre-checks produced: no table
    entry is produced twice for the block, and those two are produced
    before `verify_flags` returns."""
    code, _out, err = run_cli(["props", scenario_path("c08_hopf_torus")])
    assert code == 2, err
    _produced_once_per_block(recorder)
    checked = [call[0] for call in recorder.calls].index("calculus.verify_flags")
    assert {"cmc", "xi_tangent"} <= {call[1] for call in recorder.calls[:checked]
                                     if call[0] == "calculus._produce_term"}


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


SAMPLE_COMMANDS = ("check", "audit", "props")
QUADRATURE_COMMANDS = ("energy", "variation")


@pytest.mark.parametrize("name,commands", [
    pytest.param(name, commands, id=name) for name, commands in (
        ("c16_xi_normal_curve", SAMPLE_COMMANDS),
        ("c08_hopf_torus", SAMPLE_COMMANDS + QUADRATURE_COMMANDS),
        ("c18_hypersphere_cp2", SAMPLE_COMMANDS),
        ("c04_small_sphere", QUADRATURE_COMMANDS))])
def test_reports_do_not_depend_on_block_size(monkeypatch, name, commands):
    """Reports are byte-identical whether the points are evaluated one per
    block or in the blocks of the rule (`block_points`): `check`, `audit`
    and `props` on the phi H ratios of c16 (quotients of round-off), on a
    contact torus (36 points, one block) and on a curved Hermitian
    hypersurface (3 parameters, one block of 64); `energy` and `variation`,
    whose quadrature nodes are one block under the rule, on the two contact
    surfaces c04 and c08.  At each block size the sample commands share one
    validation; `energy` and `variation` make their own, over the nodes too."""
    path = scenario_path(name)
    imm = load_scenario(path, validate=False).immersion
    reports = {}
    for size in (calculus.block_points(imm.param_dim, imm.ambient.chart_dim, 4), 1):
        if size == 1:
            _force_block_points(monkeypatch, 1)
        sc = load_scenario(path, validate=False)
        validated = list(_validate(sc))
        assert max(map(len, validated)) == min(size, len(sc.sample_points()))
        monkeypatch.setattr(cli, "_validate", lambda sc, order, nodes: (
            iter(validated) if nodes is None else _validate(sc, order, nodes)))
        for command in commands:
            code, out, err = run_cli([command, path])
            assert code in (0, 2), (command, err)
            reports.setdefault(command, []).append((code, strip_volatile(out), err))
    for command, (batched, single) in reports.items():
        assert single == batched, command
