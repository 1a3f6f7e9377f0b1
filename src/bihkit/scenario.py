"""Scenario files: a sectioned key-value format, parsing and validation.

Grammar (one logical statement per line; `#` starts a comment):

    [section]
    key = value
    value  := scalar | '[' scalar (',' scalar)* ']'
    scalar := number | true | false | bareword | "quoted string"

Sections and keys (any other section or key is an error):

    [ambient]     kind = euclidean_complex | fubini_study | complex_hyperbolic
                  | sasakian_sphere | cosymplectic_flat | kenmotsu_hyperbolic
                  | abstract_gcsf | abstract_gssf; the kind's parameters are
                  its constructor's: n = 1..6, hol, ctilde, dim = 1..32 and,
                  as quoted expressions, alpha, beta, f1, f2, f3; omitted,
                  hol is 4 on fubini_study and -4 on complex_hyperbolic,
                  ctilde is 1 and dim is 4 (the constructors' defaults)
    [immersion]   params = [u, v], distinct names; one axis per parameter:
                  u = [lo, hi, periodic|open]; map = ["expr", ...]
    [weight]      f = "expr"       (defaults to 1)
    [flags]       name = asserted | denied | unknown, for hypersurface, curve,
                  complex, lagrangian, invariant, anti_invariant, xi_tangent,
                  xi_normal, parallel_H, cmc (unlisted flags are unknown)
    [sampling]    grid = [n1, ...]   (defaults to 8 nodes per axis);
                  margin = 0.05; seed = 0   (the defaults)
    [tolerances]  optional non-negative numbers (defaults): mode_agreement
                  (check; 1e-6), flags (flag pre-checks and props
                  hypotheses; 1e-8), identity (props; 1e-8), reduction
                  (corollary check; 1e-10), audit (1e-6), variation (1e-5)
    [mode]        residual = both|direct|theorem; errata = on|off;
                  kind = fbh|bif|bif_general (the equation family);
                  corollary = name (a registered corollary reduction of
                  this scenario's equation, its flags asserted)
    [variation]   components = ["expr", ...]   (optional; the CLI builds a
                  windowed default otherwise)

Validation parses every expression (nesting 64 levels at most), enforces
grid >= 4 nodes per axis and at most MAX_SAMPLE_POINTS sample points, checks
periodic axes close up (the endpoint values of the map agree to 1e-10 times the
larger of 1 and their largest magnitude), checks chart membership, rank, finite
metrics and a finite positive weight at the sample points and runs the numeric
pre-check of every asserted or denied flag; on a curvature-model ambient, the
map and the coefficients must be finite at the sample points instead, and a
flag other than curve or hypersurface cannot be asserted or denied.
Errors name their section and key where known; a syntax error gives the
byte offset of its line, a file that is not UTF-8 that of its first bad byte.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

try:  # hashlib loads OpenSSL (+3.6 MB resident) for one digest: lean module first
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .calculus import (FLAG_NAMES, FLAG_TOL, FlagError, Immersion, PointError,
                       WeightError, evaluate_batches, map_jets, verify_flags)
from .expr import ParseError, eval_on_jets, parse
from .residuals import COROLLARIES, equation_for
from .spaces import SPACES, SpaceError, chart_jets, make_space
from .variational import QuadratureGrid, periodic_nodes, tensor_grid

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario_text"]

# Upper bound on the sample points of one scenario: validation keeps the
# evaluation blocks of every point until the command has used them.
MAX_SAMPLE_POINTS = 1024

TOLERANCES = {"mode_agreement": 1e-6, "flags": FLAG_TOL, "identity": 1e-8, "reduction": 1e-10,
              "audit": 1e-6, "variation": 1e-5}

# Allowed values of the [mode] keys; corollary names come from COROLLARIES.
MODE_CHOICES = {
    "residual": ("both", "direct", "theorem"),
    "errata": ("on", "off"),
    "kind": ("fbh", "bif", "bif_general"),
    "corollary": tuple(COROLLARIES),
}

# The keys of each section: [ambient] adds its kind's parameters, [immersion]
# one axis per parameter.
SECTION_KEYS = {
    "ambient": ("kind",),
    "immersion": ("params", "map"),
    "weight": ("f",),
    "flags": FLAG_NAMES,
    "sampling": ("grid", "margin", "seed"),
    "tolerances": tuple(TOLERANCES),
    "mode": tuple(MODE_CHOICES),
    "variation": ("components",),
}


class ScenarioError(ValueError):
    def __init__(self, message, section=None, key=None, offset=None):
        loc = [text for text, value in ((f"section [{section}]", section), (f"key {key!r}", key),
                                        (f"offset {offset}", offset)) if value is not None]
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.section = section
        self.key = key
        self.offset = offset


def _parse_scalar(text, section, key, offset):
    text = text.strip()
    if not text:
        raise ScenarioError("empty value", section, key, offset)
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith('"'):
        if not (len(text) >= 2 and text.endswith('"')):
            raise ScenarioError("unterminated string", section, key, offset)
        return text[1:-1]
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    if all(c.isalnum() or c == "_" for c in text):
        return text
    raise ScenarioError(f"malformed scalar {text!r}", section, key, offset)


def _split_array(body, section, key, offset):
    # split on commas not inside quotes
    items, depth, cur = [], False, []
    for ch in body:
        if ch == '"':
            depth = not depth
            cur.append(ch)
        elif ch == "," and not depth:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or items:
        items.append("".join(cur))
    return [_parse_scalar(item, section, key, offset) for item in items]


def parse_scenario_text(text):
    """Raw parse into {section: {key: value}} with strict errors."""
    sections = {}
    current = None
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.split("#", 1)[0].strip()
        line_offset = offset
        offset += len(line.encode())  # in bytes, as the not-UTF-8 error's
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ScenarioError("malformed section header", offset=line_offset)
            name = stripped[1:-1].strip()
            if not name:
                raise ScenarioError("empty section name", offset=line_offset)
            if name in sections:
                raise ScenarioError(f"duplicate section [{name}]", offset=line_offset)
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ScenarioError("statement outside any section", offset=line_offset)
        if "=" not in stripped:
            raise ScenarioError("expected key = value", current, offset=line_offset)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not all(c.isalnum() or c == "_" for c in key):
            raise ScenarioError(f"malformed key {key!r}", current, offset=line_offset)
        if key in sections[current]:
            raise ScenarioError(f"duplicate key {key!r}", current, key, line_offset)
        if value.startswith("["):
            if not value.endswith("]"):
                raise ScenarioError("unterminated array", current, key, line_offset)
            sections[current][key] = _split_array(value[1:-1], current, key, line_offset)
        else:
            sections[current][key] = _parse_scalar(value, current, key, line_offset)
    return sections


@dataclass
class AxisSpec:
    name: str
    lo: float
    hi: float
    periodic: bool


@dataclass
class Scenario:
    """Validated scenario: ambient, immersion, sampling and mode options."""

    path: str
    digest: str
    ambient_kind: str
    immersion: Immersion
    axes: list
    grid_sizes: list
    margin: float
    seed: int
    tolerances: dict = field(default_factory=dict)
    mode: dict = field(default_factory=dict)
    variation: list = None
    _grid: QuadratureGrid = field(default=None, init=False, repr=False, compare=False)

    def sample_points(self):
        """Deterministic residual-evaluation grid (margin-shaved)."""
        axes_nodes = []
        for ax, n in zip(self.axes, self.grid_sizes):
            shave = self.margin * (ax.hi - ax.lo)
            axes_nodes.append(periodic_nodes(ax.lo, ax.hi, n)[0] if ax.periodic
                              else np.linspace(ax.lo + shave, ax.hi - shave, n))
        return tensor_grid(axes_nodes)

    def quadrature(self):
        """The quadrature grid of the axes, built on first use: validation
        takes its nodes, `energy` and `variation` its weights too."""
        if self._grid is None:
            self._grid = QuadratureGrid([(ax.lo, ax.hi, n, ax.periodic)
                                         for ax, n in zip(self.axes, self.grid_sizes)])
        return self._grid

    def tolerance(self, name):
        return float(self.tolerances.get(name, TOLERANCES[name]))

    def default_variation(self):
        """Windowed smooth variation: periodic waves, endpoint-vanishing
        windows on open axes."""
        if self.variation:
            return self.variation
        window = "".join(f"*(({ax.name}) - ({ax.lo!r}))*(({ax.hi!r}) - ({ax.name}))"
                         for ax in self.axes if not ax.periodic)
        out = []
        for a in range(self.immersion.ambient.chart_dim):
            wave = " + ".join(
                f"sin({k + a + 1}*{ax.name} + {0.37 * (a + 1):.2f})"
                for k, ax in enumerate(self.axes)
            )
            out.append(f"0.1*({wave}){window}")
        return out


@cache
def _ambient_keys(kind):
    """{key: whether it is required} of an ambient kind's parameters, from
    its constructor: a parameter with a default may be omitted."""
    return {name: p.default is p.empty
            for name, p in inspect.signature(SPACES[kind]).parameters.items()}


_EXPRESSION_KEYS = ("alpha", "beta", "f1", "f2", "f3")

# Largest complex/contact rank n and abstract chart dimension accepted.  A
# 16-point curve peaks at 0.5-0.7 GB with n = 6, at 2.2-3.1 GB with n = 8.
_MAX_RANK = {"n": 6, "dim": 32}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and bool(np.isfinite(value)))


def _build_ambient(amb, fail):
    """The space of `amb`, its kind and keys known: each given parameter's
    value is checked, and each parameter without a default must be given."""
    kind = amb["kind"]
    for key, required in _ambient_keys(kind).items():
        value = amb.get(key)
        if key not in amb:
            if required:
                fail(f"ambient kind {kind!r} needs key {key!r}", "ambient", key)
        elif key in _MAX_RANK:
            if not _is_int(value) or not 1 <= value <= _MAX_RANK[key]:
                fail(f"{key} must be an integer in 1..{_MAX_RANK[key]}, got {value!r}",
                     "ambient", key)
        elif key in _EXPRESSION_KEYS:
            if not isinstance(value, str):
                fail(f"{key} must be a quoted expression, got {value!r}", "ambient", key)
        elif not _is_real(value):
            fail(f"{key} must be a finite number, got {value!r}", "ambient", key)
    try:
        return make_space(kind, **{key: amb[key] for key in amb if key != "kind"})
    except (SpaceError, ParseError) as exc:
        fail(f"ambient construction failed: {exc}", "ambient", "kind")


def parse_scenario(text, path="<memory>", validate=True):
    raw = parse_scenario_text(text)

    def fail(message, section=None, key=None):
        raise ScenarioError(message, section, key)

    for required in ("ambient", "immersion"):
        if required not in raw:
            fail(f"missing [{required}] section", required)

    kind = raw["ambient"].get("kind")
    if not isinstance(kind, str) or kind not in SPACES:
        fail(f"unknown or missing ambient kind {kind!r}", "ambient", "kind")
    imm_block = raw["immersion"]
    params = imm_block.get("params")
    if not (isinstance(params, list) and params and all(isinstance(p, str) for p in params)):
        fail("params must be a list of names", "immersion", "params")
    known = {**SECTION_KEYS, "ambient": ("kind", *_ambient_keys(kind)),
             "immersion": (*SECTION_KEYS["immersion"], *params)}
    for section, block in raw.items():
        if section not in known:
            fail(f"unknown section; the sections are {', '.join(known)}",
                 section, next(iter(block), None))
        for key in block:
            if key not in known[section]:
                fail(f"unknown key; [{section}] takes {', '.join(known[section])}",
                     section, key)
    space = _build_ambient(raw["ambient"], fail)

    axes = []
    for name in params:
        if name in params[:len(axes)]:
            fail(f"parameter {name!r} is repeated", "immersion", "params")
        spec = imm_block.get(name)
        if (
            not isinstance(spec, list)
            or len(spec) != 3
            or not all(_is_real(v) for v in spec[:2])
            or spec[2] not in ("periodic", "open")
        ):
            fail(f"axis {name!r} must be [lo, hi, periodic|open]", "immersion", name)
        lo, hi = float(spec[0]), float(spec[1])
        if not 0.0 < hi - lo < math.inf:
            fail(f"axis {name!r} needs hi > lo and a finite hi - lo", "immersion", name)
        axes.append(AxisSpec(name, lo, hi, spec[2] == "periodic"))
    comp = imm_block.get("map")
    if not isinstance(comp, list) or not all(isinstance(cstr, str) for cstr in comp):
        fail("map must be a list of component expressions", "immersion", "map")

    weight = raw.get("weight", {}).get("f", "1")
    if not isinstance(weight, str):
        fail("f must be a quoted expression", "weight", "f")
    flags = {}
    for name, state in raw.get("flags", {}).items():
        if state not in ("asserted", "denied", "unknown"):
            fail(f"flag state must be asserted|denied|unknown", "flags", name)
        flags[name] = state

    try:
        immersion = Immersion.from_strings(params, space, comp, flags=flags)
    except (ParseError, ValueError) as exc:
        fail(f"immersion construction failed: {exc}", "immersion", "map")
    try:  # the weight apart from the map, so that its errors name [weight] f
        immersion.weight = parse(weight, params)
    except ParseError as exc:
        fail(f"weight rejected: {exc}", "weight", "f")

    sampling = raw.get("sampling", {})
    grid_sizes = sampling.get("grid", [8] * len(params))
    if not isinstance(grid_sizes, list) or len(grid_sizes) != len(params):
        fail("grid must list one node count per parameter", "sampling", "grid")
    if not all(_is_int(g) for g in grid_sizes):
        fail(f"grid node counts must be integers, got {grid_sizes!r}", "sampling", "grid")
    if any(g < 4 for g in grid_sizes):
        fail("grid needs at least 4 nodes per axis", "sampling", "grid")
    if math.prod(grid_sizes) > MAX_SAMPLE_POINTS:
        fail(f"grid has {math.prod(grid_sizes)} sample points, at most "
             f"{MAX_SAMPLE_POINTS} are allowed", "sampling", "grid")
    margin = sampling.get("margin", 0.05)
    if not _is_real(margin) or not 0.0 <= margin < 0.5:
        fail(f"margin must be a number in [0, 0.5), got {margin!r}", "sampling", "margin")
    seed = sampling.get("seed", 0)
    if not _is_int(seed):
        fail(f"seed must be an integer, got {seed!r}", "sampling", "seed")

    tolerances = raw.get("tolerances", {})
    for key, value in tolerances.items():
        if not _is_real(value) or value < 0:
            fail(f"tolerance must be a non-negative number, got {value!r}",
                 "tolerances", key)
    mode = raw.get("mode", {})
    for key, value in mode.items():
        if value not in MODE_CHOICES[key]:
            fail(f"{key} must be one of {', '.join(MODE_CHOICES[key])}, got {value!r}",
                 "mode", key)
    cor = COROLLARIES.get(mode.get("corollary"))
    if cor is not None:
        # the reduction holds only under its hypotheses, which validation
        # verifies numerically when they are asserted
        missing = [f for f in cor.flags if flags.get(f) != "asserted"]
        if missing:
            fail(f"corollary {cor.name!r} needs the flags {', '.join(missing)} asserted",
                 "mode", "corollary")
        eq_id = equation_for(immersion, mode.get("kind", "fbh"))
        if cor.equation != eq_id:
            fail(f"corollary {cor.name!r} reduces {cor.equation}, but this scenario's "
                 f"equation is {eq_id}", "mode", "corollary")
    variation = raw.get("variation", {}).get("components")
    if variation is not None:
        if not (isinstance(variation, list) and len(variation) == space.chart_dim
                and all(isinstance(v, str) for v in variation)):
            fail(f"components must list {space.chart_dim} quoted expressions",
                 "variation", "components")
        try:
            for v in variation:
                parse(v, params)
        except ParseError as exc:
            fail(f"variation component rejected: {exc}", "variation", "components")

    scenario = Scenario(path=path, digest=sha256(text.encode()).hexdigest(),
                        ambient_kind=space.kind, immersion=immersion, axes=axes,
                        grid_sizes=grid_sizes, margin=float(margin), seed=seed,
                        tolerances=tolerances, mode=mode, variation=variation)
    if validate:
        _validate(scenario, 3)
    return scenario


def _map_values(imm, points):
    """The map's values at the rows of a (P, m) array of parameter points,
    numpy's warnings silenced: an overflow shows as a non-finite value."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return map_jets(imm, points, 0).point_values(len(points))


def _validate(sc, order=4, nodes=None):
    """Check the scenario at its sample points and return their evaluation
    blocks of jet order `order` >= 3 (3 suffices, as in `load_scenario`), in
    order, as an iterator that releases each block once taken.  Given
    `nodes`, a (N, m) array of quadrature nodes, one pass evaluates the
    sample points, then the nodes (not again where they are the sample
    points bit for bit, as on all-periodic axes), and it yields the node
    blocks instead, raising a failing node's error on reaching it: the
    errors of the sample points and the flags come first.  On a
    curvature-model ambient, where only the structural flags (curve,
    hypersurface) can be checked, the map's values at the sample points."""
    imm = sc.immersion
    points = sc.sample_points()
    blocks, node_blocks, node_error = [], [], None
    if not imm.ambient.has_metric:
        try:
            chart = _model_chart(imm, points)
        except ScenarioError:
            # name the first point that fails alone, as `evaluate_batches` does
            for point in points:
                _model_chart(imm, point[None])
            raise
    else:
        same = nodes is None or nodes.tobytes() == points.tobytes()
        # rank, chart membership, weight positivity at every sample point; the
        # pass cut at the first node (`Evaluation.split`)
        left = len(points)
        try:
            for ev in evaluate_batches(imm, points if same else np.vstack([points, nodes]),
                                       order):
                if 0 < left < len(ev):
                    head, ev = ev.split(left)
                    blocks.append(head)
                    left = 0
                (blocks if left else node_blocks).append(ev)
                left -= min(left, len(ev))
        except PointError as exc:
            # the blocks of the points before the failing one came first
            weight = isinstance(exc, WeightError)
            where = ("weight", "f") if weight else ("sampling", "grid")
            if left:  # a sample point, which a weight error names already
                raise ScenarioError(str(exc) if weight else
                                    f"sample point {exc.point} rejected: {exc}", *where) from None
            node_error = ScenarioError(f"quadrature node {exc.point} rejected: {exc}", *where)
    # periodic axes must close up: the map at both ends of every periodic
    # axis in one evaluation, again axis by axis only to name a failing one
    periodic = [(i, ax) for i, ax in enumerate(sc.axes) if ax.periodic]
    ends = np.repeat(points[:1], 2 * len(periodic), axis=0)
    for k, (i, ax) in enumerate(periodic):
        ends[2 * k, i], ends[2 * k + 1, i] = ax.lo, ax.hi
    try:
        values = _map_values(imm, ends) if periodic else None
    except (ValueError, ArithmeticError):
        values = None
    for k, (i, ax) in enumerate(periodic):
        pair = slice(2 * k, 2 * k + 2)
        if values is not None:
            a, b = values[pair]
        else:
            # a map that fails or overflows at an end does not close up
            try:
                a, b = _map_values(imm, ends[pair])
            except (ValueError, ArithmeticError) as exc:
                raise ScenarioError(f"axis {ax.name!r} declared periodic but the map fails "
                                    f"at its endpoints: {exc}", "immersion", ax.name) from None
        gap = float(np.max(np.abs(a - b)))
        # relative to the map's size: the round-off of sin(2 pi) grows with it
        if not gap <= 1e-10 * max(1.0, float(np.max(np.abs([a, b])))):
            raise ScenarioError(
                f"axis {ax.name!r} declared periodic but map endpoints differ by {gap:.3e}",
                "immersion", ax.name)
    # flag pre-checks; a curvature-model ambient has no blocks, so only its
    # structural flags can be checked
    try:
        verify_flags(imm, blocks, tol=sc.tolerance("flags"))
    except FlagError as exc:
        raise ScenarioError(f"flag pre-check failed: {exc}", "flags", exc.flag) from None
    if not imm.ambient.has_metric:
        return chart
    return _taken(blocks if same else node_blocks, node_error)


def _taken(blocks, error):
    """Yield `blocks` in order, each released once taken, then raise `error`
    if there is one."""
    while blocks:
        yield blocks.pop(0)
    if error:
        raise error


def _model_chart(imm, points):
    """The map's values at the rows of a (P, m) array of parameter points;
    a ScenarioError, naming the first row, where the map or a curvature
    coefficient at its values fails or is not finite at some row; numpy's
    warnings silenced."""
    space, where = imm.ambient, f"sample point {points[0].tolist()} rejected"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            chart = _map_values(imm, points)
        except (ValueError, ArithmeticError) as exc:
            raise ScenarioError(f"{where}: {exc}", "sampling", "grid") from None
        if not np.isfinite(chart).all():
            raise ScenarioError(f"{where}: map not finite", "sampling", "grid")
        env = dict(zip(space.coord_names, chart_jets(chart, 0)))
        keys = [key for key in _ambient_keys(space.kind) if key in _EXPRESSION_KEYS]
        for key, expr in zip(keys, space.coeffs):
            try:
                finite = np.isfinite(eval_on_jets(expr, env).point_values(len(points))).all()
            except (ValueError, ArithmeticError) as exc:
                raise ScenarioError(f"{where}: {exc}", "ambient", key) from None
            if not finite:
                raise ScenarioError(f"{where}: {key} not finite", "ambient", key)
    return chart


def load_scenario(path, validate=True):
    """Read, parse and (by default) validate a scenario file at jet order 3,
    keeping nothing: commands that reuse evaluations call `_validate`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text: {exc.reason}", offset=exc.start) from None
    return parse_scenario(text, path=str(path), validate=validate)
