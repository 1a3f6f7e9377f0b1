"""Shared helpers and fixtures of the test suite.

How a test counts: it takes the `recorder` fixture, which wraps each target
of one table, `RECORDED`, in every bihkit module that binds it (a method on
its class and on each bihkit subclass that defines it), as
`perfbench/tracing.py` does.  Each call of a target appends a record to
`recorder.calls` as it returns or raises: the target's name, then what the
table reads from the call, mostly its point count and jet order (a jet
operation records its name alone), with the table's `subject` of the call,
such as the points evaluated, as an attribute.  No test patches a target to
count it (`test_count_pins.py`), so a rename breaks one table entry, which
`test_traced_names.py` resolves."""

import functools
import glob
import importlib
import math
import os
import pkgutil
import weakref

import numpy as np
import pytest

import bihkit
from bihkit.calculus import evaluate, evaluate_batches
from bihkit.jets import Jet, JetError
from bihkit.scenario import load_scenario
from bihkit.spaces import christoffels_at

CATALOG = os.path.join(
    os.path.dirname(__file__), "..", "src", "bihkit", "scenarios"
)


def scenario_path(name):
    return os.path.abspath(os.path.join(CATALOG, name + ".scn"))


def coeff(jet, gamma):
    """Taylor coefficient of the multi-index `gamma` of a scalar jet."""
    return float(jet.c[jet.space.index_of[tuple(gamma)]])


def partial(jet, gamma):
    """Partial derivative of the multi-index `gamma` of a scalar jet (its
    coefficient times gamma!); JetError on a wrong length or too high an
    order."""
    gamma = tuple(gamma)
    if len(gamma) != jet.space.num_vars:
        raise JetError("multi-index length does not match num_vars")
    if sum(gamma) > jet.space.order:
        raise JetError(f"requested order {sum(gamma)} exceeds jet order {jet.space.order}")
    scale = float(math.prod(math.factorial(k) for k in gamma))
    return float(jet.c[jet.space.index_of[gamma]] * scale)


def same_bits(x, y):
    """Equal arrays, signed zeros included."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def metric_at(space, point):
    """The checked ambient metric at one chart point, from a one-row stack."""
    return christoffels_at(space, np.asarray(point, dtype=float)[None])[0][0]


def structure_at(space, point):
    """The structure tensors at one chart point, from a one-row stack."""
    return {key: val[0] for key, val in space.structure_at(np.asarray(point)[None]).items()}


def coeffs_at(space, point):
    """The curvature coefficients at one chart point, from a one-row stack."""
    return tuple(c[0] for c in space.curvature_coeffs_at(np.asarray(point)[None]))


def point_curvature_model(structure, G, tensors, coeffs):
    """The algebraic space-form curvature map (X, Y, Z) -> R(X, Y)Z at one
    point, with Python-float inner products a @ G @ b: the reference of the
    stacked `spaces.curvature_model`."""
    g = lambda a, b: float(a @ G @ b)
    if structure == "hermitian":
        alpha, beta = coeffs
        J = tensors["J"]

        def hermitian(X, Y, Z):
            R1 = g(Y, Z) * X - g(X, Z) * Y
            JX, JY, JZ = J @ X, J @ Y, J @ Z
            R2 = g(JY, Z) * JX - g(JX, Z) * JY + 2.0 * g(JY, X) * JZ
            return alpha * R1 + beta * R2

        return hermitian
    f1, f2, f3 = coeffs
    phi, xi = tensors["phi"], tensors["xi"]
    eta = lambda v: g(v, xi)

    def contact(X, Y, Z):
        R1 = g(Y, Z) * X - g(X, Z) * Y
        R2 = (eta(X) * eta(Z) * Y - eta(Y) * eta(Z) * X
              + g(X, Z) * eta(Y) * xi - g(Y, Z) * eta(X) * xi)
        pX, pY, pZ = phi @ X, phi @ Y, phi @ Z
        R3 = g(Z, pY) * pX - g(Z, pX) * pY + 2.0 * g(X, pY) * pZ
        return f1 * R1 + f2 * R2 + f3 * R3

    return contact


def at(jet, index):
    """The jet of base point `index` (a jet without points axis is the same
    at every point)."""
    return Jet(jet.space, jet.c[..., index, :]) if jet.batched else jet


_cache = {}


def one_point(imm, point, order=4):
    """The `Evaluation` of `imm` at one parameter point: every quantity of
    it has a leading points axis of length 1."""
    return evaluate(imm, [point], order)


def get_scenario(name):
    """Session-cached validated scenario (validation is not free)."""
    if name not in _cache:
        _cache[name] = load_scenario(scenario_path(name))
    return _cache[name]


_blocks = {}


def catalog_blocks(name, order=4, nodes=False):
    """Session memo of the evaluation blocks (`evaluate_batches`) of a catalog
    scenario at jet order `order`, of its sample points or, with `nodes`, its
    quadrature nodes, keyed by (scenario, order, points): each is built once
    per test session.  The blocks, and whatever they cache, are shared by
    every caller, so only tests that read them take them; a test that
    monkeypatches or writes to a block or its ambient builds its own, and so
    does a test that counts calls: it reads the `recorder` fixture, which
    sees only the builds made while it is installed."""
    key = (name, order, nodes)
    if key not in _blocks:
        sc = load_scenario(scenario_path(name), validate=False)
        points = sc.quadrature().points if nodes else sc.sample_points()
        _blocks[key] = tuple(evaluate_batches(sc.immersion, points, order))
    return _blocks[key]


# The catalog scenarios c01-c18 by name, for parametrizing.
CATALOG_NAMES = sorted(
    os.path.basename(p)[:-4]
    for p in glob.glob(os.path.join(CATALOG, "c*.scn"))
)


@pytest.fixture(scope="session")
def catalog_names():
    return CATALOG_NAMES


@pytest.fixture(scope="session")
def mislabeled_paths():
    return sorted(glob.glob(os.path.join(CATALOG, "m*.scn")))


# -- the recorder ------------------------------------------------------------------


# (point count, jet order) of a jet; one without points axis is 1 point
_jet = lambda jet: (jet.c.shape[-2] if jet.batched else 1, jet.space.order)
_at_points = lambda imm, points, order=4: (len(points), order)
_points = lambda imm, points, order=4: points
_block = lambda ev, *args: (len(ev), ev.order)
_chart = lambda space, x: _jet(x[0])
_alone = lambda *args: ()

# target: (fields(*call arguments): what its record holds after the name,
# subject(*call arguments): the object the record keeps, or None)
RECORDED = {
    # evaluations; a record keeps no block alive
    "calculus.evaluate": (_at_points, _points),
    "calculus.evaluate_batches": (_at_points, _points),
    "calculus.Evaluation.__init__": (lambda ev, imm, points, order, *rest: (len(points), order),
                                     lambda ev, *rest: weakref.ref(ev)),
    # map builds and chart builds
    "calculus.map_jets": (_at_points, None),
    "expr.eval_on_jets": (lambda expression, env, memo=None: _jet(next(iter(env.values()))),
                          lambda expression, *rest: expression),
    "spaces.AmbientSpace.metric_jets": (_chart, lambda space, x: x),
    "spaces._Hermitian.structure_jets": (_chart, None),
    "spaces._Contact.structure_jets": (_chart, None),
    # the rows and coefficients of the table built, read when the call returns
    "jets.Composer._table": (lambda composer, degree, order: (
        len(composer._built), composer._built.shape[-1]), None),
    # per-block quantities; a `TRACE_TERMS` entry produced (a trace term or
    # a field value) records its name first, and keeps its block by weak
    # reference
    "calculus._produce_term": (lambda ev, name: (name, len(ev), ev.order),
                               lambda ev, name: weakref.ref(ev)),
    "calculus.Evaluation.pullback_derivative": (_block, None),
    "calculus.Evaluation.rough_laplacian": (_block, None),
    "audits.identity_suite": (_block, None),
    "variational._densities": (lambda space, frozen, *rest: (len(frozen.f),), None),
    # the direct fields, as the benchmark's tracer counts them
    **{f"residuals.{name}": (_block, None)
       for name in ("bitension_direct", "f_bitension_direct", "bi_f_tension_direct")},
    # flags: the flag measured; the block sizes and orders of a pre-check
    "calculus.flag_deviation": (lambda imm, blocks, name: (name,), None),
    "calculus.verify_flags": (lambda imm, blocks, tol=None: (
        tuple(map(len, blocks)), tuple(ev.order for ev in blocks)),
        lambda imm, blocks, tol=None: [ev.points for ev in blocks]),
    # jet operations
    **{f"jets.Jet.{name}": (_alone, None)
       for name in ("__mul__", "__rmul__", "truncate", "sin", "_reciprocal", "inverse")},
    "jets.Jet.constant": (_alone, lambda space, value: (space, value)),
    "jets._product": (_alone, None),
}

_MODULES = [importlib.import_module(f"bihkit.{info.name}")
            for info in pkgutil.iter_modules(bihkit.__path__)]


def resolve(target):
    """(owner, attribute) of a `RECORDED` target: a module or a class."""
    module, *path, attr = target.split(".")
    owner = importlib.import_module(f"bihkit.{module}")
    for name in path:
        owner = vars(owner)[name]
    vars(owner)[attr]  # KeyError if it does not resolve
    return owner, attr


def bindings(target):
    """Every (owner, attribute) the recorder wraps for a target: each bihkit
    module that binds the function, or the class and each bihkit subclass
    that defines the method."""
    owner, attr = resolve(target)
    if not isinstance(owner, type):
        fn = vars(owner)[attr]
        return [(module, name) for module in _MODULES
                for name, obj in vars(module).items() if obj is fn]
    family, todo = [], [owner]
    while todo:
        cls = todo.pop()
        if cls not in family and cls.__module__.startswith("bihkit."):
            family.append(cls)
            todo += cls.__subclasses__()
    return [(cls, attr) for cls in family if attr in vars(cls)]


class Call(tuple):
    """A record (target, *fields), with the `subject` of the call."""


class Recording:
    """The records of the calls of the `RECORDED` targets, in the order they
    returned (or raised)."""

    def __init__(self):
        self.calls, self.hooks = [], {}

    def of(self, *targets):
        """What each recorded call of `targets` holds after its name."""
        return [call[1:] for call in self.calls if call[0] in targets]

    def subjects(self, *targets):
        return [call.subject for call in self.calls if call[0] in targets]

    def at(self, target, hook):
        """Call `hook()` as each call of `target` starts."""
        self.hooks.setdefault(target, []).append(hook)

    def wrap(self, target, fn):
        fields, subject = RECORDED[target]
        calls, hooks = self.calls, self.hooks

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            for hook in hooks.get(target, ()):
                hook()
            try:
                return fn(*args, **kwargs)
            finally:
                call = Call((target, *fields(*args, **kwargs)))
                call.subject = subject and subject(*args, **kwargs)
                calls.append(call)

        return recorded


def record(monkeypatch):
    """A `Recording` of the calls of every `RECORDED` target from now until
    `monkeypatch` is undone."""
    recording = Recording()
    for target in RECORDED:
        owner, attr = resolve(target)
        if not isinstance(owner, type):
            wrapped = recording.wrap(target, vars(owner)[attr])
            for module, name in bindings(target):
                monkeypatch.setattr(module, name, wrapped)
            continue
        for cls, attr in bindings(target):
            method = vars(cls)[attr]
            if isinstance(method, staticmethod):
                method = staticmethod(recording.wrap(target, method.__func__))
            else:
                method = recording.wrap(target, method)
            monkeypatch.setattr(cls, attr, method)
    return recording


@pytest.fixture
def recorder(monkeypatch):
    """A `Recording` of the calls of every `RECORDED` target made during the test."""
    return record(monkeypatch)
