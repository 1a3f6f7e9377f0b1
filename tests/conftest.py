import glob
import math
import os

import numpy as np
import pytest

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
    monkeypatches, counts calls or writes to a block or its ambient builds
    its own."""
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
