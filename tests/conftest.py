import glob
import math
import os

import numpy as np
import pytest

from bihkit.calculus import evaluate
from bihkit.jets import Jet, JetError
from bihkit.scenario import load_scenario

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


@pytest.fixture(scope="session")
def catalog_names():
    return sorted(
        os.path.basename(p)[:-4]
        for p in glob.glob(os.path.join(CATALOG, "c*.scn"))
    )


@pytest.fixture(scope="session")
def mislabeled_paths():
    return sorted(glob.glob(os.path.join(CATALOG, "m*.scn")))
