"""Energy functionals and first-variation checks.

The five functionals over a compact parameter domain:

    E    = 1/2 int |dpsi|^2          E2  = 1/2 int |tau|^2
    E2F  = 1/2 int f |tau|^2         EF  = 1/2 int f |dpsi|^2
    EF2  =     int |f tau + dpsi(grad f)|^2

Variations act in ambient chart coordinates (psi_t = psi + t V componentwise)
with the domain metric FROZEN at its t = 0 induced value: tension fields of
the deformed maps are computed against the fixed metric, which is the setting
in which the Euler-Lagrange fields below are the functional derivatives.

`first_variation_suite` compares a central finite difference of each energy
against the pairing  -int <el_field, V> dv.  Like every per-point function,
`el_field` takes the point's `PointCalculus` (here a quadrature node's); it
returns the direct-mode residual field normalized so the pairing identity
holds:

    which   el_field            pairing constant (ledgered)
    E       tau                  +1
    EF      f tau + grad f       +1
    E2      bitension            -1
    E2F     weighted bitension   -1
    EF2     bi-f field           +2

The minus entries record that the printed bitension-type fields satisfy
delta E(V) = + int <field, V> dv, while the bi-f field pairs with the
E-type sign (and a factor 2: that functional carries no 1/2).  The table
is pinned empirically by the h-sweep in the test suite (finite differences
are independent of the jet engine).  The sweep must show O(h^2) decay of
the mismatch to a plateau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import PointCalculus
from .expr import eval_on_jets, parse
from .jets import Jet, jet_space
from .residuals import (
    bi_f_tension_direct,
    bitension_direct,
    f_bitension_direct,
    tension,
)
from .spaces import ChartError, christoffels_at

__all__ = [
    "QuadratureGrid",
    "ENERGIES",
    "VARIATION_PAIRING",
    "energies",
    "el_field",
    "first_variation_suite",
]

ENERGIES = ("E", "E2", "E2F", "EF", "EF2")

VARIATION_PAIRING = {"E": 1.0, "EF": 1.0, "E2": -1.0, "E2F": -1.0, "EF2": 2.0}


@dataclass
class Axis:
    lo: float
    hi: float
    n: int
    periodic: bool


class QuadratureGrid:
    """Tensor-product quadrature: trapezoid on periodic axes (spectrally
    accurate there), Gauss-Legendre on closed intervals."""

    def __init__(self, axes):
        self.axes = [Axis(*a) if not isinstance(a, Axis) else a for a in axes]
        nodes_1d = []
        weights_1d = []
        for ax in self.axes:
            if ax.n < 2:
                raise ValueError("quadrature axis needs at least 2 nodes")
            if ax.periodic:
                h = (ax.hi - ax.lo) / ax.n
                nodes_1d.append(ax.lo + h * np.arange(ax.n))
                weights_1d.append(np.full(ax.n, h))
            else:
                x, w = np.polynomial.legendre.leggauss(ax.n)
                mid, half = 0.5 * (ax.hi + ax.lo), 0.5 * (ax.hi - ax.lo)
                nodes_1d.append(mid + half * x)
                weights_1d.append(half * w)
        mesh = np.meshgrid(*nodes_1d, indexing="ij")
        wmesh = np.meshgrid(*weights_1d, indexing="ij")
        self.points = np.stack([m.ravel() for m in mesh], axis=-1)
        self.weights = np.prod(np.stack([w.ravel() for w in wmesh], axis=-1), axis=-1)

    def __len__(self):
        return len(self.points)


class _NodeData:
    """Frozen reference data at one quadrature node (t = 0 metric)."""

    def __init__(self, imm, point):
        pc = PointCalculus(imm, point, order=2)
        self.g = pc.g_val
        self.ginv = pc.g_inv_val
        self.gam = pc.intrinsic_christoffels.values
        self.sqrt_det = float(np.sqrt(pc.gram_det))
        self.f = pc.f_jet.value
        self.df = np.array([pc.f_jet.deriv(al).value for al in range(pc.m)])
        self.grad_f_param = self.ginv @ self.df
        self.space = imm.ambient
        self.m = pc.m
        self.d = pc.d
        sp = jet_space(self.m, 2)
        self.env = {
            name: Jet.variable(sp, i, point[i]) for i, name in enumerate(imm.params)
        }
        self.psi_jets = [eval_on_jets(c, self.env) for c in imm.components]


def _deformed_tension_data(node, v_jets, t):
    """(tension vector, dpsi_t, ambient metric) of psi + t*V at fixed metric;
    the metric and its Christoffels come from one chart build."""
    m, d = node.m, node.d
    psi_t = [node.psi_jets[a] + t * v_jets[a] for a in range(d)]
    pos = np.array([j.value for j in psi_t])
    G, gam_amb = christoffels_at(node.space, pos)
    dpsi = np.array([[psi_t[a].deriv(al).value for al in range(m)] for a in range(d)])
    ddpsi = np.array(
        [[[psi_t[a].deriv(al).deriv(be).value for be in range(m)] for al in range(m)]
         for a in range(d)]
    )
    tau = np.zeros(d)
    for al in range(m):
        for be in range(m):
            vec = ddpsi[:, al, be] + np.einsum(
                "abc,b,c->a", gam_amb, dpsi[:, al], dpsi[:, be]
            )
            vec = vec - np.einsum("g,ag->a", node.gam[:, al, be], dpsi)
            tau = tau + node.ginv[al, be] * vec
    return tau, dpsi, G


def _integrand(node, which, data):
    """Energy density of one functional from `_deformed_tension_data`."""
    tau, dpsi, G = data
    if which in ("E", "EF"):
        dens = float(np.einsum("ab,ia,jb,ij->", node.ginv, dpsi, dpsi, G))
        val = 0.5 * dens
        return val * node.f if which == "EF" else val
    if which in ("E2", "E2F"):
        val = 0.5 * float(tau @ G @ tau)
        return val * node.f if which == "E2F" else val
    if which == "EF2":
        grad_f_amb = dpsi @ node.grad_f_param
        w = node.f * tau + grad_f_amb
        return float(w @ G @ w)
    raise ValueError(f"unknown energy {which!r}")


def _zero_jets(node):
    sp = jet_space(node.m, 2)
    return [Jet.constant(sp, 0.0) for _ in range(node.d)]


def _energy_values(nodes, weights, whichs, t, v_jets):
    """Quadrature values of the functionals `whichs` at psi + t V; the
    deformed map is evaluated once per node and shared by the functionals."""
    vals = {which: np.empty(len(nodes)) for which in whichs}
    for i, node in enumerate(nodes):
        try:
            data = _deformed_tension_data(node, v_jets[i], t)
        except ChartError:
            raise ChartError(
                f"the deformed map exits the ambient chart at node {i} (t={t})"
            ) from None
        for which in whichs:
            vals[which][i] = _integrand(node, which, data) * node.sqrt_det
    return {which: float(np.dot(v, weights)) for which, v in vals.items()}


def energies(imm, grid):
    """Quadrature values {which: value} of the five functionals on the
    undeformed immersion, from one evaluation per node."""
    nodes = [_NodeData(imm, p) for p in grid.points]
    return _energy_values(nodes, grid.weights, ENERGIES, 0.0,
                          [_zero_jets(node) for node in nodes])


def el_field(pc, which):
    """Euler-Lagrange field of one functional (direct mode) at a point,
    normalized so that dE(V) = -int <field, V> dv."""
    if which == "E":
        field = tension(pc)
    elif which == "EF":
        field = pc.f_jet.value * tension(pc) + pc.grad_f_ambient
    elif which == "E2":
        field = bitension_direct(pc)
    elif which == "E2F":
        field = f_bitension_direct(pc)
    elif which == "EF2":
        field = bi_f_tension_direct(pc)
    else:
        raise ValueError(f"unknown energy {which!r}")
    return VARIATION_PAIRING[which] * field


def first_variation_suite(imm, grid, whichs, variation, steps=(1e-2, 1e-3, 1e-4)):
    """Central-difference dE/dt vs -int <el_field, V> dv, several functionals.

    `variation` is a list of chart_dim expression strings (or trees) over the
    immersion parameters; it must vanish at non-periodic axis endpoints.
    The expensive per-node jet stack is shared across the functionals.
    Returns {which: sweep-result}; each sweep should show roughly O(h^2)
    decay of the mismatch to a plateau.
    """
    d = imm.ambient.chart_dim
    if len(variation) != d:
        raise ValueError(f"variation needs {d} components")
    v_exprs = [
        parse(v, imm.params) if isinstance(v, str) else v for v in variation
    ]
    nodes = [_NodeData(imm, p) for p in grid.points]
    v_jets_all = [
        [eval_on_jets(v, node.env) for v in v_exprs] for node in nodes
    ]

    # pairing side: one heavy jet stack per node, all fields from it
    pair_vals = {which: np.empty(len(nodes)) for which in whichs}
    for i, node in enumerate(nodes):
        pc_full = PointCalculus(imm, grid.points[i])
        V = np.array([j.value for j in v_jets_all[i]])
        G = pc_full.G_val
        for which in whichs:
            el = el_field(pc_full, which)
            pair_vals[which][i] = -(el @ G @ V) * node.sqrt_det

    shifted = [
        tuple(_energy_values(nodes, grid.weights, whichs, s, v_jets_all) for s in (h, -h))
        for h in steps
    ]
    out = {}
    for which in whichs:
        rhs = float(np.dot(pair_vals[which], grid.weights))
        lhs, deltas = [], []
        for h, (plus, minus) in zip(steps, shifted):
            fd = (plus[which] - minus[which]) / (2.0 * h)
            lhs.append(fd)
            deltas.append(abs(fd - rhs))
        out[which] = {
            "which": which,
            "steps": list(steps),
            "lhs": lhs,
            "rhs": rhs,
            "deltas": deltas,
            "pairing": VARIATION_PAIRING[which],
        }
    return out
