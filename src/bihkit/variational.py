"""Energy functionals and first-variation checks.

`FUNCTIONALS` holds each functional's density (integrated over a compact
parameter domain), direct-mode Euler-Lagrange field and pairing constant:

    which   density                   field                pairing
    E       1/2 |dpsi|^2              tau                  +1
    E2      1/2 |tau|^2               bitension            -1
    E2F     1/2 f |tau|^2             weighted bitension   -1
    EF      1/2 f |dpsi|^2            f tau + grad f       +1
    EF2     |f tau + dpsi(grad f)|^2  bi-f field           +2

Variations act in ambient chart coordinates (psi_t = psi + t V componentwise)
with the domain metric FROZEN at its t = 0 induced value: tension fields of
the deformed maps are computed against the fixed metric, which is the setting
in which the Euler-Lagrange fields are the functional derivatives.

`first_variation_suite` compares a central finite difference of each energy
against the pairing  -int <el_field, V> dv; it and `energies` take one
evaluation per node from their caller, in blocks joined once (`_frozen`,
the Euler-Lagrange fields too).  `el_field` takes an evaluation block (here
of quadrature nodes) and returns the row's field at its points times its
pairing constant, so that the pairing identity holds.

The minus entries record that the printed bitension-type fields satisfy
delta E(V) = + int <field, V> dv, while the bi-f field pairs with the
E-type sign (and a factor 2: that functional carries no 1/2).  The table
is pinned empirically by the h-sweep in the test suite (finite differences
are independent of the jet engine).  The sweep must show O(h^2) decay of
the mismatch to a plateau.

The map at the nodes (values, first and second derivatives) and the ambient
metric and chart Christoffels there come from their evaluation blocks alone;
each deformed map psi + t V is the array sum x + y * t of the map's arrays
and V's (`_deformed_tension_data` says why that is exact), and one chart
build serves the deformed maps of all the steps, none the undeformed map.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .calculus import joined, matvec, parameter_jets
from .expr import eval_on_jets, parse
from .jets import Jet
from .residuals import (
    bi_f_tension_direct,
    bitension_direct,
    f_bitension_direct,
    tension,
)
from .spaces import ChartError, christoffels_at, inner

__all__ = [
    "ChartExitError",
    "VariationError",
    "QuadratureGrid",
    "ENERGIES",
    "FUNCTIONALS",
    "STEPS",
    "energies",
    "el_field",
    "first_variation_suite",
]

# The central-difference steps h of `first_variation_suite`.
STEPS = (1e-2, 1e-3, 1e-4)


class VariationError(ValueError):
    """The variation fails at the quadrature nodes."""


class ChartExitError(VariationError, ChartError):
    """The deformed map psi + t V leaves the ambient chart at a node."""


# the docstring's table as (density, field, pairing) rows; each field is called
# through its module-level name, so that a wrapper bound there sees the call
FUNCTIONALS = {
    "E": (lambda s: s.half_dpsi2, lambda ev: tension(ev), 1.0),
    "E2": (lambda s: 0.5 * s.norm2(s.tau), lambda ev: bitension_direct(ev), -1.0),
    "E2F": (lambda s: 0.5 * s.norm2(s.tau) * s.f, lambda ev: f_bitension_direct(ev), -1.0),
    "EF": (lambda s: s.half_dpsi2 * s.f, lambda ev: ev.values(ev.f_jet)[:, None] * tension(ev)
           + ev.values(ev.grad_f_ambient_field), 1.0),
    "EF2": (lambda s: s.norm2(s.f[:, None] * s.tau + matvec(s.dpsi, s.grad_f)),
            lambda ev: bi_f_tension_direct(ev), 2.0),
}
ENERGIES = tuple(FUNCTIONALS)


def periodic_nodes(lo, hi, n):
    """The n nodes lo + h k, k < n, of a period [lo, hi) and their spacing h."""
    h = (hi - lo) / n
    return lo + h * np.arange(n), h


@lru_cache(maxsize=None)
def _gauss_legendre(n):
    """The n Gauss-Legendre nodes and weights on [-1, 1], computed once per
    n and read-only, since every grid with an n-node open axis shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def tensor_grid(axes_1d):
    """The tensor product of 1-d arrays as rows of a (P, len(axes_1d)) array."""
    mesh = np.meshgrid(*axes_1d, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class QuadratureGrid:
    """Tensor-product quadrature over axes (lo, hi, n, periodic): trapezoid
    on periodic axes (spectrally accurate there), Gauss-Legendre on closed
    intervals."""

    def __init__(self, axes):
        nodes_1d = []
        weights_1d = []
        for lo, hi, n, periodic in axes:
            if n < 2:
                raise ValueError("quadrature axis needs at least 2 nodes")
            if periodic:
                x, h = periodic_nodes(lo, hi, n)
                nodes_1d.append(x)
                weights_1d.append(np.full(n, h))
            else:
                x, w = _gauss_legendre(n)
                mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
                nodes_1d.append(mid + half * x)
                weights_1d.append(half * w)
        self.points = tensor_grid(nodes_1d)
        self.weights = np.prod(tensor_grid(weights_1d), axis=-1)

    def __len__(self):
        return len(self.points)


def _frozen(blocks, columns=lambda ev: {}):
    """The nodes' frozen data, joined from their blocks with `columns(ev)`:
    psi, dpsi[i, a, al], ddpsi[i, a, al, be], ginv and gam (the t = 0 g^-1
    and its Christoffels), sqrt_det, f, grad_f_param, G and gam_amb at psi."""
    return joined(blocks, lambda ev: {
        "psi": ev.values(ev.psi), "dpsi": ev._dpsi, "ddpsi": ev.values(ev.dpsi.derivs()),
        "ginv": ev._ginv, "gam": ev._gam, "sqrt_det": np.sqrt(ev.gram_det),
        "f": ev.values(ev.f_jet), "grad_f_param": ev.values(ev.grad_f_param_field), "G": ev._G,
        "gam_amb": ev.values(ev.chart_christoffels), **columns(ev)})


def _deformed_tension_data(space, frozen, v, ts):
    """(tension vectors, dpsi_t, ambient metrics) of psi + t*V at fixed
    metric for each step t of `ts`, t-major (entry k N + i is node i at
    step k); `v` holds V's values, first and second derivatives at the
    nodes.  Each array is x + y * t, which rounds as the jet sum psi + v * t
    differentiated: both multiply, then add, and the derivative scale
    factors 1 and 2 commute with rounding while V t is a normal float.  One
    chart build of `space` for all nodes and steps gives the metric and its
    Christoffels (a point's values do not depend on its batch); numpy's
    warnings are silenced, as in `evaluate_batches`, and the first step,
    then node, off the chart raises ChartExitError.  `space` None: the map
    undeformed, t = 0 (`energies`), at the frozen metric and Christoffels."""
    count = len(frozen.f)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pos, dpsi, ddpsi = (np.concatenate([x + y * t for t in ts])
                            for x, y in zip((frozen.psi, frozen.dpsi, frozen.ddpsi), v))
        try:
            G, gam_amb = ((frozen.G, frozen.gam_amb) if space is None
                          else christoffels_at(space, pos))
        except ChartError:
            for j, p in enumerate(pos):
                try:
                    christoffels_at(space, p[None])
                except ChartError:
                    raise ChartExitError("the deformed map exits the ambient chart at node "
                                         f"{j % count} (t={ts[j // count]})") from None
            raise
    m = dpsi.shape[2]
    ginv, gam = (np.concatenate([x] * len(ts)) for x in (frozen.ginv, frozen.gam))
    tau = np.zeros(dpsi.shape[:2])
    # all nodes at once, the pairs (al, be) in order: each node's sum rounds as
    # alone; a two-operand trace would move c08's E2 difference by 4e-11 relative
    for al in range(m):
        for be in range(m):
            vec = ddpsi[:, :, al, be] + np.einsum(
                "pabc,pb,pc->pa", gam_amb, dpsi[:, :, al], dpsi[:, :, be]
            )
            vec = vec - np.einsum("pg,pag->pa", gam[:, :, al, be], dpsi)
            tau = tau + ginv[:, al, be, None] * vec
    return tau, dpsi, G


def _densities(space, frozen, whichs, v, ts):
    """{which: (steps, nodes) array of weighted energy densities} of the
    functionals `whichs` at psi + t V for each step t of `ts` (`v` as in
    `_deformed_tension_data`), from one deformed-map stack they share."""
    tau, dpsi, G = _deformed_tension_data(space, frozen, v, ts)
    ginv, f, grad_f = (np.concatenate([x] * len(ts))
                       for x in (frozen.ginv, frozen.f, frozen.grad_f_param))
    # four operands: `form_norm2`'s order would move c08's E difference by 1e-11 relative
    stack = SimpleNamespace(tau=tau, dpsi=dpsi, f=f, grad_f=grad_f,
                            norm2=lambda w: inner(G, w, w),
                            half_dpsi2=0.5 * np.einsum("pab,pia,pjb,pij->p", ginv, dpsi, dpsi, G))
    return {which: FUNCTIONALS[which][0](stack).reshape(len(ts), -1) * frozen.sqrt_det
            for which in whichs}


def energies(grid, blocks):
    """Quadrature values {which: value} of the five functionals on the
    undeformed immersion, from `blocks`: the evaluation blocks of the nodes
    of `grid`, in order, at any jet order >= 2, whose values alone (the
    ambient metric and chart Christoffels too) are read."""
    frozen = _frozen(blocks)
    # psi + 0 * 0, rounded as the deformed maps are (a -0.0 entry becomes 0.0)
    rows = _densities(None, frozen, ENERGIES, (0.0,) * 3, (0.0,))
    return {which: float(np.dot(row[0], grid.weights)) for which, row in rows.items()}


def el_field(ev, which):
    """Euler-Lagrange field of one functional (direct mode) at the points of
    an evaluation block, normalized so that dE(V) = -int <field, V> dv."""
    _density, field, pairing = FUNCTIONALS[which]
    return pairing * field(ev)


def first_variation_suite(imm, grid, blocks, whichs, variation):
    """Central-difference dE/dt at the STEPS vs -int <el_field, V> dv,
    several functionals.

    `blocks` are the order-4 evaluation blocks of the nodes of `grid`, in
    order, taken after the variation is checked.  `variation` is a list of
    chart_dim expression strings over the immersion parameters; it must
    vanish at non-periodic axis endpoints, and it and its derivatives must
    be finite at the nodes.  The nodes' evaluations, each block's bitension
    and one chart build for the deformed maps of all the steps are shared
    across the functionals.
    Returns {which: sweep-result}; each sweep should show roughly O(h^2)
    decay of the mismatch to a plateau.
    """
    d = imm.ambient.chart_dim
    if len(variation) != d:
        raise ValueError(f"variation needs {d} components")
    v_exprs = [parse(v, imm.params) for v in variation]
    env = parameter_jets(imm.params, grid.points, 2)
    count = len(grid)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            v = Jet.stack([eval_on_jets(e, env) for e in v_exprs])
        # math-domain and jet errors are ValueErrors, overflow an ArithmeticError
        except (ValueError, ArithmeticError) as exc:
            raise VariationError(f"variation components fail at the quadrature nodes: {exc}") from None
        first = v.derivs()
        v = tuple(x.point_values(count) for x in (v, first, first.derivs()))
    bad = ~np.isfinite(np.hstack([x.reshape(count, -1) for x in v])).all(axis=1)
    if bad.any():
        raise VariationError("variation components fail at the quadrature nodes: "
                             f"not finite at node {np.argmax(bad)}")

    # one order-4 evaluation per node gives the map, the frozen metric and,
    # through the Euler-Lagrange fields, the pairing
    frozen = _frozen(blocks, lambda ev: {which: el_field(ev, which) for which in whichs})
    ts = [s for h in STEPS for s in (h, -h)]
    # numpy's warnings silenced, as in `evaluate_batches`: a density that
    # overflows is rejected at its first step, then node
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows = _densities(imm.ambient, frozen, whichs, v, ts)
    bad = ~np.isfinite(np.stack(list(rows.values()))).all(axis=0)
    if bad.any():
        k, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise VariationError("the energy densities of the deformed map are not finite "
                             f"at node {i} (t={ts[k]})")
    out = {}
    for which in whichs:
        pairing = -inner(frozen.G, vars(frozen)[which], v[0]) * frozen.sqrt_det
        rhs = float(np.dot(pairing, grid.weights))
        shifted = [float(np.dot(row, grid.weights)) for row in rows[which]]
        lhs = [(plus - minus) / (2.0 * h)
               for h, plus, minus in zip(STEPS, shifted[::2], shifted[1::2])]
        out[which] = {"steps": list(STEPS), "lhs": lhs, "rhs": rhs,
                      "deltas": [abs(fd - rhs) for fd in lhs]}
    return out
