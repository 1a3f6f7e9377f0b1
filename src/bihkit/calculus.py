"""Extrinsic and intrinsic invariants of an immersion at sample points.

`evaluate` builds the jet fields the residual equations consume (induced
metric, second fundamental form, mean curvature, connection, projector,
weight-function fields) at all sample points of a block in one batched pass,
an `Evaluation`.  The trace terms (normal connection and Laplacian of H,
intrinsic Ricci and scalar curvature, the weight-function traces, ...) are
built once per block, for all its points at once.  One `PointCalculus`, a
view of one point of that evaluation, serves everything else at that point:
orthonormal frames, shape operators, the tangential/normal decomposition of
the ambient structure tensor, covariant traces and rough Laplacians, and its
view of the block's trace terms.

All quantities are assembled in coordinate (not orthonormal) form wherever
possible, so the results are frame-independent by construction; orthonormal
frames are produced deterministically (Gram-Schmidt in parameter order,
normal completion by ambient coordinate axes in index order) for the
operator matrices.

Laplacian conventions here are positive: Delta f = -tr Hess f on functions
and Delta-perp = -(trace of the squared normal connection) on normal
fields.  The raw ambient rough Laplacian tr(nabla^2), used by the direct
Euler-Lagrange oracles, is exposed separately as `rough_laplacian`.

Float order.  The batched jet fields round bit for bit as per-point scalar
jets would (see `jets`).  What is computed from their values (covariant
traces, the trace terms and Ricci of a block, the frames and operators of a
`PointCalculus`) is numpy contractions, batched ones with a leading points
index, which add in numpy's float order, within 1e-12 relative of index
loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from functools import cached_property, lru_cache

import numpy as np

from .expr import Expression, eval_on_jets, parse, variables_of
from .jets import Composer, Jet, jet_space
from .spaces import (AmbientSpace, SpaceError, chart_jets, christoffel_jets,
                     curvature_from_christoffels, jet_matrix_inverse)

__all__ = [
    "Immersion",
    "Evaluation",
    "evaluate",
    "evaluate_batches",
    "check_weight",
    "map_jets",
    "parameter_jets",
    "TraceTerms",
    "CalcError",
    "FlagError",
    "PointError",
    "WeightError",
    "PointCalculus",
    "trace_terms_at",
    "drain",
    "verify_flags",
    "FLAG_NAMES",
    "FLAG_TOL",
]

RANK_TOL = 1e-10

# index arrays (i, j) of the pairs i <= j < n, row-major
_upper_pairs = lru_cache(maxsize=None)(np.triu_indices)

# Default tolerance of the numeric flag checks (validation and `props`).
FLAG_TOL = 1e-8

FLAG_NAMES = (
    "hypersurface",
    "curve",
    "complex",
    "lagrangian",
    "invariant",
    "anti_invariant",
    "xi_tangent",
    "xi_normal",
    "parallel_H",
    "cmc",
)


class CalcError(ValueError):
    """Rank deficiency or unusable geometric data at a point."""


class PointError(ValueError):
    """Evaluation fails at `point` (a list of floats), with the message of
    that point's own failure."""

    def __init__(self, point, message):
        super().__init__(message)
        self.point = np.asarray(point, dtype=float).tolist()


class WeightError(PointError):
    """The weight is not positive at `point`."""


class FlagError(ValueError):
    """A declared structural flag fails its numeric pre-check."""

    def __init__(self, flag, message):
        super().__init__(message)
        self.flag = flag


@dataclass
class Immersion:
    """A parsed chart map with its weight function and declared flags.

    flags maps a flag name to 'asserted', 'denied' or 'unknown'.
    """

    params: list
    ambient: AmbientSpace
    components: list
    weight: Expression
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.components) != self.ambient.chart_dim:
            raise CalcError(
                f"immersion has {len(self.components)} components, ambient chart "
                f"needs {self.ambient.chart_dim}"
            )
        if len(self.params) >= self.ambient.chart_dim:
            raise CalcError("parameter count must be below the ambient dimension")
        for name in self.flags:
            if name not in FLAG_NAMES:
                raise CalcError(f"unknown flag {name!r}")
        for expr in (*self.components, self.weight):
            bad = variables_of(expr) - set(self.params)
            if bad:
                raise CalcError(f"expression uses undeclared parameters {sorted(bad)}")

    @property
    def param_dim(self):
        return len(self.params)

    @property
    def codim(self):
        return self.ambient.chart_dim - len(self.params)

    def flag(self, name):
        return self.flags.get(name, "unknown")

    @staticmethod
    def from_strings(params, ambient, components, weight="1", flags=None):
        comp = [parse(c, params) if isinstance(c, str) else c for c in components]
        w = parse(weight, params) if isinstance(weight, str) else weight
        return Immersion(list(params), ambient, comp, w, dict(flags or {}))


@dataclass
class TraceTerms:
    """Every scalar/vector ingredient the residual equations consume.

    The two-step structure compositions are named in the Hermitian
    notation (J X = jX + kX on tangent, J nu = l nu + m nu on normal
    vectors); on contact ambients with phi = P + N on tangent and s + t on
    normal vectors, kl H = Ns H, jl H = Ps H, kj grad f = NP grad f and
    j^2 grad f = P^2 grad f.

    `trace_terms_at` builds the instance of a block: every field but `n`
    then carries a leading points axis (coeffs as a (P, k) array), and `at`
    gives the instance of one point.
    """

    n: int                           # dimension of the submanifold
    f: float
    grad_f: np.ndarray               # ambient tangent vector
    grad_f_norm2: float
    delta_f_pos: float               # -tr Hess f
    grad_delta_f_pos: np.ndarray
    grad_grad_f_norm2: np.ndarray    # grad |grad f|^2
    ric_grad_f: np.ndarray           # Ric_M(grad f), ambient vector
    scal: float
    h_norm2: float
    grad_h_norm2: np.ndarray         # grad |H|^2
    tb_ah: np.ndarray                # tr B(., A_H .)            [normal]
    ta_nabla_perp_h: np.ndarray      # tr A_{nabla-perp H}(.)    [tangent]
    delta_perp_h_pos: np.ndarray     # positive normal Laplacian [normal]
    nabla_perp_h: np.ndarray         # (m, chart_dim) coordinate directions
    nabla_perp_gradf_h: np.ndarray   # nabla-perp_{grad f} H     [normal]
    a_h_grad_f: np.ndarray           # A_H grad f                [tangent]
    tb_hess_f: np.ndarray            # tr B(., nabla_. grad f)   [normal]
    tnb_grad_f: np.ndarray           # tr (nabla-perp_. B)(., grad f) [normal]
    ta_b_grad_f: np.ndarray          # tr A_{B(., grad f)}(.)    [tangent]
    b_gradf_gradf: np.ndarray        # B(grad f, grad f)         [normal]
    eta_h: float
    xi_tan: np.ndarray
    xi_nor: np.ndarray
    xi_tan_norm2: float
    b_norm2: float
    a_h_norm2: float
    nabla_perp_h_norm2: float
    H: np.ndarray                    # mean curvature vector
    coeffs: tuple                    # ambient (alpha, beta) or (f1, f2, f3)
    kl_H: np.ndarray                 # [normal]
    jl_H: np.ndarray                 # [tangent]
    mm_H: np.ndarray                 # [normal]
    kj_grad_f: np.ndarray            # [normal]
    j2_grad_f: np.ndarray            # [tangent]
    eta_grad_f: float

    def __post_init__(self):
        # One instance serves every caller at a point: forbid in-place edits.
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def at(self, index):
        """The trace terms of point `index` of a block's instance: floats,
        a tuple of coefficients and read-only slices of the block's arrays."""
        view = {"int": lambda v: v, "float": lambda v: float(v[index]),
                "tuple": lambda v: tuple(v[index].tolist()), "np.ndarray": lambda v: v[index]}
        return TraceTerms(**{f.name: view[f.type](getattr(self, f.name))
                             for f in dataclass_fields(self)})


# Points per batched evaluation (`evaluate_batches`, validation): it bounds
# the temporaries of one pass.  With 16, the peak resident memory of the
# hyper3d benchmark (64 order-4 points) is 44.0 MB against 42.0 MB for
# per-point evaluation; with 32 it is 46.8 MB and with 64 52.1 MB (2-vCPU
# Xeon, numpy 2.4).
BATCH_POINTS = 16


def parameter_jets(params, points, order):
    """{name: the parameter as a jet of the given order} at each row of a
    (P, m) array of parameter points, for `eval_on_jets`."""
    sp = jet_space(len(params), order)
    return {name: Jet.variable(sp, i, points[:, i]) for i, name in enumerate(params)}


def map_jets(imm, points, order):
    """The map, as a vector jet over the chart axes, of the given order at
    each row of a (P, m) array of parameter points.  The weight is not
    evaluated."""
    env = parameter_jets(imm.params, points, order)
    return Jet.stack([eval_on_jets(c, env) for c in imm.components])


def _laplacian_pos(ginv, Gam_int, scalar_jet):
    """Positive Laplacian -tr_g Hess of a scalar jet, as a lower-order
    field, from the inverse metric and intrinsic Christoffel jets."""
    out_order = scalar_jet.space.order - 2
    m = ginv.shape[0]
    ginv = ginv.truncate(out_order)
    Gam = Gam_int.truncate(out_order)
    df = scalar_jet.derivs()
    # hess[al, be] = d_be d_al s - sum_g Gam[g, al, be] d_g s
    corr = Gam * df.truncate(out_order)[:, None, None]
    hess = (-corr).sum(0, start=df.derivs())
    return -(ginv * hess).reshape(m * m).sum(0)


def _covariant_trace(ginv, gam, covd, values):
    """g^{ab} (covd[a, b] - Gam^g_ab values[g]) at each point, every array
    with a leading points axis: the values of the trace of a covariant
    derivative, covd[p, a, b, ...] holding the derivative along the
    parameter direction a of the field F_b, whose values are
    values[p, b, ...], from the inverse metric ginv[p] and the intrinsic
    Christoffels gam[p, g, a, b]."""
    corr = np.einsum("pgab,pg...->pab...", gam, values)
    return np.einsum("pab,pab...->p...", ginv, covd - corr)


def _ambient_along(space, psi, psi_val, order):
    """The ambient metric (to order - 1) and Christoffels (to order - 2)
    composed along the immersion psi, the depths the fields consume, and
    the chart Christoffels to order 1 (for the curvature); the chart jets
    are dropped on return.  Their coefficients are those of deeper jets,
    truncated."""
    G = Jet.stack(space.metric_jets(chart_jets(psi_val, max(order - 1, 2))))
    Gam = christoffel_jets(G)
    compose = Composer([psi[a].centered() for a in range(space.chart_dim)])
    return (compose.apply_truncated(G.truncate(order - 1)),
            compose.apply_truncated(Gam.truncate(order - 2)), Gam.truncate(1))


def _induced_metric(G, dpsi):
    """g[al, be] = sum_{a, b} dpsi[a, al] G[a, b] dpsi[b, be]."""
    # row[a, be] = sum_b G[a, b] dpsi[b, be]; over the pairs al <= be,
    # g[al, be] = g[be, al] = sum_a dpsi[a, al] row[a, be]
    row = (G[:, :, None] * dpsi[None]).sum(1)
    al, be = _upper_pairs(dpsi.shape[1])
    return (dpsi[:, al] * row[:, be]).sum(0).symmetric()


def _projector(dpsi, g_inv, G):
    """Tangent projector P[a, b] = dpsi[a, al] ginv[al, be] dpsi[c, be] G[c, b]."""
    col = (dpsi[:, :, None] * G[:, None, :]).sum(0)     # col[be, b]
    row = (g_inv[:, :, None] * col[None]).sum(1)         # row[al, b]
    return (dpsi[:, :, None] * row[None]).sum(1)


def _second_fundamental_form(Gam_dpsi, Gam_int, dpsi):
    """B[al, be, a] from Gam_dpsi[a, b, c, al] = Gam^a_bc d_al psi^b: over
    the pairs al <= be, d_al d_be psi^a
      + sum_{b, c} Gam[a, b, c] dpsi[b, al] dpsi[c, be]
      - sum_g Gam_int[g, al, be] dpsi[a, g]."""
    d, m = dpsi.shape
    ord2 = Gam_dpsi.space.order
    dpsi2 = dpsi.truncate(ord2)
    al, be = _upper_pairs(m)
    amb = Gam_dpsi[..., al] * dpsi2[None, None, :, be]
    intr = Gam_int.truncate(ord2)[None, :, al, be] * dpsi2[..., None]  # [a, g, p]
    terms = Jet.concatenate([amb.reshape(d, d * d, len(al)), -intr], axis=1)
    return terms.sum(1, start=dpsi.derivs()[:, al, be]).transpose(1, 0).symmetric()


def evaluate(imm, points, order=4):
    """Every jet field of `imm` at each row of a (P, m) array of parameter
    points, in one batched pass: psi, f, the ambient metric and
    Christoffels composed along the immersion (and the chart Christoffels to
    order 1, for the curvature), the induced metric, its inverse and
    Christoffels, B, H, the connection along the immersion, the tangent
    projector, grad f and the Laplacian of f.  `order` (>= 2) bounds the
    derivative depth; 4 covers every assembled residual.

    Each field rounds exactly as it would at each point alone.  Raises
    ChartError off the chart, CalcError where the immersion is
    rank-deficient (naming the first such point), SpaceError or JetError
    where an expression or matrix fails at some point."""
    space = imm.ambient
    if not space.has_metric:
        raise SpaceError(
            f"{space.kind} has no concrete metric; only curvature-model "
            "evaluation is available"
        )
    points = np.asarray(points, dtype=float)
    count = len(points)
    m, d = imm.param_dim, space.chart_dim
    psi = map_jets(imm, points, order)
    # a constant weight comes out without points axis
    f_jet = eval_on_jets(imm.weight, parameter_jets(imm.params, points, order))
    psi_val = psi.point_values(count)
    space.chart_check(psi_val)
    G, Gam, chart_gam = _ambient_along(space, psi, psi_val, order)
    dpsi = psi.derivs()
    g = _induced_metric(G, dpsi)
    gram_det = np.linalg.det(g.point_values(count))
    bad = np.flatnonzero(gram_det <= RANK_TOL)
    if bad.size:
        raise CalcError(f"immersion rank-deficient at {points[bad[0]]}: "
                        f"gram det {gram_det[bad[0]]:.3e}")
    g_inv = jet_matrix_inverse(g)
    Gam_int = christoffel_jets(g)
    ord2 = order - 2
    dpsi2, g_inv2 = dpsi.truncate(ord2), g_inv.truncate(ord2)
    # Gam_dpsi[a, b, c, al] = Gam^a_bc d_al psi^b; summed over b it is the
    # connection along the immersion A[a, c, al]
    Gam_dpsi = Gam[..., None] * dpsi2[None, :, None]
    B = _second_fundamental_form(Gam_dpsi, Gam_int, dpsi)
    # mean curvature H = tr_g B / m
    H = (g_inv2[:, :, None] * B).reshape(m * m, d).sum(0) / float(m)
    # weight function: (grad f)^alpha, its ambient vector and Delta f
    grad_f_param = (g_inv.truncate(order - 1) * f_jet.derivs()[None]).sum(1)
    grad_f_ambient = (dpsi2 * grad_f_param.truncate(ord2)[None]).sum(1)
    fields = {
        "psi": psi, "f_jet": f_jet, "G_field": G, "Gam_field": Gam,
        "chart_christoffels": chart_gam,
        "dpsi": dpsi, "induced_metric_field": g, "induced_metric_inv_field": g_inv,
        "intrinsic_christoffels": Gam_int,
        "projector_field": _projector(dpsi2, g_inv2, G.truncate(ord2)),
        "B_field": B, "H_field": H, "connection": Gam_dpsi.sum(1),
        "grad_f_param_field": grad_f_param, "grad_f_ambient_field": grad_f_ambient,
        "delta_f_pos_field": _laplacian_pos(g_inv, Gam_int, f_jet),
    }
    tensors = space.structure_jets(chart_jets(psi_val, 0))
    structure = {key: Jet.stack(val).point_values(count) for key, val in tensors.items()}
    return Evaluation(imm, points, order, fields, gram_det, structure)


def evaluate_batches(imm, points, order=4, check=None):
    """`evaluate` over consecutive blocks of at most BATCH_POINTS points,
    yielded in order; `check(evaluation)`, if given, rejects one by raising.

    A block fails only where one of its points does, so a failing block is
    evaluated again point by point, and the first point that fails alone
    raises: an evaluation error as PointError, a check's error as it is."""
    for start in range(0, len(points), BATCH_POINTS):
        block = points[start:start + BATCH_POINTS]
        try:
            ev = evaluate(imm, block, order)
        # chart, rank, jet and math-domain errors are ValueErrors; overflow
        # and division by zero are ArithmeticErrors
        except (ValueError, ArithmeticError) as exc:
            if len(block) > 1:
                for i in range(len(block)):
                    next(evaluate_batches(imm, block[i:i + 1], order, check))
            raise PointError(block[0], str(exc)) from None
        if check is not None:
            check(ev)
        yield ev


def check_weight(ev):
    """Raise a WeightError at the first point where the weight is not positive."""
    f = ev.f_jet.point_values(len(ev))
    bad = np.flatnonzero(f <= 0.0)
    if bad.size:
        point = ev.points[bad[0]]
        raise WeightError(point, f"weight not positive at {point.tolist()} (f = {f[bad[0]]:.3e})")


class PointCalculus:
    """All jet fields of one immersion at one parameter point: a view of
    one point of an `Evaluation` (`evaluate(imm, points)[i]`), the only way
    one is built.

    Fields are truncated Taylor expansions in the parameters; `order`
    bounds the total derivative depth (4 covers every assembled residual).
    Each field is one tensor jet (index layout in its docstring or name:
    ambient indices a, b, c, parameter indices al, be, g) of the point,
    taken from the batched fields; the values, frames and per-point
    operators below are computed from them on first use.

    Jet fields: psi, f_jet, G_field (order - 1), Gam_field (Gam[k, a, b] =
    Gamma^k_ab along the immersion, order - 2), chart_christoffels (order 1,
    at psi(point)), dpsi (dpsi[a, al], order - 1), induced_metric_field and
    its inverse, intrinsic_christoffels, projector_field (P[a, b]), B_field
    (B[al, be, a]), H_field, connection (A[a, c, al], order - 2),
    grad_f_param_field, grad_f_ambient_field and delta_f_pos_field.
    """

    def __init__(self, ev, index):
        self.imm = ev.imm
        self.space = ev.imm.ambient
        self.order = ev.order
        self.m = self.imm.param_dim
        self.d = self.space.chart_dim
        self.point = ev.points[index]
        self._ev, self._index = ev, index
        for name, jet in ev.fields.items():
            setattr(self, name, jet.at(index))
        self.gram_det = float(ev.gram_det[index])
        # structure tensor values at psi(point): J, or phi, xi and eta
        self.structure = {key: val[index] for key, val in ev.structure.items()}
        self._connection = {}

    @cached_property
    def ambient_curvature(self):
        """R[l,i,j,k] values of the ambient curvature at psi(point), from the
        chart Christoffels of this point."""
        return curvature_from_christoffels(self.chart_christoffels)

    @cached_property
    def structure_tensor(self):
        return self.structure["J" if self.space.structure == "hermitian" else "phi"]

    @cached_property
    def decomposition_operators(self):
        """Matrices of the structure-tensor decomposition in the chosen frames.

        Hermitian ambient: (j, k, l, m) with blocks TM->TM, TM->NM, NM->TM,
        NM->NM of J.  Contact ambient: (P, N, s, t) likewise for phi; s is the
        tangential and t the normal part on the normal bundle.
        """
        F = np.vstack([self.tangent_frame, self.normal_frame])
        M = F @ self.G_val @ self.structure_tensor @ F.T  # M[i, j] = <F_i, T F_j>
        m = self.m
        return M[:m, :m], M[m:, :m], M[:m, m:], M[m:, m:]

    # -- values of the fields ------------------------------------------------

    @cached_property
    def dpsi_val(self):
        return self.dpsi.values

    @cached_property
    def g_inv_val(self):
        return self.induced_metric_inv_field.values

    @cached_property
    def G_val(self):
        return self.G_field.values

    # -- frames --------------------------------------------------------------

    def _gram_schmidt(self, vectors, against=()):
        G0 = self.G_val
        basis = [np.asarray(v, float) for v in against]
        out = []
        for v in vectors:
            w = np.asarray(v, float).copy()
            for _ in range(2):  # re-orthogonalization pass
                for b in basis + out:
                    w = w - (b @ G0 @ w) * b
            norm = float(np.sqrt(w @ G0 @ w))
            if norm < RANK_TOL:
                return out, False
            out.append(w / norm)
        return out, True

    @cached_property
    def tangent_frame(self):
        cols = [self.dpsi_val[:, al] for al in range(self.m)]
        frame, ok = self._gram_schmidt(cols)
        if not ok:
            raise CalcError(f"tangent frame degenerate at {self.point}")
        return np.array(frame)

    @cached_property
    def normal_frame(self):
        frame = []
        tangent = list(self.tangent_frame)
        for a in range(self.d):
            if len(frame) == self.d - self.m:
                break
            cand = np.zeros(self.d)
            cand[a] = 1.0
            added, ok = self._gram_schmidt([cand], against=tangent + frame)
            if ok:
                frame.extend(added)
        if len(frame) != self.d - self.m:
            raise CalcError(f"normal frame completion failed at {self.point}")
        return np.array(frame)

    @cached_property
    def B_frame(self):
        """Second fundamental form in the orthonormal tangent frame."""
        # e_i = c_i^alpha d_alpha psi; rows of `coeff` are the frame coefficients
        coeff = np.linalg.solve(
            self.dpsi_val.T @ self.dpsi_val, self.dpsi_val.T @ self.tangent_frame.T
        ).T
        return np.einsum("ia,jb,abk->ijk", coeff, coeff, self.B_val)

    @cached_property
    def shape_operators(self):
        """(codim, m, m) matrices of A_nu in the orthonormal frames."""
        return np.einsum("ijk,kl,sl->sij", self.B_frame, self.G_val, self.normal_frame)

    @cached_property
    def projectors(self):
        """(tangent, normal) projector matrices in ambient coordinates."""
        return tuple(P[self._index] for P in self._ev.projectors)

    # -- second fundamental form ---------------------------------------------

    @cached_property
    def B_val(self):
        return self.B_field.values

    @cached_property
    def H_val(self):
        return self.H_field.values

    def norm(self, v):
        """Length of an ambient vector at psi(point)."""
        return float(np.sqrt(max(v @ self.G_val @ v, 0.0)))

    # -- connection helpers ----------------------------------------------------

    def _connection_along(self, order):
        """The connection as A[al, a, c] truncated to `order`, once per order
        (its coefficients are those of the product of truncated factors)."""
        A = self._connection.get(order)
        if A is None:
            A = self._connection[order] = self.connection.truncate(order).transpose(2, 0, 1)
        return A

    def pullback_derivative(self, field):
        """nabla-bar_al of ambient jet fields along the immersion for every
        al, on a new leading axis; the last tensor axis of `field` is the
        ambient index.  Entry [al, ..., a] is d_al F[..., a] + sum_c
        A[al, a, c] F[..., c], summed over c in order."""
        out_order = field.space.order - 1
        k = len(field.shape) - 1  # tensor axes of `field` before the ambient one
        A = self._connection_along(out_order)[(slice(None),) + (None,) * k]
        low = field.truncate(out_order)[None, ..., None, :]
        return (A * low).sum(-1, start=field.derivs().transpose(k + 1, *range(k + 1)))

    def covariant_trace(self, covd, values):
        """`_covariant_trace` at this point: covd[a, b, ...] holds the
        derivative along the parameter direction a of the field F_b, whose
        values are values[b, ...]."""
        return _covariant_trace(self.g_inv_val[None], self.intrinsic_christoffels.values[None],
                                covd[None], values[None])[0]

    def rough_laplacian(self, field, first=None):
        """tr_g nabla^2 of an ambient jet field (negative-convention values);
        `first` is its `pullback_derivative` when the caller has it."""
        if first is None:
            first = self.pullback_derivative(field)
        return self.covariant_trace(self.pullback_derivative(first).values, first.values)

    # -- weight function -------------------------------------------------------

    @cached_property
    def grad_f_param(self):
        return self.grad_f_param_field.values

    @cached_property
    def grad_f_ambient(self):
        return self.grad_f_ambient_field.values

    @cached_property
    def trace_terms(self):
        """This point's view of the `TraceTerms` of its block."""
        return self._ev.trace_terms.at(self._index)


class Evaluation:
    """The fields of one immersion at P parameter points, built by
    `evaluate`: `fields` maps each field name to a jet with a points axis,
    also bound as an attribute of that name, and `gram_det` and `structure`
    hold one leading entry per point.  Item i is the `PointCalculus` of
    point i.  The projectors and the trace terms are computed for all points
    at once, on first use."""

    def __init__(self, imm, points, order, fields, gram_det, structure):
        self.imm = imm
        self.points = points
        self.order = order
        self.fields = fields
        self.gram_det = gram_det
        self.structure = structure
        self.__dict__.update(fields)
        self._connection = {}

    # the one implementation of the derivative along the immersion, here on
    # the batched fields
    _connection_along = PointCalculus._connection_along
    pullback_derivative = PointCalculus.pullback_derivative

    def __len__(self):
        return len(self.points)

    def __getitem__(self, index):
        return PointCalculus(self, index)

    def __iter__(self):
        return (PointCalculus(self, i) for i in range(len(self)))

    @cached_property
    def projectors(self):
        """(tangent, normal) projector matrices in ambient coordinates, one
        leading entry per point."""
        dpsi = self.dpsi.point_values(len(self))
        P = (dpsi @ self.induced_metric_inv_field.point_values(len(self))
             @ dpsi.swapaxes(-1, -2) @ self.G_field.point_values(len(self)))
        return P, np.eye(P.shape[-1]) - P

    @cached_property
    def trace_terms(self):
        """The `TraceTerms` of every point, computed once."""
        return trace_terms_at(self)


# -- public operation surface ---------------------------------------------------


def drain(calcs):
    """Yield the evaluations in `calcs` in order, removing each from the list
    first: the caller's loop then holds the only reference to the point it
    works on.  A point's cached quantities are released once the loop moves
    on; its jet fields are views into the arrays of its batch, and its trace
    terms a view of the batch's, which are released with the batch once the
    loop has left every point of it (at most BATCH_POINTS points)."""
    calcs.reverse()
    while calcs:
        yield calcs.pop()


def trace_terms_at(ev):
    """Build the `TraceTerms` of every point of an `Evaluation` at once,
    each field with a leading points axis: the jet products on the batched
    fields, the contractions on their values point by point.
    `Evaluation.trace_terms` keeps the one instance every point views."""
    count, m, d = len(ev), ev.imm.param_dim, ev.imm.ambient.chart_dim
    val = lambda jet: jet.point_values(count)
    ginv, G0, dpsi = val(ev.induced_metric_inv_field), val(ev.G_field), val(ev.dpsi)
    B, H = val(ev.B_field), val(ev.H_field)  # B[p, al, be, a]
    gam = val(ev.intrinsic_christoffels)
    P_tan, P_nor = ev.projectors
    # matrix times vector and inner product, point by point
    mv = lambda M, v: (M @ v[..., None])[..., 0]
    ip = lambda u, v: (u[:, None, :] @ G0 @ v[:, :, None])[:, 0, 0]
    # ambient components of the intrinsic gradient of a scalar jet field
    gradient_ambient = lambda jet: mv(dpsi, mv(ginv, val(jet.derivs())))

    # tr B(., A_H .) = g^{ag} g^{bd} <B_gd, H> B_ab
    BH = np.einsum("pabk,pkl,pl->pab", B, G0, H)
    tb_ah = np.einsum("pag,pbd,pgd,pabk->pk", ginv, ginv, BH, B)
    BG = B @ G0[:, None]  # BG[p, al, be] = <B_al,be, .>

    def trace_shape(W):
        """tr A_{W}(.) = g^{ab} g^{gd} <B_bd, W_a> dpsi_g of normal 1-forms W[p, a]."""
        return mv(dpsi, np.einsum("pab,pgd,pbdl,pal->pg", ginv, ginv, BG, W))

    def normal_trace(fields, values):
        """g^{ab} (P_nor nabla-bar_a F_b - Gam^g_ab F_g), the normal part of the
        trace of the covariant derivative of jet fields F[b] with values [p, b, a]."""
        covd = val(ev.pullback_derivative(fields))
        return _covariant_trace(ginv, gam, covd @ P_nor.swapaxes(-1, -2)[:, None], values)

    # normal connection of H along coordinate directions, W[al, a]; the
    # normal projector I - P is -P off the diagonal and -P + 1 on it, which
    # rounds as the scalar loops' 1 - P did
    covd_h = ev.pullback_derivative(ev.H_field)
    N = (-ev.projector_field).add_diagonal(1.0).truncate(covd_h.space.order)
    nabla_perp_h_field = (N[None] * covd_h[:, None, :]).sum(-1)
    nabla_perp_h = val(nabla_perp_h_field)

    # |H|^2 field and its gradient
    ord2 = ev.order - 2
    h2_terms = ev.G_field.truncate(ord2) * ev.H_field[:, None] * ev.H_field[None]

    # weight-function material
    grad_f = val(ev.grad_f_ambient_field)
    X = ev.grad_f_param_field
    grad_f_param = val(X)
    gf2_terms = ev.induced_metric_field.truncate(ev.order - 1) * X[:, None] * X[None]
    gf2_field = gf2_terms.reshape(m * m).sum(0)

    # (nabla_be grad f)^g = d_be (grad f)^g + Gam^g_{be, de} (grad f)^de
    hess_vec = val(X.derivs()).swapaxes(-1, -2) + np.einsum("pgbd,pd->pbg", gam, grad_f_param)

    # omega_beta = B(e_beta, grad f) as a jet field; its normal-connection trace
    omega_field = (ev.B_field * X.truncate(ord2)[None, :, None]).sum(1)
    omega = val(omega_field)

    # Ricci of the induced metric, Ric_jk = R^i_ijk, and the scalar curvature
    ric = np.einsum("piijk->pjk", curvature_from_christoffels(ev.intrinsic_christoffels, count))
    scal = (ginv.reshape(count, 1, m * m) @ ric.reshape(count, m * m, 1))[:, 0, 0]

    # structure material: two-step compositions of J (phi) and contact terms
    T = ev.structure["J" if ev.imm.ambient.structure == "hermitian" else "phi"]
    tan_TH = mv(P_tan, mv(T, H))
    tan_Tgf = mv(P_tan, mv(T, grad_f))
    if ev.imm.ambient.structure == "contact":
        xi = ev.structure["xi"]
        xi_tan = mv(P_tan, xi)
        contact = dict(eta_h=ip(xi, H), xi_tan=xi_tan, xi_nor=mv(P_nor, xi),
                       xi_tan_norm2=ip(xi_tan, xi_tan), eta_grad_f=ip(xi, grad_f))
    else:
        zero, zeros = np.zeros(count), np.zeros((count, d))
        contact = dict(eta_h=zero, xi_tan=zeros, xi_nor=zeros, xi_tan_norm2=zero,
                       eta_grad_f=zero)

    return TraceTerms(
        n=m,
        f=val(ev.f_jet),
        grad_f=grad_f,
        grad_f_norm2=val(gf2_field),
        delta_f_pos=val(ev.delta_f_pos_field),
        grad_delta_f_pos=gradient_ambient(ev.delta_f_pos_field),
        grad_grad_f_norm2=gradient_ambient(gf2_field),
        ric_grad_f=mv(dpsi, mv(ginv, mv(ric, grad_f_param))),
        scal=scal,
        h_norm2=ip(H, H),
        grad_h_norm2=gradient_ambient(h2_terms.reshape(d * d).sum(0)),
        tb_ah=tb_ah,
        ta_nabla_perp_h=trace_shape(nabla_perp_h),
        delta_perp_h_pos=-normal_trace(nabla_perp_h_field, nabla_perp_h),
        nabla_perp_h=nabla_perp_h,
        nabla_perp_gradf_h=np.einsum("pa,pak->pk", grad_f_param, nabla_perp_h),
        # A_H grad f = g^{gb} <B(grad f, e_b), H> dpsi_g
        a_h_grad_f=mv(dpsi, mv(ginv, np.einsum("pa,pabl,pl->pb", grad_f_param, BG, H))),
        # tr B(., nabla_. grad f) = g^{ab} B_{a gamma} (nabla_b grad f)^gamma
        tb_hess_f=np.einsum("pab,pbg,pagk->pk", ginv, hess_vec, B),
        tnb_grad_f=normal_trace(omega_field, omega),
        ta_b_grad_f=trace_shape(omega),
        b_gradf_gradf=np.einsum("pa,pb,pabk->pk", grad_f_param, grad_f_param, B),
        b_norm2=np.einsum("pag,pbd,pabl,pgdl->p", ginv, ginv, BG, B),
        a_h_norm2=np.einsum("pag,pbd,pab,pgd->p", ginv, ginv, BH, BH),
        nabla_perp_h_norm2=np.einsum("pab,pal,pbl->p", ginv, nabla_perp_h @ G0,
                                     nabla_perp_h),
        H=H,
        coeffs=np.stack(ev.imm.ambient.curvature_coeffs_at(val(ev.psi)), axis=-1),
        kl_H=mv(P_nor, mv(T, tan_TH)),
        jl_H=mv(P_tan, mv(T, tan_TH)),
        mm_H=mv(P_nor, mv(T, mv(P_nor, mv(T, H)))),
        kj_grad_f=mv(P_nor, mv(T, tan_Tgf)),
        j2_grad_f=mv(P_tan, mv(T, tan_Tgf)),
        **contact,
    )


# -- flag verification -----------------------------------------------------------


def flag_deviation(imm, calcs, name):
    """Numeric deviation of one structural property over the points of
    `calcs` (one PointCalculus each).

    Returns max deviation (0 = property holds exactly).  Structural flags
    (hypersurface, curve) return 0.0 or inf.
    """
    if name == "hypersurface":
        return 0.0 if imm.codim == 1 else float("inf")
    if name == "curve":
        return 0.0 if imm.param_dim == 1 else float("inf")
    dev = 0.0
    h_values = []
    for pc in calcs:
        if name in ("complex", "lagrangian", "invariant", "anti_invariant"):
            if name in ("complex", "lagrangian") and imm.ambient.structure != "hermitian":
                raise FlagError(name, f"flag {name!r} needs a Hermitian ambient")
            if name in ("invariant", "anti_invariant") and imm.ambient.structure != "contact":
                raise FlagError(name, f"flag {name!r} needs a contact ambient")
            # Frobenius norms of the four structure-decomposition blocks
            tt, tn, nt, nn = (float(np.linalg.norm(M)) for M in pc.decomposition_operators)
            if name == "complex":
                dev = max(dev, tn, nt)
            elif name == "lagrangian":
                dev = max(dev, tt, nn)
            elif name == "invariant":
                dev = max(dev, tn)
            else:
                dev = max(dev, tt)
        elif name in ("xi_tangent", "xi_normal"):
            if imm.ambient.structure != "contact":
                raise FlagError(name, f"flag {name!r} needs a contact ambient")
            P_tan, P_nor = pc.projectors
            xi = pc.structure["xi"]
            part = P_nor @ xi if name == "xi_tangent" else P_tan @ xi
            dev = max(dev, float(np.sqrt(part @ pc.G_val @ part)))
        elif name == "parallel_H":
            dev = max(dev, float(np.sqrt(max(pc.trace_terms.nabla_perp_h_norm2, 0.0))))
        elif name == "cmc":
            h_values.append(np.sqrt(float(pc.H_val @ pc.G_val @ pc.H_val)))
        else:
            raise FlagError(name, f"unknown flag {name!r}")
    if name == "cmc":
        dev = float(max(h_values) - min(h_values)) if h_values else 0.0
    return dev


def verify_flags(imm, calcs, tol=FLAG_TOL):
    """Check each asserted/denied flag numerically; raise FlagError on failure.

    Returns {flag: measured deviation} for all declared flags.
    """
    report = {}
    for name, state in imm.flags.items():
        if state == "unknown":
            continue
        dev = flag_deviation(imm, calcs, name)
        report[name] = dev
        if state == "asserted" and not dev <= tol:
            raise FlagError(
                name, f"flag {name!r} asserted but deviation {dev:.3e} exceeds {tol:.1e}"
            )
        if state == "denied" and dev <= tol:
            raise FlagError(
                name, f"flag {name!r} denied but the property holds (deviation {dev:.3e})"
            )
    return report
