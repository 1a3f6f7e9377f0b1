"""Extrinsic and intrinsic invariants of an immersion at sample points.

`evaluate` builds the jet fields the residual equations consume (induced
metric, second fundamental form, mean curvature, connection, projector,
weight-function fields) at all sample points of a block in one batched pass,
an `Evaluation`, from the checked ambient metric and Christoffels of
`spaces.metric_and_christoffel_jets`.  The block is the unit every consumer
takes: from it come the trace terms (normal connection and Laplacian of H,
intrinsic Ricci and scalar curvature, the weight-function traces, ...), the
projectors, the covariant trace (`Evaluation.covariant_trace`, which every
trace term and rough Laplacian uses), the orthonormal frames and the
tangential/normal decomposition of the ambient structure tensor, each
computed once per block with a leading points axis.

All quantities are assembled in coordinate (not orthonormal) form wherever
possible, so the results are frame-independent by construction; orthonormal
frames are produced deterministically (Gram-Schmidt in parameter order,
normal completion by ambient coordinate axes in index order) for the
operator matrices.  The frames alone are built point by point: the axes
that complete the normal frame differ between points.

Laplacian conventions here are positive: Delta f = -tr Hess f on functions
and Delta-perp = -(trace of the squared normal connection) on normal
fields.  The raw ambient rough Laplacian tr(nabla^2), used by the direct
Euler-Lagrange oracles, is exposed separately as `rough_laplacian`.

Float order.  The batched jet fields round bit for bit as per-point scalar
jets would (see `jets`).  What is computed from their values is numpy
contractions with a leading points index, which add in numpy's float order,
within 1e-12 relative of index loops.  A chain of matrix products is one
stacked matmul per factor, in the association a single point would use
(`matvec`, `Evaluation.inner`), and a point's result does not depend on the
other points of its block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import Expression, eval_on_jets, parse, variables_of
from .jets import Composer, Jet, _upper_pairs, jet_space
from .spaces import (AmbientSpace, SpaceError, chart_jets, christoffel_jets,
                     curvature_from_christoffels, jet_matrix_inverse,
                     metric_and_christoffel_jets)

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
    "matvec",
    "point_rows",
    "orthonormal_frames",
    "trace_terms_at",
    "verify_flags",
    "FLAG_NAMES",
    "FLAG_TOL",
]

RANK_TOL = 1e-10

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

    `trace_terms_at` builds the instance of an evaluation block: every
    field but `n` carries a leading points axis, scalars as P-arrays and
    vectors as (P, chart_dim) arrays; `coeffs` is a (k, P) array, so that
    coeffs[k] is a P-array like the other scalars.
    """

    n: int                           # dimension of the submanifold
    f: np.ndarray
    grad_f: np.ndarray               # ambient tangent vector
    grad_f_norm2: np.ndarray
    delta_f_pos: np.ndarray          # -tr Hess f
    grad_delta_f_pos: np.ndarray
    grad_grad_f_norm2: np.ndarray    # grad |grad f|^2
    ric_grad_f: np.ndarray           # Ric_M(grad f), ambient vector
    scal: np.ndarray
    h_norm2: np.ndarray
    grad_h_norm2: np.ndarray         # grad |H|^2
    tb_ah: np.ndarray                # tr B(., A_H .)            [normal]
    ta_nabla_perp_h: np.ndarray      # tr A_{nabla-perp H}(.)    [tangent]
    delta_perp_h_pos: np.ndarray     # positive normal Laplacian [normal]
    nabla_perp_gradf_h: np.ndarray   # nabla-perp_{grad f} H     [normal]
    a_h_grad_f: np.ndarray           # A_H grad f                [tangent]
    tb_hess_f: np.ndarray            # tr B(., nabla_. grad f)   [normal]
    tnb_grad_f: np.ndarray           # tr (nabla-perp_. B)(., grad f) [normal]
    ta_b_grad_f: np.ndarray          # tr A_{B(., grad f)}(.)    [tangent]
    b_gradf_gradf: np.ndarray        # B(grad f, grad f)         [normal]
    eta_h: np.ndarray
    xi_tan: np.ndarray
    xi_nor: np.ndarray
    xi_tan_norm2: np.ndarray
    b_norm2: np.ndarray
    H: np.ndarray                    # mean curvature vector
    coeffs: np.ndarray               # ambient (alpha, beta) or (f1, f2, f3)
    kl_H: np.ndarray                 # [normal]
    jl_H: np.ndarray                 # [tangent]
    mm_H: np.ndarray                 # [normal]
    kj_grad_f: np.ndarray            # [normal]
    j2_grad_f: np.ndarray            # [tangent]
    eta_grad_f: np.ndarray

    def __post_init__(self):
        # One instance serves every caller of a block: forbid in-place edits.
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


# Points per batched evaluation (`evaluate_batches`, validation): it bounds
# the temporaries of one pass.  With 16, the peak resident memory of the
# hyper3d benchmark (64 order-4 points) is 44.5 MB against 41.3 MB for
# per-point evaluation; with 32 it is 47.6 MB and with 64 52.9 MB (2-vCPU
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


def _ambient_along(space, psi, psi_val, order):
    """The ambient metric (to order - 1) and Christoffels (to order - 2)
    composed along the immersion psi, the depths the fields consume, and
    the chart Christoffels to order 1 (for the curvature); the chart jets
    are dropped on return.  Their coefficients are those of deeper jets,
    truncated.  Raises ChartError off the chart or where the metric is not
    finite and positive definite."""
    G, Gam = metric_and_christoffel_jets(space, psi_val, max(order - 1, 2))
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
    ChartError off the chart or where the ambient metric is not finite and
    positive definite, CalcError where the immersion is rank-deficient or
    its Gram determinant not finite (naming the first such point),
    SpaceError or JetError where an expression or matrix fails at some
    point."""
    space = imm.ambient
    if not space.has_metric:
        raise SpaceError(
            f"{space.kind} has no concrete metric; only curvature-model "
            "evaluation is available"
        )
    points = np.asarray(points, dtype=float)
    count = len(points)
    m, d = imm.param_dim, space.chart_dim
    # the map and the weight share one memo: a sub-expression or reciprocal
    # they have in common is built once; it is released before the ambient
    # build
    env, memo = parameter_jets(imm.params, points, order), {}
    psi = Jet.stack([eval_on_jets(c, env, memo) for c in imm.components])
    # a constant weight comes out without points axis
    f_jet = eval_on_jets(imm.weight, env, memo)
    del memo
    psi_val = psi.point_values(count)
    G, Gam, chart_gam = _ambient_along(space, psi, psi_val, order)
    dpsi = psi.derivs()
    g = _induced_metric(G, dpsi)
    gram_det = np.linalg.det(g.point_values(count))
    bad = np.flatnonzero(~(np.isfinite(gram_det) & (gram_det > RANK_TOL)))
    if bad.size:
        det = gram_det[bad[0]]
        what = "immersion rank-deficient" if np.isfinite(det) else "induced metric not finite"
        raise CalcError(f"{what} at {points[bad[0]]}: gram det {det:.3e}")
    g_inv = jet_matrix_inverse(g)
    Gam_int = christoffel_jets(g, g_inv)
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
    raises: an evaluation error as PointError, a check's error as it is.
    numpy's overflow, invalid-value and division warnings are silenced: the
    finiteness checks of `evaluate` and `check` reject such points."""
    for start in range(0, len(points), BATCH_POINTS):
        block = points[start:start + BATCH_POINTS]
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    """Raise a WeightError at the first point where the weight is not finite and positive."""
    f = ev.f_jet.point_values(len(ev))
    bad = np.flatnonzero(~(np.isfinite(f) & (f > 0.0)))
    if bad.size:
        point, value = ev.points[bad[0]], f[bad[0]]
        what = "positive" if np.isfinite(value) else "finite"
        raise WeightError(point, f"weight not {what} at {point.tolist()} (f = {value:.3e})")


def matvec(M, v):
    """M[p] @ v[p] at each point, as one stacked matmul: it rounds as the
    product at each point alone."""
    return (M @ v[..., None])[..., 0]


def point_rows(ev, columns):
    """One report row per point of `ev`: the point's parameters, then entry
    i of every per-point array of the (nested) dict `columns`, as Python
    scalars; other values are copied."""

    def entry(value, i):
        if isinstance(value, dict):
            return {key: entry(sub, i) for key, sub in value.items()}
        return value[i].item() if isinstance(value, np.ndarray) else value

    return [{"point": ev.points[i].tolist(), **entry(columns, i)} for i in range(len(ev))]


def orthonormal_frames(G, dpsi, point):
    """Orthonormal (tangent, normal) frames at one point, rows E[i, a] and
    N[s, a], from its ambient metric G[a, b] and dpsi[a, al]: Gram-Schmidt
    of the coordinate tangent vectors in parameter order, completed by the
    ambient coordinate axes in index order.  Which axes complete the frame
    depends on the point, so frames are built point by point."""
    d, m = dpsi.shape

    def gram_schmidt(vectors, basis):
        out = []
        for v in vectors:
            w = np.asarray(v, float).copy()
            for _ in range(2):  # re-orthogonalization pass
                for b in basis + out:
                    w = w - (b @ G @ w) * b
            norm = float(np.sqrt(w @ G @ w))
            if norm < RANK_TOL:
                return out, False
            out.append(w / norm)
        return out, True

    tangent, ok = gram_schmidt([dpsi[:, al] for al in range(m)], [])
    if not ok:
        raise CalcError(f"tangent frame degenerate at {point}")
    normal = []
    for a in range(d):
        if len(normal) == d - m:
            break
        added, ok = gram_schmidt([np.eye(d)[a]], tangent + normal)
        if ok:
            normal.extend(added)
    if len(normal) != d - m:
        raise CalcError(f"normal frame completion failed at {point}")
    return np.array(tangent), np.array(normal)


class Evaluation:
    """The fields of one immersion at a block of P parameter points, built
    by `evaluate`, and everything computed from them: the unit every
    command, audit and checker consumes.

    `fields` maps each field name to a tensor jet with a points axis, also
    bound as an attribute of that name (index layout in its name or below:
    ambient indices a, b, c, parameter indices al, be, g); `values(jet)`
    gives the constant terms of such a jet point by point.  `gram_det` and
    `structure` (J, or phi, xi and eta, at psi of each point) hold one
    leading entry per point.  Every quantity below carries a leading points
    axis and is computed for all points at once, on first use.

    Jet fields: psi, f_jet, G_field (order - 1), Gam_field (Gam[k, a, b] =
    Gamma^k_ab along the immersion, order - 2), chart_christoffels (order 1,
    at psi of each point), dpsi (dpsi[a, al], order - 1),
    induced_metric_field and its inverse, intrinsic_christoffels,
    projector_field (P[a, b]), B_field (B[al, be, a]), H_field, connection
    (A[a, c, al], order - 2), grad_f_param_field, grad_f_ambient_field and
    delta_f_pos_field.
    """

    def __init__(self, imm, points, order, fields, gram_det, structure):
        self.imm = imm
        self.space = imm.ambient
        self.m, self.d = imm.param_dim, self.space.chart_dim
        self.points = points
        self.order = order
        self.fields = fields
        self.gram_det = gram_det
        self.structure = structure
        self.__dict__.update(fields)
        self._connection = {}

    def __len__(self):
        return len(self.points)

    def values(self, jet):
        """Constant terms of a jet field of this block, point by point."""
        return jet.point_values(len(self))

    def inner(self, u, v):
        """<u[p], v[p]> in the ambient metric at psi of each point."""
        return (u[:, None] @ self.values(self.G_field) @ v[..., None])[:, 0, 0]

    def norm(self, v):
        """Length of the ambient vector v[p] at psi of each point."""
        return np.sqrt(np.maximum(self.inner(v, v), 0.0))

    def form_norm2(self, W):
        """g^{ab} <W_a, W_b> of ambient-valued 1-forms W[p, a], point by point."""
        return np.einsum("pab,pal,pbl->p", self.values(self.induced_metric_inv_field),
                         W @ self.values(self.G_field), W)

    @cached_property
    def projectors(self):
        """(tangent, normal) projector matrices in ambient coordinates."""
        dpsi = self.values(self.dpsi)
        P = (dpsi @ self.values(self.induced_metric_inv_field)
             @ dpsi.swapaxes(-1, -2) @ self.values(self.G_field))
        return P, np.eye(P.shape[-1]) - P

    @cached_property
    def trace_terms(self):
        """The `TraceTerms` of the block, computed once."""
        return trace_terms_at(self)

    @cached_property
    def nabla_perp_h_field(self):
        """nabla-perp_al H, a jet field W[al, a] of order - 3; the normal projector
        as -P with 1 added on the diagonal rounds as the scalar loops' 1 - P."""
        covd_h = self.pullback_derivative(self.H_field)
        N = (-self.projector_field).add_diagonal(1.0).truncate(covd_h.space.order)
        return (N[None] * covd_h[:, None, :]).sum(-1)

    @cached_property
    def ambient_curvature(self):
        """R[p, l, i, j, k] values of the ambient curvature at psi of each
        point, from the chart Christoffels."""
        return curvature_from_christoffels(self.chart_christoffels, len(self))

    @property
    def structure_tensor(self):
        return self.structure["J" if self.space.structure == "hermitian" else "phi"]

    @cached_property
    def frames(self):
        """Orthonormal (tangent, normal) frames E[p, i, a] and N[p, s, a]
        (`orthonormal_frames` at each point)."""
        G, dpsi = self.values(self.G_field), self.values(self.dpsi)
        frames = [orthonormal_frames(G[i], dpsi[i], self.points[i]) for i in range(len(self))]
        return tuple(np.array(f) for f in zip(*frames))

    @cached_property
    def decomposition_operators(self):
        """Matrices of the structure-tensor decomposition in the frames.

        Hermitian ambient: (j, k, l, m) with blocks TM->TM, TM->NM, NM->TM,
        NM->NM of J.  Contact ambient: (P, N, s, t) likewise for phi; s is the
        tangential and t the normal part on the normal bundle.
        """
        F = np.concatenate(self.frames, axis=1)
        # M[p, i, j] = <F_i, T F_j>
        M = F @ self.values(self.G_field) @ self.structure_tensor @ F.swapaxes(-1, -2)
        m = self.m
        return M[:, :m, :m], M[:, m:, :m], M[:, :m, m:], M[:, m:, m:]

    # -- derivatives along the immersion ---------------------------------------

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
        """g^{ab} (covd[a, b] - Gam^g_ab values[g]) at each point, with the
        block's inverse metric and intrinsic Christoffels: the values of the
        trace of a covariant derivative, covd[p, a, b, ...] holding the
        derivative along the parameter direction a of the field F_b, whose
        values are values[p, b, ...]."""
        corr = np.einsum("pgab,pg...->pab...", self.values(self.intrinsic_christoffels), values)
        return np.einsum("pab,pab...->p...", self.values(self.induced_metric_inv_field),
                         covd - corr)

    def rough_laplacian(self, field, first=None):
        """tr_g nabla^2 of an ambient jet field (negative-convention values);
        `first` is its `pullback_derivative` when the caller has it."""
        if first is None:
            first = self.pullback_derivative(field)
        return self.covariant_trace(self.values(self.pullback_derivative(first)),
                                    self.values(first))


def trace_terms_at(ev):
    """Build the `TraceTerms` of every point of an `Evaluation` at once,
    each field with a leading points axis: the jet products on the batched
    fields, the contractions on their values point by point.
    `Evaluation.trace_terms` keeps the one instance."""
    count, m, d = len(ev), ev.m, ev.d
    val = ev.values
    ginv, G0, dpsi = val(ev.induced_metric_inv_field), val(ev.G_field), val(ev.dpsi)
    B, H = val(ev.B_field), val(ev.H_field)  # B[p, al, be, a]
    gam = val(ev.intrinsic_christoffels)
    P_tan, P_nor = ev.projectors
    mv, ip = matvec, ev.inner
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
        return ev.covariant_trace(covd @ P_nor.swapaxes(-1, -2)[:, None], values)

    nabla_perp_h = val(ev.nabla_perp_h_field)

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
    T = ev.structure_tensor
    tan_TH = mv(P_tan, mv(T, H))
    tan_Tgf = mv(P_tan, mv(T, grad_f))
    if ev.space.structure == "contact":
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
        delta_perp_h_pos=-normal_trace(ev.nabla_perp_h_field, nabla_perp_h),
        nabla_perp_gradf_h=np.einsum("pa,pak->pk", grad_f_param, nabla_perp_h),
        # A_H grad f = g^{gb} <B(grad f, e_b), H> dpsi_g
        a_h_grad_f=mv(dpsi, mv(ginv, np.einsum("pa,pabl,pl->pb", grad_f_param, BG, H))),
        # tr B(., nabla_. grad f) = g^{ab} B_{a gamma} (nabla_b grad f)^gamma
        tb_hess_f=np.einsum("pab,pbg,pagk->pk", ginv, hess_vec, B),
        tnb_grad_f=normal_trace(omega_field, omega),
        ta_b_grad_f=trace_shape(omega),
        b_gradf_gradf=np.einsum("pa,pb,pabk->pk", grad_f_param, grad_f_param, B),
        b_norm2=np.einsum("pag,pbd,pabl,pgdl->p", ginv, ginv, BG, B),
        H=H,
        coeffs=np.stack(ev.space.curvature_coeffs_at(val(ev.psi))),
        kl_H=mv(P_nor, mv(T, tan_TH)),
        jl_H=mv(P_tan, mv(T, tan_TH)),
        mm_H=mv(P_nor, mv(T, mv(P_nor, mv(T, H)))),
        kj_grad_f=mv(P_nor, mv(T, tan_Tgf)),
        j2_grad_f=mv(P_tan, mv(T, tan_Tgf)),
        **contact,
    )


# -- flag verification -----------------------------------------------------------


def flag_deviation(imm, blocks, name):
    """Numeric deviation of one structural property over the points of the
    evaluation blocks `blocks`.

    Returns max deviation (0 = property holds exactly).  Structural flags
    (hypersurface, curve) return 0.0 or inf.
    """
    if name == "hypersurface":
        return 0.0 if imm.codim == 1 else float("inf")
    if name == "curve":
        return 0.0 if imm.param_dim == 1 else float("inf")
    if name not in FLAG_NAMES:
        raise FlagError(name, f"unknown flag {name!r}")
    needs = {"complex": "hermitian", "lagrangian": "hermitian", "invariant": "contact",
             "anti_invariant": "contact", "xi_tangent": "contact", "xi_normal": "contact"}
    if needs.get(name, imm.ambient.structure) != imm.ambient.structure:
        ambient = "a Hermitian" if needs[name] == "hermitian" else "a contact"
        raise FlagError(name, f"flag {name!r} needs {ambient} ambient")
    devs = np.concatenate([_point_deviations(ev, name) for ev in blocks] or [np.zeros(0)])
    if name == "cmc":
        return float(devs.max() - devs.min()) if devs.size else 0.0
    return float(np.max(devs, initial=0.0))


def _point_deviations(ev, name):
    """The deviation of each point of a block from a non-structural flag
    (for cmc, the length of H)."""
    if name in ("complex", "lagrangian", "invariant", "anti_invariant"):
        # Frobenius norms of the four structure-decomposition blocks
        flat = lambda M: M.reshape(len(M), 1, -1)
        tt, tn, nt, nn = (np.sqrt(flat(M) @ flat(M).swapaxes(-1, -2))[:, 0, 0]
                          for M in ev.decomposition_operators)
        return {"complex": np.maximum(tn, nt), "lagrangian": np.maximum(tt, nn),
                "invariant": tn, "anti_invariant": tt}[name]
    if name in ("xi_tangent", "xi_normal"):
        P_tan, P_nor = ev.projectors
        return ev.norm(matvec(P_nor if name == "xi_tangent" else P_tan, ev.structure["xi"]))
    if name == "parallel_H":
        return np.sqrt(np.maximum(ev.form_norm2(ev.values(ev.nabla_perp_h_field)), 0.0))
    return ev.norm(ev.values(ev.H_field))  # cmc


def verify_flags(imm, blocks, tol=FLAG_TOL):
    """Check each asserted/denied flag numerically; raise FlagError on failure.

    Returns {flag: measured deviation} for all declared flags.
    """
    report = {}
    for name, state in imm.flags.items():
        if state == "unknown":
            continue
        dev = flag_deviation(imm, blocks, name)
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
