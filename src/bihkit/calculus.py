"""Extrinsic and intrinsic invariants of an immersion at sample points.

`evaluate` builds the jet fields the residual equations consume (induced
metric, second fundamental form, mean curvature, connection, projector,
weight-function fields) at all sample points of a block in one batched pass,
an `Evaluation`, from the checked ambient metric and Christoffels of
`spaces.metric_and_christoffel_jets`.  A pass has a fixed cost in jet
operations, so `evaluate_batches` makes blocks as large as a memory budget
allows (`block_points`), one block per catalog immersion.  The block is the
unit every consumer takes.  The trace terms are attributes of the block (in
Hermitian notation: the normal Laplacian of H, Ricci and scalar curvature,
the weight traces, ..., `ev.tb_ah`), each built on its first read by its
`TRACE_TERMS` producer; the projectors (P is the values of
`projector_field`), nabla grad f (`nabla_grad_f_field`), the covariant
trace, the orthonormal frames and the tangential/normal decomposition of
the ambient structure tensor come from it too, each from one producer, once
per block with a leading points axis.  A command joins the per-point arrays
it reads of every block once (`joined`), and takes its rows and maxima from
them.

All quantities are assembled in coordinate (not orthonormal) form wherever
possible, so the results are frame-independent by construction; orthonormal
frames are produced deterministically (a Cholesky factor of the metric and
one complete QR, `orthonormal_frames`) for the operator matrices, for all
points of a block at once.

Laplacian conventions here are positive: Delta f = -tr Hess f on functions
and Delta-perp = -(trace of the squared normal connection) on normal
fields.  The raw ambient rough Laplacian tr(nabla^2), used by the direct
Euler-Lagrange oracles, is exposed separately as `rough_laplacian`.

Float order.  The batched jet fields round bit for bit as per-point scalar
jets would (see `jets`).  Their values are contracted two operands at a
time, by stacked matmuls or einsums with a leading points index, in numpy's
float order: within 1e-12 relative of index loops, each point rounding as
alone.  The curvature trace tr R(dpsi, v) dpsi, linear in v, is one cached
operator per block (`Evaluation.curvature_operator`), one `matvec` per v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .expr import Expression, eval_on_jets, parse
from .jets import Composer, Jet, _upper_pairs
from .spaces import (AmbientSpace, chart_jets, christoffel_jets, curvature_from_christoffels,
                     inner, jet_matrix_inverse, matvec, metric_and_christoffel_jets)

__all__ = [
    "Immersion",
    "Evaluation",
    "evaluate",
    "evaluate_batches",
    "block_points",
    "map_jets",
    "parameter_jets",
    "TRACE_TERMS",
    "CalcError",
    "FlagError",
    "PointError",
    "WeightError",
    "matvec",
    "joined",
    "point_rows",
    "orthonormal_frames",
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

    @property
    def param_dim(self):
        return len(self.params)

    @property
    def codim(self):
        return self.ambient.chart_dim - len(self.params)

    @staticmethod
    def from_strings(params, ambient, components, weight="1", flags=None):
        comp = [parse(c, params) for c in components]
        w = parse(weight, params)
        return Immersion(list(params), ambient, comp, w, dict(flags or {}))


# The footprint of 64 points of the heaviest catalog block, a 3-parameter
# immersion in a 4-dimensional chart at order 4, bounds every block
# (`block_points`), so every catalog immersion is one block at orders 2-4:
# a block pays a fixed cost in jet operations whatever its size.  c18's
# order-4 block peaks at 5.9 MB traced, 1.8 MB at 16 points; peak RSS of
# hyper3d 42.4 MB, 43.1 at 16 points with OpenSSL loaded (medians, 2-vCPU Xeon).
BLOCK_BUDGET = 64 * 4**3 * 35


def block_points(m, d, order):
    """Points per evaluation block of an m-parameter immersion in a
    d-dimensional chart at jet order `order`: BLOCK_BUDGET over a point's
    footprint d^3 max(S(m, order), S(d, max(order - 1, 2))), S(v, o) =
    C(v + o, v) being the size of a jet space (the chart jets are built at
    order max(order - 1, 2), `_ambient_along`), and at least 16."""
    footprint = d**3 * max(math.comb(m + order, m), math.comb(d + max(order - 1, 2), d))
    return max(16, BLOCK_BUDGET // footprint)


def parameter_jets(params, points, order):
    """{name: the parameter as a jet of the given order} at each row of a
    (P, m) array of parameter points, for `eval_on_jets`."""
    return dict(zip(params, chart_jets(points, order)))


def map_jets(imm, points, order):
    """The map, as a vector jet over the chart axes, of the given order at
    each row of a (P, m) array of parameter points.  The weight is not
    evaluated.  The components share one memo, as in `evaluate`."""
    env, memo = parameter_jets(imm.params, points, order), {}
    return Jet.stack([eval_on_jets(c, env, memo) for c in imm.components])


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
    truncated.  One composer serves both: its monomial table reaches only
    the highest degree a chart jet is nonzero at and the order kept, so a
    constant metric composes one row and vanishing Christoffels none.  Both
    are symmetric in (the lower) two indices, so only the entries i <= j
    are composed.  Raises ChartError off the chart or where the metric is
    not finite and positive definite."""
    G, Gam = metric_and_christoffel_jets(space, psi_val, max(order - 1, 2))
    compose = Composer([psi[a].centered() for a in range(space.chart_dim)])
    i, j = _upper_pairs(space.chart_dim)
    return (compose.apply_truncated(G.truncate(order - 1)[i, j]).symmetric(),
            compose.apply_truncated(Gam.truncate(order - 2)[:, i, j]).symmetric(axis=1),
            Gam.truncate(1))


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
      - sum_g Gam_int[g, al, be] dpsi[a, g],
    added left to right in that order, (b, c) = (0, 0), (0, 1), ..., then
    g = 0, 1, ...  The ambient terms are formed one b at a time and added
    into the running sum, so no (d, d, d, pairs) product is held."""
    d, m = dpsi.shape
    ord2 = Gam_dpsi.space.order
    dpsi2 = dpsi.truncate(ord2)
    al, be = _upper_pairs(m)
    acc = dpsi.derivs()[:, al, be]
    for b in range(d):
        acc = (Gam_dpsi[:, b][..., al] * dpsi2[None, :, be]).sum(1, start=acc)  # [a, c, p]
    intr = Gam_int.truncate(ord2)[None, :, al, be] * dpsi2[..., None]  # [a, g, p]
    return (-intr).sum(1, start=acc).transpose(1, 0).symmetric()


def evaluate(imm, points, order=4):
    """Every jet field of `imm` at each row of a (P, m) array of parameter
    points, in one batched pass: psi, f, the ambient metric and
    Christoffels composed along the immersion (and the chart Christoffels to
    order 1, for the curvature), the induced metric, its inverse and
    Christoffels, B, H, the connection along the immersion, the tangent
    projector, grad f and the Laplacian of f.  `order` (>= 2) bounds the
    derivative depth; 4 covers every assembled residual.

    Each field rounds exactly as it would at each point alone.  Raises
    CalcError where the map is not finite, ChartError off the chart or where
    the ambient metric is not finite and positive definite, CalcError where
    the immersion is rank-deficient or its Gram determinant not finite
    (naming the first such point),
    SpaceError or JetError where an expression or matrix fails at some
    point, and SpaceError on an ambient without a concrete metric."""
    space = imm.ambient
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
    if not np.isfinite(psi_val).all():
        raise CalcError("map not finite")
    G, Gam, chart_gam = _ambient_along(space, psi, psi_val, order)
    dpsi = psi.derivs()
    g = _induced_metric(G, dpsi)
    gram_det = np.linalg.det(g.point_values(count))
    bad = np.flatnonzero(~(np.isfinite(gram_det) & (gram_det > RANK_TOL)))
    if bad.size:
        det = gram_det[bad[0]]
        what = "immersion rank-deficient" if np.isfinite(det) else "induced metric not finite"
        raise CalcError(f"{what} at {points[bad[0]]}: gram det {det:.3e}")
    # every reader of the inverse takes it at order - 2
    ord2 = order - 2
    g_inv = jet_matrix_inverse(g.truncate(ord2))
    Gam_int = christoffel_jets(g, g_inv)
    dpsi2 = dpsi.truncate(ord2)
    # Gam_dpsi[a, b, c, al] = Gam^a_bc d_al psi^b; summed over b it is the
    # connection along the immersion A[a, c, al]
    Gam_dpsi = Gam[..., None] * dpsi2[None, :, None]
    B = _second_fundamental_form(Gam_dpsi, Gam_int, dpsi)
    # mean curvature H = tr_g B / m
    H = (g_inv[:, :, None] * B).reshape(m * m, d).sum(0) / float(m)
    # weight function: (grad f)^alpha, its ambient vector and Delta f
    grad_f_param = (g_inv * f_jet.derivs().truncate(ord2)[None]).sum(1)
    grad_f_ambient = (dpsi2 * grad_f_param[None]).sum(1)
    fields = {
        "psi": psi, "f_jet": f_jet, "G_field": G, "Gam_field": Gam,
        "chart_christoffels": chart_gam,
        "dpsi": dpsi, "induced_metric_field": g, "induced_metric_inv_field": g_inv,
        "intrinsic_christoffels": Gam_int,
        "projector_field": _projector(dpsi2, g_inv, G.truncate(ord2)),
        "B_field": B, "H_field": H, "connection": Gam_dpsi.sum(1),
        "grad_f_param_field": grad_f_param, "grad_f_ambient_field": grad_f_ambient,
        "delta_f_pos_field": _laplacian_pos(g_inv, Gam_int, f_jet),
    }
    return Evaluation(imm, points, order, fields, gram_det)


def evaluate_batches(imm, points, order=4):
    """`evaluate` over consecutive blocks of `block_points` points (the last
    one shorter), yielded in order, each block's weight checked finite and
    positive.  A point's fields do not depend on its block, so the block
    size changes no report.

    A block fails only where one of its points does, so a failing block is
    evaluated again in halves, the first half first, down to the first point
    that fails alone.  The blocks of the points before it are yielded (a
    block whose weight fails cut there, `Evaluation.split`), then it
    raises: an evaluation error as PointError, a weight error as
    WeightError.  numpy's overflow, invalid-value and division warnings are
    silenced: the finiteness checks of `evaluate` and of the weight reject
    such points."""
    size = block_points(imm.param_dim, imm.ambient.chart_dim, order)
    for start in range(0, len(points), size):
        block = points[start:start + size]
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ev = evaluate(imm, block, order)
        # chart, rank, jet and math-domain errors are ValueErrors; overflow
        # and division by zero are ArithmeticErrors
        except (ValueError, ArithmeticError) as exc:
            if len(block) > 1:
                for half in np.array_split(block, 2):
                    yield from evaluate_batches(imm, half, order)
            raise PointError(block[0], str(exc)) from None
        f = ev.f_jet.point_values(len(ev))
        bad = np.flatnonzero(~(np.isfinite(f) & (f > 0.0)))
        if bad.size:
            k, value = bad[0], f[bad[0]]
            if k:
                yield ev.split(k)[0]
            what = "positive" if np.isfinite(value) else "finite"
            raise WeightError(block[k], f"weight not {what} at {block[k].tolist()} "
                                        f"(f = {value:.3e})")
        yield ev


def joined(blocks, columns):
    """A namespace of the `points` of the evaluation blocks `blocks` (one or
    more) and of each array of the dict `columns(ev)`, concatenated over the
    blocks in order, each block taken once (`scenario._validate` frees it)."""
    parts = [{"points": ev.points, **columns(ev)} for ev in blocks]
    return SimpleNamespace(**{key: np.concatenate([part[key] for part in parts])
                              for key in parts[0]})


def point_rows(points, columns):
    """One report row per row of the (P, m) array `points`: the point's
    parameters, then entry i of every per-point array of `columns`, as
    Python scalars (one `tolist` per array)."""
    names = ["point", *columns]
    return [dict(zip(names, row))
            for row in zip(points.tolist(), *(col.tolist() for col in columns.values()))]


def orthonormal_frames(G, dpsi):
    """G-orthonormal (tangent, normal) frames E[p, i, a], N[p, s, a] of a block
    from G[p, a, b] = L L^T and dpsi[p, a, al]: the complete QR of L^T dpsi,
    mapped back by (L^T)^-1.  E's first k vectors span dpsi's first k columns
    (nested in parameter order); N completes the frame.  `evaluate` has
    rejected rank deficiency (its Gram determinant check) and G not > 0."""
    LT = np.linalg.cholesky(G).swapaxes(-1, -2)
    Q = np.linalg.qr(LT @ dpsi, mode="complete")[0]
    F = np.linalg.solve(LT, Q).swapaxes(-1, -2)
    m = dpsi.shape[-1]
    return F[:, :m], F[:, m:]


class Evaluation:
    """The fields of one immersion at a block of P parameter points, built
    by `evaluate`, and everything computed from them: the unit every
    command, audit and checker consumes.

    `fields` maps each field name to a tensor jet with a points axis, also
    bound as an attribute of that name (index layout in its name or below:
    ambient indices a, b, c, parameter indices al, be, g); `values(jet)`
    gives the constant terms of such a jet point by point.  `gram_det` holds
    one entry per point.  Every entry of `TRACE_TERMS` is an attribute too
    (`ev.tb_ah`), built on its first read and kept, read-only: the values of
    G, g^-1, dpsi and the intrinsic Christoffels (`_G`, `_ginv`, `_dpsi`,
    `_gam`), which the methods below read, and the trace terms.  Every
    quantity carries a leading points axis and is computed for all points
    at once, on first use: `energy` and `variation` read neither the trace
    terms nor the structure tensors.
    `split(n)` cuts a block in two at point n, each part as if evaluated alone.

    Jet fields: psi, f_jet, G_field (order - 1), Gam_field (Gam[k, a, b] =
    Gamma^k_ab along the immersion, order - 2), chart_christoffels (order 1,
    at psi of each point), dpsi (dpsi[a, al], order - 1),
    induced_metric_field (order - 1); at order - 2 its inverse,
    intrinsic_christoffels, projector_field (P[a, b]; `projectors` holds its
    values), B_field (B[al, be, a]), H_field, connection (A[a, c, al]),
    grad_f_param_field, grad_f_ambient_field and delta_f_pos_field; cached,
    at order - 3: nabla_perp_h_field (W[al, a]), nabla_grad_f_field (W[g, be]).
    """

    def __init__(self, imm, points, order, fields, gram_det):
        self.imm = imm
        self.space = imm.ambient
        self.m, self.d = imm.param_dim, self.space.chart_dim
        self.points = points
        self.order = order
        self.fields = fields
        self.gram_det = gram_det
        self.__dict__.update(fields)
        self._connection = {}

    def __getattr__(self, name):
        """Trace term `name`, built by its `TRACE_TERMS` producer on its first
        read and kept, read-only, as an attribute of the block."""
        if name not in TRACE_TERMS:
            raise AttributeError(f"no attribute or trace term {name!r}")
        value = self.__dict__[name] = _produce_term(self, name)
        return value

    def __len__(self):
        return len(self.points)

    def split(self, n):
        """The blocks of the first n points and of the rest, each as `evaluate`
        builds it for its points alone: every field with a points axis sliced
        on it (`Jet.take_points`), nothing cached carried over."""
        return tuple(Evaluation(self.imm, self.points[rows], self.order,
                                {name: jet.take_points(rows) for name, jet in self.fields.items()},
                                self.gram_det[rows]) for rows in (slice(None, n), slice(n, None)))

    def values(self, jet):
        """Constant terms of a jet field of this block, point by point."""
        return jet.point_values(len(self))

    def inner(self, u, v):
        """<u[p], v[p]> in the ambient metric at psi of each point."""
        return inner(self._G, u, v)

    def norm(self, v):
        """Length of the ambient vector v[p] at psi of each point."""
        return np.sqrt(np.maximum(self.inner(v, v), 0.0))

    def form_norm2(self, W):
        """g^{ab} <W_a, W_b> of ambient-valued 1-forms W[p, a], point by point."""
        return np.einsum("pab,pab->p", self._ginv, W @ self._G @ W.swapaxes(-1, -2))

    @cached_property
    def projectors(self):
        """Tangent and normal projectors: the values P of `projector_field`, and I - P."""
        P = self.values(self.projector_field)
        return P, np.eye(self.d) - P

    @cached_property
    def nabla_perp_h_field(self):
        """nabla-perp_al H, a jet field W[al, a] of order - 3; the normal projector
        as -P with 1 added on the diagonal rounds as the scalar loops' 1 - P."""
        covd_h = self.pullback_derivative(self.H_field)
        N = (-self.projector_field).add_diagonal(1.0).truncate(covd_h.space.order)
        return (N[None] * covd_h[:, None, :]).sum(-1)

    @cached_property
    def nabla_grad_f_field(self):
        """nabla_be grad f of the induced metric, a jet field W[g, be] =
        d_be (grad f)^g + Gam^g_{be, de} (grad f)^de of order - 3."""
        X, low = self.grad_f_param_field, self.order - 3
        gam_x = self.intrinsic_christoffels.truncate(low) * X.truncate(low)[None, None]
        return gam_x.sum(-1, start=X.derivs())

    @cached_property
    def curvature_operator(self):
        """C[p, l, j] = sum_ik R^l_ijk h^ik, h = dpsi g^-1 dpsi^T: tr R(dpsi, v) dpsi = C v."""
        h = self._dpsi @ self._ginv @ self._dpsi.swapaxes(-1, -2)
        R = curvature_from_christoffels(self.chart_christoffels, len(self))
        return np.einsum("plijk,pik->plj", R, h)

    @cached_property
    def structure(self):
        """Values of the structure tensors J, or phi, xi and eta, at psi of each point."""
        return self.space.structure_at(self.values(self.psi))

    @property
    def structure_tensor(self):
        return self.structure["J" if self.space.structure == "hermitian" else "phi"]

    @cached_property
    def frames(self):
        """Orthonormal frames E[p, i, a], N[p, s, a] of the block (`orthonormal_frames`)."""
        return orthonormal_frames(self._G, self._dpsi)

    @cached_property
    def decomposition_operators(self):
        """Matrices of the structure-tensor decomposition in the frames.

        Hermitian ambient: (j, k, l, m) with blocks TM->TM, TM->NM, NM->TM,
        NM->NM of J.  Contact ambient: (P, N, s, t) likewise for phi; s is the
        tangential and t the normal part on the normal bundle.
        """
        F = np.concatenate(self.frames, axis=1)
        # M[p, i, j] = <F_i, T F_j>
        M = F @ self._G @ self.structure_tensor @ F.swapaxes(-1, -2)
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
        corr = np.einsum("pgab,pg...->pab...", self._gam, values)
        return np.einsum("pab,pab...->p...", self._ginv, covd - corr)

    def curvature_trace(self, vector):
        """tr R(dpsi, v) dpsi at each point, from the AD curvature; vector[p]
        is the point's ambient vector."""
        return matvec(self.curvature_operator, vector)

    @cached_property
    def bitension(self):
        """(tau2, nabla-bar tau), once per block: the bitension tr(nabla^2) tau
        - tr R(dpsi, tau) dpsi of tau = m H and tau's `pullback_derivative`."""
        tau = self.H_field * float(self.m)
        first = self.pullback_derivative(tau)
        tau2 = self.rough_laplacian(tau, first) - self.curvature_trace(self.values(tau))
        tau2.setflags(write=False)  # shared by every caller of the block
        return tau2, first

    def rough_laplacian(self, field, first=None):
        """tr_g nabla^2 of an ambient jet field (negative-convention values);
        `first` is its `pullback_derivative` when the caller has it."""
        if first is None:
            first = self.pullback_derivative(field)
        return self.covariant_trace(self.values(self.pullback_derivative(first)),
                                    self.values(first))


def _produce_term(ev, name):
    """The trace term `name` at every point of the block `ev`, read-only."""
    value = TRACE_TERMS[name](ev)
    if isinstance(value, np.ndarray):
        value.setflags(write=False)  # one term serves every reader of the block
    return value


def _raised(ev, v):
    """The ambient vectors dpsi g^-1 v of covectors v[p, al], such as a gradient."""
    return matvec(ev._dpsi, matvec(ev._ginv, v))


def _shape_trace(ev, W):
    """tr A_{W}(.) = g^{ab} g^{gd} <B_bd, W_a> dpsi_g of normal 1-forms W[p, a]."""
    return _raised(ev, np.einsum("pbl,pbdl->pd", ev._ginv.swapaxes(-1, -2) @ W, ev._BG))


def _normal_trace(ev, fields, values):
    """g^{ab} (P_nor nabla-bar_a F_b - Gam^g_ab F_g), the normal part of the
    trace of the covariant derivative of jet fields F[b] with values [p, b, a]."""
    covd = ev.values(ev.pullback_derivative(fields))
    return ev.covariant_trace(covd @ ev.projectors[1].swapaxes(-1, -2)[:, None], values)


def _structure_part(ev, part, v):
    """The tangent (part 0) or normal (part 1) part of T v, T = J or phi."""
    return matvec(ev.projectors[part], matvec(ev.structure_tensor, v))


def _normal_laplacian_h(ev):
    if ev.order < 4:
        raise ValueError(f"Delta-perp H needs an order-4 block, not order {ev.order}")
    return -_normal_trace(ev, ev.nabla_perp_h_field, ev._nabla_perp_h)


def _xi(ev):
    if ev.space.structure != "contact":
        raise ValueError("the xi and eta trace terms need a contact ambient")
    return ev.structure["xi"]


# The producer of each trace term, block -> the term at every point, a
# scalar as a P-array, a vector as a (P, chart_dim) array (n is an int,
# coeffs a (k, P) array); the block's attribute of the same name
# (`Evaluation.__getattr__`).  The private entries are intermediates the
# public ones share, the first four the values of the block's metric,
# inverse induced metric, dpsi and intrinsic Christoffels.
# The structure compositions are named in the Hermitian notation (J X =
# jX + kX on tangent, J nu = l nu + m nu on normal vectors); on contact
# ambients with phi = P + N on tangent and s + t on normal vectors, l H =
# sH, m H = tH, kl H = Ns H, jl H = Ps H, kj grad f = NP grad f and j^2
# grad f = P^2 grad f.  The xi and eta terms exist on contact ambients only,
# Delta-perp H on order-4 blocks only: reading one elsewhere is a
# ValueError.  Vectors named for B (tb_, tnb_, b_) are normal, for A (ta_,
# a_) tangent; nabla-perp H is normal.
TRACE_TERMS = {
    "_G": lambda ev: ev.values(ev.G_field),
    "_ginv": lambda ev: ev.values(ev.induced_metric_inv_field),
    "_dpsi": lambda ev: ev.values(ev.dpsi),
    "_gam": lambda ev: ev.values(ev.intrinsic_christoffels),
    "_B": lambda ev: ev.values(ev.B_field),  # B[p, al, be, a]
    "_Bk": lambda ev: ev._B.transpose(0, 3, 1, 2),  # Bk[p, k, al, be]
    "_BG": lambda ev: ev._B @ ev._G[:, None],  # BG[p, al, be] = <B_al,be, .>
    "_nabla_perp_h": lambda ev: ev.values(ev.nabla_perp_h_field),
    "_X": lambda ev: ev.values(ev.grad_f_param_field),  # (grad f)^al
    # |grad f|^2 and omega_be = B(e_be, grad f) as jet fields
    "_gf2_field": lambda ev: (ev.induced_metric_field.truncate(ev.order - 2)
                              * ev.grad_f_param_field[:, None]
                              * ev.grad_f_param_field[None]).reshape(ev.m * ev.m).sum(0),
    "_omega_field": lambda ev: (ev.B_field * ev.grad_f_param_field[None, :, None]).sum(1),
    "_omega": lambda ev: ev.values(ev._omega_field),
    # Ricci of the induced metric, Ric_jk = R^i_ijk
    "_ric": lambda ev: np.einsum("piijk->pjk", curvature_from_christoffels(
        ev.intrinsic_christoffels, len(ev))),
    "_xi": _xi,
    "_j_grad_f": lambda ev: _structure_part(ev, 0, ev.grad_f),
    "n": lambda ev: ev.m,  # dimension of the submanifold
    "f": lambda ev: ev.values(ev.f_jet),
    "grad_f": lambda ev: ev.values(ev.grad_f_ambient_field),  # ambient tangent vector
    "grad_f_norm2": lambda ev: ev.values(ev._gf2_field),
    "delta_f_pos": lambda ev: ev.values(ev.delta_f_pos_field),  # -tr Hess f
    "grad_delta_f_pos": lambda ev: _raised(ev, ev.values(ev.delta_f_pos_field.derivs())),
    "grad_grad_f_norm2": lambda ev: _raised(ev, ev.values(ev._gf2_field.derivs())),
    "ric_grad_f": lambda ev: _raised(ev, matvec(ev._ric, ev._X)),  # Ric_M(grad f)
    "scal": lambda ev: (ev._ginv.reshape(len(ev), 1, ev.m * ev.m)
                        @ ev._ric.reshape(len(ev), ev.m * ev.m, 1))[:, 0, 0],
    "h_norm2": lambda ev: ev.inner(ev.H, ev.H),
    "grad_h_norm2": lambda ev: _raised(ev, ev.values((
        ev.G_field.truncate(ev.order - 2) * ev.H_field[:, None] * ev.H_field[None]
    ).reshape(ev.d * ev.d).sum(0).derivs())),
    "tb_ah": lambda ev: np.einsum(  # tr B(., A_H .) = g^{ag} g^{bd} <B_gd, H> B_ab
        "pab,pabk->pk", ev._ginv @ matvec(ev._BG, ev.H[:, None]) @ ev._ginv.swapaxes(-1, -2),
        ev._B),
    "ta_nabla_perp_h": lambda ev: _shape_trace(ev, ev._nabla_perp_h),  # tr A_{nabla-perp H}(.)
    "delta_perp_h_pos": _normal_laplacian_h,  # positive normal Laplacian of H
    "nabla_perp_gradf_h": lambda ev: np.einsum("pa,pak->pk", ev._X, ev._nabla_perp_h),
    # A_H grad f = g^{gb} <B(grad f, e_b), H> dpsi_g
    "a_h_grad_f": lambda ev: _raised(ev, matvec(np.einsum("pa,pabl->pbl", ev._X, ev._BG), ev.H)),
    "tb_hess_f": lambda ev: np.einsum(  # tr B(., nabla_. grad f) = g^ab B_ag (nabla_b grad f)^g
        "pag,pagk->pk", ev._ginv @ ev.values(ev.nabla_grad_f_field).swapaxes(-1, -2), ev._B),
    # tr (nabla-perp_. B)(., grad f)
    "tnb_grad_f": lambda ev: _normal_trace(ev, ev._omega_field, ev._omega),
    "ta_b_grad_f": lambda ev: _shape_trace(ev, ev._omega),  # tr A_{B(., grad f)}(.)
    "b_gradf_gradf": lambda ev: matvec(matvec(ev._Bk, ev._X[:, None]), ev._X),  # B(grad f, grad f)
    "b_norm2": lambda ev: np.einsum(  # g^{ag} g^{bd} <B_ab, B_gd>
        "pabl,plab->p", ev._BG, ev._ginv[:, None] @ ev._Bk @ ev._ginv.swapaxes(-1, -2)[:, None]),
    "H": lambda ev: ev.values(ev.H_field),  # mean curvature vector
    # ambient (alpha, beta) or (f1, f2, f3)
    "coeffs": lambda ev: np.stack(ev.space.curvature_coeffs_at(ev.values(ev.psi))),
    # two-step compositions of J (phi), tangent (0) or normal (1)
    "l_H": lambda ev: _structure_part(ev, 0, ev.H),
    "m_H": lambda ev: _structure_part(ev, 1, ev.H),
    "kl_H": lambda ev: _structure_part(ev, 1, ev.l_H),
    "jl_H": lambda ev: _structure_part(ev, 0, ev.l_H),
    "mm_H": lambda ev: _structure_part(ev, 1, ev.m_H),
    "kj_grad_f": lambda ev: _structure_part(ev, 1, ev._j_grad_f),
    "j2_grad_f": lambda ev: _structure_part(ev, 0, ev._j_grad_f),
    "eta_h": lambda ev: ev.inner(ev._xi, ev.H),
    "xi_tan": lambda ev: matvec(ev.projectors[0], ev._xi),
    "xi_nor": lambda ev: matvec(ev.projectors[1], ev._xi),
    "xi_tan_norm2": lambda ev: ev.inner(ev.xi_tan, ev.xi_tan),
    "eta_grad_f": lambda ev: ev.inner(ev._xi, ev.grad_f),
    # tr R(., v). of v = H and v = grad f, and their tangent and normal parts
    "trRH": lambda ev: ev.curvature_trace(ev.H),
    "trRgf": lambda ev: ev.curvature_trace(ev.grad_f),
    "trRH_tan": lambda ev: matvec(ev.projectors[0], ev.trRH),
    "trRH_nor": lambda ev: matvec(ev.projectors[1], ev.trRH),
    "trRgf_tan": lambda ev: matvec(ev.projectors[0], ev.trRgf),
    "trRgf_nor": lambda ev: matvec(ev.projectors[1], ev.trRgf),
}


# -- flag verification -----------------------------------------------------------


def flag_deviation(imm, blocks, name):
    """Numeric deviation of one structural property over the points of the
    evaluation blocks `blocks`, or of a table of theirs (`joined`) holding
    each point's deviation (`_point_deviations`) under the flag's name.

    Returns max deviation (0 = property holds exactly).  Structural flags
    (hypersurface, curve) return 0.0 or inf; the others read at least one
    point (a curvature-model ambient, which has no blocks, raises FlagError)."""
    if name == "hypersurface":
        return 0.0 if imm.codim == 1 else float("inf")
    if name == "curve":
        return 0.0 if imm.param_dim == 1 else float("inf")
    if name not in FLAG_NAMES:
        raise FlagError(name, f"unknown flag {name!r}")
    if not imm.ambient.has_metric:
        raise FlagError(name, f"flag {name!r} cannot be checked on a curvature-model ambient")
    needs = {"complex": "hermitian", "lagrangian": "hermitian", "invariant": "contact",
             "anti_invariant": "contact", "xi_tangent": "contact", "xi_normal": "contact"}
    if needs.get(name, imm.ambient.structure) != imm.ambient.structure:
        ambient = "a Hermitian" if needs[name] == "hermitian" else "a contact"
        raise FlagError(name, f"flag {name!r} needs {ambient} ambient")
    devs = (getattr(blocks, name) if isinstance(blocks, SimpleNamespace) else
            np.concatenate([_point_deviations(ev, name) for ev in blocks]))
    if name == "cmc":
        return float(devs.max() - devs.min())
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
        return ev.norm(matvec(ev.projectors[1 if name == "xi_tangent" else 0], ev.structure["xi"]))
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
