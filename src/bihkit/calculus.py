"""Extrinsic and intrinsic invariants of an immersion at a sample point.

One `PointCalculus` instance evaluates everything the residual equations
consume at a single parameter point: orthonormal frames, induced metric,
second fundamental form, mean curvature, shape operators, normal connection
and Laplacian, the tangential/normal decomposition of the ambient structure
tensor, intrinsic Ricci and Laplacians, and the weight-function terms.

All quantities are assembled in coordinate (not orthonormal) form wherever
possible, so the results are frame-independent by construction; orthonormal
frames are produced deterministically (Gram-Schmidt in parameter order,
normal completion by ambient coordinate axes in index order) for the
operator matrices.

Laplacian conventions here are positive: Delta f = -tr Hess f on functions
and Delta-perp = -(trace of the squared normal connection) on normal
fields.  The raw ambient rough Laplacian tr(nabla^2), used by the direct
Euler-Lagrange oracles, is exposed separately as `rough_laplacian`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import Expression, eval_on_jets, parse, variables_of
from .jets import Composer, Jet, jet_space
from .spaces import AmbientSpace, SpaceError, chart_jets, christoffel_jets, curvature_tensor_at

__all__ = [
    "Immersion",
    "TraceTerms",
    "CalcError",
    "FlagError",
    "PointCalculus",
    "trace_terms_at",
    "decomposition_operators_at",
    "drain",
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
    """

    n: int                           # dimension of the submanifold
    f: float
    grad_f: np.ndarray               # ambient tangent vector
    grad_f_norm2: float
    delta_f_pos: float               # -tr Hess f
    grad_delta_f_pos: np.ndarray
    grad_grad_f_norm2: np.ndarray    # grad |grad f|^2
    hess_f_eigenform: np.ndarray     # (m, m) Hessian in coordinates
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


def _values(vec):
    return np.array([j.value for j in vec])


def _mat_values(mat):
    return np.array([[j.value for j in row] for row in mat])


def _truncate_vec(vec, order):
    return [j.truncate(order) for j in vec]


class PointCalculus:
    """All jet fields of one immersion at one parameter point.

    Fields are truncated Taylor expansions in the parameters; `order`
    bounds the total derivative depth (4 covers every assembled residual).
    """

    def __init__(self, imm, point, order=4):
        self.imm = imm
        self.space = imm.ambient
        if not self.space.has_metric:
            raise SpaceError(
                f"{self.space.kind} has no concrete metric; only curvature-model "
                "evaluation is available"
            )
        self.point = np.asarray(point, dtype=float)
        self.order = order
        self.m = imm.param_dim
        self.d = imm.ambient.chart_dim
        sp = jet_space(self.m, order)
        self.env = {
            name: Jet.variable(sp, i, self.point[i])
            for i, name in enumerate(imm.params)
        }
        self.psi = [eval_on_jets(c, self.env) for c in imm.components]
        self.f_jet = eval_on_jets(imm.weight, self.env)
        self.psi_val = _values(self.psi)
        self.space.chart_check(self.psi_val)
        self._connection = {}

    # -- ambient data composed along the immersion -------------------------

    @cached_property
    def _chart(self):
        x = chart_jets(self.psi_val, self.order)
        G = self.space.metric_jets(x)
        Gam = christoffel_jets(G)
        return G, Gam

    @cached_property
    def _composer(self):
        shifted = [self.psi[a] - self.psi_val[a] for a in range(self.d)]
        return Composer(shifted)

    @cached_property
    def G_field(self):
        G, _ = self._chart
        compose = self._composer.apply_truncated
        return [[compose(G[a][b]) for b in range(self.d)] for a in range(self.d)]

    @cached_property
    def Gam_field(self):
        _, Gam = self._chart
        compose = self._composer.apply_truncated
        return [
            [[compose(Gam[k][a][b]) for b in range(self.d)] for a in range(self.d)]
            for k in range(self.d)
        ]

    @cached_property
    def ambient_curvature(self):
        """R[l,i,j,k] values of the ambient curvature at psi(point)."""
        return curvature_tensor_at(self.space, self.psi_val)

    @cached_property
    def structure(self):
        """Structure tensor values at psi(point): J, or phi, xi and eta."""
        return self.space.structure_at(self.psi_val)

    @cached_property
    def structure_tensor(self):
        return self.structure["J" if self.space.structure == "hermitian" else "phi"]

    # -- first fundamental form --------------------------------------------

    @cached_property
    def dpsi(self):
        """dpsi[a][alpha] jets at order-1 below psi."""
        return [[self.psi[a].deriv(al) for al in range(self.m)] for a in range(self.d)]

    @cached_property
    def dpsi_val(self):
        return np.array([[j.value for j in row] for row in self.dpsi])

    @cached_property
    def induced_metric_field(self):
        ord3 = self.order - 1
        G = [[self.G_field[a][b].truncate(ord3) for b in range(self.d)]
             for a in range(self.d)]
        g = [[None] * self.m for _ in range(self.m)]
        for al in range(self.m):
            for be in range(al, self.m):
                acc = None
                for a in range(self.d):
                    row = None
                    for b in range(self.d):
                        term = G[a][b] * self.dpsi[b][be]
                        row = term if row is None else row + term
                    term = self.dpsi[a][al] * row
                    acc = term if acc is None else acc + term
                g[al][be] = acc
                g[be][al] = acc
        return g

    @cached_property
    def induced_metric_inv_field(self):
        from .spaces import _jet_matrix_inverse

        return _jet_matrix_inverse(self.induced_metric_field)

    @cached_property
    def intrinsic_christoffels(self):
        return christoffel_jets(self.induced_metric_field)

    @cached_property
    def g_val(self):
        return _mat_values(self.induced_metric_field)

    @cached_property
    def g_inv_val(self):
        return _mat_values(self.induced_metric_inv_field)

    @cached_property
    def G_val(self):
        return _mat_values(self.G_field)

    @cached_property
    def gram_det(self):
        det = float(np.linalg.det(self.g_val))
        if det <= RANK_TOL:
            raise CalcError(
                f"immersion rank-deficient at {self.point}: gram det {det:.3e}"
            )
        return det

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
        A = np.zeros((self.d - self.m, self.m, self.m))
        for s in range(self.d - self.m):
            for i in range(self.m):
                for j in range(self.m):
                    A[s, i, j] = self.B_frame[i, j] @ self.G_val @ self.normal_frame[s]
        return A

    @cached_property
    def projectors(self):
        """(tangent, normal) projector matrices in ambient coordinates."""
        P = self.dpsi_val @ self.g_inv_val @ self.dpsi_val.T @ self.G_val
        return P, np.eye(self.d) - P

    @cached_property
    def projector_field(self):
        ord2 = self.order - 2
        dpsi = [[self.dpsi[a][al].truncate(ord2) for al in range(self.m)]
                for a in range(self.d)]
        ginv = [[self.induced_metric_inv_field[al][be].truncate(ord2)
                 for be in range(self.m)] for al in range(self.m)]
        G = [[self.G_field[a][b].truncate(ord2) for b in range(self.d)]
             for a in range(self.d)]
        # P^a_b = dpsi[a][al] ginv[al][be] dpsi[c][be] G[c][b]
        P = [[None] * self.d for _ in range(self.d)]
        for b in range(self.d):
            col = []
            for be in range(self.m):
                acc = None
                for c in range(self.d):
                    term = dpsi[c][be] * G[c][b]
                    acc = term if acc is None else acc + term
                col.append(acc)
            for a in range(self.d):
                acc = None
                for al in range(self.m):
                    row = None
                    for be in range(self.m):
                        term = ginv[al][be] * col[be]
                        row = term if row is None else row + term
                    term = dpsi[a][al] * row
                    acc = term if acc is None else acc + term
                P[a][b] = acc
        return P

    # -- second fundamental form ---------------------------------------------

    @cached_property
    def B_field(self):
        """B[al][be] as ambient jet vectors (order-2 fields)."""
        ord2 = self.order - 2
        Gam_amb = [
            [[self.Gam_field[k][a][b].truncate(ord2) for b in range(self.d)]
             for a in range(self.d)]
            for k in range(self.d)
        ]
        Gam_int = self.intrinsic_christoffels
        dpsi = [[self.dpsi[a][al].truncate(ord2) for al in range(self.m)]
                for a in range(self.d)]
        ddpsi = [
            [[self.dpsi[a][al].deriv(be) for be in range(self.m)] for al in range(self.m)]
            for a in range(self.d)
        ]
        Gam_int2 = [
            [[Gam_int[g][al][be].truncate(ord2) for be in range(self.m)]
             for al in range(self.m)]
            for g in range(self.m)
        ]
        B = [[None] * self.m for _ in range(self.m)]
        for al in range(self.m):
            for be in range(al, self.m):
                vec = []
                for a in range(self.d):
                    acc = ddpsi[a][al][be]
                    for b in range(self.d):
                        for c in range(self.d):
                            acc = acc + Gam_amb[a][b][c] * dpsi[b][al] * dpsi[c][be]
                    for g in range(self.m):
                        acc = acc - Gam_int2[g][al][be] * dpsi[a][g]
                    vec.append(acc)
                B[al][be] = vec
                B[be][al] = vec
        return B

    @cached_property
    def B_val(self):
        return np.array(
            [[_values(self.B_field[al][be]) for be in range(self.m)]
             for al in range(self.m)]
        )

    @cached_property
    def H_field(self):
        """Mean curvature vector field (order-2 jets), H = tr_g B / m."""
        ord2 = self.order - 2
        ginv = [[self.induced_metric_inv_field[al][be].truncate(ord2)
                 for be in range(self.m)] for al in range(self.m)]
        out = []
        for a in range(self.d):
            acc = None
            for al in range(self.m):
                for be in range(self.m):
                    term = ginv[al][be] * self.B_field[al][be][a]
                    acc = term if acc is None else acc + term
            out.append(acc / float(self.m))
        return out

    @cached_property
    def H_val(self):
        return _values(self.H_field)

    def norm(self, v):
        """Length of an ambient vector at psi(point)."""
        return float(np.sqrt(max(v @ self.G_val @ v, 0.0)))

    # -- connection helpers ----------------------------------------------------

    def _connection_along(self, alpha, order):
        """A[a][c] = Gam^a_bc d_alpha psi^b summed over b, both factors
        truncated to `order`; computed once per (alpha, order)."""
        key = (alpha, order)
        A = self._connection.get(key)
        if A is None:
            Gam = self.Gam_field
            dpsi = [self.dpsi[b][alpha].truncate(order) for b in range(self.d)]
            A = []
            for a in range(self.d):
                row = []
                for c in range(self.d):
                    acc = None
                    for b in range(self.d):
                        term = Gam[a][b][c].truncate(order) * dpsi[b]
                        acc = term if acc is None else acc + term
                    row.append(acc)
                A.append(row)
            self._connection[key] = A
        return A

    def pullback_derivative(self, field, alpha):
        """nabla-bar_alpha of an ambient jet field along the immersion."""
        out_order = field[0].space.order - 1
        A = self._connection_along(alpha, out_order)
        low = _truncate_vec(field, out_order)
        out = []
        for a in range(self.d):
            acc = field[a].deriv(alpha)
            for c in range(self.d):
                acc = acc + A[a][c] * low[c]
            out.append(acc)
        return out

    def rough_laplacian(self, field):
        """tr_g nabla^2 of an ambient jet field (negative-convention values)."""
        first = [self.pullback_derivative(field, al) for al in range(self.m)]
        second = {}
        for al in range(self.m):
            for be in range(self.m):
                second[(al, be)] = _values(self.pullback_derivative(first[be], al))
        first_val = [_values(v) for v in first]
        ginv = self.g_inv_val
        Gam_int = self.intrinsic_christoffels
        out = np.zeros(self.d)
        for al in range(self.m):
            for be in range(self.m):
                corr = np.zeros(self.d)
                for g in range(self.m):
                    corr = corr + Gam_int[g][al][be].value * first_val[g]
                out = out + ginv[al, be] * (second[(al, be)] - corr)
        return out

    def directional_derivative(self, field, direction):
        """nabla-bar of a field along a tangent direction given in parameters."""
        out = np.zeros(self.d)
        for al in range(self.m):
            out = out + direction[al] * _values(self.pullback_derivative(field, al))
        return out

    # -- weight function -------------------------------------------------------

    @cached_property
    def grad_f_param_field(self):
        """(grad f)^alpha as jet fields."""
        ord3 = self.order - 1
        df = [self.f_jet.deriv(al) for al in range(self.m)]
        ginv = [[self.induced_metric_inv_field[al][be].truncate(ord3)
                 for be in range(self.m)] for al in range(self.m)]
        out = []
        for al in range(self.m):
            acc = None
            for be in range(self.m):
                term = ginv[al][be] * df[be]
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    @cached_property
    def grad_f_param(self):
        return _values(self.grad_f_param_field)

    @cached_property
    def grad_f_ambient_field(self):
        ord2 = self.order - 2
        out = []
        for a in range(self.d):
            acc = None
            for al in range(self.m):
                term = self.dpsi[a][al].truncate(ord2) * \
                    self.grad_f_param_field[al].truncate(ord2)
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    @cached_property
    def grad_f_ambient(self):
        return _values(self.grad_f_ambient_field)

    def laplacian_pos_field(self, scalar_jet):
        """Positive Laplacian -tr_g Hess of a scalar jet, as a lower-order field."""
        order = scalar_jet.space.order
        out_order = order - 2
        ginv = [[self.induced_metric_inv_field[al][be].truncate(out_order)
                 for be in range(self.m)] for al in range(self.m)]
        Gam = self.intrinsic_christoffels
        df = [scalar_jet.deriv(al) for al in range(self.m)]
        acc = None
        for al in range(self.m):
            for be in range(self.m):
                hess = df[al].deriv(be)
                for g in range(self.m):
                    hess = hess - Gam[g][al][be].truncate(out_order) * \
                        df[g].truncate(out_order)
                term = ginv[al][be] * hess
                acc = term if acc is None else acc + term
        return -acc

    @cached_property
    def delta_f_pos_field(self):
        return self.laplacian_pos_field(self.f_jet)

    def gradient_ambient(self, scalar_jet):
        """Ambient components of the intrinsic gradient (values)."""
        df = np.array([scalar_jet.deriv(al).value for al in range(self.m)])
        comp = self.g_inv_val @ df
        return self.dpsi_val @ comp, comp

    # -- intrinsic curvature -----------------------------------------------------

    @cached_property
    def intrinsic_ricci(self):
        """Ricci tensor (values) of the induced metric, Ric_jk."""
        m = self.m
        Gam = self.intrinsic_christoffels
        Gv = np.zeros((m, m, m))
        dGv = np.zeros((m, m, m, m))
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    Gv[k, i, j] = Gam[k][i][j].value
                    for l in range(m):
                        dGv[l, k, i, j] = Gam[k][i][j].deriv(l).value
        ric = np.zeros((m, m))
        for j in range(m):
            for k in range(m):
                acc = 0.0
                for i in range(m):
                    acc += (
                        dGv[i, i, j, k]
                        - dGv[j, i, i, k]
                        + np.dot(Gv[i, i, :], Gv[:, j, k])
                        - np.dot(Gv[i, j, :], Gv[:, i, k])
                    )
                ric[j, k] = acc
        return ric

    @cached_property
    def scal(self):
        return float(np.tensordot(self.g_inv_val, self.intrinsic_ricci))

    @cached_property
    def trace_terms(self):
        """The `TraceTerms` at this point, computed once."""
        return _trace_terms(self)


# -- public operation surface ---------------------------------------------------


def decomposition_operators_at(imm, point, calc=None):
    """Matrices of the structure-tensor decomposition in the chosen frames.

    Hermitian ambient: (j, k, l, m) with blocks TM->TM, TM->NM, NM->TM,
    NM->NM of J.  Contact ambient: (P, N, s, t) likewise for phi; s is the
    tangential and t the normal part on the normal bundle.
    """
    pc = calc or PointCalculus(imm, point)
    T = pc.structure_tensor
    E, Nf, G0 = pc.tangent_frame, pc.normal_frame, pc.G_val
    m, codim = pc.m, pc.d - pc.m
    tt = np.array([[E[i] @ G0 @ (T @ E[j]) for j in range(m)] for i in range(m)])
    tn = np.array([[Nf[s] @ G0 @ (T @ E[j]) for j in range(m)] for s in range(codim)])
    nt = np.array([[E[i] @ G0 @ (T @ Nf[s]) for s in range(codim)] for i in range(m)])
    nn = np.array([[Nf[r] @ G0 @ (T @ Nf[s]) for s in range(codim)] for r in range(codim)])
    return tt, tn, nt, nn


def trace_terms_at(imm, point, calc=None):
    """The `TraceTerms` at a point; shared by every caller passing `calc`."""
    pc = calc or PointCalculus(imm, point)
    return pc.trace_terms


def drain(calcs):
    """Yield the evaluations in `calcs` in order, removing each from the list
    first: the caller's loop then holds the only reference to the point it
    works on, and a point's evaluation is released once the loop moves on."""
    calcs.reverse()
    while calcs:
        yield calcs.pop()


def _normal_connection(pc, field):
    """nabla-perp of a normal jet field along each coordinate direction, as
    jet fields and as values (one row per direction)."""
    proj_field = pc.projector_field
    W_fields = []
    for al in range(pc.m):
        covd = pc.pullback_derivative(field, al)
        out_order = covd[0].space.order
        W = []
        for a in range(pc.d):
            acc = None
            for b in range(pc.d):
                term = proj_field_entry(proj_field, a, b, out_order) * covd[b]
                acc = term if acc is None else acc + term
            W.append(acc)
        W_fields.append(W)
    return W_fields, np.array([_values(W) for W in W_fields])


def _normal_trace(pc, fields, values):
    """g^{ab} (P_nor nabla-bar_a F_b - Gam^g_ab F_g) for jet fields F_b with
    values `values`: the normal part of the trace of their covariant
    derivative."""
    P_nor = pc.projectors[1]
    Gam_int = pc.intrinsic_christoffels
    ginv = pc.g_inv_val
    out = np.zeros(pc.d)
    for al in range(pc.m):
        for be in range(pc.m):
            covd = pc.pullback_derivative(fields[be], al)
            term = P_nor @ _values(covd)
            corr = np.zeros(pc.d)
            for g in range(pc.m):
                corr += Gam_int[g][al][be].value * values[g]
            out += ginv[al, be] * (term - corr)
    return out


def _trace_terms(pc):
    m, d = pc.m, pc.d
    ginv = pc.g_inv_val
    G0 = pc.G_val
    dpsi = pc.dpsi_val
    B = pc.B_val  # (m, m, d)
    H = pc.H_val
    P_tan, P_nor = pc.projectors

    ip = lambda u, v: float(u @ G0 @ v)

    # tr B(., A_H .) = g^{ag} g^{bd} <B_gd, H> B_ab
    BH = np.einsum("abk,kl,l->ab", B, G0, H)
    tb_ah = np.einsum("ag,bd,gd,abk->k", ginv, ginv, BH, B)

    # normal connection of H along coordinate directions
    H_field = pc.H_field
    nabla_perp_h_fields, nabla_perp_h = _normal_connection(pc, H_field)

    # tr A_{nabla-perp H}(.) = g^{ab} g^{gd} <B_bd, W_a> dpsi_g
    TA = np.zeros(d)
    for al in range(m):
        for be in range(m):
            for ga in range(m):
                for de in range(m):
                    TA += ginv[al, be] * ginv[ga, de] * ip(B[be, de], nabla_perp_h[al]) * dpsi[:, ga]

    # positive normal Laplacian of H
    delta_perp_h_pos = -_normal_trace(pc, nabla_perp_h_fields, nabla_perp_h)

    # |H|^2 field and gradient
    h2_field = None
    ord2 = pc.order - 2
    for a in range(d):
        for b in range(d):
            term = pc.G_field[a][b].truncate(ord2) * H_field[a] * H_field[b]
            h2_field = term if h2_field is None else h2_field + term
    grad_h2, _ = pc.gradient_ambient(h2_field)

    # weight-function material
    f = pc.f_jet.value
    grad_f = pc.grad_f_ambient
    grad_f_param = pc.grad_f_param
    gf2_field = None
    ord3 = pc.order - 1
    for al in range(m):
        for be in range(m):
            term = (
                pc.induced_metric_field[al][be].truncate(ord3)
                * pc.grad_f_param_field[al]
                * pc.grad_f_param_field[be]
            )
            gf2_field = term if gf2_field is None else gf2_field + term
    grad_f_norm2 = gf2_field.value
    grad_gradf2, _ = pc.gradient_ambient(gf2_field)

    delta_f_pos = pc.delta_f_pos_field.value
    grad_delta_f, _ = pc.gradient_ambient(pc.delta_f_pos_field)

    # nabla_. grad f (intrinsic Hessian endomorphism, values)
    Gam_int = pc.intrinsic_christoffels
    hess_vec = np.zeros((m, m))  # (nabla_be grad f)^gamma
    for be in range(m):
        dcomp = [pc.grad_f_param_field[g].deriv(be).value for g in range(m)]
        for g in range(m):
            acc = dcomp[g]
            for de in range(m):
                acc += Gam_int[g][be][de].value * grad_f_param[de]
            hess_vec[be, g] = acc

    # tr B(., nabla_. grad f) = g^{ab} B_{a gamma} (nabla_b grad f)^gamma
    tb_hess = np.zeros(d)
    for al in range(m):
        for be in range(m):
            for g in range(m):
                tb_hess += ginv[al, be] * hess_vec[be, g] * B[al, g]

    # omega_beta = B(e_beta, grad f) as a jet field; its normal-connection trace
    omega_fields = []
    for be in range(m):
        vec = []
        for a in range(d):
            acc = None
            for g in range(m):
                term = pc.B_field[be][g][a] * pc.grad_f_param_field[g].truncate(ord2)
                acc = term if acc is None else acc + term
            vec.append(acc)
        omega_fields.append(vec)
    omega_val = [_values(v) for v in omega_fields]
    tnb = _normal_trace(pc, omega_fields, omega_val)

    # tr A_{B(., grad f)}(.) = g^{ab} g^{gd} <B_bd, omega_a> dpsi_g
    ta_b_gradf = np.zeros(d)
    for al in range(m):
        for be in range(m):
            for ga in range(m):
                for de in range(m):
                    ta_b_gradf += (
                        ginv[al, be] * ginv[ga, de] * ip(B[be, de], omega_val[al]) * dpsi[:, ga]
                    )

    b_gradf_gradf = np.einsum("a,b,abk->k", grad_f_param, grad_f_param, B)

    # A_H grad f = g^{gb} <B(grad f, e_b), H> dpsi_g
    a_h_gradf = np.zeros(d)
    for ga in range(m):
        for be in range(m):
            a_h_gradf += ginv[ga, be] * ip(np.einsum("a,abk->bk", grad_f_param, B)[be], H) * dpsi[:, ga]

    nabla_perp_gradf_h = np.einsum("a,ak->k", grad_f_param, nabla_perp_h)

    # Ricci of the induced metric applied to grad f
    ric = pc.intrinsic_ricci
    ric_vec_param = ginv @ (ric @ grad_f_param)
    ric_grad_f = dpsi @ ric_vec_param

    # structure material: two-step compositions of J (phi) and contact terms
    T = pc.structure_tensor
    tan_TH = P_tan @ (T @ H)
    tan_Tgf = P_tan @ (T @ grad_f)
    if pc.space.structure == "contact":
        xi = pc.structure["xi"]
        eta_h = ip(xi, H)
        xi_tan = P_tan @ xi
        xi_nor = P_nor @ xi
        xi_tan_norm2 = ip(xi_tan, xi_tan)
        eta_grad_f = ip(xi, grad_f)
    else:
        eta_h = 0.0
        xi_tan = np.zeros(d)
        xi_nor = np.zeros(d)
        xi_tan_norm2 = 0.0
        eta_grad_f = 0.0

    a_h_norm2 = float(np.einsum("ag,bd,ab,gd->", ginv, ginv, BH, BH))
    np_h2 = 0.0
    for al in range(m):
        for be in range(m):
            np_h2 += ginv[al, be] * ip(nabla_perp_h[al], nabla_perp_h[be])

    return TraceTerms(
        n=m,
        f=f,
        grad_f=grad_f,
        grad_f_norm2=grad_f_norm2,
        delta_f_pos=delta_f_pos,
        grad_delta_f_pos=grad_delta_f,
        grad_grad_f_norm2=grad_gradf2,
        hess_f_eigenform=hess_vec,
        ric_grad_f=ric_grad_f,
        scal=pc.scal,
        h_norm2=ip(H, H),
        grad_h_norm2=grad_h2,
        tb_ah=tb_ah,
        ta_nabla_perp_h=TA,
        delta_perp_h_pos=delta_perp_h_pos,
        nabla_perp_h=nabla_perp_h,
        nabla_perp_gradf_h=nabla_perp_gradf_h,
        a_h_grad_f=a_h_gradf,
        tb_hess_f=tb_hess,
        tnb_grad_f=tnb,
        ta_b_grad_f=ta_b_gradf,
        b_gradf_gradf=b_gradf_gradf,
        eta_h=eta_h,
        xi_tan=xi_tan,
        xi_nor=xi_nor,
        xi_tan_norm2=xi_tan_norm2,
        b_norm2=_b_norm2(B, G0, ginv, m),
        a_h_norm2=a_h_norm2,
        nabla_perp_h_norm2=np_h2,
        H=H,
        coeffs=pc.space.curvature_coeffs_at(pc.psi_val),
        kl_H=P_nor @ (T @ tan_TH),
        jl_H=P_tan @ (T @ tan_TH),
        mm_H=P_nor @ (T @ (P_nor @ (T @ H))),
        kj_grad_f=P_nor @ (T @ tan_Tgf),
        j2_grad_f=P_tan @ (T @ tan_Tgf),
        eta_grad_f=eta_grad_f,
    )


def proj_field_entry(proj_field, a, b, order):
    entry = proj_field[a][b]
    neg = -entry if a != b else 1.0 - entry
    return neg.truncate(order) if neg.space.order != order else neg


def _b_norm2(B, G0, ginv, m):
    total = 0.0
    for al in range(m):
        for be in range(m):
            for ga in range(m):
                for de in range(m):
                    total += ginv[al, ga] * ginv[be, de] * float(B[al, be] @ G0 @ B[ga, de])
    return total


# -- flag verification -----------------------------------------------------------


def _operator_norms(pc):
    """Frobenius norms of the four structure-decomposition blocks."""
    tt, tn, nt, nn = decomposition_operators_at(pc.imm, pc.point, calc=pc)
    return {
        "tt": float(np.linalg.norm(tt)),
        "tn": float(np.linalg.norm(tn)),
        "nt": float(np.linalg.norm(nt)),
        "nn": float(np.linalg.norm(nn)),
    }


def flag_deviation(imm, points, name, calcs=None):
    """Numeric deviation of one structural property over sample points.

    Returns max deviation (0 = property holds exactly).  Structural flags
    (hypersurface, curve) return 0.0 or inf.
    """
    if name == "hypersurface":
        return 0.0 if imm.codim == 1 else float("inf")
    if name == "curve":
        return 0.0 if imm.param_dim == 1 else float("inf")
    dev = 0.0
    h_values = []
    for idx, p in enumerate(points):
        pc = calcs[idx] if calcs is not None else PointCalculus(imm, p)
        if name in ("complex", "lagrangian", "invariant", "anti_invariant"):
            if name in ("complex", "lagrangian") and imm.ambient.structure != "hermitian":
                raise FlagError(name, f"flag {name!r} needs a Hermitian ambient")
            if name in ("invariant", "anti_invariant") and imm.ambient.structure != "contact":
                raise FlagError(name, f"flag {name!r} needs a contact ambient")
            norms = _operator_norms(pc)
            if name == "complex":
                dev = max(dev, norms["tn"], norms["nt"])
            elif name == "lagrangian":
                dev = max(dev, norms["tt"], norms["nn"])
            elif name == "invariant":
                dev = max(dev, norms["tn"])
            else:
                dev = max(dev, norms["tt"])
        elif name in ("xi_tangent", "xi_normal"):
            if imm.ambient.structure != "contact":
                raise FlagError(name, f"flag {name!r} needs a contact ambient")
            P_tan, P_nor = pc.projectors
            xi = pc.structure["xi"]
            part = P_nor @ xi if name == "xi_tangent" else P_tan @ xi
            dev = max(dev, float(np.sqrt(part @ pc.G_val @ part)))
        elif name == "parallel_H":
            tt = trace_terms_at(imm, p, calc=pc)
            dev = max(dev, float(np.sqrt(max(tt.nabla_perp_h_norm2, 0.0))))
        elif name == "cmc":
            h_values.append(np.sqrt(float(pc.H_val @ pc.G_val @ pc.H_val)))
        else:
            raise FlagError(name, f"unknown flag {name!r}")
    if name == "cmc":
        dev = float(max(h_values) - min(h_values)) if h_values else 0.0
    return dev


def verify_flags(imm, points, tol=FLAG_TOL, calcs=None):
    """Check each asserted/denied flag numerically; raise FlagError on failure.

    Returns {flag: measured deviation} for all declared flags.
    """
    report = {}
    for name, state in imm.flags.items():
        if state == "unknown":
            continue
        dev = flag_deviation(imm, points, name, calcs=calcs)
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
