"""Ambient model spaces: metrics, structure tensors and curvature backends.

Every concrete space gives its metric (`metric_jets`: the (d, d) tensor jet)
and structure tensors as jets at chart coordinates, so the connection and the
curvature tensor derive from automatic differentiation ("concrete" backend).
The algebraic space-form curvature expressions form the second, independent
backend ("model"); agreement of the two on the concrete spaces is part of
the acceptance suite.

A space's `structure` is "hermitian" (generalized complex space forms, R =
alpha R1 + beta R2) or "contact" (generalized Sasakian space forms, R = f1 R1
+ f2 R2 + f3 R3).  Every numeric entry point takes a (P, d) stack of chart
points and returns arrays, or jets, with a leading points axis.

Charts:
  * euclidean_complex(n): R^2n, identity metric, standard J on coordinate
    pairs (2k, 2k+1).
  * fubini_study(n, hol): inhomogeneous (affine) coordinates on one chart of
    complex projective space with holomorphic sectional curvature `hol` > 0;
    the chart misses the hyperplane at infinity.
  * complex_hyperbolic(n, hol): ball chart |x| < 1, hol < 0.
  * sasakian_sphere(n, ctilde): unit sphere S^(2n+1) in stereographic
    coordinates (the chart excludes the antipode of the chart center); a
    D-homothetic deformation realizes phi-sectional curvature ctilde > -3.
  * cosymplectic_flat(n): R^(2n+1), flat, Reeb coordinate last.
  * kenmotsu_hyperbolic(n): warped product dt^2 + e^(2t) * flat, t last;
    phi-sectional curvature -1.
  * abstract_gcsf / abstract_gssf: curvature model only (coefficient
    expressions over chart coordinates x1, x2, ...), evaluated in a fiducial
    frame with identity metric and standard structure tensors.  Operations
    needing the ambient connection reject these spaces (`metric_jets`).
"""

from __future__ import annotations

import numpy as np

from .expr import parse, eval_on_jets
from .jets import Jet, JetError, jet_space

__all__ = [
    "AmbientSpace",
    "ChartError",
    "SPACES",
    "SpaceError",
    "make_space",
    "space_form_coefficients",
    "christoffels_at",
    "curvature_model",
    "metric_and_christoffel_jets",
    "chart_jets",
    "christoffel_jets",
    "curvature_from_christoffels",
    "jet_matrix_inverse",
]


class SpaceError(ValueError):
    """Unsupported operation or invalid construction for a space."""


class ChartError(ValueError):
    """Point outside the chart domain."""


def _std_J(dim):
    if dim % 2:
        raise SpaceError("complex structure needs even dimension")
    J = np.zeros((dim, dim))
    for k in range(dim // 2):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


def _checked_metric(G):
    """Reject metric values G[p, a, b] that are not finite and positive definite."""
    if not np.all(np.isfinite(G)):
        raise ChartError("metric not finite at point")
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise ChartError("metric not positive definite at point") from None


def chart_jets(points, order):
    """Seed chart coordinates as jet variables around each row of a (P, d)
    array of points (jets with a points axis)."""
    points = np.asarray(points, dtype=float)
    sp = jet_space(points.shape[-1], order)
    return [Jet.variable(sp, i, points[..., i]) for i in range(sp.num_vars)]


def _flat_metric_jets(space, x):
    """The identity metric of a flat chart, as `metric_jets`."""
    return Jet.constant(x[0].space, np.eye(space.chart_dim))


class AmbientSpace:
    """Base class; concrete subclasses provide jet-valued evaluators."""

    structure = None       # "hermitian" | "contact"
    has_metric = True
    coeffs = ()            # the constant curvature coefficients

    def __init__(self, chart_dim):
        self.chart_dim = chart_dim

    # -- subclasses implement structure_jets, and metric_jets if they have a metric --

    def metric_jets(self, x):
        raise SpaceError(f"{self.kind} has no concrete metric")

    def curvature_coeff_jets(self, x):
        """GCSF (alpha, beta) or GSSF (f1, f2, f3) fields at chart jets x."""
        return tuple(Jet.constant(x[0].space, c) for c in self.coeffs)

    # -- numeric conveniences, on a (P, d) stack of points ---------------------

    def chart_check(self, points):
        """Reject a (P, d) array of points off the chart."""
        if np.shape(points)[-1] != self.chart_dim:
            raise ChartError(
                f"point has {np.shape(points)[-1]} coordinates, chart needs {self.chart_dim}"
            )

    def structure_at(self, points):
        """The structure tensors at each point, with a leading points axis."""
        self.chart_check(points)
        tensors = self.structure_jets(chart_jets(points, 0))
        return {key: val.point_values(len(points)) for key, val in tensors.items()}

    def curvature_coeffs_at(self, points):
        """The curvature coefficients at each point, as arrays of P values."""
        coeffs = self.curvature_coeff_jets(chart_jets(points, 0))
        return tuple(c.point_values(len(points)) for c in coeffs)


class _Hermitian(AmbientSpace):
    """The constant standard complex structure J on coordinate pairs."""

    structure = "hermitian"

    def __init__(self, chart_dim):
        super().__init__(chart_dim)
        self._J = _std_J(chart_dim)

    def structure_jets(self, x):
        return {"J": Jet.constant(x[0].space, self._J)}


class _Contact(AmbientSpace):
    """The constant contact structure of R^(2n+1): phi the standard J on the
    first 2n axes, Reeb field xi and contact form eta along the last one.  A
    contact space form (`space_form`) takes its constant coefficients from
    `space_form_coefficients`."""

    structure = "contact"
    space_form = None      # "sasaki" | "kenmotsu" | "cosymplectic"

    def __init__(self, n, ctilde=None):
        super().__init__(2 * n + 1)
        self.n = n
        self._phi = np.zeros((self.chart_dim, self.chart_dim))
        self._phi[: 2 * n, : 2 * n] = _std_J(2 * n)
        self._reeb = np.eye(self.chart_dim)[-1]
        if self.space_form:
            self.ctilde = float(ctilde)
            self.coeffs = space_form_coefficients(self.space_form, self.ctilde)

    def structure_jets(self, x):
        sp = x[0].space
        return {"phi": Jet.constant(sp, self._phi), "xi": Jet.constant(sp, self._reeb),
                "eta": Jet.constant(sp, self._reeb)}


# -- Hermitian spaces ---------------------------------------------------------


class EuclideanComplex(_Hermitian):
    kind = "euclidean_complex"
    coeffs = (0.0, 0.0)

    def __init__(self, n):
        super().__init__(2 * n)
        self.n = n

    metric_jets = _flat_metric_jets


class _KaehlerPotentialSpace(_Hermitian):
    """Kaehler metric from a radial potential: G = (Hess K + J^T Hess K J)/4."""

    def __init__(self, n, hol):
        super().__init__(2 * n)
        self.n = n
        self.hol = float(hol)
        self.csf_coeff = self.hol / 4.0
        self.coeffs = (self.csf_coeff, self.csf_coeff)

    def _potential_hessian(self, x):
        """Hess K of K = (1/c) log(1 + s rho), s the sign of c and rho = |x|^2:
        K_ab = (2s/c) (delta_ab w - 2s x_a x_b)/w^2 with w = 1 + s rho."""
        s = 1.0 if self.hol > 0 else -1.0
        w = (x * x).sum(0) + 1.0 if s > 0 else 1.0 - (x * x).sum(0)
        term = ((x * (-2.0 * s))[:, None] * x[None]).add_diagonal(w)
        return (term * ((2.0 * s / self.csf_coeff) / (w * w))).upper().symmetric()

    def metric_jets(self, x):
        H = self._potential_hessian(Jet.stack(x))
        J = self._J
        # (J^T H J)_ab = J_ca H_cd J_db ; J has one entry per column, in row r[a]
        r = np.argmax(J != 0, axis=0)
        sign = J[r, np.arange(self.chart_dim)]
        JHJ = H[r][:, r] * (sign[:, None] * sign[None, :])
        return ((H + JHJ) * 0.25).upper().symmetric()


class FubiniStudy(_KaehlerPotentialSpace):
    kind = "fubini_study"

    def __init__(self, n, hol=4.0):
        if hol <= 0:
            raise SpaceError("fubini_study needs positive holomorphic curvature")
        super().__init__(n, hol)


class ComplexHyperbolic(_KaehlerPotentialSpace):
    kind = "complex_hyperbolic"

    def __init__(self, n, hol=-4.0):
        if hol >= 0:
            raise SpaceError("complex_hyperbolic needs negative holomorphic curvature")
        super().__init__(n, hol)

    def chart_check(self, points):
        super().chart_check(points)
        if np.any(np.square(points).sum(-1) >= 1.0):
            raise ChartError("complex_hyperbolic chart requires |x| < 1")


# -- contact spaces -----------------------------------------------------------


class CosymplecticFlat(_Contact):
    """Flat R^(2n+1) = C^n x R with parallel contact structure (ctilde = 0).

    Doubles as plain Euclidean ambient space for curves and surfaces.
    """

    kind = "cosymplectic_flat"
    space_form = "cosymplectic"

    def __init__(self, n):
        super().__init__(n, 0.0)

    metric_jets = _flat_metric_jets


class KenmotsuHyperbolic(_Contact):
    """Warped product dt^2 + e^(2t) * flat over C^n; Kenmotsu, ctilde = -1."""

    kind = "kenmotsu_hyperbolic"
    space_form = "kenmotsu"

    def __init__(self, n):
        super().__init__(n, -1.0)

    def metric_jets(self, x):
        d = self.chart_dim
        warp = (x[d - 1] * 2.0).exp()
        diagonal = Jet.stack([warp] * (d - 1) + [Jet.constant(warp.space, 1.0)])
        return Jet.constant(warp.space, np.zeros((d, d))).add_diagonal(diagonal)


class SasakianSphere(_Contact):
    """Unit sphere with its standard Sasakian structure, stereographic chart.

    For ctilde != 1 the metric, Reeb field and contact form carry the
    D-homothetic deformation g -> a g + a(a-1) eta (x) eta, xi -> xi/a,
    eta -> a eta with a = 4/(ctilde+3), which keeps the structure Sasakian
    and sets the phi-sectional curvature to ctilde.
    """

    kind = "sasakian_sphere"
    space_form = "sasaki"

    def __init__(self, n, ctilde=1.0):
        if ctilde <= -3.0:
            raise SpaceError("sasakian_sphere needs ctilde > -3")
        super().__init__(n, ctilde)
        self.homothety = 4.0 / (self.ctilde + 3.0)
        # row a of the ambient J has its one entry _J_entry[a] in column _J_col[a]
        J = _std_J(2 * n + 2)
        self._J_col = np.argmax(J != 0, axis=1)
        self._J_entry = J[np.arange(len(J)), self._J_col]

    def _embedding(self, x):
        """X(u) = (2u, 1-|u|^2)/(1+|u|^2), its closed-form differential
        dX[a, i] = dX_a/du_i and the conformal factor lambda = 4/(1+|u|^2)^2
        of the round pullback."""
        x = Jet.stack(x)
        rho = (x * x).sum(0)
        denom_inv = 1.0 / (rho + 1.0)
        denom_inv2 = denom_inv * denom_inv
        X = Jet.concatenate([x * 2.0 * denom_inv, ((1.0 - rho) * denom_inv)[None]])
        dX = (x[None] * x[:, None] * -4.0 * denom_inv2).add_diagonal(2.0 * denom_inv)
        dX = Jet.concatenate([dX, (x * -4.0 * denom_inv2)[None]])
        return X, dX, 4.0 * denom_inv2

    def _round_contact_form(self, x):
        """Round-metric conformal factor lambda (the round metric is
        lambda*I in the chart), contact form eta0 and the differential dX.

        eta0 is the pullback of the ambient Reeb field -J.X: this
        orientation gives the standard Sasakian sign nabla_X xi = -phi(X)."""
        X, dX, lam = self._embedding(x)
        # ambient Reeb -J.X restricted to the sphere; eta0_i = (dX^T (-J X))_i
        JX = X[self._J_col] * -self._J_entry
        return lam, (dX * JX[:, None]).sum(0), dX

    def metric_jets(self, x):
        """The deformed metric a*lambda*I + a(a-1) eta0 (x) eta0, from lambda
        and eta0 alone (phi and xi are not built)."""
        a = self.homothety
        lam, eta0, _dX = self._round_contact_form(x)
        G = (eta0[:, None] * eta0[None] * (a * (a - 1.0))).add_diagonal(lam * a)
        return G.upper().symmetric()

    def structure_jets(self, x):
        """phi = dX^T J dX / lambda, xi = eta0 / (lambda a), eta = a eta0."""
        a = self.homothety
        lam, eta0, dX = self._round_contact_form(x)
        lam_inv = 1.0 / lam
        JdX = dX[self._J_col] * self._J_entry[:, None]
        phi0 = (dX[:, :, None] * JdX[:, None]).sum(0) * lam_inv
        return {"phi": phi0, "xi": eta0 * lam_inv / a, "eta": eta0 * a}


# -- abstract curvature-model-only spaces --------------------------------------


class _CurvatureModel(AmbientSpace):
    """Curvature coefficients given as expressions over the chart
    coordinates x1, x2, ...; no concrete metric."""

    has_metric = False

    def _parse_coeffs(self, exprs):
        self.coord_names = [f"x{i + 1}" for i in range(self.chart_dim)]
        self.coeffs = tuple(parse(e, self.coord_names) for e in exprs)

    def curvature_coeff_jets(self, x):
        env = dict(zip(self.coord_names, x))
        return tuple(eval_on_jets(e, env) for e in self.coeffs)


class AbstractGCSF(_CurvatureModel, _Hermitian):
    """Generalized complex space form given only by curvature coefficients.

    No concrete metric exists for non-constant (alpha, beta); evaluation
    happens in a fiducial orthonormal frame (identity metric, standard J).
    """

    kind = "abstract_gcsf"

    def __init__(self, alpha, beta, dim=4):
        super().__init__(dim)
        self._parse_coeffs((alpha, beta))


class AbstractGSSF(_CurvatureModel, _Contact):
    """Generalized Sasakian space form by coefficient expressions only."""

    kind = "abstract_gssf"

    def __init__(self, n, f1, f2, f3):
        super().__init__(n)
        self._parse_coeffs((f1, f2, f3))


# -- factories and tables -------------------------------------------------------


# The space of each ambient kind; its constructor's parameters are the kind's
# scenario keys, those with a default optional.
SPACES = {cls.kind: cls for cls in (EuclideanComplex, FubiniStudy, ComplexHyperbolic,
                                    SasakianSphere, CosymplecticFlat, KenmotsuHyperbolic,
                                    AbstractGCSF, AbstractGSSF)}


def make_space(kind, **params):
    if kind not in SPACES:
        raise SpaceError(f"unknown ambient kind {kind!r}")
    return SPACES[kind](**params)


def space_form_coefficients(kind, ctilde):
    """Coefficient triple (f1, f2, f3) of the contact space-form families."""
    c = float(ctilde)
    if kind == "sasaki":
        return ((c + 3.0) / 4.0, (c - 1.0) / 4.0, (c - 1.0) / 4.0)
    if kind == "kenmotsu":
        return ((c - 3.0) / 4.0, (c + 1.0) / 4.0, (c + 1.0) / 4.0)
    if kind == "cosymplectic":
        return (c / 4.0, c / 4.0, c / 4.0)
    raise SpaceError(f"unknown contact space-form kind {kind!r}")


# -- connection and curvature (concrete backend) -------------------------------


def jet_matrix_inverse(M):
    """Inverse of a square matrix of jets; a singular one is a SpaceError."""
    try:
        return M.inverse()
    except JetError as exc:
        raise SpaceError(str(exc)) from None


def christoffel_jets(G, G_inv=None):
    """Christoffel symbols Gam[k, i, j] of the metric G[i, j] (tensor
    jets), one order below G.  `G_inv`, the inverse of G at G's order or one
    below when the caller has it, is truncated instead of inverting again:
    truncation commutes with every jet operation, bit for bit."""
    order = G.space.order
    if order < 1:
        raise SpaceError("christoffel symbols need metric jets of order >= 1")
    dG = G.derivs()  # dG[i, j, l] = d_l g_ij
    Ginv = (jet_matrix_inverse(G.truncate(order - 1)) if G_inv is None
            else G_inv.truncate(order - 1))
    # over the pairs i <= j: w[p, l] = d_i g_lj + d_j g_li - d_l g_ij, the
    # axes of dG permuted so that (i, j, l) index each term
    w = (dG.transpose(2, 1, 0) + dG.transpose(1, 2, 0) - dG).upper()
    # Gam[k, i, j] = Gam[k, j, i] = (sum_l Ginv[k, l] w[p, l]) / 2, added one
    # l at a time, left to right, so no (d, pairs, d) product is held
    acc = Ginv[:, None, 0] * w[None, :, 0]
    for l in range(1, Ginv.shape[1]):
        acc = acc + Ginv[:, None, l] * w[None, :, l]
    return (acc * 0.5).symmetric(axis=1)


def metric_and_christoffel_jets(space, points, order):
    """Chart-seeded metric jets (given order; their values must be finite
    and positive definite) and Christoffels (order-1), at each row of a
    (P, d) array of points."""
    space.chart_check(points)
    x = chart_jets(points, order)
    G = space.metric_jets(x)
    _checked_metric(G.point_values(len(points)))
    return G, christoffel_jets(G)


def christoffels_at(space, points):
    """(G, Gam) values at each row of a (P, d) array of chart points, from
    one order-1 build for all: the checked metric and Gamma^k_ij, symmetric
    in the lower indices, with a leading points axis."""
    G, Gam = metric_and_christoffel_jets(space, points, 1)
    return G.point_values(len(points)), Gam.point_values(len(points))


def curvature_from_christoffels(Gam, count):
    """R[p, l, i, j, k] = d_i Gam^l_jk - d_j Gam^l_ik + Gam^l_im Gam^m_jk
    - Gam^l_jm Gam^m_ik at each of the `count` points of Christoffel jets
    of order >= 1 with a points axis."""
    Gv = Gam.point_values(count)                # Gv[p, k, i, j] = Gamma^k_ij
    dGv = Gam.derivs().point_values(count)      # dGv[p, k, i, j, l] = d_l Gamma^k_ij
    quad = np.einsum("...lim,...mjk->...lijk", Gv, Gv)
    return (np.einsum("...ljki->...lijk", dGv) - np.einsum("...likj->...lijk", dGv)
            + quad - quad.swapaxes(-3, -2))


def matvec(M, v):
    """M @ v, or M[p] @ v[p] at each point of a stack as one stacked matmul:
    each point rounds as its product alone."""
    return (M @ v[..., None])[..., 0]


def inner(G, u, v):
    """<u, v>_G = (u G) v, or <u[p], v[p]>_G[p] at each point of a stack as
    stacked matmuls: each point rounds as its product alone."""
    return (u[..., None, :] @ G @ v[..., None])[..., 0, 0]


def curvature_model(structure, G, tensors, coeffs):
    """Algebraic space-form curvature as the map (X, Y, Z) -> R(X, Y)Z, from
    the metric G, structure tensors and curvature coefficients (the fiducial
    identity metric on abstract spaces) of a point, or of P points stacked
    (G[p, a, b], coefficients as P-arrays, X[p, a]), each rounding as alone.
    Hermitian structure: alpha*R1 + beta*R2; contact: f1*R1s + f2*R2s + f3*R3s.
    """
    # inner products and coefficients keep a unit last axis, to scale vectors
    g = lambda a, b: inner(G, a, b)[..., None]
    coeffs = [np.asarray(c)[..., None] for c in coeffs]
    if structure == "hermitian":
        alpha, beta = coeffs
        J = tensors["J"]

        def hermitian(X, Y, Z):
            R1 = g(Y, Z) * X - g(X, Z) * Y
            JX, JY, JZ = matvec(J, X), matvec(J, Y), matvec(J, Z)
            R2 = g(JY, Z) * JX - g(JX, Z) * JY + 2.0 * g(JY, X) * JZ
            return alpha * R1 + beta * R2

        return hermitian
    f1, f2, f3 = coeffs
    phi, xi = tensors["phi"], tensors["xi"]
    eta = lambda v: g(v, xi)

    def contact(X, Y, Z):
        R1 = g(Y, Z) * X - g(X, Z) * Y
        R2 = (
            eta(X) * eta(Z) * Y
            - eta(Y) * eta(Z) * X
            + g(X, Z) * eta(Y) * xi
            - g(Y, Z) * eta(X) * xi
        )
        pX, pY, pZ = matvec(phi, X), matvec(phi, Y), matvec(phi, Z)
        R3 = g(Z, pY) * pX - g(Z, pX) * pY + 2.0 * g(X, pY) * pZ  # Omega(A, B) = g(A, phi B)
        return f1 * R1 + f2 * R2 + f3 * R3

    return contact

