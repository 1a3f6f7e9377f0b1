"""Ambient model spaces: metrics, structure tensors and curvature backends.

Every concrete space exposes its metric and structure tensors as jet-valued
functions of chart coordinates, so the Levi-Civita connection and the
curvature tensor derive from automatic differentiation ("concrete" backend).
The algebraic space-form curvature expressions form the second, independent
backend ("model"); agreement of the two on the concrete spaces is part of
the acceptance suite.

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
    needing the ambient connection reject these spaces.
"""

from __future__ import annotations

import numpy as np

from .expr import parse, eval_on_jets
from .jets import Jet, JetError, jet_space

__all__ = [
    "AmbientSpace",
    "ChartError",
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


def _mirror_upper(M):
    """Copy of the square tensor jet M with M[j, i] = M[i, j] for i < j."""
    return M.upper().symmetric()


def _std_J(dim):
    if dim % 2:
        raise SpaceError("complex structure needs even dimension")
    J = np.zeros((dim, dim))
    for k in range(dim // 2):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


def _flat_contact_structure(phi, space):
    """Constant phi with Reeb field and contact form along the last axis."""
    reeb = np.zeros(len(phi))
    reeb[-1] = 1.0
    return {"phi": Jet.constant(space, phi), "xi": Jet.constant(space, reeb),
            "eta": Jet.constant(space, reeb)}


def _checked_metric(G):
    """The metric values G (one matrix, or a stack of them, one per point),
    which must be finite and positive definite."""
    if not np.all(np.isfinite(G)):
        raise ChartError("metric not finite at point")
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise ChartError("metric not positive definite at point") from None
    return G


def chart_jets(points, order):
    """Seed chart coordinates as jet variables around a point, or around
    each row of a (P, d) array of points (jets with a points axis)."""
    points = np.asarray(points, dtype=float)
    sp = jet_space(points.shape[-1], order)
    return [Jet.variable(sp, i, points[..., i]) for i in range(sp.num_vars)]


class AmbientSpace:
    """Base class; concrete subclasses provide jet-valued evaluators."""

    kind = "abstract"
    structure = None       # "hermitian" | "contact"
    family = None          # "gcsf" | "gssf"
    has_metric = True

    def __init__(self, chart_dim):
        self.chart_dim = chart_dim

    # -- every subclass with a metric implements metric_jets/structure_jets --

    def metric_jets(self, x):
        raise SpaceError(f"{self.kind} has no concrete metric")

    def structure_jets(self, x):
        raise NotImplementedError

    def curvature_coeff_jets(self, x):
        """GCSF (alpha, beta) or GSSF (f1, f2, f3) fields at chart jets x."""
        raise NotImplementedError

    # -- numeric conveniences ------------------------------------------------

    def chart_check(self, points):
        """Reject a point, or a (P, d) array of points, off the chart."""
        if np.shape(points)[-1] != self.chart_dim:
            raise ChartError(
                f"point has {np.shape(points)[-1]} coordinates, chart needs {self.chart_dim}"
            )

    def metric_at(self, point):
        self.chart_check(point)
        return _checked_metric(Jet.stack(self.metric_jets(chart_jets(point, 0))).values)

    def structure_at(self, point):
        self.chart_check(point)
        tensors = self.structure_jets(chart_jets(point, 0))
        return {key: Jet.stack(val).values for key, val in tensors.items()}

    def curvature_coeffs_at(self, points):
        """The curvature coefficients at a chart point, as floats, or at each
        row of a (P, d) array of points, as arrays of P values."""
        coeffs = self.curvature_coeff_jets(chart_jets(points, 0))
        if np.ndim(points) == 1:
            return tuple(c.value for c in coeffs)
        return tuple(c.point_values(len(points)) for c in coeffs)


# -- Hermitian spaces ---------------------------------------------------------


class EuclideanComplex(AmbientSpace):
    kind = "euclidean_complex"
    structure = "hermitian"
    family = "gcsf"

    def __init__(self, n):
        super().__init__(2 * n)
        self.n = n
        self._J = _std_J(self.chart_dim)

    def metric_jets(self, x):
        return Jet.constant(x[0].space, np.eye(self.chart_dim))

    def structure_jets(self, x):
        return {"J": Jet.constant(x[0].space, self._J)}

    def curvature_coeff_jets(self, x):
        zero = Jet.constant(x[0].space, 0.0)
        return (zero, zero)


class _KaehlerPotentialSpace(AmbientSpace):
    """Kaehler metric from a radial potential: G = (Hess K + J^T Hess K J)/4."""

    structure = "hermitian"
    family = "gcsf"

    def __init__(self, n, hol):
        super().__init__(2 * n)
        self.n = n
        self.hol = float(hol)
        self.csf_coeff = self.hol / 4.0
        self._J = _std_J(self.chart_dim)

    def _potential_hessian(self, x):
        """Closed-form Euclidean Hessian of the Kaehler potential (jets)."""
        raise NotImplementedError

    def _radial_hessian(self, x, w, scale, cross):
        """H[a, b] = (cross * x_a x_b + delta_ab w) * scale."""
        term = ((x * cross)[:, None] * x[None]).add_diagonal(w)
        return _mirror_upper(term * scale)

    def metric_jets(self, x):
        H = self._potential_hessian(Jet.stack(x))
        J = self._J
        # (J^T H J)_ab = J_ca H_cd J_db ; J has one entry per column, in row r[a]
        r = np.argmax(J != 0, axis=0)
        sign = J[r, np.arange(self.chart_dim)]
        JHJ = H[r][:, r] * (sign[:, None] * sign[None, :])
        return _mirror_upper((H + JHJ) * 0.25)

    def structure_jets(self, x):
        return {"J": Jet.constant(x[0].space, self._J)}

    def curvature_coeff_jets(self, x):
        c = Jet.constant(x[0].space, self.csf_coeff)
        return (c, c)


class FubiniStudy(_KaehlerPotentialSpace):
    kind = "fubini_study"

    def __init__(self, n, hol=4.0):
        if hol <= 0:
            raise SpaceError("fubini_study needs positive holomorphic curvature")
        super().__init__(n, hol)

    def _potential_hessian(self, x):
        # K = (1/c) log(1+rho): K_ab = (2/c) (delta_ab (1+rho) - 2 x_a x_b)/(1+rho)^2
        w = (x * x).sum(0) + 1.0
        return self._radial_hessian(x, w, (2.0 / self.csf_coeff) / (w * w), -2.0)


class ComplexHyperbolic(_KaehlerPotentialSpace):
    kind = "complex_hyperbolic"

    def __init__(self, n, hol=-4.0):
        if hol >= 0:
            raise SpaceError("complex_hyperbolic needs negative holomorphic curvature")
        super().__init__(n, hol)

    def chart_check(self, points):
        super().chart_check(points)
        for p in np.reshape(points, (-1, self.chart_dim)):
            if float(np.dot(p, p)) >= 1.0:
                raise ChartError("complex_hyperbolic chart requires |x| < 1")

    def _potential_hessian(self, x):
        # K = (1/c) log(1-rho), c < 0:
        # K_ab = -(2/c) (delta_ab (1-rho) + 2 x_a x_b)/(1-rho)^2
        w = 1.0 - (x * x).sum(0)
        return self._radial_hessian(x, w, (-2.0 / self.csf_coeff) / (w * w), 2.0)


# -- contact spaces -----------------------------------------------------------


class CosymplecticFlat(AmbientSpace):
    """Flat R^(2n+1) = C^n x R with parallel contact structure (ctilde = 0).

    Doubles as plain Euclidean ambient space for curves and surfaces.
    """

    kind = "cosymplectic_flat"
    structure = "contact"
    family = "gssf"
    space_form = "cosymplectic"
    ctilde = 0.0

    def __init__(self, n):
        super().__init__(2 * n + 1)
        self.n = n
        self._phi = np.zeros((self.chart_dim, self.chart_dim))
        self._phi[: 2 * n, : 2 * n] = _std_J(2 * n)

    def metric_jets(self, x):
        return Jet.constant(x[0].space, np.eye(self.chart_dim))

    def structure_jets(self, x):
        return _flat_contact_structure(self._phi, x[0].space)

    def curvature_coeff_jets(self, x):
        zero = Jet.constant(x[0].space, 0.0)
        return (zero, zero, zero)


class KenmotsuHyperbolic(AmbientSpace):
    """Warped product dt^2 + e^(2t) * flat over C^n; Kenmotsu, ctilde = -1."""

    kind = "kenmotsu_hyperbolic"
    structure = "contact"
    family = "gssf"
    space_form = "kenmotsu"
    ctilde = -1.0

    def __init__(self, n):
        super().__init__(2 * n + 1)
        self.n = n
        self._phi = np.zeros((self.chart_dim, self.chart_dim))
        self._phi[: 2 * n, : 2 * n] = _std_J(2 * n)

    def metric_jets(self, x):
        sp = x[0].space
        d = self.chart_dim
        warp = (x[d - 1] * 2.0).exp()
        zero = Jet.constant(sp, 0.0)
        G = [[zero] * d for _ in range(d)]
        for a in range(2 * self.n):
            G[a] = list(G[a])
            G[a][a] = warp
        G[d - 1] = list(G[d - 1])
        G[d - 1][d - 1] = Jet.constant(sp, 1.0)
        return G

    def structure_jets(self, x):
        return _flat_contact_structure(self._phi, x[0].space)

    def curvature_coeff_jets(self, x):
        f1, f2, f3 = space_form_coefficients("kenmotsu", self.ctilde)
        sp = x[0].space
        return tuple(Jet.constant(sp, v) for v in (f1, f2, f3))


class SasakianSphere(AmbientSpace):
    """Unit sphere with its standard Sasakian structure, stereographic chart.

    For ctilde != 1 the metric, Reeb field and contact form carry the
    D-homothetic deformation g -> a g + a(a-1) eta (x) eta, xi -> xi/a,
    eta -> a eta with a = 4/(ctilde+3), which keeps the structure Sasakian
    and sets the phi-sectional curvature to ctilde.
    """

    kind = "sasakian_sphere"
    structure = "contact"
    family = "gssf"
    space_form = "sasaki"

    def __init__(self, n, ctilde=1.0):
        if ctilde <= -3.0:
            raise SpaceError("sasakian_sphere needs ctilde > -3")
        super().__init__(2 * n + 1)
        self.n = n
        self.ctilde = float(ctilde)
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
        return _mirror_upper(G)

    def structure_jets(self, x):
        """phi = dX^T J dX / lambda, xi = eta0 / (lambda a), eta = a eta0."""
        a = self.homothety
        lam, eta0, dX = self._round_contact_form(x)
        lam_inv = 1.0 / lam
        JdX = dX[self._J_col] * self._J_entry[:, None]
        phi0 = (dX[:, :, None] * JdX[:, None]).sum(0) * lam_inv
        return {"phi": phi0, "xi": eta0 * lam_inv / a, "eta": eta0 * a}

    def curvature_coeff_jets(self, x):
        f1, f2, f3 = space_form_coefficients("sasaki", self.ctilde)
        sp = x[0].space
        return tuple(Jet.constant(sp, v) for v in (f1, f2, f3))


# -- abstract curvature-model-only spaces --------------------------------------


class AbstractGCSF(AmbientSpace):
    """Generalized complex space form given only by curvature coefficients.

    No concrete metric exists for non-constant (alpha, beta); evaluation
    happens in a fiducial orthonormal frame (identity metric, standard J).
    """

    kind = "abstract_gcsf"
    structure = "hermitian"
    family = "gcsf"
    has_metric = False

    def __init__(self, alpha, beta, dim=4):
        if dim % 2:
            raise SpaceError("abstract_gcsf needs even dimension")
        super().__init__(dim)
        self.coord_names = [f"x{i + 1}" for i in range(dim)]
        self.alpha = parse(alpha, self.coord_names) if isinstance(alpha, str) else alpha
        self.beta = parse(beta, self.coord_names) if isinstance(beta, str) else beta
        self._J = _std_J(dim)

    def structure_jets(self, x):
        return {"J": Jet.constant(x[0].space, self._J)}

    def curvature_coeff_jets(self, x):
        env = dict(zip(self.coord_names, x))
        return (eval_on_jets(self.alpha, env), eval_on_jets(self.beta, env))


class AbstractGSSF(AmbientSpace):
    """Generalized Sasakian space form by coefficient expressions only."""

    kind = "abstract_gssf"
    structure = "contact"
    family = "gssf"
    has_metric = False

    def __init__(self, n, f1, f2, f3):
        super().__init__(2 * n + 1)
        self.n = n
        self.coord_names = [f"x{i + 1}" for i in range(self.chart_dim)]
        parse_maybe = lambda e: parse(e, self.coord_names) if isinstance(e, str) else e
        self.f1 = parse_maybe(f1)
        self.f2 = parse_maybe(f2)
        self.f3 = parse_maybe(f3)
        self._phi = np.zeros((self.chart_dim, self.chart_dim))
        self._phi[: 2 * n, : 2 * n] = _std_J(2 * n)

    def structure_jets(self, x):
        return _flat_contact_structure(self._phi, x[0].space)

    def curvature_coeff_jets(self, x):
        env = dict(zip(self.coord_names, x))
        return tuple(eval_on_jets(f, env) for f in (self.f1, self.f2, self.f3))


# -- factories and tables -------------------------------------------------------


def make_space(kind, **params):
    table = {
        "euclidean_complex": EuclideanComplex,
        "fubini_study": FubiniStudy,
        "complex_hyperbolic": ComplexHyperbolic,
        "sasakian_sphere": SasakianSphere,
        "cosymplectic_flat": CosymplecticFlat,
        "kenmotsu_hyperbolic": KenmotsuHyperbolic,
        "abstract_gcsf": AbstractGCSF,
        "abstract_gssf": AbstractGSSF,
    }
    if kind not in table:
        raise SpaceError(f"unknown ambient kind {kind!r}")
    return table[kind](**params)


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
    jets), one order below G.  `G_inv`, the inverse of G at G's order when
    the caller has it, is truncated instead of inverting again: truncation
    commutes with every jet operation, bit for bit."""
    order = G.space.order
    if order < 1:
        raise SpaceError("christoffel symbols need metric jets of order >= 1")
    dG = G.derivs()  # dG[i, j, l] = d_l g_ij
    Ginv = (jet_matrix_inverse(G.truncate(order - 1)) if G_inv is None
            else G_inv.truncate(order - 1))
    # over the pairs i <= j: w[p, l] = d_i g_lj + d_j g_li - d_l g_ij, the
    # axes of dG permuted so that (i, j, l) index each term
    w = (dG.transpose(2, 1, 0) + dG.transpose(1, 2, 0) - dG).upper()
    # Gam[k, i, j] = Gam[k, j, i] = (sum_l Ginv[k, l] w[p, l]) / 2
    Gam = (Ginv[:, None, :] * w[None]).sum(2) * 0.5
    return Gam.symmetric(axis=1)


def metric_and_christoffel_jets(space, points, order):
    """Chart-seeded metric jets (given order; their values checked as in
    `metric_at`) and Christoffels (order-1), at a point or at each row of a
    (P, d) array of points."""
    if not space.has_metric:
        raise SpaceError(f"{space.kind} supplies no ambient connection")
    space.chart_check(points)
    x = chart_jets(points, order)
    G = Jet.stack(space.metric_jets(x))
    _checked_metric(G.values if np.ndim(points) == 1 else G.point_values(len(points)))
    return G, christoffel_jets(G)


def christoffels_at(space, points):
    """(G, Gam) values at a chart point from one order-1 build: the checked
    metric and Gamma^k_ij, symmetric in the lower indices.  For a (P, d)
    array of points, one build for all: arrays with a leading points axis."""
    G, Gam = metric_and_christoffel_jets(space, points, 1)
    if np.ndim(points) == 1:
        return G.values, Gam.values
    return G.point_values(len(points)), Gam.point_values(len(points))


def curvature_from_christoffels(Gam, count=None):
    """R[l,i,j,k] = d_i Gam^l_jk - d_j Gam^l_ik + Gam^l_im Gam^m_jk
    - Gam^l_jm Gam^m_ik from Christoffel jets of order >= 1; with `count`,
    at each of the `count` points of jets with a points axis, on a leading
    axis."""
    values = (lambda jet: jet.values) if count is None else (lambda jet: jet.point_values(count))
    Gv = values(Gam)                   # Gv[k, i, j] = Gamma^k_ij
    dGv = values(Gam.derivs())         # dGv[k, i, j, l] = d_l Gamma^k_ij
    quad = np.einsum("...lim,...mjk->...lijk", Gv, Gv)
    return (np.einsum("...ljki->...lijk", dGv) - np.einsum("...likj->...lijk", dGv)
            + quad - quad.swapaxes(-3, -2))


def curvature_model(family, G, tensors, coeffs):
    """Algebraic space-form curvature at a point, as the map
    (X, Y, Z) -> R(X, Y)Z, from the point's metric G, structure tensors and
    curvature coefficients (the fiducial identity metric on abstract spaces).

    Hermitian family: alpha*R1 + beta*R2; contact family: f1*R1s + f2*R2s
    + f3*R3s.
    """
    g = lambda a, b: float(a @ G @ b)
    if family == "gcsf":
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
    Om = lambda a, pb: g(a, pb)  # Omega(A, B) = g(A, phi B)

    def contact(X, Y, Z):
        R1 = g(Y, Z) * X - g(X, Z) * Y
        R2 = (
            eta(X) * eta(Z) * Y
            - eta(Y) * eta(Z) * X
            + g(X, Z) * eta(Y) * xi
            - g(Y, Z) * eta(X) * xi
        )
        pX, pY, pZ = phi @ X, phi @ Y, phi @ Z
        R3 = Om(Z, pY) * pX - Om(Z, pX) * pY + 2.0 * Om(X, pY) * pZ
        return f1 * R1 + f2 * R2 + f3 * R3

    return contact


def gcsf_coefficient_sum_spread(space, points):
    """Spread of alpha+beta over sample points.

    The coefficient sum of a generalized complex space form is necessarily
    constant; user-supplied expressions are not forced to satisfy this, so
    consumers warn when the sampled spread is non-zero.
    """
    alpha, beta = space.curvature_coeffs_at(np.asarray(points, float))
    total = alpha + beta
    return float(total.max() - total.min())
