import gc
import itertools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from bihkit.calculus import (
    CalcError,
    FlagError,
    Immersion,
    flag_deviation,
    verify_flags,
)
from bihkit import calculus
from bihkit.audits import (_intrinsic_rough_laplacian_gradf, audit_lemgene2,
                           audit_mean_curvature_laplacian)
from bihkit.expr import CONSTANTS, Call, Const, Lit, Neg, Pow, Var, eval_on_jets
from bihkit.jets import Jet, JetError, jet_space
from bihkit.residuals import (bi_f_tension_direct, compare_modes, f_bitension_direct,
                               theorem_residual)
from bihkit.scenario import load_scenario
from bihkit.spaces import (SpaceError, chart_jets, christoffel_jets, curvature_from_christoffels,
                           make_space)
from conftest import (at, catalog_blocks, coeffs_at, one_point, same_bits, scenario_path,
                      structure_at)

FLAT3 = make_space("cosymplectic_flat", n=1)
C2 = make_space("euclidean_complex", n=2)
S3 = make_space("sasakian_sphere", n=1, ctilde=1.0)


def sphere_immersion(r=1.0, ambient=FLAT3, weight="1"):
    return Immersion.from_strings(
        ["u", "v"], ambient,
        [f"{r}*cos(v)*cos(u)", f"{r}*cos(v)*sin(u)", f"{r}*sin(v)"], weight)


# The trace terms of a contact ambient only
CONTACT_TERMS = ("eta_h", "xi_tan", "xi_nor", "xi_tan_norm2", "eta_grad_f")


# The public entries of `calculus.TRACE_TERMS` that are not trace terms: the
# block's structure tensors, operators, order - 3 fields and bitension, and
# the flag deviations
BLOCK_ENTRIES = {"structure", "structure_tensor", "projectors", "frames",
                 "decomposition_operators", "curvature_operator", "nabla_perp_h_field",
                 "nabla_grad_f_field", "bitension", *calculus.FLAG_NAMES}


def _public_terms(ev):
    """The public trace terms of a block, in table order: the xi and eta
    terms on a contact ambient only, Delta-perp H at order 4 only."""
    return [name for name in calculus.TRACE_TERMS
            if not name.startswith("_") and name not in BLOCK_ENTRIES
            and (ev.space.structure == "contact" or name not in CONTACT_TERMS)
            and (ev.order >= 4 or name != "delta_perp_h_pos")]


class _Point:
    """Point i of an evaluation block for the reference computations here:
    its jet fields without the points axis, their values, frames and
    projectors, and the block's derivative along the immersion at it."""

    def __init__(self, ev, i=0):
        self.ev, self.imm, self.space, self.order = ev, ev.imm, ev.space, ev.order
        self.m, self.d, self.point = ev.m, ev.d, ev.points[i]
        for name, jet in ev.fields.items():
            setattr(self, name, at(jet, i))
        self.G_val, self.g_inv_val = self.G_field.values, self.induced_metric_inv_field.values
        self.dpsi_val, self.B_val, self.H_val = self.dpsi.values, self.B_field.values, self.H_field.values
        self.grad_f_param = self.grad_f_param_field.values
        self.grad_f_ambient = self.grad_f_ambient_field.values
        self.structure = {key: val[i] for key, val in ev.structure.items()}
        self.structure_tensor = ev.structure_tensor[i]
        self.tangent_frame, self.normal_frame = (F[i] for F in ev.frames)
        self.projectors = tuple(P[i] for P in ev.projectors)
        self._i = i

    def pullback_derivative(self, field):
        return at(self.ev.pullback_derivative(field), self._i)


def _B_frame(pt):
    """Second fundamental form in the orthonormal tangent frame."""
    # e_i = c_i^alpha d_alpha psi; rows of `coeff` are the frame coefficients
    dpsi = pt.dpsi_val
    coeff = np.linalg.solve(dpsi.T @ dpsi, dpsi.T @ pt.tangent_frame.T).T
    return np.einsum("ia,jb,abk->ijk", coeff, coeff, pt.B_val)


def _shape_operators(pt):
    """(codim, m, m) matrices of A_nu in the orthonormal frames."""
    return np.einsum("ijk,kl,sl->sij", _B_frame(pt), pt.G_val, pt.normal_frame)


def test_plane_is_totally_geodesic():
    plane = Immersion.from_strings(["u", "v"], FLAT3, ["u", "v", "0"], "1")
    ev = one_point(plane, [0.3, -0.7])
    assert np.abs(ev.values(ev.B_field)).max() == 0.0
    assert np.abs(ev.values(ev.H_field)).max() == 0.0


def test_round_sphere_closed_forms():
    r = 0.8
    imm = sphere_immersion(r)
    for p in ([0.5, 0.3], [2.0, -0.6]):
        ev = one_point(imm, p)
        assert np.sqrt(ev.h_norm2) == pytest.approx(1.0 / r, abs=1e-9)
        assert ev.b_norm2 == pytest.approx(2.0 / r**2, abs=1e-9)
        assert ev.scal == pytest.approx(2.0 / r**2, abs=1e-8)
        # umbilic shape operator: A = (1/r) Id up to sign
        A = _shape_operators(_Point(ev))[0]
        assert np.abs(np.abs(A) - np.eye(2) / r).max() <= 1e-9


def test_frames_and_duality():
    imm = sphere_immersion(0.8, weight="1 + 0.2*sin(u)*cos(v)")
    p = [0.7, 0.4]
    pt = _Point(one_point(imm, p))
    G = pt.G_val
    E, N = pt.tangent_frame, pt.normal_frame
    assert np.abs(E @ G @ E.T - np.eye(2)).max() <= 1e-10
    assert np.abs(N @ G @ N.T - np.eye(1)).max() <= 1e-10
    assert np.abs(E @ G @ N.T).max() <= 1e-10
    B = pt.B_val
    assert np.abs(B - B.transpose(1, 0, 2)).max() <= 1e-9
    # H = tr B / m in coordinates
    assert np.abs(
        pt.H_val
        - np.einsum("ab,abk->k", pt.g_inv_val, B) / 2.0
    ).max() <= 1e-12
    # Weingarten duality g(A_nu X, Y) = g(B(X,Y), nu)
    got = np.einsum("ijk,kl,l->ij", _B_frame(pt), G, N[0])
    assert np.abs(got - _shape_operators(pt)[0]).max() <= 1e-9
    # B is normal-valued
    assert np.abs(np.einsum("abk,kl,il->abi", B, G, E)).max() <= 1e-9


def test_clifford_torus_minimal_in_s3():
    r = 1.0 / np.sqrt(2.0)
    imm = Immersion.from_strings(
        ["u", "v"], S3,
        [f"{r}*cos(u)/(1 + {r}*sin(v))",
         f"{r}*sin(u)/(1 + {r}*sin(v))",
         f"{r}*cos(v)/(1 + {r}*sin(v))"],
        "1")
    for p in ([0.3, 1.2], [2.1, 0.4]):
        ev = one_point(imm, p)
        assert np.sqrt(ev.h_norm2) <= 1e-9


def test_rank_deficiency_raises():
    bad = Immersion.from_strings(["u", "v"], FLAT3, ["u", "u", "0"], "1")
    with pytest.raises(CalcError):
        one_point(bad, [0.1, 0.2]).frames


def test_abstract_ambient_rejected():
    ab = make_space("abstract_gcsf", alpha="1", beta="1")
    imm = Immersion.from_strings(["u"], ab, ["cos(u)", "sin(u)", "0", "0"], "1")
    with pytest.raises(SpaceError):
        one_point(imm, [0.1])


def test_lagrangian_operators_vanish():
    imm = Immersion.from_strings(
        ["u", "v"], C2,
        ["0.8*cos(u)", "0.8*sin(u)", "0.5*cos(v)", "0.5*sin(v)"], "1")
    tt_m, tn, nt, nn = one_point(imm, [0.4, 1.3]).decomposition_operators
    assert np.abs(tt_m).max() <= 1e-10  # j = 0
    assert np.abs(nn).max() <= 1e-10    # m = 0


def test_complex_curve_operators_vanish():
    imm = Immersion.from_strings(
        ["u", "v"], C2, ["u", "v", "u^2 - v^2", "2*u*v"], "1")
    tt_m, tn, nt, nn = one_point(imm, [0.3, -0.2]).decomposition_operators
    assert np.abs(tn).max() <= 1e-10    # k = 0
    assert np.abs(nt).max() <= 1e-10    # l = 0


def test_hypersurface_hermitian_facts():
    # m = 0 and klH = -H for hypersurfaces of Hermitian ambients
    imm = Immersion.from_strings(
        ["u", "v", "w"], C2,
        ["0.9*cos(v)*cos(u)", "0.9*cos(v)*sin(u)",
         "0.9*sin(v)*cos(w)", "0.9*sin(v)*sin(w)"], "1")
    p = [0.5, 0.7, 1.0]
    ev = one_point(imm, p)
    tt_m, tn, nt, nn = ev.decomposition_operators
    assert np.abs(nn).max() <= 1e-10
    assert np.abs(ev.kl_H + ev.H).max() <= 1e-9
    assert np.abs(ev.jl_H).max() <= 1e-9


def test_trace_terms_minimal_and_constant_weight():
    great = Immersion.from_strings(
        ["u", "v"], S3, ["cos(v)*cos(u)", "cos(v)*sin(u)", "sin(v)"], "1")
    ev = one_point(great, [0.4, 0.2])
    assert np.abs(ev.tb_ah).max() <= 1e-10
    assert np.abs(ev.a_h_grad_f).max() <= 1e-12
    assert np.abs(ev.grad_f).max() == 0.0
    assert ev.delta_f_pos == 0.0
    assert np.abs(ev.grad_delta_f_pos).max() == 0.0
    assert np.abs(ev.b_gradf_gradf).max() == 0.0


def test_hypersurface_tb_identity():
    # tr B(., A_H .) = |B|^2 H for hypersurfaces
    imm = sphere_immersion(0.8)
    imm2 = Immersion.from_strings(
        ["u", "v"], FLAT3,
        ["(1 + 0.3*cos(v))*cos(u)", "(1 + 0.3*cos(v))*sin(u)", "0.3*sin(v)"],
        "1")
    for im, p in ((imm, [0.5, 0.3]), (imm2, [0.7, 1.1])):
        ev = one_point(im, p)
        assert np.abs(ev.tb_ah - ev.b_norm2 * ev.H).max() <= 1e-8


def test_intrinsic_scal_unit_sphere():
    imm = sphere_immersion(1.0)
    ev = one_point(imm, [0.7, 0.5])
    assert ev.scal == pytest.approx(2.0, abs=1e-8)


def _covariant_split(pt, field):
    """(normal, tangential) parts of nabla-bar of `field` per direction."""
    P_tan, P_nor = pt.projectors
    out = []
    for covd in pt.pullback_derivative(field).values:
        out.append((P_nor @ covd, P_tan @ covd))
    return out


def test_normal_derivative_splits():
    plane = _Point(one_point(
        Immersion.from_strings(["u", "v"], FLAT3, ["u", "v", "0"], "1"), [0.2, 0.4]))
    for nor, tan in _covariant_split(plane, plane.H_field):
        assert np.abs(nor).max() <= 1e-12 and np.abs(tan).max() <= 1e-12
    # round sphere: H is parallel, its tangential derivative is -A_H d_al
    pt = _Point(one_point(sphere_immersion(0.8), [0.6, 0.2]))
    for al, (nor, tan) in enumerate(_covariant_split(pt, pt.H_field)):
        assert np.abs(nor).max() <= 1e-9
        # duality: g(A_H d_al, d_be) = g(B(d_al, d_be), H)
        shape = [tan @ pt.G_val @ pt.dpsi_val[:, be] for be in range(pt.m)]
        dual = [pt.B_val[al, be] @ pt.G_val @ pt.H_val for be in range(pt.m)]
        assert np.abs(np.add(shape, dual)).max() <= 1e-9
    assert np.abs(pt.ev.values(pt.ev.nabla_perp_h_field)).max() <= 1e-9


def test_normal_laplacian_parallel_field_and_bochner():
    ev = one_point(sphere_immersion(0.9), [0.4, 0.8])
    assert np.abs(ev.delta_perp_h_pos).max() <= 1e-9

    # Bochner: (1/2) Delta |H|^2 = <Delta-perp H, H> - |nabla-perp H|^2
    bumpy = Immersion.from_strings(
        ["u", "v"], FLAT3,
        ["(1 + 0.25*cos(v))*cos(u)", "(1 + 0.25*cos(v))*sin(u)",
         "0.25*sin(v) + 0.05*sin(u)"],
        "1")
    for p in ([0.5, 1.0], [2.2, 0.3]):
        pt = _Point(one_point(bumpy, p))
        ev = pt.ev
        h2_field = None
        ord2 = pt.order - 2
        for a in range(pt.d):
            for b in range(pt.d):
                term = pt.G_field[a][b].truncate(ord2) * pt.H_field[a] * pt.H_field[b]
                h2_field = term if h2_field is None else h2_field + term
        lap_h2 = calculus._laplacian_pos(pt.induced_metric_inv_field,
                                         pt.intrinsic_christoffels, h2_field).value
        lhs = 0.5 * lap_h2
        nabla_perp_h_norm2 = pt.ev.form_norm2(pt.ev.values(pt.ev.nabla_perp_h_field))
        rhs = float(ev.delta_perp_h_pos[0] @ pt.G_val @ pt.H_val) - nabla_perp_h_norm2[0]
        assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(lhs))


def test_small_sphere_normal_laplacian_zero():
    r0 = np.sqrt(2.0) - 1.0
    imm = Immersion.from_strings(
        ["u", "v"], S3,
        [f"{r0}*cos(v)*cos(u)", f"{r0}*cos(v)*sin(u)", f"{r0}*sin(v)"], "1")
    lap = one_point(imm, [0.7, 0.4]).delta_perp_h_pos
    assert np.abs(lap).max() <= 1e-9


def test_frame_remix_invariance():
    """Scalars assembled from frames match the coordinate-form trace terms
    under random orthonormal re-mixing of both frames."""
    imm = Immersion.from_strings(
        ["u", "v"], C2,
        ["0.9*cos(u)", "0.9*sin(u)", "0.55*cos(v) + 0.1*cos(u)", "0.55*sin(v)"],
        "1 + 0.2*sin(u)")
    p = [0.8, 1.7]
    pt = _Point(one_point(imm, p))
    ev = pt.ev
    G = pt.G_val
    rng = np.random.default_rng(17)
    for _ in range(4):
        Qt, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        Qn, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        E = Qt @ pt.tangent_frame
        Nf = Qn @ pt.normal_frame
        B = np.einsum("ia,jb,abk->ijk", Qt, Qt, _B_frame(pt))
        H = np.einsum("ab,abk->k", np.eye(2), B) / 2.0
        b_norm2 = float(np.einsum("ijk,kl,ijl->", B, G, B))
        BH = np.einsum("ijk,kl,l->ij", B, G, H)
        tb = np.einsum("ij,ijk->k", BH, B)
        assert abs(b_norm2 - ev.b_norm2) <= 1e-8 * (1 + abs(ev.b_norm2))
        assert np.abs(tb - ev.tb_ah).max() <= 1e-8 * (1 + np.abs(ev.tb_ah).max())
        assert np.abs(H - pt.H_val).max() <= 1e-10


def test_hypersurface_xi_tangent_normal_line_facts():
    # Ps = 0 and Ns = -Id on the normal line of a Hopf torus
    imm = Immersion.from_strings(
        ["u", "v"], S3,
        ["0.6*cos(u)/(1 + 0.8*sin(v))", "0.6*sin(u)/(1 + 0.8*sin(v))",
         "0.8*cos(v)/(1 + 0.8*sin(v))"],
        "1")
    p = [0.5, 1.1]
    pt = _Point(one_point(imm, p))
    st = structure_at(S3, pt.psi.values)
    phi = st["phi"]
    P_tan, P_nor = pt.projectors
    nu = pt.normal_frame[0]
    s_nu = P_tan @ (phi @ nu)
    Ps = P_tan @ (phi @ s_nu)
    Ns = P_nor @ (phi @ s_nu)
    assert np.abs(Ps).max() <= 1e-9
    assert np.abs(Ns + nu).max() <= 1e-9


def test_flag_verification_and_denial():
    imm = Immersion.from_strings(
        ["u", "v"], C2,
        ["0.8*cos(u)", "0.8*sin(u)", "0.5*cos(v)", "0.5*sin(v)"], "1",
        flags={"lagrangian": "asserted", "complex": "denied"})
    pts = [[0.3, 0.4], [1.5, 2.0]]
    report = verify_flags(imm, [one_point(imm, p) for p in pts])
    assert report["lagrangian"] <= 1e-10
    assert report["complex"] > 1e-2

    bad = Immersion.from_strings(
        ["u", "v"], C2,
        ["0.8*cos(u)", "0.8*sin(u)", "0.5*cos(v)", "0.5*sin(v)"], "1",
        flags={"complex": "asserted"})
    with pytest.raises(FlagError):
        verify_flags(bad, [one_point(bad, p) for p in pts])

    denied_wrong = Immersion.from_strings(
        ["u", "v"], C2,
        ["0.8*cos(u)", "0.8*sin(u)", "0.5*cos(v)", "0.5*sin(v)"], "1",
        flags={"lagrangian": "denied"})
    with pytest.raises(FlagError):
        verify_flags(denied_wrong, [one_point(denied_wrong, p) for p in pts])


def test_structural_flags():
    curve = Immersion.from_strings(["u"], FLAT3, ["cos(u)", "sin(u)", "0"], "1")
    blocks = [one_point(curve, [0.1])]
    assert flag_deviation(curve, blocks, "curve") == 0.0
    assert flag_deviation(curve, blocks, "hypersurface") == float("inf")


def test_weight_positivity_not_enforced_here():
    # evaluation works even where f < 0; scenario validation owns the check
    imm = Immersion.from_strings(["u"], FLAT3, ["cos(u)", "sin(u)", "0"],
                                 "cos(u)")
    ev = one_point(imm, [3.0])
    assert ev.values(ev.f_jet)[0] < 0


def _pullback_triple_sum(pt, field, alpha):
    """nabla-bar_alpha as the plain triple sum Gam^a_bc d_alpha psi^b F^c
    (reference for the contracted-connection form)."""
    order = field[0].space.order - 1
    out = []
    for a in range(pt.d):
        acc = field[a].deriv(alpha)
        for b in range(pt.d):
            for c in range(pt.d):
                acc = acc + (pt.Gam_field[a][b][c].truncate(order)
                             * pt.dpsi[b][alpha].truncate(order)
                             * field[c].truncate(order))
        out.append(acc)
    return out


@pytest.mark.parametrize(
    "name", ["c02_curve_sasakian", "c13_hypersphere_r4", "c18_hypersphere_cp2"])
def test_pullback_derivative_matches_triple_sum(name):
    sc = load_scenario(scenario_path(name), validate=False)
    points = sc.sample_points()
    for p in points[:: len(points) // 2]:
        ev = one_point(sc.immersion, p)
        # fields of order 3, 2 and 1, so every truncation depth is used
        dpsi_col = ev.dpsi[:, 0]
        first = ev.pullback_derivative(ev.H_field)
        for field in (dpsi_col, ev.H_field, first[0]):
            for al in range(ev.m):
                got = ev.pullback_derivative(field)[al].c
                want = np.array([j.c for j in _pullback_triple_sum(ev, field, al)])
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # a field with a leading axis: each row is differentiated as alone
        second = ev.pullback_derivative(first)
        for al in range(ev.m):
            for be in range(ev.m):
                want = np.array([j.c for j in _pullback_triple_sum(ev, first[be], al)])
                assert np.abs(second[al, be].c - want).max() <= 1e-13 * np.abs(want).max()


# -- scalar-loop references of the mean-curvature path -------------------------
# One scalar `Jet` per entry, in the loop order the tensor contractions must
# reproduce bit for bit.


def _ref_inverse(M):
    """Gauss-Jordan inverse of a list-of-lists jet matrix (value pivoting)."""
    n = len(M)
    A = [row[:] for row in M]
    sp = A[0][0].space
    I = [[Jet.constant(sp, 1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col].value))
        A[col], A[piv] = A[piv], A[col]
        I[col], I[piv] = I[piv], I[col]
        inv_p = 1.0 / A[col][col]
        A[col] = [a * inv_p for a in A[col]]
        I[col] = [a * inv_p for a in I[col]]
        for r in range(n):
            if r != col:
                factor = A[r][col]
                A[r] = [a - factor * b for a, b in zip(A[r], A[col])]
                I[r] = [a - factor * b for a, b in zip(I[r], I[col])]
    return I


def _ref_christoffels(G):
    d = len(G)
    order = G[0][0].space.order
    dG = [[[G[i][j].deriv(k) for k in range(d)] for j in range(d)] for i in range(d)]
    Ginv = _ref_inverse([[G[i][j].truncate(order - 1) for j in range(d)] for i in range(d)])
    Gam = [[[None] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            w = [dG[l][j][i] + dG[l][i][j] - dG[i][j][l] for l in range(d)]
            for k in range(d):
                acc = Ginv[k][0] * w[0]
                for l in range(1, d):
                    acc = acc + Ginv[k][l] * w[l]
                Gam[k][i][j] = Gam[k][j][i] = acc * 0.5
    return Gam


def _ref_composer(inners):
    """Outer jet -> composed jet, truncated to the outer order."""
    powers = {(0,) * len(inners): Jet.constant(inners[0].space, 1.0)}

    def monomial(gamma):
        if gamma not in powers:
            ax = next(i for i, g in enumerate(gamma) if g > 0)
            parent = tuple(g - (i == ax) for i, g in enumerate(gamma))
            powers[gamma] = monomial(parent) * inners[ax]
        return powers[gamma]

    def compose(outer):
        acc = np.zeros(inners[0].space.size)
        for i, gamma in enumerate(outer.space.indices):
            if outer.c[i] != 0.0:
                acc = acc + outer.c[i] * monomial(gamma).c
        return Jet(inners[0].space, acc).truncate(outer.space.order)

    return compose


def _ref_mean_curvature_path(pt):
    """Gam_field, induced metric, intrinsic Christoffels, B and H of `pt`
    from scalar jets and nested loops."""
    d, m, order = pt.d, pt.m, pt.order
    sp = jet_space(m, order)
    env = {name: Jet.variable(sp, i, pt.point[i]) for i, name in enumerate(pt.imm.params)}
    psi = [eval_on_jets(c, env) for c in pt.imm.components]
    compose = _ref_composer([psi[a] - psi[a].value for a in range(d)])
    metric = pt.space.metric_jets(chart_jets(pt.psi.values, order))
    G_chart = [[metric[a, b] for b in range(d)] for a in range(d)]
    Gam_chart = _ref_christoffels(G_chart)
    G = [[compose(G_chart[a][b]) for b in range(d)] for a in range(d)]
    Gam = [[[compose(Gam_chart[k][a][b]) for b in range(d)] for a in range(d)]
           for k in range(d)]
    dpsi = [[psi[a].deriv(al) for al in range(m)] for a in range(d)]
    G3 = [[G[a][b].truncate(order - 1) for b in range(d)] for a in range(d)]
    g = [[None] * m for _ in range(m)]
    for al in range(m):
        for be in range(al, m):
            acc = None
            for a in range(d):
                row = None
                for b in range(d):
                    term = G3[a][b] * dpsi[b][be]
                    row = term if row is None else row + term
                term = dpsi[a][al] * row
                acc = term if acc is None else acc + term
            g[al][be] = g[be][al] = acc
    ginv, Gam_int = _ref_inverse(g), _ref_christoffels(g)
    ord2 = order - 2
    low = [[dpsi[a][al].truncate(ord2) for al in range(m)] for a in range(d)]
    B = [[None] * m for _ in range(m)]
    for al in range(m):
        for be in range(al, m):
            vec = []
            for a in range(d):
                acc = dpsi[a][al].deriv(be)
                for b in range(d):
                    for c in range(d):
                        acc = acc + Gam[a][b][c].truncate(ord2) * low[b][al] * low[c][be]
                for k in range(m):
                    acc = acc - Gam_int[k][al][be].truncate(ord2) * low[a][k]
                vec.append(acc)
            B[al][be] = B[be][al] = vec
    H = []
    for a in range(d):
        acc = None
        for al in range(m):
            for be in range(m):
                term = ginv[al][be].truncate(ord2) * B[al][be][a]
                acc = term if acc is None else acc + term
        H.append(acc / float(m))
    # the evaluation keeps the composed Christoffels to the depth B uses
    Gam2 = [[[x.truncate(ord2) for x in row] for row in plane] for plane in Gam]
    return {"Gam_field": Gam2, "induced_metric_field": g,
            "intrinsic_christoffels": Gam_int, "B_field": B, "H_field": H}


def _coefficients(nested):
    if isinstance(nested, Jet):
        return nested.c
    return np.array([_coefficients(x) for x in nested])


@pytest.mark.parametrize("name", ["c02_curve_sasakian", "c13_hypersphere_r4",
                                  "c16_xi_normal_curve", "c18_hypersphere_cp2"])
def test_mean_curvature_path_matches_scalar_loops(name):
    """The tensor contractions round exactly as the scalar loops: the pinned
    c16 `props` ratios are quotients of round-off in H."""
    sc = load_scenario(scenario_path(name), validate=False)
    (ev,) = catalog_blocks(name)  # one block of every sample point
    for i, p in enumerate(sc.sample_points()):
        pt = _Point(ev, i)
        for field, want in _ref_mean_curvature_path(pt).items():
            got = getattr(pt, field).c
            want = _coefficients(want)
            assert got.shape == want.shape
            assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                                  want.view(np.int64)), (field, p)


def test_trace_terms_shared_and_read_only(recorder):
    """A trace term is an attribute of its block: every read returns the
    one read-only array its producer built on the first read, and an
    unknown name is an AttributeError."""
    imm = sphere_immersion(0.8, weight="1 + 0.2*sin(u)*cos(v)")
    p = [0.7, 0.4]
    ev = one_point(imm, p)
    for name in _public_terms(ev):
        assert getattr(ev, name) is getattr(ev, name) is vars(ev)[name], name
    produced = [term for term, _size, _order in recorder.of("calculus._produce_term")]
    assert len(set(produced)) == len(produced) and set(_public_terms(ev)) <= set(produced)
    with pytest.raises(ValueError):
        ev.tb_ah[0, 0] = 1.0
    with pytest.raises(ValueError):
        ev.grad_f += 1.0
    with pytest.raises(AttributeError):
        ev.no_such_term


def test_every_table_entry_is_read_only():
    """Every array of every table entry of a contact block is read-only,
    in a tuple or a dict too: writing into the tangent frames, which every
    reader of the block shares, raises instead of changing them for all."""
    ev = one_point(sphere_immersion(0.4, S3, weight="1 + 0.2*sin(u)"), [0.7, 0.4])
    with pytest.raises(ValueError, match="read-only"):
        ev.frames[0][0, 0, 0] = 1.0
    arrays = 0
    for name in calculus.TRACE_TERMS:
        value = getattr(ev, name)
        for part in (value.values() if isinstance(value, dict) else
                     value if isinstance(value, tuple) else (value,)):
            if isinstance(part, np.ndarray):
                assert not part.flags.writeable, name
                arrays += 1
    assert arrays > len(calculus.TRACE_TERMS)


PRODUCTS = ("jets.Jet.__mul__", "jets.Jet.__rmul__")
PULLBACK = "calculus.Evaluation.pullback_derivative"


def test_check_point_operation_counts(recorder):
    """Jet work of one `check` block on c13 (64 points, order-4 jets in 3
    variables): its evaluation, the direct field, one theorem residual and
    the mode comparison.  Counts, not times, so the guard is
    deterministic."""
    sc = load_scenario(scenario_path("c13_hypersphere_r4"), validate=False)
    kind = sc.mode["kind"]
    ev = calculus.evaluate(sc.immersion, _first_block_points(sc))
    bi_f_tension_direct(ev)
    # the first and second derivatives of tau_w; the directional derivative
    # reuses the first
    assert recorder.of(PULLBACK) == [(64, 4)] * 2
    theorem_residual(ev, kind=kind, errata=True)
    compare_modes(ev, kind=kind, errata=True)
    produced = recorder.of("calculus._produce_term")
    assert produced and len({term for term, _size, _order in produced}) == len(produced)
    assert {record[1:] for record in produced} == {(64, 4)}
    assert len(recorder.of(*PRODUCTS)) <= 180
    assert len(recorder.of("jets.Jet.truncate")) <= 60
    recorder.calls.clear()
    f_bitension_direct(ev)
    assert recorder.of(PULLBACK) == [(64, 4)] * 2


def _products(recorder, fn, items):
    """The jet products fn(item) makes, for each item."""
    counts = []
    for item in items:
        recorder.calls.clear()
        fn(item)
        counts.append(len(recorder.of(*PRODUCTS)))
    return counts


def test_direct_field_product_count_does_not_grow_with_points(recorder):
    """The direct fields make the same number of jet products at 1 and at
    16 points of c13: the block's points share every product."""
    sc = load_scenario(scenario_path("c13_hypersphere_r4"), validate=False)
    evals = [calculus.evaluate(sc.immersion, sc.sample_points()[:count]) for count in (1, 16)]
    counts = _products(recorder, lambda ev: (bi_f_tension_direct(ev), f_bitension_direct(ev)),
                       evals)
    assert counts[0] == counts[1] > 0


def test_trace_terms_product_count_does_not_grow_with_points(recorder):
    """Reading every public trace term makes the same number of jet
    products at 1 and at 16 points of c13: the block's points share every
    product."""
    sc = load_scenario(scenario_path("c13_hypersphere_r4"), validate=False)
    evals = [calculus.evaluate(sc.immersion, sc.sample_points()[:count]) for count in (1, 16)]
    counts = _products(recorder, lambda ev: [getattr(ev, name)
                                             for name in _public_terms(ev)], evals)
    assert counts[0] == counts[1] > 0


def test_batched_evaluation_product_count_does_not_grow_with_points(recorder):
    """One batched evaluation makes the same number of jet products at 8 and
    at 64 points of c13: per-point work is inside the products."""
    sc = load_scenario(scenario_path("c13_hypersphere_r4"), validate=False)
    points = sc.sample_points()
    assert len(points) == 64
    counts = _products(recorder, lambda count: calculus.evaluate(sc.immersion, points[:count]),
                       (8, 64))
    assert counts[0] == counts[1] > 0


def test_block_points_rule():
    """Blocks are as large as the budget allows over a point's footprint
    d^3 max(S(m, order), S(d, max(order - 1, 2))), the chart jets counted
    at the order `_ambient_along` builds them, with 16 points at least: the
    3-parameter catalog hypersurfaces and the 2-parameter surfaces in a
    4-dimensional chart get 64 points at order 4, a 2-parameter surface in
    a 3-dimensional chart gets all of its 36 points at every order."""
    assert calculus.block_points(3, 4, 4) == 64
    assert calculus.block_points(2, 4, 4) == 64
    for order in (2, 3, 4):
        assert calculus.block_points(2, 3, order) >= 36
    for d in range(2, 14):
        for m in range(1, d):
            for order in (2, 3, 4):
                footprint = d**3 * max(math.comb(m + order, m),
                                       math.comb(d + max(order - 1, 2), d))
                points = calculus.block_points(m, d, order)
                assert points >= 16
                if points > 16:
                    assert points * footprint <= calculus.BLOCK_BUDGET
                    assert (points + 1) * footprint > calculus.BLOCK_BUDGET


def test_every_catalog_scenario_is_one_block(catalog_names):
    """Every catalog scenario's sample points make one evaluation block at
    jet orders 2, 3 and 4."""
    for name in catalog_names:
        sc = load_scenario(scenario_path(name), validate=False)
        imm, count = sc.immersion, len(sc.sample_points())
        for order in (2, 3, 4):
            size = calculus.block_points(imm.param_dim, imm.ambient.chart_dim, order)
            assert size >= count, (name, order)


def _block_quantities(ev):
    """Every field's coefficients, the points and Gram determinants, and the
    trace terms, projectors, frames, curvature operator and (at order 4)
    bitension of an evaluation block, as arrays."""
    terms = [getattr(ev, name) for name in _public_terms(ev) if name != "n"]
    out = [jet.c for jet in ev.fields.values()] + [ev.points, ev.gram_det] + terms
    out += [*ev.projectors, *ev.frames, ev.curvature_operator]
    if ev.order == 4:
        out += [ev.bitension[0], ev.bitension[1].c]
    return out


def test_split_parts_equal_their_points_evaluated_alone(monkeypatch):
    """c04's 36 sample points followed by its 36 quadrature nodes, evaluated
    in blocks of 16 points, so that the third block straddles the cut between
    them, and as one block: cut at every block boundary and at the sample/node
    boundary, each part's fields, trace terms, projectors, frames, curvature
    operator and bitension equal those of evaluating its points alone, bit
    for bit, at the orders `energy` and `variation` evaluate at (3, 4)."""
    sc = load_scenario(scenario_path("c04_small_sphere"), validate=False)
    imm, samples = sc.immersion, sc.sample_points()
    points = np.concatenate([samples, sc.quadrature().points])
    assert len(samples) == 36 and len(points) == 72
    monkeypatch.setattr(calculus, "block_points", lambda m, d, order: 16)
    for order in (3, 4):
        cuts = [(calculus.evaluate(imm, points, order), 0, n) for n in (16, 32, 36, 48, 64)]
        blocks = list(calculus.evaluate_batches(imm, points, order))
        assert [len(ev) for ev in blocks] == [16, 16, 16, 16, 8]
        cuts.append((blocks[2], 32, 36 - 32))
        for ev, start, n in cuts:
            for part, rows in zip(ev.split(n), (slice(start, start + n),
                                                slice(start + n, start + len(ev)))):
                alone = calculus.evaluate(imm, points[rows], order)
                assert len(part) == len(alone) and part.order == order
                assert all(map(same_bits, _block_quantities(part), _block_quantities(alone))), \
                    (order, start, n)


# A curve on 40 points evaluated in blocks of 16 whose point 21, in the
# second block, fails: its map (a pole) or its weight (a zero), with the
# evaluation sizes of the bisection down to it.
PREFIX_POINTS = np.linspace(0.0, 1.0, 40)[:, None]
PREFIX_FAIL = float(PREFIX_POINTS[21, 0])
PREFIX_FAILURES = {
    "evaluation": (["u", f"1/(u - {PREFIX_FAIL!r})", "0"], "2 + u",
                   calculus.PointError, "division by jet with zero constant term",
                   [16, 16, 8, 4, 4, 2, 1, 1]),
    "weight": (["u", "0.5*u*u", "0"], f"(u - {PREFIX_FAIL!r})^2", calculus.WeightError,
               f"weight not positive at [{PREFIX_FAIL!r}] (f = 0.000e+00)", [16, 16]),
}


@pytest.mark.parametrize("case", sorted(PREFIX_FAILURES))
@pytest.mark.parametrize("order", [3, 4])
def test_evaluate_batches_yields_the_points_before_the_failing_one(monkeypatch, recorder,
                                                                    case, order):
    """Before it raises at the first failing point k, `evaluate_batches`
    yields blocks that cover exactly points 0..k-1, each equal, bit for bit,
    to its points evaluated alone; the error names point k with the message
    that point fails with alone, and the bisection evaluates the blocks it
    did when nothing was yielded before the raise."""
    chart_map, weight, error, message, sizes = PREFIX_FAILURES[case]
    imm = Immersion.from_strings(["u"], FLAT3, chart_map, weight)
    monkeypatch.setattr(calculus, "block_points", lambda m, d, order: 16)
    blocks = []
    with pytest.raises(calculus.PointError) as info:
        for ev in calculus.evaluate_batches(imm, PREFIX_POINTS, order):
            blocks.append(ev)
    assert type(info.value) is error
    assert info.value.point == [PREFIX_FAIL] and str(info.value) == message
    assert recorder.of("calculus.evaluate") == [(size, order) for size in sizes]
    assert same_bits(np.concatenate([ev.points for ev in blocks]), PREFIX_POINTS[:21])
    for ev in blocks:
        alone = calculus.evaluate(imm, ev.points, order)
        assert ev.order == order
        assert all(map(same_bits, _block_quantities(ev), _block_quantities(alone)))


def _first_block_points(sc, order=4):
    """The sample points of a scenario's first evaluation block at `order`."""
    imm = sc.immersion
    return sc.sample_points()[:calculus.block_points(imm.param_dim, imm.ambient.chart_dim,
                                                     order)]


def _first_block(name, order=4):
    sc = load_scenario(scenario_path(name), validate=False)
    return calculus.evaluate(sc.immersion, _first_block_points(sc, order), order)


@pytest.mark.parametrize("name", ["c18_hypersphere_cp2", "c13_hypersphere_r4",
                                  "c07_complex_curve"])
def test_first_block_memory_peak(name):
    """The traced memory peak of `evaluate` on the first order-4 block of
    the heaviest catalog scenarios (64, 64 and 25 points) is at most 8 MB
    (10^6 bytes): 5.9, 5.3 and 2.2 MB measured with numpy 2.4."""
    sc = load_scenario(scenario_path(name), validate=False)
    points = _first_block_points(sc)
    tracemalloc.start()
    try:
        calculus.evaluate(sc.immersion, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, peak


def test_chart_christoffels_hold_no_whole_product():
    """The traced memory peak of `evaluate` on 16 points of a curve in the
    7-dimensional Sasakian sphere (n = 3) at order 4 is at most 12 MB
    (10^6 bytes): `christoffel_jets` adds up sum_l Ginv[k, l] w[p, l] one l
    at a time, 7.4 MB measured with numpy 2.4; the whole (d, d(d+1)/2, d)
    product of jets peaked at 23.6 MB."""
    comps = [f"{0.3 / (1 + k)}*{('cos', 'sin')[k % 2]}(u + {0.1 * k})" for k in range(7)]
    imm = Immersion.from_strings(["u"], make_space("sasakian_sphere", n=3), comps,
                                 "1 + 0.1*sin(u)")
    points = np.linspace(0.1, 6.0, 16)[:, None]
    calculus.evaluate(imm, points[:1])  # imports and caches outside the trace
    tracemalloc.start()
    try:
        calculus.evaluate(imm, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, peak


def test_christoffels_from_the_evaluated_inverse_match_inverting_again(catalog_names):
    """The intrinsic Christoffels built from the inverse metric `evaluate`
    already has are those of inverting the truncated metric again, bit for
    bit, on the first block of every catalog scenario."""
    for name in catalog_names:
        ev = catalog_blocks(name)[0]
        g, g_inv = ev.induced_metric_field, ev.induced_metric_inv_field
        expected = christoffel_jets(g).c
        assert same_bits(christoffel_jets(g, g_inv).c, expected), name
        assert same_bits(ev.intrinsic_christoffels.c, expected), name


def test_inverse_metric_and_grad_f_are_the_truncated_order_minus_1_builds(catalog_names):
    """`evaluate` inverts the induced metric at order - 2, the order every
    reader takes: on the first block of every catalog scenario, the inverse
    and grad f are those of the order - 1 builds, truncated, bit for bit."""
    for name in catalog_names:
        ev = catalog_blocks(name)[0]
        low = ev.order - 2
        g_inv = ev.induced_metric_field.inverse()  # order - 1
        grad_f = (g_inv * ev.f_jet.derivs()[None]).sum(1)
        assert ev.induced_metric_inv_field.space.order == low
        assert same_bits(ev.induced_metric_inv_field.c, g_inv.truncate(low).c), name
        assert ev.grad_f_param_field.space.order == low
        assert same_bits(ev.grad_f_param_field.c, grad_f.truncate(low).c), name


def _plain_eval(node, env):
    """An expression tree evaluated with no memo at all, `/` as Jet
    division: the oracle of `eval_on_jets`."""
    if isinstance(node, Lit):
        return Jet.constant(next(iter(env.values())).space, node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Const):
        return Jet.constant(next(iter(env.values())).space, CONSTANTS[node.name])
    if isinstance(node, Neg):
        return -_plain_eval(node.arg, env)
    if isinstance(node, Pow):
        return _plain_eval(node.base, env) ** node.exponent
    if isinstance(node, Call):
        return getattr(_plain_eval(node.arg, env), node.fn)()
    a, b = _plain_eval(node.left, env), _plain_eval(node.right, env)
    return {"+": a + b, "-": a - b, "*": a * b}[node.op] if node.op != "/" else a / b


# two different denominators, one of them repeated, and a weight sharing
# sub-expressions with the map
SHARED = Immersion.from_strings(
    ["u", "v"], FLAT3,
    ["cos(u)/(1 + 0.5*sin(v))", "sin(u)/(2 + cos(u))", "u*v/(1 + 0.5*sin(v)) - 1/(2 + cos(u))"],
    "1 + 0.2*cos(u)/(2 + cos(u))")


@pytest.mark.parametrize("name", ["c08_hopf_torus", "c13_hypersphere_r4", "shared"])
def test_shared_memo_evaluation_matches_plain_evaluation(name):
    """The map and weight `evaluate` builds with one memo (sub-expressions
    and reciprocals of denominators shared) are, bit for bit, each
    component and the weight evaluated on its own without a memo."""
    if name == "shared":
        imm, points = SHARED, np.array([[0.3, -0.4], [1.2, 0.8], [2.5, 2.0]])
    else:
        sc = load_scenario(scenario_path(name), validate=False)
        imm, points = sc.immersion, _first_block_points(sc)
    ev = calculus.evaluate(imm, points)
    env = calculus.parameter_jets(imm.params, points, 4)
    expected = Jet.stack([_plain_eval(c, env) for c in imm.components])
    assert same_bits(ev.psi.c, expected.c)
    assert same_bits(ev.f_jet.c, _plain_eval(imm.weight, env).c)


def test_first_failing_expression_raises_its_own_error():
    """With the memo shared, the first failing expression in map order, then
    the weight, raises the error it raises alone."""
    cases = [
        (["u", "sin(v)/(u - u)", "log(-1 - v^2)"], "sqrt(-1 - u^2)", "division by jet"),
        (["u", "log(-1 - v^2)", "sin(v)/(u - u)"], "sqrt(-1 - u^2)", "log of non-positive"),
        (["u", "v", "u*v"], "sqrt(-1 - u^2)/(u - u)", "sqrt of non-positive"),
    ]
    points = np.array([[0.3, -0.4], [1.2, 0.8]])
    for components, weight, message in cases:
        imm = Immersion.from_strings(["u", "v"], FLAT3, components, weight)
        env = calculus.parameter_jets(imm.params, points, 4)
        with pytest.raises(JetError) as alone:
            for expression in (*imm.components, imm.weight):
                _plain_eval(expression, env)
        assert message in str(alone.value)
        with pytest.raises(JetError, match=re.escape(str(alone.value))):
            calculus.evaluate(imm, points)


def test_c08_block_builds_each_jet_once(recorder):
    """On one c08 block, the shared memo computes sin(v) and the reciprocal
    of the denominator 1 + 0.8 sin(v) once for all three map components,
    and only two matrices are inverted: the ambient metric and the induced
    metric, whose inverse the intrinsic Christoffels reuse.  So the block
    takes two sines, of u and v, and one reciprocal for the map, one for
    the chart embedding of the 3-sphere and one per pivot of the two
    eliminations."""
    sc = load_scenario(scenario_path("c08_hopf_torus"), validate=False)
    calculus.evaluate(sc.immersion, _first_block_points(sc))
    assert len(recorder.of("jets.Jet.sin")) == 2
    assert len(recorder.of("jets.Jet._reciprocal")) == 1 + 1 + 3 + 2
    assert len(recorder.of("jets.Jet.inverse")) <= 2


@pytest.mark.parametrize("order", [0, 2])
def test_map_jets_shares_one_memo(recorder, order):
    """`map_jets` evaluates the components with one memo, as `evaluate`
    does: on c08, sin(v) and the reciprocal of 1 + 0.8 sin(v) are computed
    once for all three components, and on c08 and SHARED the map is, bit
    for bit, each component evaluated on its own without a memo."""
    sc = load_scenario(scenario_path("c08_hopf_torus"), validate=False)
    points = _first_block_points(sc)
    for imm, at_points in ((sc.immersion, points),
                           (SHARED, np.array([[0.3, -0.4], [1.2, 0.8], [2.5, 2.0]]))):
        env = calculus.parameter_jets(imm.params, at_points, order)
        expected = Jet.stack([_plain_eval(c, env) for c in imm.components])
        assert same_bits(calculus.map_jets(imm, at_points, order).c, expected.c)
    recorder.calls.clear()
    calculus.map_jets(sc.immersion, points, order)
    # sin(u) and sin(v), and 1 / (1 + 0.8 sin(v)), each once
    assert len(recorder.of("jets.Jet.sin")) == 2
    assert len(recorder.of("jets.Jet._reciprocal")) == 1


# -- index-loop references of the contractions ---------------------------------
# The nested loops the trace terms, the rough Laplacian and the intrinsic
# Laplacian of the lemgene2 audit were first written with, at one point from
# that point's own fields.  The contractions (batched over a block for the
# trace terms) add in numpy's order, so they agree to round-off, not bit for
# bit.


def _ref_mat_vec(M, v):
    out = np.zeros(M.shape[0])
    for j in range(M.shape[1]):
        out += M[:, j] * v[j]
    return out


def _ref_projectors(pt):
    """P[a, b] = dpsi[a, al] ginv[al, be] dpsi[c, be] G[c, b] and I - P."""
    dpsi, ginv, G0 = pt.dpsi_val, pt.g_inv_val, pt.G_val
    P = np.zeros((pt.d, pt.d))
    for al in range(pt.m):
        for be in range(pt.m):
            P += ginv[al, be] * np.outer(dpsi[:, al], dpsi[:, be] @ G0)
    return P, np.eye(pt.d) - P


def _ref_gradient(pt, scalar_jet):
    """dpsi_g g^{ga} d_a s: ambient components of the intrinsic gradient."""
    ds = scalar_jet.derivs().values
    out = np.zeros(pt.d)
    for g in range(pt.m):
        for a in range(pt.m):
            out += pt.dpsi_val[:, g] * pt.g_inv_val[g, a] * ds[a]
    return out


def _ref_normal_trace(pt, P_nor, fields, values):
    """g^{ab} (P_nor nabla-bar_a F_b - Gam^g_ab F_g)."""
    Gam_int = pt.intrinsic_christoffels.values
    ginv = pt.g_inv_val
    covd = pt.pullback_derivative(fields).values
    out = np.zeros(pt.d)
    for al in range(pt.m):
        for be in range(pt.m):
            term = _ref_mat_vec(P_nor, covd[al][be])
            corr = np.zeros(pt.d)
            for g in range(pt.m):
                corr += Gam_int[g, al, be] * values[g]
            out += ginv[al, be] * (term - corr)
    return out


def _ref_ricci(pt):
    m = pt.m
    Gam = pt.intrinsic_christoffels
    Gv = Gam.values                                  # Gv[k, i, j]
    dGv = np.moveaxis(Gam.derivs().values, -1, 0)    # dGv[l, k, i, j]
    ric = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            acc = 0.0
            for i in range(m):
                acc += (dGv[i, i, j, k] - dGv[j, i, i, k]
                        + np.dot(Gv[i, i, :], Gv[:, j, k])
                        - np.dot(Gv[i, j, :], Gv[:, i, k]))
            ric[j, k] = acc
    return ric


def _ref_nabla_grad_f(pt):
    """W[g, be] = (nabla_be grad f)^g = d_be (grad f)^g + Gam^g_{be, de} (grad f)^de."""
    m = pt.m
    Gam_int = pt.intrinsic_christoffels.values
    dX = pt.grad_f_param_field.derivs().values
    W = np.zeros((m, m))
    for be in range(m):
        for g in range(m):
            acc = dX[g, be]
            for de in range(m):
                acc += Gam_int[g, be, de] * pt.grad_f_param[de]
            W[g, be] = acc
    return W


def _ref_curvature_trace(pt, vectors):
    """tr R(dpsi, v) dpsi = g^{ab} R^l_ijk dpsi^i_a v^j dpsi^k_b of each
    vector v of `vectors`, R^l_ijk = d_i Gam^l_jk - d_j Gam^l_ik + Gam^l_im
    Gam^m_jk - Gam^l_jm Gam^m_ik from the chart Christoffels, as loops."""
    d, dpsi, ginv = pt.d, pt.dpsi_val, pt.g_inv_val
    Gv = pt.chart_christoffels.values             # Gv[k, i, j] = Gamma^k_ij
    dGv = pt.chart_christoffels.derivs().values   # dGv[k, i, j, l] = d_l Gamma^k_ij
    h = sum(ginv[a, b] * np.outer(dpsi[:, a], dpsi[:, b])
            for a in range(pt.m) for b in range(pt.m))
    out = [np.zeros(d) for _ in vectors]
    for l, i, j, k in itertools.product(range(d), repeat=4):
        R = (dGv[l, j, k, i] - dGv[l, i, k, j]
             + np.dot(Gv[l, i, :], Gv[:, j, k]) - np.dot(Gv[l, j, :], Gv[:, i, k]))
        for trace, v in zip(out, vectors):
            trace[l] += R * h[i, k] * v[j]
    return out


def _ref_trace_terms(pt):
    """Every loop-built trace term of `pt` but n, by its `TRACE_TERMS` name:
    the xi and eta terms on a contact ambient only."""
    m, d = pt.m, pt.d
    ginv, G0, dpsi, B, H = pt.g_inv_val, pt.G_val, pt.dpsi_val, pt.B_val, pt.H_val
    ip = lambda u, v: float(u @ G0 @ v)
    mv = _ref_mat_vec
    P_tan, P_nor = _ref_projectors(pt)
    ord2 = pt.order - 2
    # nabla-perp H along each coordinate direction, as jets and values
    covd = pt.pullback_derivative(pt.H_field)
    N = (-pt.projector_field).add_diagonal(1.0).truncate(covd.space.order)
    W_fields = (N[None] * covd[:, None, :]).sum(-1)
    W = W_fields.values
    X = pt.grad_f_param_field
    gfp = pt.grad_f_param
    grad_f = pt.grad_f_ambient
    omega_fields = (pt.B_field * X.truncate(ord2)[None, :, None]).sum(1)
    omega = omega_fields.values
    out = {"f": pt.f_jet.value, "grad_f": grad_f, "H": H,
           "delta_f_pos": pt.delta_f_pos_field.value,
           "grad_delta_f_pos": _ref_gradient(pt, pt.delta_f_pos_field),
           "coeffs": coeffs_at(pt.space, pt.psi.values),
           "h_norm2": ip(H, H)}
    # |grad f|^2 and |H|^2 as scalar jets, and their gradients
    g1 = pt.induced_metric_field.truncate(X.space.order)
    gf2 = sum(g1[al, be] * X[al] * X[be] for al in range(m) for be in range(m))
    out["grad_f_norm2"] = gf2.value
    out["grad_grad_f_norm2"] = _ref_gradient(pt, gf2)
    G2 = pt.G_field.truncate(ord2)
    h2 = sum(G2[a, b] * pt.H_field[a] * pt.H_field[b] for a in range(d) for b in range(d))
    out["grad_h_norm2"] = _ref_gradient(pt, h2)
    for key in ("ta_nabla_perp_h", "ta_b_grad_f", "tb_ah"):
        out[key] = np.zeros(d)
    out["b_norm2"] = 0.0
    BH = [[ip(B[al, be], H) for be in range(m)] for al in range(m)]
    for al in range(m):
        for be in range(m):
            for ga in range(m):
                BW, Bomega = ip(B[be, ga], W[al]), ip(B[be, ga], omega[al])
                for de in range(m):
                    w = ginv[al, be] * ginv[de, ga]
                    out["ta_nabla_perp_h"] += w * BW * dpsi[:, de]
                    out["ta_b_grad_f"] += w * Bomega * dpsi[:, de]
                    w = ginv[al, ga] * ginv[be, de]
                    out["tb_ah"] += w * BH[ga][de] * B[al, be]
                    out["b_norm2"] += w * ip(B[al, be], B[ga, de])
    hess_vec = _ref_nabla_grad_f(pt).T
    for key in ("tb_hess_f", "a_h_grad_f", "nabla_perp_gradf_h", "b_gradf_gradf",
                "ric_grad_f"):
        out[key] = np.zeros(d)
    ric = _ref_ricci(pt)
    for al in range(m):
        out["nabla_perp_gradf_h"] += gfp[al] * W[al]
        for be in range(m):
            out["b_gradf_gradf"] += gfp[al] * gfp[be] * B[al, be]
            for g in range(m):
                out["tb_hess_f"] += ginv[al, be] * hess_vec[be, g] * B[al, g]
                out["a_h_grad_f"] += ginv[al, be] * gfp[g] * ip(B[g, be], H) * dpsi[:, al]
                out["ric_grad_f"] += dpsi[:, al] * ginv[al, be] * ric[be, g] * gfp[g]
    out["delta_perp_h_pos"] = -_ref_normal_trace(pt, P_nor, W_fields, W)
    out["tnb_grad_f"] = _ref_normal_trace(pt, P_nor, omega_fields, omega)
    out["scal"] = sum(ginv[j, k] * ric[j, k] for j in range(m) for k in range(m))
    # two-step compositions of the structure tensor, and the contact terms
    T = pt.structure_tensor
    tan_TH, tan_Tgf = mv(P_tan, mv(T, H)), mv(P_tan, mv(T, grad_f))
    out.update(l_H=tan_TH, m_H=mv(P_nor, mv(T, H)),
               kl_H=mv(P_nor, mv(T, tan_TH)), jl_H=mv(P_tan, mv(T, tan_TH)),
               mm_H=mv(P_nor, mv(T, mv(P_nor, mv(T, H)))),
               kj_grad_f=mv(P_nor, mv(T, tan_Tgf)), j2_grad_f=mv(P_tan, mv(T, tan_Tgf)))
    if "xi" in pt.structure:
        xi = pt.structure["xi"]
        xi_tan = mv(P_tan, xi)
        out.update(eta_h=ip(xi, H), xi_tan=xi_tan, xi_nor=mv(P_nor, xi),
                   xi_tan_norm2=ip(xi_tan, xi_tan), eta_grad_f=ip(xi, grad_f))
    # the curvature traces of H and grad f, and their tangent and normal parts
    for key, trace in zip(("trRH", "trRgf"), _ref_curvature_trace(pt, (H, grad_f))):
        out.update({key: trace, f"{key}_tan": mv(P_tan, trace), f"{key}_nor": mv(P_nor, trace)})
    return out


def _ref_rough_laplacian(pt, field):
    """tr_g nabla^2 of an ambient jet field."""
    first = pt.pullback_derivative(field)
    second = pt.pullback_derivative(first).values
    first_val = first.values
    ginv, Gam_int = pt.g_inv_val, pt.intrinsic_christoffels.values
    out = np.zeros(pt.d)
    for al in range(pt.m):
        for be in range(pt.m):
            corr = np.zeros(pt.d)
            for g in range(pt.m):
                corr = corr + Gam_int[g, al, be] * first_val[g]
            out = out + ginv[al, be] * (second[al][be] - corr)
    return out


def _ref_intrinsic_rough_laplacian_gradf(pt):
    """tr nabla^2 grad f of the induced metric, in ambient components."""
    m = pt.m
    Gam = pt.intrinsic_christoffels
    X = pt.grad_f_param_field
    low = X.space.order - 1  # the order of X.derivs()
    cov = (Gam.truncate(low) * X.truncate(low)[None, None]).sum(-1, start=X.derivs())
    cov_val, dcov_val = cov.values, cov.derivs().values
    Gv, ginv = Gam.values, pt.g_inv_val
    out_param = np.zeros(m)
    for al in range(m):
        for be in range(m):
            for g in range(m):
                acc = dcov_val[g, be, al]
                for de in range(m):
                    acc += Gv[g, al, de] * cov_val[de, be]
                    acc -= Gv[de, al, be] * cov_val[g, de]
                out_param[g] += ginv[al, be] * acc
    return pt.dpsi_val @ out_param


@pytest.mark.parametrize("name", ["c02_curve_sasakian", "c08_hopf_torus",
                                  "c12_torus_deformed_generic", "c13_hypersphere_r4",
                                  "c18_hypersphere_cp2"])
def test_contractions_match_index_loops(name):
    """Every sample point, through the blocks `check` evaluates: every
    trace term, tr nabla^2 H and the intrinsic tr nabla^2 grad f agree with
    their index loops to 1e-12 relative (with the catalog equality rule's
    absolute floor of 1e-12).  A curve, a contact ambient, a flat and a
    curved Hermitian one."""
    for ev in catalog_blocks(name):
        fields = set(_public_terms(ev)) - {"n"}
        lap = ev.rough_laplacian(ev.H_field)
        intrinsic = _intrinsic_rough_laplacian_gradf(ev)
        for i in range(len(ev)):
            pt = _Point(ev, i)
            ref = _ref_trace_terms(pt)
            assert set(ref) == fields
            pairs = [(key, ev.coeffs[:, i] if key == "coeffs" else getattr(ev, key)[i], want)
                     for key, want in ref.items()]
            pairs += [("rough_laplacian", lap[i], _ref_rough_laplacian(pt, pt.H_field)),
                      ("intrinsic_laplacian", intrinsic[i],
                       _ref_intrinsic_rough_laplacian_gradf(pt))]
            for key, got, want in pairs:
                err = np.abs(np.subtract(got, want)).max()
                assert err <= 1e-12 * max(1.0, np.abs(want).max()), (key, pt.point, err)


@pytest.mark.parametrize("name", ["c08_hopf_torus", "c13_hypersphere_r4", "c18_hypersphere_cp2"])
def test_projectors_are_the_projector_field_values(name):
    """P is the constant terms of the jet `projector_field`, bit for bit,
    and the normal projector is I - P: the block has one tangent projector
    (a second, matrix-product P differed by up to 3.3e-16 on c08)."""
    ev = catalog_blocks(name)[0]
    P_tan, P_nor = ev.projectors
    assert same_bits(P_tan, ev.values(ev.projector_field)), name
    assert same_bits(P_nor, np.eye(ev.d) - P_tan), name


@pytest.mark.parametrize("name", ["c02_curve_sasakian", "c08_hopf_torus",
                                  "c12_torus_deformed_generic", "c13_hypersphere_r4",
                                  "c18_hypersphere_cp2"])
def test_nabla_grad_f_field_matches_the_index_loop(name):
    """`nabla_grad_f_field` is an order - 3 jet whose values agree with the
    loop-built nabla grad f at every point of the first block to 1e-12
    relative, with the catalog equality rule's absolute floor of 1e-12."""
    ev = catalog_blocks(name)[0]
    W = ev.nabla_grad_f_field
    assert W.space.order == ev.order - 3 and ev.nabla_grad_f_field is W
    got = ev.values(W)
    for i in range(len(ev)):
        want = _ref_nabla_grad_f(_Point(ev, i))
        err = np.abs(got[i] - want).max()
        assert err <= 1e-12 * max(1.0, np.abs(want).max()), (name, i, err)


@pytest.mark.parametrize("name", ["c02_curve_sasakian", "c12_torus_deformed_generic",
                                  "c18_hypersphere_cp2"])
def test_trace_terms_and_audit_read_the_one_nabla_grad_f_field(name):
    """tr B(., nabla_. grad f) and the audit's intrinsic tr nabla^2 grad f
    are linear in nabla grad f and take it from `nabla_grad_f_field` alone:
    a block whose field is doubled (exactly) gives both exactly doubled."""
    ev, doubled = _first_block(name), _first_block(name)
    doubled.nabla_grad_f_field = ev.nabla_grad_f_field * 2.0  # the cached value
    for read in (lambda e: e.tb_hess_f, _intrinsic_rough_laplacian_gradf):
        base = read(ev)
        assert np.abs(base).max() > 1e-3, name
        assert same_bits(read(doubled), 2.0 * base), name


@pytest.mark.parametrize("name", ["c08_hopf_torus", "c18_hypersphere_cp2"])
def test_audits_and_bif_general_read_the_one_curvature_traces(name):
    """The split traces tr R(., H). and tr R(., grad f). are trace terms of
    the block, and the audits and the bif_general equation read them from
    there alone: with every one of the block's entries zeroed, lemgene1's
    printed and corrected deltas agree, lemgene2's printed ambient delta
    moves, and bif_general's curvature terms vanish."""
    ev = _first_block(name)
    traces = {key: getattr(ev, key) for key in
              ("trRH", "trRH_tan", "trRH_nor", "trRgf", "trRgf_tan", "trRgf_nor")}
    P_tan, P_nor = ev.projectors
    for key, field in (("trRH", ev.H_field), ("trRgf", ev.grad_f_ambient_field)):
        trace = ev.curvature_trace(ev.values(field))
        assert same_bits(traces[key], trace), key
        assert same_bits(traces[f"{key}_tan"], calculus.matvec(P_tan, trace)), key
        assert same_bits(traces[f"{key}_nor"], calculus.matvec(P_nor, trace)), key
    assert np.abs(traces["trRH"]).max() > 1e-3 and np.abs(traces["trRgf"]).max() > 1e-3, name
    lem2 = audit_lemgene2(ev)
    vars(ev).update({key: np.zeros_like(value) for key, value in traces.items()})
    lem1 = audit_mean_curvature_laplacian(ev)["lemgene1"]
    assert same_bits(lem1["delta_printed"], lem1["delta_corrected"]), name
    assert not np.array_equal(audit_lemgene2(ev)["delta_printed_ambient"],
                              lem2["delta_printed_ambient"]), name
    mat = theorem_residual(ev, kind="bif_general", errata=True).matrix
    curvature = [coeff[:, None] * field for term, coeff, field in
                 zip(mat.terms, mat.corrected, mat.fields) if term.name.startswith("curv_trace")]
    assert len(curvature) == 4 and not np.any(curvature), name


def _check_frames(G, dpsi, E, N, label):
    """E and N are G-orthonormal frames of every point to 1e-12, E's first k
    vectors span dpsi's first k columns and N is G-orthogonal to dpsi."""
    F = np.concatenate([E, N], axis=1)
    m = dpsi.shape[-1]
    assert np.abs(F @ G @ F.swapaxes(-1, -2) - np.eye(G.shape[-1])).max() <= 1e-12, label
    for k in range(1, m + 1):
        # the first k coordinate vectors are their own G-projection onto span E[:k]
        cols = dpsi[..., :k]
        proj = E[:, :k].swapaxes(-1, -2) @ (E[:, :k] @ G @ cols)
        scale = np.abs(cols).max(axis=(1, 2))[:, None, None]
        assert (np.abs(proj - cols) / scale).max() <= 1e-12, (label, k)
    scale = np.abs(dpsi).max(axis=(1, 2))[:, None, None]
    assert (np.abs(N @ G @ dpsi) / scale).max() <= 1e-12, label


def test_frames_are_orthonormal_nested_and_complete(catalog_names):
    """On every block of every catalog scenario with a metric: F G F^T = I,
    the tangent frame spans the coordinate vectors in parameter order, and
    the normal frame is G-orthogonal to them."""
    for name in catalog_names:
        sc = load_scenario(scenario_path(name), validate=False)
        if not sc.immersion.ambient.has_metric:
            continue
        for ev in catalog_blocks(name):
            G, dpsi = ev.values(ev.G_field), ev.values(ev.dpsi)
            _check_frames(G, dpsi, *ev.frames, name)


def test_frames_of_a_metric_with_a_short_axis():
    """A positive definite metric with an axis of length 1e-15 has frames; a
    completion by coordinate axes rejected that axis as too short."""
    G = np.diag([1.0, 1.0, 1e-30])[None]
    dpsi = np.eye(3)[None, :, :1]
    E, N = calculus.orthonormal_frames(G, dpsi)
    assert E.shape == (1, 1, 3) and N.shape == (1, 2, 3)
    _check_frames(G, dpsi, E, N, "short axis")


def test_point_rows_release_the_block():
    """`joined` concatenates the per-point arrays of its blocks in order and
    keeps none of them, and rows from the joined points hold Python scalars
    only: once dropped, each block is freed by reference counting alone,
    without waiting for the cycle collector, and so is the joined table."""
    imm = sphere_immersion(0.8)
    blocks = [one_point(imm, p) for p in ([0.7, 0.4], [0.2, 0.9])]
    refs = [weakref.ref(ev) for ev in blocks]
    gc.disable()
    try:
        table = calculus.joined(blocks, lambda ev: {"h": ev.h_norm2,
                                                    "f": ev.f})
        want_h = [ev.h_norm2[0] for ev in blocks]
        del blocks
        assert [ref() for ref in refs] == [None, None]
        rows = calculus.point_rows(table.points, {"h": table.h, "f": table.f})
        joined_points = weakref.ref(table.points)
        del table
        assert joined_points() is None
    finally:
        gc.enable()
    assert rows == [{"point": [0.7, 0.4], "h": want_h[0], "f": 1.0},
                    {"point": [0.2, 0.9], "h": want_h[1], "f": 1.0}]
    assert all(isinstance(value, float) for row in rows for value in (row["h"], row["f"]))


# Multi-operand einsum references for the block's two-operand contractions:
# each adds over all its summed indices at once.


def _einsum_curvature_trace(ev, vector):
    """tr R(dpsi, v) dpsi as one 5-operand einsum over the ambient curvature."""
    dpsi = ev.values(ev.dpsi)
    R = curvature_from_christoffels(ev.chart_christoffels, len(ev))
    return np.einsum("pab,plijk,pia,pj,pkb->pl", ev.values(ev.induced_metric_inv_field),
                     R, dpsi, vector, dpsi)


def _einsum_trace_terms(ev):
    """The trace terms `TRACE_TERMS` contracts two operands at a time,
    and `form_norm2` of nabla-perp H, as multi-operand einsums."""
    val = ev.values
    ginv, G0, dpsi = val(ev.induced_metric_inv_field), val(ev.G_field), val(ev.dpsi)
    B, H, gam = val(ev.B_field), val(ev.H_field), val(ev.intrinsic_christoffels)
    X = ev.grad_f_param_field
    gfp = val(X)
    BG = B @ G0[:, None]
    BH = np.einsum("pabk,pkl,pl->pab", B, G0, H)
    W = val(ev.nabla_perp_h_field)
    omega = val((ev.B_field * X.truncate(ev.order - 2)[None, :, None]).sum(1))
    hess_vec = val(X.derivs()).swapaxes(-1, -2) + np.einsum("pgbd,pd->pbg", gam, gfp)
    shape = lambda V: calculus.matvec(dpsi, np.einsum("pab,pgd,pbdl,pal->pg", ginv, ginv, BG, V))
    return {
        "tb_ah": np.einsum("pag,pbd,pgd,pabk->pk", ginv, ginv, BH, B),
        "ta_nabla_perp_h": shape(W),
        "ta_b_grad_f": shape(omega),
        "tb_hess_f": np.einsum("pab,pbg,pagk->pk", ginv, hess_vec, B),
        "a_h_grad_f": calculus.matvec(dpsi, calculus.matvec(
            ginv, np.einsum("pa,pabl,pl->pb", gfp, BG, H))),
        "b_gradf_gradf": np.einsum("pa,pb,pabk->pk", gfp, gfp, B),
        "b_norm2": np.einsum("pag,pbd,pabl,pgdl->p", ginv, ginv, BG, B),
        "form_norm2": np.einsum("pab,pal,pbl->p", ginv, W @ G0, W),
    }


@pytest.mark.parametrize("name", ["c13_hypersphere_r4", "c18_hypersphere_cp2",
                                  "c02_curve_sasakian", "c10_curve_cp1"])
def test_curvature_trace_matches_the_five_operand_einsum(name):
    """On H, grad f and a random vector at every point of the first block,
    within 1e-12 of the reference's norm, or 1e-12 where that is below 1
    (the catalog equality rule's floor: tr R(dpsi, grad f) dpsi vanishes on
    a curve); and linear in the vector.  c13's flat ambient gives zeros."""
    ev = catalog_blocks(name)[0]
    rng = np.random.default_rng(24)
    vectors = [ev.H, ev.grad_f, rng.normal(size=(len(ev), ev.d))]
    for v in vectors:
        got, want = ev.curvature_trace(v), _einsum_curvature_trace(ev, v)
        norm = np.maximum(np.linalg.norm(want, axis=1), 1.0)
        assert (np.linalg.norm(got - want, axis=1) <= 1e-12 * norm).all(), name
    assert ev.curvature_operator is ev.curvature_operator
    u, w = vectors[1:]
    a, b = rng.normal(size=(2, len(ev), 1))
    combined = ev.curvature_trace(a * u + b * w)
    separate = a * ev.curvature_trace(u) + b * ev.curvature_trace(w)
    scale = np.abs(a * ev.curvature_trace(u)) + np.abs(b * ev.curvature_trace(w))
    assert (np.abs(combined - separate) <= 1e-12 * np.maximum(scale, 1.0)).all(), name


@pytest.mark.parametrize("name", ["c02_curve_sasakian", "c08_hopf_torus",
                                  "c12_torus_deformed_generic", "c13_hypersphere_r4",
                                  "c18_hypersphere_cp2"])
def test_two_operand_contractions_match_the_multi_operand_einsums(name):
    """Every trace term and `form_norm2` that `calculus` contracts two
    operands at a time agrees with its multi-operand einsum to 1e-12
    relative, with the catalog equality rule's absolute floor of 1e-12."""
    ev = catalog_blocks(name)[0]
    expected = _einsum_trace_terms(ev)
    got = {key: getattr(ev, key) for key in expected if key != "form_norm2"}
    got["form_norm2"] = ev.form_norm2(ev.values(ev.nabla_perp_h_field))
    for key, want in expected.items():
        err = np.abs(got[key] - want)
        assert (err <= 1e-12 * np.maximum(np.abs(want), 1.0)).all(), (name, key, err.max())
