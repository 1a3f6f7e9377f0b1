import dataclasses
import re

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
from bihkit.audits import _intrinsic_rough_laplacian_gradf
from bihkit.expr import CONSTANTS, Call, Const, Lit, Neg, Pow, Var, eval_on_jets
from bihkit.jets import Jet, JetError, jet_space
from bihkit.residuals import (bi_f_tension_direct, compare_modes, f_bitension_direct,
                               theorem_residual)
from bihkit.scenario import load_scenario
from bihkit.spaces import SpaceError, chart_jets, christoffel_jets, make_space
from conftest import at, one_point, same_bits, scenario_path

FLAT3 = make_space("cosymplectic_flat", n=1)
C2 = make_space("euclidean_complex", n=2)
S3 = make_space("sasakian_sphere", n=1, ctilde=1.0)


def sphere_immersion(r=1.0, ambient=FLAT3, weight="1"):
    return Immersion.from_strings(
        ["u", "v"], ambient,
        [f"{r}*cos(v)*cos(u)", f"{r}*cos(v)*sin(u)", f"{r}*sin(v)"], weight)


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
        tt = ev.trace_terms
        assert np.sqrt(tt.h_norm2) == pytest.approx(1.0 / r, abs=1e-9)
        assert tt.b_norm2 == pytest.approx(2.0 / r**2, abs=1e-9)
        assert tt.scal == pytest.approx(2.0 / r**2, abs=1e-8)
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
        tt = one_point(imm, p).trace_terms
        assert np.sqrt(tt.h_norm2) <= 1e-9


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
    tt = ev.trace_terms
    assert np.abs(tt.kl_H + tt.H).max() <= 1e-9
    assert np.abs(tt.jl_H).max() <= 1e-9


def test_trace_terms_minimal_and_constant_weight():
    great = Immersion.from_strings(
        ["u", "v"], S3, ["cos(v)*cos(u)", "cos(v)*sin(u)", "sin(v)"], "1")
    tt = one_point(great, [0.4, 0.2]).trace_terms
    assert np.abs(tt.tb_ah).max() <= 1e-10
    assert np.abs(tt.a_h_grad_f).max() <= 1e-12
    assert np.abs(tt.grad_f).max() == 0.0
    assert tt.delta_f_pos == 0.0
    assert np.abs(tt.grad_delta_f_pos).max() == 0.0
    assert np.abs(tt.b_gradf_gradf).max() == 0.0


def test_hypersurface_tb_identity():
    # tr B(., A_H .) = |B|^2 H for hypersurfaces
    imm = sphere_immersion(0.8)
    imm2 = Immersion.from_strings(
        ["u", "v"], FLAT3,
        ["(1 + 0.3*cos(v))*cos(u)", "(1 + 0.3*cos(v))*sin(u)", "0.3*sin(v)"],
        "1")
    for im, p in ((imm, [0.5, 0.3]), (imm2, [0.7, 1.1])):
        tt = one_point(im, p).trace_terms
        assert np.abs(tt.tb_ah - tt.b_norm2 * tt.H).max() <= 1e-8


def test_intrinsic_scal_unit_sphere():
    imm = sphere_immersion(1.0)
    ev = one_point(imm, [0.7, 0.5])
    assert ev.trace_terms.scal == pytest.approx(2.0, abs=1e-8)


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
    assert np.abs(ev.trace_terms.delta_perp_h_pos).max() <= 1e-9

    # Bochner: (1/2) Delta |H|^2 = <Delta-perp H, H> - |nabla-perp H|^2
    bumpy = Immersion.from_strings(
        ["u", "v"], FLAT3,
        ["(1 + 0.25*cos(v))*cos(u)", "(1 + 0.25*cos(v))*sin(u)",
         "0.25*sin(v) + 0.05*sin(u)"],
        "1")
    for p in ([0.5, 1.0], [2.2, 0.3]):
        pt = _Point(one_point(bumpy, p))
        tt = pt.ev.trace_terms
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
        rhs = float(tt.delta_perp_h_pos[0] @ pt.G_val @ pt.H_val) - nabla_perp_h_norm2[0]
        assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(lhs))


def test_small_sphere_normal_laplacian_zero():
    r0 = np.sqrt(2.0) - 1.0
    imm = Immersion.from_strings(
        ["u", "v"], S3,
        [f"{r0}*cos(v)*cos(u)", f"{r0}*cos(v)*sin(u)", f"{r0}*sin(v)"], "1")
    lap = one_point(imm, [0.7, 0.4]).trace_terms.delta_perp_h_pos
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
    tt = pt.ev.trace_terms
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
        assert abs(b_norm2 - tt.b_norm2) <= 1e-8 * (1 + abs(tt.b_norm2))
        assert np.abs(tb - tt.tb_ah).max() <= 1e-8 * (1 + np.abs(tt.tb_ah).max())
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
    st = S3.structure_at(pt.psi.values)
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
    metric = Jet.stack(pt.space.metric_jets(chart_jets(pt.psi.values, order)))
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
    ev = calculus.evaluate(sc.immersion, sc.sample_points())
    for i, p in enumerate(sc.sample_points()):
        pt = _Point(ev, i)
        for field, want in _ref_mean_curvature_path(pt).items():
            got = getattr(pt, field).c
            want = _coefficients(want)
            assert got.shape == want.shape
            assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                                  want.view(np.int64)), (field, p)


def test_trace_terms_shared_and_read_only():
    imm = sphere_immersion(0.8, weight="1 + 0.2*sin(u)*cos(v)")
    p = [0.7, 0.4]
    ev = one_point(imm, p)
    tt = ev.trace_terms
    assert ev.trace_terms is tt
    with pytest.raises(ValueError):
        tt.tb_ah[0, 0] = 1.0
    with pytest.raises(ValueError):
        tt.grad_f += 1.0


def test_check_point_operation_counts(monkeypatch):
    """Jet work of one `check` block on c13 (16 points, order-4 jets in 3
    variables): its evaluation, the direct field, one theorem residual and
    the mode comparison.  Counts, not times, so the guard is
    deterministic."""
    counts = {"mul": 0, "truncate": 0, "trace_terms": 0, "pullback": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Jet, attr, counted("mul", getattr(Jet, attr)))
    monkeypatch.setattr(Jet, "truncate", counted("truncate", Jet.truncate))
    monkeypatch.setattr(calculus, "trace_terms_at",
                        counted("trace_terms", calculus.trace_terms_at))
    EV = calculus.Evaluation
    monkeypatch.setattr(EV, "pullback_derivative",
                        counted("pullback", EV.pullback_derivative))
    sc = load_scenario(scenario_path("c13_hypersphere_r4"), validate=False)
    kind = sc.mode["kind"]
    ev = calculus.evaluate(sc.immersion, sc.sample_points()[:calculus.BATCH_POINTS])
    bi_f_tension_direct(ev)
    # the first and second derivatives of tau_w; the directional derivative
    # reuses the first
    assert counts["pullback"] == 2
    theorem_residual(ev, kind=kind, errata=True)
    compare_modes(ev, kind=kind, errata=True)
    assert counts["trace_terms"] == 1
    assert counts["mul"] <= 180
    assert counts["truncate"] <= 60
    counts["pullback"] = 0
    f_bitension_direct(ev)
    assert counts["pullback"] == 2


def test_direct_field_product_count_does_not_grow_with_points(monkeypatch):
    """The direct fields make the same number of jet products at 1 and at
    16 points of c13: the block's points share every product."""
    sc = load_scenario(scenario_path("c13_hypersphere_r4"), validate=False)
    evals = [calculus.evaluate(sc.immersion, sc.sample_points()[:count]) for count in (1, 16)]
    counts = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[-1] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Jet, attr, counted(getattr(Jet, attr)))
    for ev in evals:
        counts.append(0)
        bi_f_tension_direct(ev)
        f_bitension_direct(ev)
    assert counts[0] == counts[1] > 0


def test_trace_terms_product_count_does_not_grow_with_points(monkeypatch):
    """One trace-term build makes the same number of jet products at 1 and
    at 16 points of c13: the block's points share every product."""
    sc = load_scenario(scenario_path("c13_hypersphere_r4"), validate=False)
    evals = [calculus.evaluate(sc.immersion, sc.sample_points()[:count]) for count in (1, 16)]
    counts = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[-1] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Jet, attr, counted(getattr(Jet, attr)))
    for ev in evals:
        counts.append(0)
        calculus.trace_terms_at(ev)
    assert counts[0] == counts[1] > 0


def test_batched_evaluation_product_count_does_not_grow_with_points(monkeypatch):
    """One batched evaluation makes the same number of jet products at 8 and
    at 64 points of c13: per-point work is inside the products."""
    counts = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[-1] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Jet, attr, counted(getattr(Jet, attr)))
    sc = load_scenario(scenario_path("c13_hypersphere_r4"), validate=False)
    points = sc.sample_points()
    assert len(points) == 64
    for count in (8, 64):
        counts.append(0)
        calculus.evaluate(sc.immersion, points[:count])
    assert counts[0] == counts[1] > 0


def _first_block(name, order=4):
    sc = load_scenario(scenario_path(name), validate=False)
    return calculus.evaluate(sc.immersion, sc.sample_points()[:calculus.BATCH_POINTS], order)


def test_christoffels_from_the_evaluated_inverse_match_inverting_again(catalog_names):
    """The intrinsic Christoffels built from the inverse metric `evaluate`
    already has are those of inverting the truncated metric again, bit for
    bit, on the first block of every catalog scenario."""
    for name in catalog_names:
        ev = _first_block(name)
        g, g_inv = ev.induced_metric_field, ev.induced_metric_inv_field
        expected = christoffel_jets(g).c
        assert same_bits(christoffel_jets(g, g_inv).c, expected), name
        assert same_bits(ev.intrinsic_christoffels.c, expected), name


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
        imm, points = sc.immersion, sc.sample_points()[:calculus.BATCH_POINTS]
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


def test_c08_block_builds_each_jet_once(monkeypatch):
    """On one c08 block, the shared memo computes sin(v) and the reciprocal
    of the denominator 1 + 0.8 sin(v) once for all three map components,
    and only two matrices are inverted: the ambient metric and the induced
    metric, whose inverse the intrinsic Christoffels reuse."""
    sc = load_scenario(scenario_path("c08_hopf_torus"), validate=False)
    points = sc.sample_points()[:calculus.BATCH_POINTS]
    v = points[:, 1]
    seen = {"sin": [], "reciprocal": [], "inverse": 0}

    def recorded(key, fn):
        def wrapper(self, *args):
            seen[key].append(self.c[..., 0].copy())
            return fn(self, *args)
        return wrapper

    def inverse(self):
        seen["inverse"] += 1
        return invert(self)

    invert = Jet.inverse
    monkeypatch.setattr(Jet, "sin", recorded("sin", Jet.sin))
    monkeypatch.setattr(Jet, "_reciprocal", recorded("reciprocal", Jet._reciprocal))
    monkeypatch.setattr(Jet, "inverse", inverse)
    calculus.evaluate(sc.immersion, points)
    denominator = np.array([1 + 0.8 * np.sin(x) for x in v])
    of = lambda key, values: sum(x.shape == values.shape and np.allclose(x, values)
                                 for x in seen[key])
    assert of("sin", v) == 1
    assert of("reciprocal", denominator) == 1
    assert seen["inverse"] <= 2


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


def _ref_trace_terms(pt):
    """Every loop-built trace term of `pt` but n, by its `TraceTerms` name."""
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
           "coeffs": pt.space.curvature_coeffs_at(pt.psi.values),
           "h_norm2": ip(H, H)}
    # |grad f|^2 and |H|^2 as scalar jets, and their gradients
    g1 = pt.induced_metric_field.truncate(pt.order - 1)
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
    Gam_int = pt.intrinsic_christoffels.values
    dX = X.derivs().values
    hess_vec = np.zeros((m, m))
    for be in range(m):
        for g in range(m):
            acc = dX[g, be]
            for de in range(m):
                acc += Gam_int[g, be, de] * gfp[de]
            hess_vec[be, g] = acc
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
    out.update(kl_H=mv(P_nor, mv(T, tan_TH)), jl_H=mv(P_tan, mv(T, tan_TH)),
               mm_H=mv(P_nor, mv(T, mv(P_nor, mv(T, H)))),
               kj_grad_f=mv(P_nor, mv(T, tan_Tgf)), j2_grad_f=mv(P_tan, mv(T, tan_Tgf)))
    xi = pt.structure.get("xi", np.zeros(d))
    xi_tan = mv(P_tan, xi)
    out.update(eta_h=ip(xi, H), xi_tan=xi_tan, xi_nor=mv(P_nor, xi),
               xi_tan_norm2=ip(xi_tan, xi_tan), eta_grad_f=ip(xi, grad_f))
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
    cov = (Gam * X.truncate(Gam.space.order)[None, None]).sum(-1, start=X.derivs())
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
    sc = load_scenario(scenario_path(name), validate=False)
    fields = {f.name for f in dataclasses.fields(calculus.TraceTerms)} - {"n"}
    for ev in calculus.evaluate_batches(sc.immersion, sc.sample_points()):
        tt = ev.trace_terms
        lap = ev.rough_laplacian(ev.H_field)
        intrinsic = _intrinsic_rough_laplacian_gradf(ev)
        for i in range(len(ev)):
            pt = _Point(ev, i)
            ref = _ref_trace_terms(pt)
            assert set(ref) == fields
            pairs = [(key, tt.coeffs[:, i] if key == "coeffs" else getattr(tt, key)[i], want)
                     for key, want in ref.items()]
            pairs += [("rough_laplacian", lap[i], _ref_rough_laplacian(pt, pt.H_field)),
                      ("intrinsic_laplacian", intrinsic[i],
                       _ref_intrinsic_rough_laplacian_gradf(pt))]
            for key, got, want in pairs:
                err = np.abs(np.subtract(got, want)).max()
                assert err <= 1e-12 * max(1.0, np.abs(want).max()), (key, pt.point, err)
