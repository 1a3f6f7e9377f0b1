"""Term-by-term numeric audits of the in-proof computational identities.

Each audit evaluates two independently computed sides: the left side comes
from raw ambient jets along the immersion (rough Laplacians, directional
derivatives), the right side is assembled from the trace terms of the
calculus module.  Where the printed identity and the oracle-consistent
(corrected) form differ, both deltas are reported; the corrected one is the
pass criterion and the difference is attributable to a catalogued erratum.

The structure-decomposition identity suite lives here too: the five
Hermitian operator identities, their contact analogues, skewness and
adjointness relations, and the hypothesis-conditional facts used inside the
proofs (e.g. on the normal line of a hypersurface with tangent Reeb field).

Every per-point audit takes the point's `PointCalculus`, whose memoized
trace terms and structure decomposition all of them share.
"""

from __future__ import annotations

import numpy as np

from .calculus import drain
from .residuals import curvature_trace, _tau_weighted_field
from .spaces import curvature_model, gcsf_coefficient_sum_spread

__all__ = [
    "audit_mean_curvature_laplacian",
    "audit_lemgene2",
    "audit_lemgene3",
    "audit_phi_decompositions",
    "identity_suite",
    "run_all_audits",
]


def audit_mean_curvature_laplacian(pc):
    """tr nabla^2 H against its printed trace-term expansion
    E = (n/2) grad|H|^2 + tr B(.,A_H.) + 2 tr A_{nperp H} + Dperp H (positive
    sign convention), for the two audits of that identity.

    lemgene1:  corrected tr nabla^2 H = -E - [tr R(., H) .]^tan; the printed
               form carries the curvature term with a plus sign.
    deltaH:    the positive rough Laplacian -tr nabla^2 H; as printed it
               equals E, exact only in flat ambients, and the ledger
               translation adds the tangential curvature trace.
    The corrected and the translated forms are one identity, so their
    deltas are the same number.  Returns {"deltaH": ..., "lemgene1": ...}.
    """
    tt = pc.trace_terms
    nrm = pc.norm
    expansion = (
        0.5 * float(pc.m) * tt.grad_h_norm2
        + tt.tb_ah
        + 2.0 * tt.ta_nabla_perp_h
        + tt.delta_perp_h_pos
    )
    trR_tan = pc.projectors[0] @ curvature_trace(pc, pc.H_val)
    lap = pc.rough_laplacian(pc.H_field)
    scale = 1.0 + nrm(pc.H_val)
    corrected = nrm(lap + (expansion + trR_tan)) / scale
    curvature_term_norm = nrm(trR_tan)
    return {
        "deltaH": {
            "name": "deltaH_expansion",
            "delta_translated": corrected,
            "delta_printed": nrm(lap + expansion) / scale,
            "curvature_term_norm": curvature_term_norm,
        },
        "lemgene1": {
            "name": "lemgene1",
            "delta_corrected": corrected,
            "delta_printed": nrm(lap + (expansion - trR_tan)) / scale,
            "curvature_term_norm": curvature_term_norm,
        },
    }


def _intrinsic_rough_laplacian_gradf(pc):
    """tr nabla^2 grad f of the induced metric, in ambient components."""
    Gam = pc.intrinsic_christoffels
    X = pc.grad_f_param_field  # components, order 3
    # cov[g, be] = (nabla_be X)^g as order-2 jet fields
    terms = Gam * X.truncate(Gam.space.order)[None, None]
    cov = terms.sum(-1, start=X.derivs())
    cov_val = cov.values
    # the (1,1)-tensor nabla grad f is the field F_be = cov[:, be]:
    # covd[al, be, g] = d_al cov[g, be] + Gam^g_{al, de} cov[de, be]
    covd = (np.einsum("gba->abg", cov.derivs().values)
            + np.einsum("gad,db->abg", Gam.values, cov_val))
    return pc.dpsi_val @ pc.covariant_trace(covd, cov_val.T)


def audit_lemgene2(pc):
    """tr nabla-bar^2 grad f vs its assembled split.

    corrected: grad(tr Hess f) + Ric(grad f) + tr B(., nabla_. grad f)
               + tr (nperp_. B)(., grad f) - tr A_{B(., grad f)}(.)
    printed:   doubled Ricci term and a spurious ambient curvature trace.
    The inner intrinsic identity is audited separately in both curvature
    readings (ambient vs intrinsic); the report states which matches.
    """
    tt = pc.trace_terms
    nrm = pc.norm
    lhs = pc.rough_laplacian(pc.grad_f_ambient_field)
    grad_delta_neg = -tt.grad_delta_f_pos  # grad of tr Hess f
    b_terms = tt.tb_hess_f + tt.tnb_grad_f - tt.ta_b_grad_f
    rhs_corrected = grad_delta_neg + tt.ric_grad_f + b_terms
    trR_amb = curvature_trace(pc, tt.grad_f)
    rhs_printed_ambient = grad_delta_neg + 2.0 * tt.ric_grad_f - trR_amb + b_terms
    # intrinsic sub-check: tr nabla^2 grad f (induced metric only)
    intr_lhs = _intrinsic_rough_laplacian_gradf(pc)
    intr_corrected = grad_delta_neg + tt.ric_grad_f
    intr_printed = grad_delta_neg + 2.0 * tt.ric_grad_f + tt.ric_grad_f  # intrinsic trace = -Ric
    scale = 1.0 + nrm(tt.grad_f)
    deltas = {
        "name": "lemgene2",
        "delta_corrected": nrm(lhs - rhs_corrected) / scale,
        "delta_printed_ambient": nrm(lhs - rhs_printed_ambient) / scale,
        "intrinsic_delta_single_ricci": nrm(intr_lhs - intr_corrected) / scale,
        "intrinsic_delta_printed_intrinsic": nrm(intr_lhs - intr_printed) / scale,
    }
    deltas["curvature_reading"] = (
        "single intrinsic Ricci"
        if deltas["intrinsic_delta_single_ricci"]
        <= deltas["intrinsic_delta_printed_intrinsic"]
        else "printed double-Ricci"
    )
    return deltas


def audit_lemgene3(pc):
    """nabla-bar_{grad f}(n f H + grad f) against its five-term split."""
    tt = pc.trace_terms
    nrm = pc.norm
    n = float(pc.m)
    tau_w = _tau_weighted_field(pc)
    lhs = pc.grad_f_param @ pc.pullback_derivative(tau_w).values
    rhs = (
        n * tt.grad_f_norm2 * pc.H_val
        - n * tt.f * tt.a_h_grad_f
        + n * tt.f * tt.nabla_perp_gradf_h
        + 0.5 * tt.grad_grad_f_norm2
        + tt.b_gradf_gradf
    )
    scale = 1.0 + nrm(pc.H_val) + nrm(tt.grad_f)
    return {"name": "lemgene3", "delta": nrm(lhs - rhs) / scale}


def identity_suite(pc):
    """Structure-operator identities in the orthonormal frames.

    Hermitian: the five j/k/l/m identities plus skewness and adjointness.
    Contact: the phi-square decompositions on both bundles, skewness of the
    tangential block, zero trace, and the N/s adjointness.
    Returns {identity: deviation}.
    """
    tt_m, tn, nt, nn = pc.decomposition_operators
    m = pc.m
    codim = pc.d - m
    out = {}
    mx = lambda a: float(np.max(np.abs(a))) if a.size else 0.0
    if pc.space.structure == "hermitian":
        out["j2_plus_lk"] = mx(tt_m @ tt_m + nt @ tn + np.eye(m))
        out["m2_plus_kl"] = mx(nn @ nn + tn @ nt + np.eye(codim))
        out["jl_plus_lm"] = mx(tt_m @ nt + nt @ nn)
        out["kj_plus_mk"] = mx(tn @ tt_m + nn @ tn)
        out["k_l_adjoint"] = mx(tn + nt.T)
        out["j_skew"] = mx(tt_m + tt_m.T)
        out["m_skew"] = mx(nn + nn.T)
    else:
        xi, G0 = pc.structure["xi"], pc.G_val
        E, Nf = pc.tangent_frame, pc.normal_frame
        eta_tan = np.array([float(E[i] @ G0 @ xi) for i in range(m)])
        eta_nor = np.array([float(Nf[s] @ G0 @ xi) for s in range(codim)])
        # phi^2 X = -X + eta(X) xi, block by block
        out["P2_plus_sN"] = mx(tt_m @ tt_m + nt @ tn + np.eye(m) - np.outer(eta_tan, eta_tan))
        out["NP_plus_tN"] = mx(tn @ tt_m + nn @ tn - np.outer(eta_nor, eta_tan))
        out["Ps_plus_st"] = mx(tt_m @ nt + nt @ nn - np.outer(eta_tan, eta_nor))
        out["Ns_plus_t2"] = mx(tn @ nt + nn @ nn + np.eye(codim) - np.outer(eta_nor, eta_nor))
        out["N_s_adjoint"] = mx(tn + nt.T)
        out["P_skew"] = mx(tt_m + tt_m.T)
        out["t_skew"] = mx(nn + nn.T)
        out["trace_P"] = abs(float(np.trace(tt_m)))
    return out


def audit_phi_decompositions(pc, tol=1e-8):
    """Proof-level contact facts beyond `identity_suite`, hypothesis-
    conditional ones included."""
    if pc.space.structure != "contact":
        raise ValueError("phi-decomposition audit needs a contact ambient")
    tt = pc.trace_terms
    nrm = pc.norm
    xi, G0 = pc.structure["xi"], pc.G_val
    phi = pc.structure_tensor
    P_tan, P_nor = pc.projectors
    out = {}
    # phi^2 nu decomposition on each normal frame vector
    worst = 0.0
    for nu in pc.normal_frame:
        phinu = phi @ nu
        s_nu, t_nu = P_tan @ phinu, P_nor @ phinu
        assembled = (
            P_tan @ (phi @ s_nu) + P_nor @ (phi @ s_nu)
            + P_tan @ (phi @ t_nu) + P_nor @ (phi @ t_nu)
        )
        eta_nu = float(nu @ G0 @ xi)
        worst = max(worst, nrm(assembled + nu - eta_nu * xi))
    out["phi2_normal_decomposition"] = worst
    # conditional facts: phi H tangent => PsH = 0 and NsH = -H
    H = pc.H_val
    h_norm = nrm(H)
    if h_norm > tol:
        tH = P_nor @ (phi @ H)
        xi_nor = P_nor @ xi
        if nrm(tH) <= tol * (1.0 + h_norm) and nrm(xi_nor) <= tol:
            out["PsH_when_phiH_tangent"] = nrm(tt.jl_H) / (1.0 + h_norm)
            out["NsH_plus_H_when_phiH_tangent"] = nrm(tt.kl_H + H) / (1.0 + h_norm)
    return out


def curvature_trace_audit(space, points, seed=0, samples_per_point=4):
    """Trace-identity audit usable on curvature-model-only (abstract) spaces.

    At each point, draws random orthonormal subspaces (with a normal-vector
    complement) in the fiducial metric, evaluates tr R(., v). from the
    algebraic curvature for a normal and a tangent v, and compares against
    the operator-decomposition right-hand sides.  For abstract generalized
    complex space forms the sampled spread of alpha+beta is reported (the
    coefficient sum should be constant).
    """
    rng = np.random.default_rng(seed)
    d = space.chart_dim
    worst = {"normal_trace": 0.0, "tangent_trace": 0.0}
    for p in points:
        p = np.asarray(p, float)
        Gp = space.metric_at(p) if space.has_metric else np.eye(d)
        tensors = space.structure_at(p)
        coeffs = space.curvature_coeffs_at(p)
        R = curvature_model(space.family, Gp, tensors, coeffs)
        T = tensors["J"] if space.structure == "hermitian" else tensors["phi"]
        for _ in range(samples_per_point):
            m = rng.integers(1, d)
            basis = []
            cand = rng.normal(size=(d, d))
            for v in cand:
                w = v.copy()
                for b in basis:
                    w = w - (b @ Gp @ w) * b
                nn = np.sqrt(w @ Gp @ w)
                if nn > 1e-8:
                    basis.append(w / nn)
            E = np.array(basis[:m])
            nu = np.array(basis[m:])
            P_tan = E.T @ E @ Gp
            P_nor = np.eye(d) - P_tan
            tangent_v = E[0]
            normal_v = nu[0]
            for v, key in ((normal_v, "normal_trace"), (tangent_v, "tangent_trace")):
                lhs = np.zeros(d)
                for i in range(m):
                    lhs += R(E[i], v, E[i])
                rhs = _trace_rhs(space.family, coeffs, Gp, T, tensors, P_tan, P_nor, v, key, m)
                scale = 1.0 + float(np.sqrt(v @ Gp @ v))
                worst[key] = max(worst[key], float(np.max(np.abs(lhs - rhs))) / scale)
    out = dict(worst)
    if space.kind == "abstract_gcsf":
        out["alpha_beta_spread"] = gcsf_coefficient_sum_spread(space, points)
        out["alpha_beta_warning"] = bool(out["alpha_beta_spread"] > 1e-10)
    return out


def _trace_rhs(family, coeffs, Gp, T, tensors, P_tan, P_nor, v, key, m):
    """Decomposition form of tr R(., v). for v normal or tangent."""
    mf = float(m)
    if family == "gcsf":
        alpha, beta = coeffs
        jv_or_lv = P_tan @ (T @ v)
        two_step_t = P_tan @ (T @ jv_or_lv)
        two_step_n = P_nor @ (T @ jv_or_lv)
        if key == "normal_trace":
            return -mf * alpha * v + 3.0 * beta * (two_step_t + two_step_n)
        return -(mf - 1.0) * alpha * v + 3.0 * beta * (two_step_t + two_step_n)
    f1, f2, f3 = coeffs
    xi = tensors["xi"]
    xi_tan, xi_nor = P_tan @ xi, P_nor @ xi
    eta_v = float(v @ Gp @ xi)
    xt2 = float(xi_tan @ Gp @ xi_tan)
    sv = P_tan @ (T @ v)
    phi_sv = T @ sv
    if key == "normal_trace":
        r2 = xt2 * v - eta_v * xi_tan + mf * eta_v * xi
        return -mf * f1 * v + f2 * r2 + 3.0 * f3 * phi_sv
    r2 = xt2 * v - eta_v * xi_tan + (mf - 1.0) * eta_v * xi
    return -(mf - 1.0) * f1 * v + f2 * r2 + 3.0 * f3 * phi_sv


def run_all_audits(imm, calcs):
    """All audits over the points of `calcs` (one PointCalculus each);
    returns the per-point rows and the per-audit max deltas.  The list is
    emptied as it goes, so each point's evaluation is released once used."""
    rows = []
    for pc in drain(calcs):
        entry = {
            "point": list(map(float, pc.point)),
            **audit_mean_curvature_laplacian(pc),
            "lemgene2": audit_lemgene2(pc),
            "lemgene3": audit_lemgene3(pc),
            "identities": identity_suite(pc),
        }
        if imm.ambient.structure == "contact":
            entry["phi_decompositions"] = audit_phi_decompositions(pc)
        rows.append(entry)
    summary = {
        "deltaH_translated": max(r["deltaH"]["delta_translated"] for r in rows),
        "lemgene1_corrected": max(r["lemgene1"]["delta_corrected"] for r in rows),
        "lemgene2_corrected": max(r["lemgene2"]["delta_corrected"] for r in rows),
        "lemgene2_reading": rows[0]["lemgene2"]["curvature_reading"],
        "lemgene3": max(r["lemgene3"]["delta"] for r in rows),
        "identity_max": max(max(r["identities"].values()) for r in rows),
    }
    return rows, summary
