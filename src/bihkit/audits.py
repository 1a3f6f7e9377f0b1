"""Term-by-term numeric audits of the in-proof computational identities.

Each audit evaluates two independently computed sides: the left side comes
from raw ambient jets along the immersion (rough Laplacians, directional
derivatives), the right side is assembled from the trace terms of the
calculus module.  Where the printed identity and the oracle-consistent
(corrected) form differ, an audit returns both deltas at each point; the
corrected one is the pass criterion, and the difference is attributable to
a catalogued erratum.  The report prints the corrected maxima only: the
printed deltas are returned per block, not printed.

The structure-decomposition identity suite lives here too: the five
Hermitian operator identities, their contact analogues, and skewness and
adjointness relations.

Every audit takes an evaluation block (`calculus.Evaluation`), whose trace
terms and structure decomposition all of them share, and returns its
deltas as arrays over the block's points; `run_all_audits` joins those of
every block and reports their maxima.
"""

from __future__ import annotations

import numpy as np

from .calculus import joined, matvec
from .residuals import _along_grad_f, _tau_weighted_field
from .spaces import curvature_model

__all__ = [
    "audit_mean_curvature_laplacian",
    "audit_lemgene2",
    "audit_lemgene3",
    "identity_suite",
    "run_all_audits",
]

# Random tangent/normal splits per point in the curvature-model audit
TRACE_SAMPLES = 4

READINGS = ("single intrinsic Ricci", "printed double-Ricci")


def audit_mean_curvature_laplacian(ev):
    """tr nabla^2 H against its printed trace-term expansion
    E = (n/2) grad|H|^2 + tr B(.,A_H.) + 2 tr A_{nperp H} + Dperp H (positive
    sign convention), for the two audits of that identity.

    lemgene1:  corrected tr nabla^2 H = -E - [tr R(., H) .]^tan; the printed
               form carries the curvature term with a plus sign.
    deltaH:    the positive rough Laplacian -tr nabla^2 H; as printed it
               equals E, exact only in flat ambients, and the ledger
               translation adds the tangential curvature trace.
    The corrected and the translated forms are one identity, so their
    deltas are the same number.  Returns {"deltaH": ..., "lemgene1": ...};
    a block below order 4 (no Dperp H) is a ValueError."""
    if ev.order < 4:
        raise ValueError(f"the Laplacian of H needs an order-4 block, not order {ev.order}")
    nrm = ev.norm
    expansion = (
        0.5 * float(ev.m) * ev.grad_h_norm2
        + ev.tb_ah
        + 2.0 * ev.ta_nabla_perp_h
        + ev.delta_perp_h_pos
    )
    trR_tan = ev.trRH_tan
    lap = ev.rough_laplacian(ev.H_field)
    scale = 1.0 + nrm(ev.H)
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


def _intrinsic_rough_laplacian_gradf(ev):
    """tr nabla^2 grad f of the induced metric, in ambient components."""
    # the (1,1)-tensor nabla grad f is the field F_be = W[:, be] of the block's
    # W[g, be]: covd[al, be, g] = d_al W[g, be] + Gam^g_{al, de} W[de, be]
    W = ev.nabla_grad_f_field
    W_val = ev.values(W)
    covd = (np.einsum("pgba->pabg", ev.values(W.derivs()))
            + np.einsum("pgad,pdb->pabg", ev._gam, W_val))
    return matvec(ev._dpsi, ev.covariant_trace(covd, W_val.swapaxes(-1, -2)))


def audit_lemgene2(ev):
    """tr nabla-bar^2 grad f vs its assembled split.

    corrected: grad(tr Hess f) + Ric(grad f) + tr B(., nabla_. grad f)
               + tr (nperp_. B)(., grad f) - tr A_{B(., grad f)}(.)
    printed:   doubled Ricci term and a spurious ambient curvature trace.
    The inner intrinsic identity is audited separately in both curvature
    readings (ambient vs intrinsic); the report states which matches.
    """
    nrm = ev.norm
    lhs = ev.rough_laplacian(ev.grad_f_ambient_field)
    grad_delta_neg = -ev.grad_delta_f_pos  # grad of tr Hess f
    b_terms = ev.tb_hess_f + ev.tnb_grad_f - ev.ta_b_grad_f
    rhs_corrected = grad_delta_neg + ev.ric_grad_f + b_terms
    trR_amb = ev.trRgf
    rhs_printed_ambient = grad_delta_neg + 2.0 * ev.ric_grad_f - trR_amb + b_terms
    # intrinsic sub-check: tr nabla^2 grad f (induced metric only)
    intr_lhs = _intrinsic_rough_laplacian_gradf(ev)
    intr_corrected = grad_delta_neg + ev.ric_grad_f
    intr_printed = grad_delta_neg + 2.0 * ev.ric_grad_f + ev.ric_grad_f  # intrinsic trace = -Ric
    scale = 1.0 + nrm(ev.grad_f)
    deltas = {
        "name": "lemgene2",
        "delta_corrected": nrm(lhs - rhs_corrected) / scale,
        "delta_printed_ambient": nrm(lhs - rhs_printed_ambient) / scale,
        "intrinsic_delta_single_ricci": nrm(intr_lhs - intr_corrected) / scale,
        "intrinsic_delta_printed_intrinsic": nrm(intr_lhs - intr_printed) / scale,
    }
    deltas["curvature_reading"] = np.where(
        deltas["intrinsic_delta_single_ricci"] <= deltas["intrinsic_delta_printed_intrinsic"],
        *READINGS)
    return deltas


def audit_lemgene3(ev):
    """nabla-bar_{grad f}(n f H + grad f) against its five-term split."""
    nrm = ev.norm
    n = float(ev.m)
    lhs = _along_grad_f(ev, ev.pullback_derivative(_tau_weighted_field(ev)))
    rhs = (
        (n * ev.grad_f_norm2)[:, None] * ev.H
        - (n * ev.f)[:, None] * ev.a_h_grad_f
        + (n * ev.f)[:, None] * ev.nabla_perp_gradf_h
        + 0.5 * ev.grad_grad_f_norm2
        + ev.b_gradf_gradf
    )
    scale = 1.0 + nrm(ev.H) + nrm(ev.grad_f)
    return {"name": "lemgene3", "delta": nrm(lhs - rhs) / scale}


def identity_suite(ev):
    """Structure-operator identities in the orthonormal frames.

    Hermitian: the five j/k/l/m identities plus skewness and adjointness.
    Contact: the phi-square decompositions on both bundles, skewness of the
    tangential block, zero trace, and the N/s adjointness.
    Returns {identity: deviation at each point}.
    """
    tt_m, tn, nt, nn = ev.decomposition_operators
    m = ev.m
    codim = ev.d - m
    out = {}
    mx = lambda a: np.abs(a).reshape(len(a), -1).max(axis=1, initial=0.0)
    T = lambda a: a.swapaxes(-1, -2)
    outer = lambda u, v: u[:, :, None] * v[:, None, :]
    if ev.space.structure == "hermitian":
        out["j2_plus_lk"] = mx(tt_m @ tt_m + nt @ tn + np.eye(m))
        out["m2_plus_kl"] = mx(nn @ nn + tn @ nt + np.eye(codim))
        out["jl_plus_lm"] = mx(tt_m @ nt + nt @ nn)
        out["kj_plus_mk"] = mx(tn @ tt_m + nn @ tn)
        out["k_l_adjoint"] = mx(tn + T(nt))
        out["j_skew"] = mx(tt_m + T(tt_m))
        out["m_skew"] = mx(nn + T(nn))
    else:
        xi = ev.structure["xi"]
        E, Nf = ev.frames
        eta_tan, eta_nor = ((F @ ev._G @ xi[..., None])[..., 0] for F in (E, Nf))
        # phi^2 X = -X + eta(X) xi, block by block
        out["P2_plus_sN"] = mx(tt_m @ tt_m + nt @ tn + np.eye(m) - outer(eta_tan, eta_tan))
        out["NP_plus_tN"] = mx(tn @ tt_m + nn @ tn - outer(eta_nor, eta_tan))
        out["Ps_plus_st"] = mx(tt_m @ nt + nt @ nn - outer(eta_tan, eta_nor))
        out["Ns_plus_t2"] = mx(tn @ nt + nn @ nn + np.eye(codim) - outer(eta_nor, eta_nor))
        out["N_s_adjoint"] = mx(tn + T(nt))
        out["P_skew"] = mx(tt_m + T(tt_m))
        out["t_skew"] = mx(nn + T(nn))
        out["trace_P"] = np.abs(np.trace(tt_m, axis1=1, axis2=2))
    return out


def curvature_trace_audit(space, points, seed=0):
    """Trace-identity audit of a curvature-model ambient at the rows of a
    (P, d) array of chart points, all at once.  Each of TRACE_SAMPLES
    samples splits a random orthonormal basis of every point (one stacked
    QR; the fiducial identity metric) into m tangent and d - m normal
    vectors and compares tr R(., v). of the algebraic curvature, for a
    normal and a tangent v, with its operator decomposition.  The maxima
    keep a NaN.  On abstract_gcsf the spread of alpha + beta, which should
    be constant, is reported too."""
    rng = np.random.default_rng(seed)
    count, d = len(points), space.chart_dim
    tensors = space.structure_at(points)
    coeffs = space.curvature_coeffs_at(points)
    R = curvature_model(space.structure, np.eye(d), tensors, coeffs)
    T = tensors["J" if space.structure == "hermitian" else "phi"]
    worst = {"normal_trace": [], "tangent_trace": []}
    for _ in range(TRACE_SAMPLES):
        m = rng.integers(1, d, size=count)
        # E[p, i] is basis vector i of point p
        E = np.linalg.qr(rng.normal(size=(count, d, d)))[0].swapaxes(-1, -2)
        tangent = np.arange(d) < m[:, None]
        P_tan = (E * tangent[..., None]).swapaxes(-1, -2) @ E
        P_nor = np.eye(d) - P_tan
        # tr R1(., v). = -k v: k = m on a normal v, m - 1 on a tangent one
        for v, key, k in ((E[np.arange(count), m], "normal_trace", m),
                          (E[:, 0], "tangent_trace", m - 1)):
            lhs = sum(np.where(tangent[:, i, None], R(E[:, i], v, E[:, i]), 0.0)
                      for i in range(d))
            rhs = _trace_rhs(space.structure, coeffs, T, tensors, P_tan, P_nor, v, k[:, None])
            scale = 1.0 + np.sqrt((v * v).sum(-1))
            worst[key].append(np.abs(lhs - rhs).max(-1) / scale)
    out = {key: float(np.max(deltas)) for key, deltas in worst.items()}
    if space.kind == "abstract_gcsf":
        total = coeffs[0] + coeffs[1]
        out["alpha_beta_spread"] = float(np.max(total) - np.min(total))
        out["alpha_beta_warning"] = not out["alpha_beta_spread"] <= 1e-10
    return out


def _trace_rhs(structure, coeffs, T, tensors, P_tan, P_nor, v, k):
    """Decomposition form of tr R(., v). at each point, in the fiducial
    identity metric."""
    sv = matvec(P_tan, matvec(T, v))
    if structure == "hermitian":
        alpha, beta = (c[:, None] for c in coeffs)
        Tsv = matvec(T, sv)
        return -k * alpha * v + 3.0 * beta * (matvec(P_tan, Tsv) + matvec(P_nor, Tsv))
    f1, f2, f3 = (c[:, None] for c in coeffs)
    xi = tensors["xi"]
    xi_tan = matvec(P_tan, xi)
    eta_v = (v * xi).sum(-1, keepdims=True)
    xt2 = (xi_tan * xi_tan).sum(-1, keepdims=True)
    r2 = xt2 * v - eta_v * xi_tan + k * eta_v * xi
    return -k * f1 * v + f2 * r2 + 3.0 * f3 * matvec(T, sv)


def run_all_audits(blocks):
    """The per-audit maxima over the points of the evaluation blocks
    `blocks`, joined once (`joined`); the lemgene2 reading is that of the
    maxima of its two intrinsic deltas."""
    def columns(ev):
        laplacian, lemgene2 = audit_mean_curvature_laplacian(ev), audit_lemgene2(ev)
        return {"deltaH_translated": laplacian["deltaH"]["delta_translated"],
                "lemgene1_corrected": laplacian["lemgene1"]["delta_corrected"],
                "lemgene2_corrected": lemgene2["delta_corrected"],
                # the two intrinsic deltas, single and printed doubled Ricci
                "lemgene2_reading": np.stack([lemgene2["intrinsic_delta_single_ricci"],
                                              lemgene2["intrinsic_delta_printed_intrinsic"]], -1),
                "lemgene3": audit_lemgene3(ev)["delta"],
                "identity_max": np.max(list(identity_suite(ev).values()), axis=0)}

    table = vars(joined(blocks, columns))
    del table["points"]
    # numpy's maxima keep a NaN, which fails the verdict; Python's max may drop it
    summary = {key: np.max(column, axis=0) for key, column in table.items()}
    single, printed = summary["lemgene2_reading"]
    summary["lemgene2_reading"] = str(np.where(single <= printed, *READINGS))
    return summary
