"""Proposition and inequality checkers for CMC submanifolds.

Each checker evaluates both sides of the published identity or bound over a
sample set and reports a structured verdict:

  * identity checkers compare |B|^2 (and the scalar curvature) against the
    coefficient combination that characterizes weighted biharmonicity for
    the given class;
  * bound checkers estimate an infimum over the sample set (reported as an
    estimate, never as a proof) and compare |H|^2 against it;
  * the non-existence test evaluates the sign of the coefficient combination
    and, on concrete contact space forms, cross-checks the equivalent
    phi-sectional-curvature threshold.

Hypotheses (constant mean curvature, tangency of the Reeb field, position
of phi H, ...) are verified numerically; when one fails the verdict is
`hypotheses-unverifiable`, with the arithmetic still reported.  Conclusions
that additionally need compactness are labelled conditional.

The scalar-curvature formula of the contact hypersurface identity is
evaluated in two forms: as printed, and in the corrected form

    Scal = 2n(2n-2) f1 + (3-4n) f2 + (6n-9) f3 + 4n^2 H^2 + (Delta f)/f

whose Gauss-equation derivation the intrinsic backend confirms (the printed
coefficient triple fails already on the standard biharmonic small sphere).
The trailing weighted term is read as a scalar.
"""

from __future__ import annotations

import numpy as np

from .calculus import PointCalculus, flag_deviation
from .residuals import ResidualContext
from .spaces import space_form_coefficients

__all__ = [
    "proposition_checkers",
    "check_cmc_hypersurface_gcsf",
    "check_lagrangian_bound",
    "check_complex_bound",
    "check_cmc_hypersurface_gssf",
    "check_nonexistence_gssf",
    "check_F_bound",
    "check_G_bound",
]

_CONDITIONAL_NOTE = (
    "with constant scalar curvature and compact M the weighted term is a "
    "Laplace eigenvalue of a positive function, forcing f constant; reported "
    "as a conditional implication, not verified"
)


def _hyp_status(imm, points, required, tol, calcs=None, ctxs=None):
    """Verify required flags numerically; returns (ok, {flag: deviation}).

    'cmc' additionally requires a non-zero mean curvature (every checker
    here assumes |H| is a non-zero constant).
    """
    devs = {}
    ok = True
    for name in required:
        try:
            dev = flag_deviation(imm, points, name, calcs=calcs)
        except Exception as exc:  # structural mismatch (wrong ambient kind)
            return False, {name: f"error: {exc}"}
        devs[name] = dev
        if not dev <= tol:
            ok = False
    if "cmc" in required and ctxs is not None:
        h2 = max(c.tt.h_norm2 for c in ctxs)
        devs["nonzero_H"] = h2
        if h2 <= tol:
            ok = False
    return ok, devs


def _contexts(imm, points, calcs=None):
    out = []
    for i, p in enumerate(points):
        pc = calcs[i] if calcs else PointCalculus(imm, p)
        out.append(ResidualContext(imm, p, calc=pc))
    return out


def check_cmc_hypersurface_gcsf(imm, points, tol=1e-6, flag_tol=1e-6, calcs=None):
    """CMC hypersurface of a Hermitian space form: |B|^2 identity and the
    two scalar-curvature forms (Gauss audit included)."""
    ctxs = _contexts(imm, points, calcs)
    ok, devs = _hyp_status(imm, points, ("hypersurface", "cmc"), flag_tol, calcs,
                           ctxs=ctxs)
    p_dim = float(imm.param_dim)
    rows = []
    for c in ctxs:
        alpha, beta = c.coeffs
        # p alpha + 3 beta: equals the printed 3(alpha+beta) at p = 3
        coeff = p_dim * alpha + 3.0 * beta
        ratio = c.tt.delta_f_pos / c.f
        b2_rhs = coeff - ratio
        rows.append({
            "point": list(map(float, c.point)),
            "b_norm2": c.tt.b_norm2,
            "b2_rhs": b2_rhs,
            "identity_residual": abs(c.tt.b_norm2 - b2_rhs),
            "scal_intrinsic": c.tt.scal,
            "scal_formula": coeff + ratio + p_dim**2 * c.tt.h_norm2,
            "a_h_grad_f_norm": float(np.sqrt(max(
                c.tt.a_h_grad_f @ c.pc.G_val @ c.tt.a_h_grad_f, 0.0))),
            "h_norm2": c.tt.h_norm2,
        })
    identity_res = max(r["identity_residual"] for r in rows)
    shape_res = max(r["a_h_grad_f_norm"] for r in rows)
    agrees = identity_res <= tol and shape_res <= tol
    verdict = "consistent" if agrees else "violated"
    if not ok:
        verdict = "hypotheses-unverifiable"
    return {
        "name": "cmc_hypersurface_gcsf",
        "verdict": verdict,
        "hypotheses": devs,
        "identity_residual": identity_res,
        "shape_grad_f_residual": shape_res,
        "rows": rows,
        "conditional_note": _CONDITIONAL_NOTE,
    }


def _gauss_scal_audit_rows(imm, points, ctxs):
    """Intrinsic scalar curvature vs the Gauss-assembled ambient form."""
    from .residuals import curvature_trace

    rows = []
    for c in ctxs:
        pc = c.pc
        # sum_{ij} <R(e_i, e_j) e_j, e_i> over an orthonormal tangent frame
        from .calculus import fundamental_data_at

        fd = fundamental_data_at(imm, c.point, calc=pc)
        E, G0 = fd.tangent_frame, fd.ambient_metric
        from .spaces import curvature_model

        total = 0.0
        for i in range(pc.m):
            for j in range(pc.m):
                R = curvature_model(pc.space, pc.psi_val, E[i], E[j], E[j])
                total += float(R @ G0 @ E[i])
        gauss = total - c.tt.b_norm2 + pc.m**2 * c.tt.h_norm2
        rows.append({
            "point": list(map(float, c.point)),
            "scal_intrinsic": c.tt.scal,
            "scal_gauss": gauss,
            "delta": abs(c.tt.scal - gauss),
        })
    return rows


def gauss_equation_audit(imm, points, calcs=None):
    """Scal_M vs ambient-trace Gauss assembly (model curvature backend)."""
    ctxs = _contexts(imm, points, calcs)
    rows = _gauss_scal_audit_rows(imm, points, ctxs)
    return {"name": "gauss_scal", "rows": rows,
            "max_delta": max(r["delta"] for r in rows)}


def _bound_template(name, imm, points, required, coeff_fn, flag_tol, calcs):
    ctxs = _contexts(imm, points, calcs)
    ok, devs = _hyp_status(imm, points, required, flag_tol, calcs, ctxs=ctxs)
    vals = []
    h2 = []
    for c in ctxs:
        vals.append(coeff_fn(c))
        h2.append(c.tt.h_norm2)
    inf_est = min(vals)
    h2_max = max(h2)
    if not ok:
        verdict = "hypotheses-unverifiable"
    elif inf_est <= 0.0:
        verdict = "not-f-biharmonic (non-positive infimum estimate)"
    elif h2_max <= inf_est + 1e-12:
        verdict = "consistent (bound satisfied)"
    else:
        verdict = "bound violated: not proper f-biharmonic"
    return {
        "name": name,
        "verdict": verdict,
        "hypotheses": devs,
        "inf_estimate": inf_est,
        "h_norm2_max": h2_max,
        "note": "infimum over the sample grid; an estimate, not a proof",
    }


def check_lagrangian_bound(imm, points, flag_tol=1e-6, calcs=None):
    """CMC Lagrangian surface bound 0 < |H|^2 <= inf (2a+3b-(Df)/f)/2."""
    return _bound_template(
        "lagrangian_bound", imm, points, ("lagrangian", "cmc"),
        lambda c: 0.5 * (2.0 * c.coeffs[0] + 3.0 * c.coeffs[1]
                         - c.tt.delta_f_pos / c.f),
        flag_tol, calcs,
    )


def check_complex_bound(imm, points, flag_tol=1e-6, calcs=None):
    """CMC complex surface bound with 2 alpha - (Delta f)/f."""
    return _bound_template(
        "complex_bound", imm, points, ("complex", "cmc"),
        lambda c: 0.5 * (2.0 * c.coeffs[0] - c.tt.delta_f_pos / c.f),
        flag_tol, calcs,
    )


def check_cmc_hypersurface_gssf(imm, points, tol=1e-6, flag_tol=1e-6, calcs=None):
    """CMC hypersurface with tangent Reeb field in a contact space form.

    |B|^2 = p f1 - f2 + 3 f3 - (Delta f)/f (p = 2n) plus the two scalar
    curvature forms (printed and corrected) against intrinsic Scal.
    """
    ctxs = _contexts(imm, points, calcs)
    ok, devs = _hyp_status(imm, points, ("hypersurface", "cmc", "xi_tangent"),
                           flag_tol, calcs, ctxs=ctxs)
    p_dim = float(imm.param_dim)      # p = 2n
    n_half = p_dim / 2.0
    rows = []
    for c in ctxs:
        f1, f2, f3 = c.coeffs
        ratio = c.tt.delta_f_pos / c.f
        b2_rhs = p_dim * f1 - f2 + 3.0 * f3 - ratio
        h2 = c.tt.h_norm2
        scal_printed = (
            2.0 * n_half * (2.0 * n_half - 2.0) * f1
            + (4.0 * n_half - 1.0) * f2
            - (2.0 * n_half - 4.0) * f3
            + (2.0 * n_half - 1.0) * h2
            + ratio
        )
        scal_corrected = (
            2.0 * n_half * (2.0 * n_half - 2.0) * f1
            + (3.0 - 4.0 * n_half) * f2
            + (6.0 * n_half - 9.0) * f3
            + 4.0 * n_half**2 * h2
            + ratio
        )
        rows.append({
            "point": list(map(float, c.point)),
            "b_norm2": c.tt.b_norm2,
            "b2_rhs": b2_rhs,
            "identity_residual": abs(c.tt.b_norm2 - b2_rhs),
            "scal_intrinsic": c.tt.scal,
            "scal_printed": scal_printed,
            "scal_corrected": scal_corrected,
            "a_h_grad_f_norm": float(np.sqrt(max(
                c.tt.a_h_grad_f @ c.pc.G_val @ c.tt.a_h_grad_f, 0.0))),
        })
    identity_res = max(r["identity_residual"] for r in rows)
    shape_res = max(r["a_h_grad_f_norm"] for r in rows)
    scal_corr_res = max(abs(r["scal_intrinsic"] - r["scal_corrected"]) for r in rows)
    scal_printed_res = max(abs(r["scal_intrinsic"] - r["scal_printed"]) for r in rows)
    agrees = identity_res <= tol and shape_res <= tol
    verdict = "consistent" if agrees else "violated"
    if not ok:
        verdict = "hypotheses-unverifiable"
    return {
        "name": "cmc_hypersurface_gssf",
        "verdict": verdict,
        "hypotheses": devs,
        "identity_residual": identity_res,
        "shape_grad_f_residual": shape_res,
        "scal_corrected_residual": scal_corr_res,
        "scal_printed_residual": scal_printed_res,
        "scal_note": "weighted term read as a scalar; corrected coefficient "
                     "triple used for the pass verdict (printed triple fails "
                     "on the standard biharmonic small sphere)",
        "rows": rows,
        "conditional_note": _CONDITIONAL_NOTE,
    }


def check_nonexistence_gssf(imm, points, flag_tol=1e-6, calcs=None):
    """Sign test of p f1 - f2 + 3 f3 - (Delta f)/f over the samples.

    Non-positive everywhere rules out f-biharmonicity for CMC hypersurfaces
    with tangent Reeb field; on concrete space forms the equivalent
    phi-sectional-curvature threshold is cross-checked.
    """
    ctxs = _contexts(imm, points, calcs)
    ok, devs = _hyp_status(imm, points, ("hypersurface", "cmc", "xi_tangent"),
                           flag_tol, calcs, ctxs=ctxs)
    p_dim = float(imm.param_dim)
    n_half = p_dim / 2.0
    vals = []
    thresholds = []
    for c in ctxs:
        f1, f2, f3 = c.coeffs
        ratio = c.tt.delta_f_pos / c.f
        vals.append(p_dim * f1 - f2 + 3.0 * f3 - ratio)
        kind = getattr(imm.ambient, "space_form", None)
        if kind is not None:
            # closed-form threshold on ctilde, equivalent to the sign test
            shift = {"sasaki": -(6 * n_half - 2) / 4.0,
                     "kenmotsu": +(6 * n_half - 2) / 4.0,
                     "cosymplectic": 0.0}[kind]
            bound = 4.0 / (2 * n_half + 2.0) * (ratio - shift)
            thresholds.append((imm.ambient.ctilde, bound))
    mx = max(vals)
    boundary = abs(mx) <= 1e-12
    if not ok:
        verdict = "hypotheses-unverifiable"
    elif mx <= 0.0:
        verdict = "ruled out (boundary case)" if boundary else "ruled out"
    else:
        verdict = "not ruled out"
    out = {
        "name": "nonexistence_gssf",
        "verdict": verdict,
        "hypotheses": devs,
        "max_value": mx,
        "boundary": boundary,
    }
    if thresholds:
        ctilde, bound = thresholds[0]
        out["ctilde"] = ctilde
        out["ctilde_threshold_max"] = max(b for _, b in thresholds)
        consistent = (mx <= 0.0) == (ctilde <= out["ctilde_threshold_max"] + 1e-12)
        out["threshold_form_consistent"] = bool(consistent)
    return out


def _phiH_deviation(ctxs, which):
    """Deviation of phi H from tangency ('tangent') or normality ('normal')."""
    worst = 0.0
    for c in ctxs:
        phi = c.structure_tensor
        h_norm = float(np.sqrt(max(c.tt.h_norm2, 0.0)))
        if h_norm == 0.0:
            continue
        img = phi @ c.H
        part = c.nor(img) if which == "tangent" else c.tan(img)
        worst = max(worst, float(np.sqrt(max(part @ c.pc.G_val @ part, 0.0))) / h_norm)
    return worst


def _f_function(c, q, with_f3):
    f1, f2, f3 = c.coeffs
    base = q * f1 - f2 + (3.0 * f3 if with_f3 else 0.0)
    return base - c.tt.delta_f_pos / c.f


def _space_form_function_table(imm, q, which):
    """Closed-form value of F (or G) on a declared contact space form."""
    kind = getattr(imm.ambient, "space_form", None)
    if kind is None:
        return None
    c = imm.ambient.ctilde
    f1, f2, f3 = space_form_coefficients(kind, c)
    if which == "F":
        return q * f1 - f2 + 3.0 * f3
    return q * f1 - f2


def check_F_bound(imm, points, flag_tol=1e-6, calcs=None):
    """CMC, xi tangent, phi H tangent: 0 < |H|^2 <= inf F / q."""
    ctxs = _contexts(imm, points, calcs)
    ok, devs = _hyp_status(imm, points, ("cmc", "xi_tangent"), flag_tol, calcs,
                           ctxs=ctxs)
    phiH_dev = _phiH_deviation(ctxs, "tangent")
    devs["phiH_tangent"] = phiH_dev
    ok = ok and phiH_dev <= flag_tol
    q = float(imm.param_dim)
    vals = [_f_function(c, q, with_f3=True) for c in ctxs]
    inf_est = min(vals)
    h2 = max(c.tt.h_norm2 for c in ctxs)
    table = _space_form_function_table(imm, q, "F")
    table_res = None
    if table is not None:
        coeff_vals = [v + c.tt.delta_f_pos / c.f for v, c in zip(vals, ctxs)]
        table_res = max(abs(cv - table) for cv in coeff_vals)
    if not ok:
        verdict = "hypotheses-unverifiable"
    elif inf_est <= 0.0:
        verdict = "not-f-biharmonic (non-positive infimum estimate)"
    elif h2 <= inf_est / q + 1e-12:
        verdict = "consistent (bound satisfied)"
    else:
        verdict = "bound violated: not proper f-biharmonic"
    return {
        "name": "F_bound",
        "verdict": verdict,
        "hypotheses": devs,
        "inf_estimate": inf_est,
        "bound": inf_est / q,
        "h_norm2_max": h2,
        "table_residual": table_res,
        "note": "infimum over the sample grid; an estimate, not a proof",
    }


def check_G_bound(imm, points, flag_tol=1e-6, calcs=None):
    """CMC, xi tangent, phi H normal: 0 < |H|^2 <= inf G / q."""
    ctxs = _contexts(imm, points, calcs)
    ok, devs = _hyp_status(imm, points, ("cmc", "xi_tangent"), flag_tol, calcs,
                           ctxs=ctxs)
    phiH_dev = _phiH_deviation(ctxs, "normal")
    devs["phiH_normal"] = phiH_dev
    ok = ok and phiH_dev <= flag_tol
    q = float(imm.param_dim)
    vals = [_f_function(c, q, with_f3=False) for c in ctxs]
    inf_est = min(vals)
    h2 = max(c.tt.h_norm2 for c in ctxs)
    table = _space_form_function_table(imm, q, "G")
    table_res = None
    if table is not None:
        coeff_vals = [v + c.tt.delta_f_pos / c.f for v, c in zip(vals, ctxs)]
        table_res = max(abs(cv - table) for cv in coeff_vals)
    if not ok:
        verdict = "hypotheses-unverifiable"
    elif inf_est <= 0.0:
        verdict = "not-f-biharmonic (non-positive infimum estimate)"
    elif h2 <= inf_est / q + 1e-12:
        verdict = "consistent (bound satisfied)"
    else:
        verdict = "bound violated: not proper f-biharmonic"
    return {
        "name": "G_bound",
        "verdict": verdict,
        "hypotheses": devs,
        "inf_estimate": inf_est,
        "bound": inf_est / q,
        "h_norm2_max": h2,
        "table_residual": table_res,
        "note": "infimum over the sample grid; an estimate, not a proof",
    }


def proposition_checkers(imm, points, tol=1e-6, flag_tol=1e-6, calcs=None):
    """Every checker applicable to the ambient structure, plus the Gauss
    scalar-curvature audit.  All of them share one evaluation per point."""
    if calcs is None:
        calcs = [PointCalculus(imm, p) for p in points]
    out = [gauss_equation_audit(imm, points, calcs=calcs)]
    if imm.ambient.structure == "hermitian":
        out.append(check_cmc_hypersurface_gcsf(imm, points, tol, flag_tol, calcs))
        if imm.param_dim == 2:
            out.append(check_lagrangian_bound(imm, points, flag_tol, calcs))
            out.append(check_complex_bound(imm, points, flag_tol, calcs))
    else:
        out.append(check_cmc_hypersurface_gssf(imm, points, tol, flag_tol, calcs))
        out.append(check_nonexistence_gssf(imm, points, flag_tol, calcs))
        out.append(check_F_bound(imm, points, flag_tol, calcs))
        out.append(check_G_bound(imm, points, flag_tol, calcs))
    return out
