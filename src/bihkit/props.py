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

from .calculus import FLAG_TOL, FlagError, flag_deviation, matvec, point_rows
from .spaces import curvature_model, space_form_coefficients

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


def _hyp_status(imm, blocks, required, tol):
    """Verify required flags numerically; returns (ok, {flag: deviation}).

    A flag the ambient structure does not support (FlagError) is reported
    as an error and fails the hypotheses.  'cmc' additionally requires a
    non-zero mean curvature (every checker here assumes |H| is a non-zero
    constant).
    """
    devs = {}
    ok = True
    for name in required:
        try:
            dev = flag_deviation(imm, blocks, name)
        except FlagError as exc:  # structural mismatch (wrong ambient kind)
            return False, {name: f"error: {exc}"}
        devs[name] = dev
        if not dev <= tol:
            ok = False
    if "cmc" in required:
        h2 = float(np.max([ev.trace_terms.h_norm2.max() for ev in blocks]))
        devs["nonzero_H"] = h2
        if not h2 > tol:
            ok = False
    return ok, devs


def check_cmc_hypersurface_gcsf(imm, blocks, tol, flag_tol):
    """CMC hypersurface of a Hermitian space form: |B|^2 identity and the
    two scalar-curvature forms (Gauss audit included)."""
    ok, devs = _hyp_status(imm, blocks, ("hypersurface", "cmc"), flag_tol)
    p_dim = float(imm.param_dim)
    rows = []
    for ev in blocks:
        t = ev.trace_terms
        alpha, beta = t.coeffs
        # p alpha + 3 beta: equals the printed 3(alpha+beta) at p = 3
        coeff = p_dim * alpha + 3.0 * beta
        ratio = t.delta_f_pos / t.f
        b2_rhs = coeff - ratio
        rows += point_rows(ev, {
            "b_norm2": t.b_norm2,
            "b2_rhs": b2_rhs,
            "identity_residual": np.abs(t.b_norm2 - b2_rhs),
            "scal_intrinsic": t.scal,
            "scal_formula": coeff + ratio + p_dim**2 * t.h_norm2,
            "a_h_grad_f_norm": ev.norm(t.a_h_grad_f),
            "h_norm2": t.h_norm2,
        })
    return _cmc_identity_report("cmc_hypersurface_gcsf", ok, devs, rows, tol)


def _cmc_identity_report(name, ok, devs, rows, tol, extra=()):
    """The verdict of a CMC hypersurface identity from its per-point rows:
    |B|^2 against its right-hand side, and A_H grad f = 0; `extra` items go
    after the residuals."""
    identity_res = float(np.max([r["identity_residual"] for r in rows]))
    shape_res = float(np.max([r["a_h_grad_f_norm"] for r in rows]))
    verdict = "consistent" if identity_res <= tol and shape_res <= tol else "violated"
    return {
        "name": name,
        "verdict": verdict if ok else "hypotheses-unverifiable",
        "hypotheses": devs,
        "identity_residual": identity_res,
        "shape_grad_f_residual": shape_res,
        **dict(extra),
        "rows": rows,
        "conditional_note": _CONDITIONAL_NOTE,
    }


def gauss_equation_audit(imm, blocks):
    """Scal_M vs ambient-trace Gauss assembly (model curvature backend)."""
    rows = []
    for ev in blocks:
        t, E, m = ev.trace_terms, ev.frames[0], ev.m
        R = curvature_model(imm.ambient.structure, ev.values(ev.G_field), ev.structure,
                            tuple(t.coeffs))
        # sum_{ij} <R(e_i, e_j) e_j, e_i> over an orthonormal tangent frame
        total = sum(ev.inner(R(E[:, i], E[:, j], E[:, j]), E[:, i])
                    for i in range(m) for j in range(m))
        gauss = total - t.b_norm2 + m**2 * t.h_norm2
        rows += point_rows(ev, {"scal_intrinsic": t.scal, "scal_gauss": gauss,
                                "delta": np.abs(t.scal - gauss)})
    return {"name": "gauss_scal", "rows": rows,
            "max_delta": float(np.max([r["delta"] for r in rows]))}


def _bound_template(name, imm, blocks, required, coeff_fn, flag_tol,
                    q=None, phiH=None, table=None):
    """Infimum-bound checker: 0 < |H|^2 <= inf coeff_fn (divided by q when
    given).  `phiH` adds the tangency ('tangent') or normality ('normal') of
    phi H as a hypothesis; with q, the report carries the bound and the
    residual against the closed-form `table` value of the coefficients."""
    ok, devs = _hyp_status(imm, blocks, required, flag_tol)
    if phiH is not None:
        dev = _phiH_deviation(blocks, phiH)
        devs[f"phiH_{phiH}"] = dev
        ok = ok and dev <= flag_tol
    tts = [ev.trace_terms for ev in blocks]
    vals = np.concatenate([coeff_fn(t) for t in tts])
    inf_est = float(vals.min())
    h2_max = float(np.max([t.h_norm2.max() for t in tts]))
    bound = inf_est if q is None else inf_est / q
    if not ok:
        verdict = "hypotheses-unverifiable"
    elif inf_est <= 0.0:
        verdict = "not-f-biharmonic (non-positive infimum estimate)"
    elif h2_max <= bound + 1e-12:
        verdict = "consistent (bound satisfied)"
    else:
        verdict = "bound violated: not proper f-biharmonic"
    out = {
        "name": name,
        "verdict": verdict,
        "hypotheses": devs,
        "inf_estimate": inf_est,
    }
    if q is not None:
        out["bound"] = bound
    out["h_norm2_max"] = h2_max
    if q is not None:
        ratios = np.concatenate([t.delta_f_pos / t.f for t in tts])
        out["table_residual"] = None if table is None else float(
            np.max(np.abs(vals + ratios - table)))
    out["note"] = "infimum over the sample grid; an estimate, not a proof"
    return out


def check_lagrangian_bound(imm, blocks, flag_tol):
    """CMC Lagrangian surface bound 0 < |H|^2 <= inf (2a+3b-(Df)/f)/2."""
    return _bound_template(
        "lagrangian_bound", imm, blocks, ("lagrangian", "cmc"),
        lambda t: 0.5 * (2.0 * t.coeffs[0] + 3.0 * t.coeffs[1]
                         - t.delta_f_pos / t.f),
        flag_tol,
    )


def check_complex_bound(imm, blocks, flag_tol):
    """CMC complex surface bound with 2 alpha - (Delta f)/f."""
    return _bound_template(
        "complex_bound", imm, blocks, ("complex", "cmc"),
        lambda t: 0.5 * (2.0 * t.coeffs[0] - t.delta_f_pos / t.f),
        flag_tol,
    )


def check_cmc_hypersurface_gssf(imm, blocks, tol, flag_tol):
    """CMC hypersurface with tangent Reeb field in a contact space form.

    |B|^2 = p f1 - f2 + 3 f3 - (Delta f)/f (p = 2n) plus the two scalar
    curvature forms (printed and corrected) against intrinsic Scal.
    """
    ok, devs = _hyp_status(imm, blocks, ("hypersurface", "cmc", "xi_tangent"), flag_tol)
    p_dim = float(imm.param_dim)      # p = 2n
    n_half = p_dim / 2.0
    rows = []
    for ev in blocks:
        t = ev.trace_terms
        f1, f2, f3 = t.coeffs
        ratio = t.delta_f_pos / t.f
        b2_rhs = p_dim * f1 - f2 + 3.0 * f3 - ratio
        h2 = t.h_norm2
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
        rows += point_rows(ev, {
            "b_norm2": t.b_norm2,
            "b2_rhs": b2_rhs,
            "identity_residual": np.abs(t.b_norm2 - b2_rhs),
            "scal_intrinsic": t.scal,
            "scal_printed": scal_printed,
            "scal_corrected": scal_corrected,
            "a_h_grad_f_norm": ev.norm(t.a_h_grad_f),
        })
    return _cmc_identity_report("cmc_hypersurface_gssf", ok, devs, rows, tol, {
        "scal_corrected_residual": float(np.max(
            [abs(r["scal_intrinsic"] - r["scal_corrected"]) for r in rows])),
        "scal_printed_residual": float(np.max(
            [abs(r["scal_intrinsic"] - r["scal_printed"]) for r in rows])),
        "scal_note": "weighted term read as a scalar; corrected coefficient "
                     "triple used for the pass verdict (printed triple fails "
                     "on the standard biharmonic small sphere)",
    })


def check_nonexistence_gssf(imm, blocks, flag_tol):
    """Sign test of p f1 - f2 + 3 f3 - (Delta f)/f over the samples.

    Non-positive everywhere rules out f-biharmonicity for CMC hypersurfaces
    with tangent Reeb field; on concrete space forms the equivalent
    phi-sectional-curvature threshold is cross-checked.
    """
    ok, devs = _hyp_status(imm, blocks, ("hypersurface", "cmc", "xi_tangent"), flag_tol)
    p_dim = float(imm.param_dim)
    n_half = p_dim / 2.0
    ratio = np.concatenate([ev.trace_terms.delta_f_pos / ev.trace_terms.f for ev in blocks])
    f1, f2, f3 = np.concatenate([ev.trace_terms.coeffs for ev in blocks], axis=1)
    mx = float(np.max(p_dim * f1 - f2 + 3.0 * f3 - ratio))
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
    kind = getattr(imm.ambient, "space_form", None)
    if kind is not None:
        # closed-form threshold on ctilde, equivalent to the sign test
        shift = {"sasaki": -(6 * n_half - 2) / 4.0,
                 "kenmotsu": +(6 * n_half - 2) / 4.0,
                 "cosymplectic": 0.0}[kind]
        ctilde = imm.ambient.ctilde
        out["ctilde"] = ctilde
        out["ctilde_threshold_max"] = float(np.max(4.0 / (2 * n_half + 2.0) * (ratio - shift)))
        consistent = (mx <= 0.0) == (ctilde <= out["ctilde_threshold_max"] + 1e-12)
        out["threshold_form_consistent"] = bool(consistent)
    return out


def _phiH_deviation(blocks, which):
    """Deviation of phi H from tangency ('tangent') or normality ('normal')."""
    worst = 0.0
    for ev in blocks:
        t = ev.trace_terms
        h_norm = np.sqrt(np.maximum(t.h_norm2, 0.0))
        P_tan, P_nor = ev.projectors
        part = matvec(P_nor if which == "tangent" else P_tan, matvec(ev.structure_tensor, t.H))
        nonzero = h_norm != 0.0
        worst = float(np.max(ev.norm(part)[nonzero] / h_norm[nonzero], initial=worst))
    return worst


def _f_function(t, q, with_f3):
    f1, f2, f3 = t.coeffs
    base = q * f1 - f2 + (3.0 * f3 if with_f3 else 0.0)
    return base - t.delta_f_pos / t.f


def _space_form_function_table(imm, q, which):
    """Closed-form value of F (or G) on a declared contact space form."""
    kind = getattr(imm.ambient, "space_form", None)
    if kind is None:
        return None
    f1, f2, f3 = space_form_coefficients(kind, imm.ambient.ctilde)
    return q * f1 - f2 + (3.0 * f3 if which == "F" else 0.0)


def check_F_bound(imm, blocks, flag_tol):
    """CMC, xi tangent, phi H tangent: 0 < |H|^2 <= inf F / q."""
    q = float(imm.param_dim)
    return _bound_template(
        "F_bound", imm, blocks, ("cmc", "xi_tangent"),
        lambda t: _f_function(t, q, with_f3=True), flag_tol,
        q=q, phiH="tangent", table=_space_form_function_table(imm, q, "F"),
    )


def check_G_bound(imm, blocks, flag_tol):
    """CMC, xi tangent, phi H normal: 0 < |H|^2 <= inf G / q."""
    q = float(imm.param_dim)
    return _bound_template(
        "G_bound", imm, blocks, ("cmc", "xi_tangent"),
        lambda t: _f_function(t, q, with_f3=False), flag_tol,
        q=q, phiH="normal", table=_space_form_function_table(imm, q, "G"),
    )


def proposition_checkers(imm, blocks, tol=1e-6, flag_tol=FLAG_TOL):
    """Every checker applicable to the ambient structure, plus the Gauss
    scalar-curvature audit.  All of them share `blocks`, the evaluation
    blocks of the sample points."""
    out = [gauss_equation_audit(imm, blocks)]
    if imm.ambient.structure == "hermitian":
        out.append(check_cmc_hypersurface_gcsf(imm, blocks, tol, flag_tol))
        if imm.param_dim == 2:
            out.append(check_lagrangian_bound(imm, blocks, flag_tol))
            out.append(check_complex_bound(imm, blocks, flag_tol))
    else:
        out.append(check_cmc_hypersurface_gssf(imm, blocks, tol, flag_tol))
        out.append(check_nonexistence_gssf(imm, blocks, flag_tol))
        out.append(check_F_bound(imm, blocks, flag_tol))
        out.append(check_G_bound(imm, blocks, flag_tol))
    return out
