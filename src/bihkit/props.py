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

from .calculus import _point_deviations, flag_deviation, joined, point_rows
from .spaces import curvature_model

__all__ = [
    "proposition_checkers",
    "check_cmc_hypersurface_gcsf",
    "check_bound",
    "check_cmc_hypersurface_gssf",
    "check_nonexistence_gssf",
]

_CONDITIONAL_NOTE = (
    "with constant scalar curvature and compact M the weighted term is a "
    "Laplace eigenvalue of a positive function, forcing f constant; reported "
    "as a conditional implication, not verified"
)


def _hypotheses(table, flags, required, tol, phiH=None):
    """Verify the hypotheses numerically; returns (ok, {name: deviation}).

    `flags` holds each flag's deviation, measured once per run.  'cmc'
    additionally requires a non-zero mean curvature (every checker here
    assumes |H| is a non-zero constant).  `phiH` adds the tangency
    ('tangent') or normality ('normal') of phi H, relative to |H|."""
    devs = {name: flags[name] for name in required}
    ok = all(dev <= tol for dev in devs.values())
    if "cmc" in required:
        devs["nonzero_H"] = h2 = float(np.max(table.h_norm2))
        ok = ok and h2 > tol
    if phiH is not None:
        nonzero = table.h_norm != 0.0
        part = table.m_h_norm if phiH == "tangent" else table.l_h_norm
        devs[f"phiH_{phiH}"] = worst = float(np.max(part[nonzero] / table.h_norm[nonzero],
                                                    initial=0.0))
        ok = ok and worst <= tol
    return ok, devs


def _space_form_function(q, coeffs, which, ratio=0.0):
    """F = q f1 - f2 + 3 f3 - (Delta f)/f of the contact coefficients, or G
    (`which`), the same without 3 f3; the default `ratio` 0 gives the
    closed form of the coefficients alone."""
    f1, f2, f3 = coeffs
    return q * f1 - f2 + (3.0 * f3 if which == "F" else 0.0) - ratio


def check_cmc_hypersurface_gcsf(imm, table, tol, flag_tol, flags):
    """CMC hypersurface of a Hermitian space form: |B|^2 identity and the
    two scalar-curvature forms (Gauss audit included)."""
    ok, devs = _hypotheses(table, flags, ("hypersurface", "cmc"), flag_tol)
    p_dim = float(imm.param_dim)
    alpha, beta = table.coeffs.T
    # p alpha + 3 beta: equals the printed 3(alpha+beta) at p = 3
    coeff = p_dim * alpha + 3.0 * beta
    return _cmc_identity_report("cmc_hypersurface_gcsf", ok, devs, table, tol,
                                coeff - table.ratio, {
        "scal_formula": coeff + table.ratio + p_dim**2 * table.h_norm2,
        "a_h_grad_f_norm": table.a_h_grad_f_norm,
        "h_norm2": table.h_norm2,
    })


def _cmc_identity_report(name, ok, devs, table, tol, b2_rhs, columns, extra=()):
    """The verdict of a CMC hypersurface identity, |B|^2 = `b2_rhs` and
    A_H grad f = 0, with its rows: |B|^2, `b2_rhs`, their residual, Scal,
    then `columns`; `extra` items go after the residuals."""
    identity = np.abs(table.b_norm2 - b2_rhs)
    columns = {"b_norm2": table.b_norm2, "b2_rhs": b2_rhs, "identity_residual": identity,
               "scal_intrinsic": table.scal, **columns}
    identity_res = float(np.max(identity))
    shape_res = float(np.max(table.a_h_grad_f_norm))
    verdict = "consistent" if identity_res <= tol and shape_res <= tol else "violated"
    return {
        "name": name,
        "verdict": verdict if ok else "hypotheses-unverifiable",
        "hypotheses": devs,
        "identity_residual": identity_res,
        "shape_grad_f_residual": shape_res,
        **dict(extra),
        "rows": point_rows(table.points, columns),
        "conditional_note": _CONDITIONAL_NOTE,
    }


def _columns(ev, flags):
    """The per-point arrays the checkers read of a block: trace terms,
    norms, the Gauss sum of Scal_M (model curvature backend) and the
    deviations of the non-structural `flags`."""
    E, m = ev.frames[0], ev.m
    R = curvature_model(ev.space.structure, ev._G, ev.structure, tuple(ev.coeffs))
    # sum_{ij} <R(e_i, e_j) e_j, e_i> over an orthonormal tangent frame
    total = sum(ev.inner(R(E[:, i], E[:, j], E[:, j]), E[:, i])
                for i in range(m) for j in range(m))
    return {"coeffs": ev.coeffs.T, "ratio": ev.delta_f_pos / ev.f, "h_norm2": ev.h_norm2,
            "b_norm2": ev.b_norm2, "scal": ev.scal,
            "gauss": total - ev.b_norm2 + m**2 * ev.h_norm2,
            "a_h_grad_f_norm": ev.norm(ev.a_h_grad_f), "h_norm": ev.norm(ev.H),
            "m_h_norm": ev.norm(ev.m_H), "l_h_norm": ev.norm(ev.l_H),
            **{name: _point_deviations(ev, name) for name in flags}}


def gauss_equation_audit(table):
    """Scal_M vs ambient-trace Gauss assembly, from the joined `table`."""
    delta = np.abs(table.scal - table.gauss)
    return {"name": "gauss_scal",
            "rows": point_rows(table.points, {"scal_intrinsic": table.scal,
                                              "scal_gauss": table.gauss, "delta": delta}),
            "max_delta": float(np.max(delta))}


def check_bound(name, imm, table, required, flag_tol, flags, values=None, which=None):
    """Infimum-bound checker: 0 < |H|^2 <= inf `values` over the samples.
    A contact bound (`which` "F" or "G", no `values`) is 0 < |H|^2 <=
    inf F / q (or G / q; q = dim M) with phi H tangent (F) or normal (G) as
    a further hypothesis; its report carries the bound and the residual
    against the closed-form value on a declared contact space form."""
    q = float(imm.param_dim)
    if which is not None:
        values = lambda t: _space_form_function(q, t.coeffs.T, which, t.ratio)
    phiH = {"F": "tangent", "G": "normal"}.get(which)
    ok, devs = _hypotheses(table, flags, required, flag_tol, phiH)
    vals = values(table)
    inf_est = float(vals.min())
    h2_max = float(np.max(table.h_norm2))
    bound = inf_est if which is None else inf_est / q
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
    if which is not None:
        out["bound"] = bound
    out["h_norm2_max"] = h2_max
    if which is not None:
        out["table_residual"] = None if imm.ambient.space_form is None else float(np.max(
            np.abs(vals + table.ratio - _space_form_function(q, imm.ambient.coeffs, which))))
    out["note"] = "infimum over the sample grid; an estimate, not a proof"
    return out


def check_cmc_hypersurface_gssf(imm, table, tol, flag_tol, flags):
    """CMC hypersurface with tangent Reeb field in a contact space form.

    |B|^2 = p f1 - f2 + 3 f3 - (Delta f)/f (p = 2n) plus the two scalar
    curvature forms (printed and corrected) against intrinsic Scal.
    """
    ok, devs = _hypotheses(table, flags, ("hypersurface", "cmc", "xi_tangent"), flag_tol)
    p_dim = float(imm.param_dim)      # p = 2n
    n_half = p_dim / 2.0
    f1, f2, f3 = coeffs = table.coeffs.T
    ratio, h2 = table.ratio, table.h_norm2
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
    return _cmc_identity_report("cmc_hypersurface_gssf", ok, devs, table, tol,
                                _space_form_function(p_dim, coeffs, "F", ratio), {
        "scal_printed": scal_printed,
        "scal_corrected": scal_corrected,
        "a_h_grad_f_norm": table.a_h_grad_f_norm,
    }, {
        "scal_corrected_residual": float(np.max(np.abs(table.scal - scal_corrected))),
        "scal_printed_residual": float(np.max(np.abs(table.scal - scal_printed))),
        "scal_note": "weighted term read as a scalar; corrected coefficient "
                     "triple used for the pass verdict (printed triple fails "
                     "on the standard biharmonic small sphere)",
    })


def check_nonexistence_gssf(imm, table, flag_tol, flags):
    """Sign test of p f1 - f2 + 3 f3 - (Delta f)/f over the samples.

    Non-positive everywhere rules out f-biharmonicity for CMC hypersurfaces
    with tangent Reeb field; on concrete space forms the equivalent
    phi-sectional-curvature threshold is cross-checked.
    """
    ok, devs = _hypotheses(table, flags, ("hypersurface", "cmc", "xi_tangent"), flag_tol)
    p_dim = float(imm.param_dim)
    n_half = p_dim / 2.0
    mx = float(np.max(_space_form_function(p_dim, table.coeffs.T, "F", table.ratio)))
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
    kind = imm.ambient.space_form
    if kind is not None:
        # closed-form threshold on ctilde, equivalent to the sign test
        shift = {"sasaki": -(6 * n_half - 2) / 4.0,
                 "kenmotsu": +(6 * n_half - 2) / 4.0,
                 "cosymplectic": 0.0}[kind]
        ctilde = imm.ambient.ctilde
        out["ctilde"] = ctilde
        out["ctilde_threshold_max"] = float(np.max(4.0 / (2 * n_half + 2.0)
                                                   * (table.ratio - shift)))
        consistent = (mx <= 0.0) == (ctilde <= out["ctilde_threshold_max"] + 1e-12)
        out["threshold_form_consistent"] = bool(consistent)
    return out


def proposition_checkers(imm, blocks, tol, flag_tol):
    """Every checker applicable to the ambient structure (tolerance `tol`,
    hypotheses `flag_tol`), plus the Gauss scalar-curvature audit.  All read
    one table joined from `blocks`, the sample points' evaluation blocks
    (`_columns`), and the deviations of the flags they require, each
    measured once on it."""
    hermitian = imm.ambient.structure == "hermitian"
    surface = hermitian and imm.param_dim == 2
    point_flags = ("cmc", "lagrangian", "complex") if surface else ("cmc",) if hermitian else (
        "cmc", "xi_tangent")
    table = joined(blocks, lambda ev: _columns(ev, point_flags))
    flags = {name: flag_deviation(imm, table, name) for name in ("hypersurface", *point_flags)}
    out = [gauss_equation_audit(table)]
    if hermitian:
        out.append(check_cmc_hypersurface_gcsf(imm, table, tol, flag_tol, flags))
        if surface:
            # CMC Lagrangian surface: 0 < |H|^2 <= inf (2 alpha + 3 beta - (Delta f)/f)/2
            out.append(check_bound(
                "lagrangian_bound", imm, table, ("lagrangian", "cmc"), flag_tol, flags,
                lambda t: 0.5 * (2.0 * t.coeffs[:, 0] + 3.0 * t.coeffs[:, 1] - t.ratio)))
            # CMC complex surface: the same with 2 alpha - (Delta f)/f
            out.append(check_bound(
                "complex_bound", imm, table, ("complex", "cmc"), flag_tol, flags,
                lambda t: 0.5 * (2.0 * t.coeffs[:, 0] - t.ratio)))
    else:
        out.append(check_cmc_hypersurface_gssf(imm, table, tol, flag_tol, flags))
        out.append(check_nonexistence_gssf(imm, table, flag_tol, flags))
        # CMC, xi tangent, phi H tangent (F) or normal (G): 0 < |H|^2 <= inf F / q
        for which in ("F", "G"):
            out.append(check_bound(f"{which}_bound", imm, table, ("cmc", "xi_tangent"),
                                   flag_tol, flags, which=which))
    return out
