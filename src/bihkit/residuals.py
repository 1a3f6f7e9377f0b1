"""Characterization-equation residuals in direct and theorem modes.

Direct mode evaluates the defining Euler-Lagrange fields from ambient jets
alone (no submanifold decomposition): the bitension field

    tau2 = tr(nabla^2) tau - tr R(dpsi, tau) dpsi,

its weighted variant  f*tau2 + (tr Hess f) tau + 2 nabla_{grad f} tau,  and
the two-stage field  f*J(tau_f) - nabla_{grad f} tau_f  with
tau_f = f*tau + dpsi(grad f) and J(X) = -tr(nabla^2)X + tr R(dpsi, X) dpsi.
These are the oracles: they are anchored to the energy functionals by the
variational module.

Theorem mode sums the published characterization equations, as printed,
from their term matrix (`term_matrix`).  Where the printed coefficient
disagrees with the oracle the term carries a catalogued correction
(`Term.erratum`); `errata=True` applies the corrected coefficients, and the
report itemizes the per-term difference either way.  Nothing is silently fixed.

Every function takes an evaluation block (`calculus.Evaluation`), reads the
immersion, the points and the block's trace terms from it, and returns
arrays with a leading points axis.

Naming of equations:
  fbh_gcsf / fbh_gssf   weighted-bienergy (f-biharmonic) conditions in
                        generalized complex / Sasakian space forms,
  bif_general           bi-f-harmonic condition in arbitrary ambient,
  bif_gcsf / bif_gssf   its space-form specializations.

The f-biharmonic theorem equations equal -1/(dim*f) times the projected
direct field; the bi-f equations equal the projected direct field itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .calculus import matvec

__all__ = [
    "Term",
    "Erratum",
    "COROLLARIES",
    "ResidualReport",
    "tension",
    "bitension_direct",
    "f_bitension_direct",
    "bi_f_tension_direct",
    "direct_field",
    "term_matrix",
    "theorem_residual",
    "equation_for",
    "compare_modes",
]


# -- direct mode ---------------------------------------------------------------


def tension(ev):
    """tau = m * H as an ambient vector at each point."""
    return float(ev.m) * ev.values(ev.H_field)


def _along_grad_f(ev, first):
    """nabla-bar_{grad f} F at each point from the `pullback_derivative` of F."""
    grad_f = ev.values(ev.grad_f_param_field)
    return (grad_f[:, None] @ ev.values(first))[:, 0]


def bitension_direct(ev):
    """Bitension field, section-Laplacian convention tr(nabla^2)
    (`Evaluation.bitension`)."""
    return ev.bitension[0]


def f_bitension_direct(ev):
    """f*tau2 + (tr Hess f) tau + 2 nabla_{grad f} tau (ambient vectors),
    from the block's bitension and derivative of tau."""
    tau2, first = ev.bitension
    f = ev.values(ev.f_jet)[:, None]
    delta_f_neg = -ev.values(ev.delta_f_pos_field)[:, None]
    return f * tau2 + delta_f_neg * tension(ev) + 2.0 * _along_grad_f(ev, first)


def _tau_weighted_field(ev):
    """tau_f = f * tau + dpsi(grad f) as an order-2 jet field."""
    f2 = ev.f_jet.truncate(ev.order - 2)
    return f2 * ev.H_field * float(ev.m) + ev.grad_f_ambient_field


def bi_f_tension_direct(ev):
    """f*J(tau_f) - nabla_{grad f} tau_f with the direct Jacobi operator."""
    tau_w = _tau_weighted_field(ev)
    first = ev.pullback_derivative(tau_w)
    jacobi = -ev.rough_laplacian(tau_w, first) + ev.curvature_trace(ev.values(tau_w))
    return ev.values(ev.f_jet)[:, None] * jacobi - _along_grad_f(ev, first)


def direct_field(kind, ev):
    """The direct-mode field a theorem kind is compared against."""
    fn = f_bitension_direct if kind == "fbh" else bi_f_tension_direct
    return fn(ev)


# -- term tables ------------------------------------------------------------------


@dataclass(frozen=True)
class Erratum:
    """A catalogued correction of a printed coefficient: `corrected` is the
    coefficient (t -> float or P-array) that errata mode uses instead; the
    forms and the evidence say what was printed, what holds and why."""

    corrected: object
    printed_form: str
    corrected_form: str
    evidence: str


@dataclass(frozen=True)
class Term:
    """One term of an equation; every callable takes an evaluation block t
    and reads its trace terms (`t.tb_ah`): a coefficient is a float or a
    P-array, a value (P, chart_dim).
    A term has a corrected coefficient exactly when it carries an
    `erratum`."""

    name: str
    part: str                     # "normal" | "tangent"
    printed: object               # t -> coefficient as printed
    value: object                 # t -> ambient vector
    erratum: Erratum = None


# Terms shared by both f-biharmonic equations, and their errata.
_FBH_NORMAL = (
    Term(
        "delta_perp_H", "normal",
        printed=lambda t: -1.0,
        value=lambda t: t.delta_perp_h_pos,
        erratum=Erratum(
            lambda t: +1.0,
            "-Delta-perp H (positive convention)", "+Delta-perp H",
            "the Bochner step used downstream and the direct oracle both need the "
            "connection-Laplacian term with positive sign; the printed minus reads "
            "the symbol in the opposite convention"),
    ),
    Term("tb_ah", "normal", lambda t: 1.0, lambda t: t.tb_ah),
    Term(
        "weight_laplacian", "normal",
        lambda t: t.delta_f_pos / t.f,
        lambda t: t.H,
    ),
    Term(
        "weight_connection", "normal",
        printed=lambda t: 2.0,
        value=lambda t: t.nabla_perp_gradf_h / t.f[:, None],
        erratum=Erratum(
            lambda t: -2.0,
            "+2 nabla-perp_{grad ln f} H", "-2 nabla-perp_{grad ln f} H",
            "first-variation anchor of the weighted bienergy fixes the sign of the "
            "gradient-connection term; direct oracle per-term delta is 4x this term "
            "when evaluated as printed"),
    ),
)

_FBH_TANGENT = (
    Term("grad_h2", "tangent", lambda t: 0.5 * t.n, lambda t: t.grad_h_norm2),
    Term(
        "shape_grad_ln_f", "tangent",
        printed=lambda t: -2.0,
        value=lambda t: t.a_h_grad_f / t.f[:, None],
        erratum=Erratum(
            lambda t: +2.0,
            "-2 A_H grad(ln f)", "+2 A_H grad(ln f)",
            "same source as the weight_connection sign (both descend from the "
            "2 nabla_{grad f} tau term of the weighted bitension field)"),
    ),
    Term("ta_nabla_perp_h", "tangent", lambda t: 2.0, lambda t: t.ta_nabla_perp_h),
)

# The left-hand side shared by the three bi-f-harmonic equations, and its
# errata.
_BIF_LHS = (
    Term("delta_perp_H", "normal", lambda t: t.n * t.f**2, lambda t: t.delta_perp_h_pos),
    Term("tb_ah", "normal", lambda t: t.n * t.f**2, lambda t: t.tb_ah),
    Term(
        "weight_laplacian", "normal",
        printed=lambda t: -t.n * t.f,
        value=lambda t: t.delta_f_pos[:, None] * t.H,
        erratum=Erratum(
            lambda t: +t.n * t.f,
            "-n f (Delta f) H (positive convention)", "+n f (Delta f) H",
            "the function Laplacian enters through tr Hess f = -Delta_pos f; "
            "oracle comparison flips the printed sign under the positive reading"),
    ),
    Term(
        "weight_connection", "normal",
        printed=lambda t: -3.0 * t.n,
        value=lambda t: t.nabla_perp_gradf_h,
        erratum=Erratum(
            lambda t: -3.0 * t.n * t.f,
            "-3n nabla-perp_{grad f} H", "-3n f nabla-perp_{grad f} H",
            "dimensional bookkeeping: the three contributing connection terms each "
            "carry one factor of the weight; confirmed by the direct oracle"),
    ),
    Term("tb_hess_f", "normal", lambda t: -t.f, lambda t: t.tb_hess_f),
    Term("tnb_grad_f", "normal", lambda t: -t.f, lambda t: t.tnb_grad_f),
    Term("grad_f_norm2_H", "normal", lambda t: -t.n * t.grad_f_norm2, lambda t: t.H),
    Term("b_gradf_gradf", "normal", lambda t: -1.0, lambda t: t.b_gradf_gradf),
    Term("grad_h2", "tangent", lambda t: 0.5 * t.n**2 * t.f**2, lambda t: t.grad_h_norm2),
    Term(
        "ta_nabla_perp_h", "tangent",
        printed=lambda t: 2.0 * t.n**2 * t.f**2,
        value=lambda t: t.ta_nabla_perp_h,
        erratum=Erratum(
            lambda t: 2.0 * t.n * t.f**2,
            "2 n^2 f^2 tr A_{nabla-perp H}", "2 n f^2 tr A_{nabla-perp H}",
            "single n: the term descends from n f * (sum of second derivatives of "
            "H), not from the squared dimension; direct oracle"),
    ),
    Term("shape_grad_f", "tangent", lambda t: 3.0 * t.n * t.f, lambda t: t.a_h_grad_f),
    Term(
        "ricci_grad_f", "tangent",
        printed=lambda t: +t.f,
        value=lambda t: t.ric_grad_f,
        erratum=Erratum(
            lambda t: -t.f,
            "+f Ric(grad f)", "-f Ric(grad f)",
            "the rough Laplacian of grad f contributes +Ric(grad f) and enters "
            "negated through the Jacobi operator; verified on curved submanifolds "
            "against the oracle"),
    ),
    Term("grad_delta_f", "tangent", lambda t: t.f, lambda t: t.grad_delta_f_pos),
    Term("ta_b_grad_f", "tangent", lambda t: t.f, lambda t: t.ta_b_grad_f),
    Term("grad_gradf_norm2", "tangent", lambda t: -0.5, lambda t: t.grad_grad_f_norm2),
)

EQUATIONS = {
    "fbh_gcsf": _FBH_NORMAL + (
        Term("curv_alpha", "normal", lambda t: -t.n * t.coeffs[0], lambda t: t.H),
        Term("curv_beta_klH", "normal", lambda t: 3.0 * t.coeffs[1], lambda t: t.kl_H),
    ) + _FBH_TANGENT + (
        Term("curv_beta_jlH", "tangent", lambda t: 6.0 * t.coeffs[1], lambda t: t.jl_H),
    ),
    "fbh_gssf": _FBH_NORMAL + (
        Term("curv_f1", "normal", lambda t: -t.n * t.coeffs[0], lambda t: t.H),
        Term(
            "curv_f2_xi2", "normal",
            lambda t: t.coeffs[1] * t.xi_tan_norm2,
            lambda t: t.H,
        ),
        Term(
            "curv_f2_eta_nor", "normal",
            lambda t: t.n * t.coeffs[1] * t.eta_h,
            lambda t: t.xi_nor,
        ),
        Term("curv_f3_NsH", "normal", lambda t: 3.0 * t.coeffs[2], lambda t: t.kl_H),
    ) + _FBH_TANGENT + (
        Term(
            "curv_f2_eta_tan", "tangent",
            lambda t: 2.0 * t.coeffs[1] * (t.n - 1.0) * t.eta_h,
            lambda t: t.xi_tan,
        ),
        Term("curv_f3_PsH", "tangent", lambda t: 6.0 * t.coeffs[2], lambda t: t.jl_H),
    ),
    # the split curvature traces tr R(., H). and tr R(., grad f). of the block
    "bif_general": _BIF_LHS + (
        Term("curv_trace_H_nor", "normal", lambda t: t.n * t.f**2, lambda t: t.trRH_nor),
        Term("curv_trace_gf_nor", "normal", lambda t: t.f, lambda t: t.trRgf_nor),
        Term("curv_trace_H_tan", "tangent", lambda t: 2.0 * t.n * t.f**2, lambda t: t.trRH_tan),
        Term("curv_trace_gf_tan", "tangent", lambda t: t.f, lambda t: t.trRgf_tan),
    ),
    "bif_gcsf": _BIF_LHS + (
        # LHS-minus-RHS form of the printed right-hand sides
        Term("curv_alpha_H", "normal", lambda t: -t.n**2 * t.f**2 * t.coeffs[0], lambda t: t.H),
        Term("curv_beta_klH", "normal", lambda t: 3.0 * t.n * t.f**2 * t.coeffs[1], lambda t: t.kl_H),
        Term("curv_beta_kj_gf", "normal", lambda t: 3.0 * t.f * t.coeffs[1], lambda t: t.kj_grad_f),
        Term("curv_beta_jlH", "tangent", lambda t: 6.0 * t.n * t.f**2 * t.coeffs[1], lambda t: t.jl_H),
        Term(
            "curv_alpha_grad_f", "tangent",
            printed=lambda t: -2.0 * t.f * (t.n - 1.0) * t.coeffs[0],
            value=lambda t: t.grad_f,
            erratum=Erratum(
                lambda t: -t.f * (t.n - 1.0) * t.coeffs[0],
                "2f(n-1) alpha grad f", "f(n-1) alpha grad f",
                "the grad-f curvature trace enters once (unlike the H-trace, which "
                "enters twice); direct oracle"),
        ),
        Term(
            "curv_beta_j2_gf", "tangent",
            printed=lambda t: 6.0 * t.f * t.coeffs[1],
            value=lambda t: t.j2_grad_f,
            erratum=Erratum(
                lambda t: 3.0 * t.f * t.coeffs[1],
                "-6f beta j^2 grad f", "-3f beta j^2 grad f",
                "same single-entry bookkeeping as the alpha grad-f term"),
        ),
    ),
    "bif_gssf": _BIF_LHS + (
        Term("curv_f1_H", "normal", lambda t: -t.n**2 * t.f**2 * t.coeffs[0], lambda t: t.H),
        Term(
            "curv_f2_xi2_H", "normal",
            lambda t: t.n * t.f**2 * t.coeffs[1] * t.xi_tan_norm2,
            lambda t: t.H,
        ),
        Term(
            "curv_f2_eta_nor", "normal",
            lambda t: t.n**2 * t.f**2 * t.coeffs[1] * t.eta_h,
            lambda t: t.xi_nor,
        ),
        Term("curv_f3_NsH", "normal", lambda t: 3.0 * t.n * t.f**2 * t.coeffs[2], lambda t: t.kl_H),
        Term(
            "curv_f2_eta_gf_nor", "normal",
            lambda t: (t.n - 1.0) * t.f * t.coeffs[1] * t.eta_grad_f,
            lambda t: t.xi_nor,
        ),
        Term(
            "curv_f3_NP_gf", "normal",
            printed=lambda t: 3.0 * t.f,
            value=lambda t: t.kj_grad_f,
            erratum=Erratum(
                lambda t: 3.0 * t.f * t.coeffs[2],
                "-3f NP grad f", "-3f f3 NP grad f",
                "coefficient field dropped in print; restored by the trace identity"),
        ),
        Term(
            "curv_f2_eta_H_tan", "tangent",
            printed=lambda t: 2.0 * t.n * (t.n - 1.0) * t.f * t.coeffs[1] * t.eta_h,
            value=lambda t: t.xi_tan,
            erratum=Erratum(
                lambda t: 2.0 * t.n * (t.n - 1.0) * t.f**2 * t.coeffs[1] * t.eta_h,
                "-2n(n-1) f f2 eta(H) xi-tan", "-2n(n-1) f^2 f2 eta(H) xi-tan",
                "weight power: the H-trace carries f^2; direct oracle"),
        ),
        Term(
            "curv_f3_PsH", "tangent",
            printed=lambda t: 6.0 * t.n * t.f * t.coeffs[2],
            value=lambda t: t.jl_H,
            erratum=Erratum(
                lambda t: 6.0 * t.n * t.f**2 * t.coeffs[2],
                "-6n f f3 PsH", "-6n f^2 f3 PsH",
                "weight power, as above"),
        ),
        Term(
            "curv_f1_grad_f", "tangent",
            lambda t: -(t.n - 1.0) * t.f * t.coeffs[0],
            lambda t: t.grad_f,
        ),
        Term(
            "curv_f2_xi2_gf", "tangent",
            lambda t: t.f * t.coeffs[1] * t.xi_tan_norm2,
            lambda t: t.grad_f,
        ),
        Term(
            "curv_f2_eta_gf_tan", "tangent",
            lambda t: (t.n - 2.0) * t.f * t.coeffs[1] * t.eta_grad_f,
            lambda t: t.xi_tan,
        ),
        Term(
            "curv_f3_P2_gf", "tangent",
            printed=lambda t: t.f,
            value=lambda t: t.j2_grad_f,
            erratum=Erratum(
                lambda t: 3.0 * t.f * t.coeffs[2],
                "-f f3 P^2 grad f", "-3f f3 P^2 grad f",
                "factor 3 of the phi-trace; same source as the NP grad f term"),
        ),
    ),
}


def equation_for(imm, kind):
    """Pick the theorem equation id for an immersion and residual kind."""
    hermitian = imm.ambient.structure == "hermitian"
    if kind == "fbh":
        return "fbh_gcsf" if hermitian else "fbh_gssf"
    if kind == "bif":
        return "bif_gcsf" if hermitian else "bif_gssf"
    if kind == "bif_general":
        return "bif_general"
    raise ValueError(f"unknown residual kind {kind!r}")


# -- corollary reductions -----------------------------------------------------------


@dataclass(frozen=True)
class Corollary:
    """A reduction of one equation under the hypotheses its flags state.
    `substitutions` replaces the value of a term (None drops the term);
    `coefficients` replaces a coefficient the flags fix, printed and
    corrected alike."""

    name: str
    equation: str
    flags: tuple                    # flags that must be verified 'asserted'
    substitutions: dict             # term name -> replacement value fn | None (dropped)
    coefficients: dict = field(default_factory=dict)  # term name -> coefficient fn


_PARALLEL_DROPS = {
    "delta_perp_H": None,
    "weight_connection": None,
    "grad_h2": None,
    "ta_nabla_perp_h": None,
}


def _neg_H(t):
    return -t.H


def _neg_H_minus_m2H(t):
    return -t.H - t.mm_H


def _ns_hypersurface(t):
    return -t.H + t.eta_h[:, None] * t.xi_nor


def _ps_hypersurface(t):
    return t.eta_h[:, None] * t.xi_tan


COROLLARIES = {cor.name: cor for cor in (
    # f-biharmonic, generalized complex space form
    Corollary("fbh_gcsf_hypersurface", "fbh_gcsf", ("hypersurface",),
              {"curv_beta_klH": _neg_H, "curv_beta_jlH": None}),
    Corollary("fbh_gcsf_complex", "fbh_gcsf", ("complex",),
              {"curv_beta_klH": None, "curv_beta_jlH": None}),
    Corollary("fbh_gcsf_lagrangian", "fbh_gcsf", ("lagrangian",),
              {"curv_beta_klH": _neg_H, "curv_beta_jlH": None}),
    Corollary("fbh_gcsf_curve", "fbh_gcsf", ("curve",),
              {"curv_beta_klH": _neg_H_minus_m2H, "curv_beta_jlH": None}),
    Corollary("fbh_gcsf_lagrangian_parallel", "fbh_gcsf",
              ("lagrangian", "parallel_H"),
              dict(_PARALLEL_DROPS,
                   curv_beta_klH=_neg_H, curv_beta_jlH=None)),
    Corollary("fbh_gcsf_complex_parallel", "fbh_gcsf",
              ("complex", "parallel_H"),
              dict(_PARALLEL_DROPS,
                   curv_beta_klH=None, curv_beta_jlH=None)),
    Corollary("fbh_gcsf_curve_parallel", "fbh_gcsf",
              ("curve", "parallel_H"),
              dict(_PARALLEL_DROPS,
                   curv_beta_klH=_neg_H_minus_m2H, curv_beta_jlH=None)),

    # f-biharmonic, generalized Sasakian space form
    Corollary("fbh_gssf_invariant", "fbh_gssf", ("invariant",),
              {"curv_f3_NsH": None}),
    Corollary("fbh_gssf_anti_invariant", "fbh_gssf", ("anti_invariant",),
              {"curv_f3_PsH": None}),
    Corollary("fbh_gssf_xi_normal", "fbh_gssf", ("xi_normal",),
              {"curv_f2_xi2": None, "curv_f2_eta_tan": None,
               "curv_f3_PsH": None}),
    Corollary("fbh_gssf_xi_tangent", "fbh_gssf", ("xi_tangent",),
              {"curv_f2_eta_nor": None, "curv_f2_eta_tan": None},
              {"curv_f2_xi2": lambda t: t.coeffs[1]}),
    Corollary("fbh_gssf_hypersurface", "fbh_gssf", ("hypersurface",),
              {"curv_f3_NsH": _ns_hypersurface, "curv_f3_PsH": _ps_hypersurface}),

    # bi-f-harmonic, generalized complex space form (parallel/CMC reductions)
    Corollary("bif_gcsf_hypersurface_cmc", "bif_gcsf",
              ("hypersurface", "cmc"),
              dict(_PARALLEL_DROPS,
                   tb_ah=lambda t: t.b_norm2[:, None] * t.H,
                   curv_beta_klH=_neg_H,
                   curv_beta_kj_gf=None,
                   curv_beta_jlH=None)),
    Corollary("bif_gcsf_complex_parallel", "bif_gcsf",
              ("complex", "parallel_H"),
              dict(_PARALLEL_DROPS,
                   curv_beta_klH=None,
                   curv_beta_kj_gf=None,
                   curv_beta_jlH=None)),
    Corollary("bif_gcsf_lagrangian_parallel", "bif_gcsf",
              ("lagrangian", "parallel_H"),
              dict(_PARALLEL_DROPS,
                   curv_beta_klH=_neg_H,
                   curv_beta_kj_gf=None,
                   curv_beta_jlH=None,
                   curv_beta_j2_gf=None)),
    Corollary("bif_gcsf_curve_parallel", "bif_gcsf",
              ("curve", "parallel_H"),
              dict(_PARALLEL_DROPS,
                   curv_beta_kj_gf=None,
                   curv_beta_jlH=None,
                   curv_beta_j2_gf=None)),

    # bi-f-harmonic, generalized Sasakian space form (parallel-H reductions)
    Corollary("bif_gssf_invariant", "bif_gssf",
              ("invariant", "parallel_H"),
              dict(_PARALLEL_DROPS,
                   curv_f3_NsH=None, curv_f3_NP_gf=None)),
    Corollary("bif_gssf_anti_invariant", "bif_gssf",
              ("anti_invariant", "parallel_H"),
              dict(_PARALLEL_DROPS,
                   curv_f3_PsH=None, curv_f3_P2_gf=None,
                   curv_f3_NP_gf=None)),
    Corollary("bif_gssf_xi_normal", "bif_gssf",
              ("xi_normal", "parallel_H"),
              dict(_PARALLEL_DROPS,
                   curv_f2_xi2_H=None,
                   curv_f2_eta_gf_nor=None,
                   curv_f2_xi2_gf=None,
                   curv_f2_eta_H_tan=None,
                   curv_f2_eta_gf_tan=None,
                   curv_f3_PsH=None, curv_f3_P2_gf=None,
                   curv_f3_NP_gf=None)),
    Corollary("bif_gssf_xi_tangent", "bif_gssf",
              ("xi_tangent", "parallel_H"),
              dict(_PARALLEL_DROPS,
                   curv_f2_eta_nor=None,
                   curv_f2_eta_gf_nor=None),
              {"curv_f2_xi2_H": lambda t: t.n * t.f**2 * t.coeffs[1]}),
    Corollary("bif_gssf_hypersurface", "bif_gssf",
              ("hypersurface", "parallel_H"),
              dict(_PARALLEL_DROPS,
                   curv_f3_NsH=_ns_hypersurface,
                   curv_f3_PsH=_ps_hypersurface)),
)}


# -- evaluation --------------------------------------------------------------------


def term_matrix(ev, eq_id, corollary=None):
    """The K rows of equation `eq_id`, or of its reduction `corollary`, at
    the P points of a block, in term order: a namespace of the K `terms`,
    the coefficients `printed[k, p]` and `corrected[k, p]` (equal where a
    term has no erratum; a corollary's `coefficients` replace both) and the
    vectors `fields[k, p, a]` (a corollary's `substitutions` replace a row,
    or zero it for None).  The only evaluation of the term tables; a
    corollary of another equation is a ValueError."""
    # no corollary: the reduction that substitutes nothing
    cor = Corollary(None, eq_id, (), {}) if corollary is None else COROLLARIES[corollary]
    if cor.equation != eq_id:
        raise ValueError(f"corollary {corollary!r} reduces {cor.equation}, not {eq_id}")
    per_point = lambda c: np.broadcast_to(np.asarray(c, dtype=float), (len(ev),))
    rows = []
    for term in EQUATIONS[eq_id]:
        rule, sub = cor.coefficients.get(term.name), cor.substitutions.get(term.name, term.value)
        printed = per_point((rule or term.printed)(ev))
        corrected = (printed if rule or term.erratum is None
                     else per_point(term.erratum.corrected(ev)))
        rows.append((printed, corrected, np.zeros((len(ev), ev.d)) if sub is None else sub(ev)))
    printed, corrected, fields = map(np.array, zip(*rows))
    return SimpleNamespace(terms=EQUATIONS[eq_id], printed=printed, corrected=corrected,
                           fields=fields)


@dataclass
class ResidualReport:
    """Theorem evaluation at the points of a block: every array has a
    leading points axis, after the row axis of the term matrix (`matrix`,
    see `term_matrix`) and of `delta_norm[k, p]`, the norm of the change
    the corrected coefficient of row k makes at point p.  `corrections_at(i)`
    itemizes the rows whose coefficients differ at point i."""

    normal: np.ndarray
    tangent: np.ndarray
    normal_norm: np.ndarray
    tangent_norm: np.ndarray
    matrix: SimpleNamespace
    delta_norm: np.ndarray
    scale: np.ndarray             # 1 + |H| + |grad f| normalizer

    @property
    def total_norm(self):
        return np.hypot(self.normal_norm, self.tangent_norm)

    def corrections_at(self, i):
        m = self.matrix
        return [{"term": term.name, "part": term.part, "printed_coeff": float(p[i]),
                 "corrected_coeff": float(c[i]), "delta_norm": float(delta[i])}
                for term, p, c, delta in zip(m.terms, m.printed, m.corrected, self.delta_norm)
                if abs(c[i] - p[i]) > 0.0]


def theorem_residual(ev, kind="fbh", errata=False, corollary=None):
    """Evaluate a characterization equation (or a corollary reduction) at
    every point of an evaluation block; `kind` is fbh, bif or bif_general,
    the equation `equation_for` picks for the ambient.

    Returns a ResidualReport, whose parts sum in term order each row's
    corrected (errata) or printed coefficient times its field; a block
    below order 4, another kind or a corollary of another equation is a
    ValueError."""
    if ev.order < 4:
        raise ValueError(f"theorem residuals need an order-4 block, not order {ev.order}")
    mat = term_matrix(ev, equation_for(ev.imm, kind), corollary)
    sums = dict.fromkeys(("normal", "tangent"), np.zeros((len(ev), ev.d)))
    for term, coeff, field in zip(mat.terms, mat.corrected if errata else mat.printed, mat.fields):
        sums[term.part] = sums[term.part] + coeff[:, None] * field
    return ResidualReport(
        normal=sums["normal"],
        tangent=sums["tangent"],
        normal_norm=ev.norm(sums["normal"]),
        tangent_norm=ev.norm(sums["tangent"]),
        matrix=mat,
        delta_norm=ev.norm(mat.corrected[..., None] * mat.fields
                           - mat.printed[..., None] * mat.fields),
        scale=1.0 + ev.norm(ev.H) + ev.norm(ev.grad_f),
    )


def compare_modes(ev, kind="fbh", errata=True):
    """Theorem-mode vs direct-mode residuals at the points of a block.

    Returns a dict with the theorem report, the direct field and the
    relative normal and tangent deltas between them at each point.
    """
    rep = theorem_residual(ev, kind=kind, errata=errata)
    direct = direct_field(kind, ev)
    # the f-biharmonic equations are the direct field times -1/(n f)
    s = (-1.0 / (ev.m * ev.values(ev.f_jet)))[:, None] if kind == "fbh" else 1.0
    P_tan, P_nor = ev.projectors
    delta_nor = ev.norm(rep.normal - s * matvec(P_nor, direct)) / rep.scale
    delta_tan = ev.norm(rep.tangent - s * matvec(P_tan, direct)) / rep.scale
    return {
        "report": rep,
        "direct": direct,
        "delta_normal": delta_nor,
        "delta_tangent": delta_tan,
    }
