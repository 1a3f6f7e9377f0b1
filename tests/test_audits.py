import numpy as np
import pytest

from bihkit.audits import (
    audit_lemgene2,
    audit_lemgene3,
    audit_mean_curvature_laplacian,
    curvature_trace_audit,
    identity_suite,
    run_all_audits,
)
from bihkit.calculus import Immersion
from bihkit.residuals import theorem_residual
from bihkit.scenario import _taken
from bihkit.spaces import make_space
from conftest import one_point

C2 = make_space("euclidean_complex", n=2)
S3 = make_space("sasakian_sphere", n=1, ctilde=1.0)
S3D = make_space("sasakian_sphere", n=1, ctilde=3.0)


def torus_r4(weight="1 + 0.2*sin(u)*cos(v)"):
    return Immersion.from_strings(
        ["u", "v"], C2,
        ["0.9*cos(u)", "0.9*sin(u)", "0.55*cos(v) + 0.1*cos(u)", "0.55*sin(v)"],
        weight)


def surface_s3d(weight="1 + 0.2*sin(u)*cos(v)"):
    return Immersion.from_strings(
        ["u", "v"], S3D,
        ["(0.5 + 0.2*cos(v))*cos(u)", "(0.5 + 0.2*cos(v))*sin(u)",
         "0.2*sin(v) + 0.1"], weight)


def deltaH(imm, p):
    return audit_mean_curvature_laplacian(one_point(imm, p))["deltaH"]


def test_deltaH_flat_torus():
    imm = torus_r4()
    for p in ([0.4, 1.1], [2.0, 0.2]):
        out = deltaH(imm, p)
        assert out["delta_translated"] <= 1e-6
        # flat ambient: the printed form is already exact
        assert out["delta_printed"] <= 1e-6
        assert out["curvature_term_norm"] == pytest.approx(0.0, abs=1e-12)


def test_deltaH_curved_needs_translation():
    imm = surface_s3d()
    out = deltaH(imm, [0.7, 0.9])
    assert out["delta_translated"] <= 1e-6
    # the curvature correction is the whole printed-form discrepancy
    assert out["delta_printed"] == pytest.approx(
        out["curvature_term_norm"] / (1.0 + np.sqrt(
            sum(0 for _ in ()) + 0.0) + out["delta_printed"] * 0.0),
        rel=1.0)
    assert out["curvature_term_norm"] > 1e-3


def test_deltaH_independent_of_weight():
    p = [0.4, 1.1]
    a = deltaH(torus_r4("1"), p)
    b = deltaH(torus_r4("1 + 0.4*cos(u)"), p)
    assert a["delta_translated"] == pytest.approx(b["delta_translated"], abs=1e-12)


def test_lemgene1_corrected_sign_wins():
    imm = surface_s3d()
    out = audit_mean_curvature_laplacian(one_point(imm, [0.7, 0.9]))["lemgene1"]
    assert out["delta_corrected"] <= 1e-6
    assert out["delta_printed"] > 1e-3  # curvature term enters with flipped sign


def test_lemgene2_resolution():
    for imm, p in ((torus_r4(), [0.4, 1.1]), (surface_s3d(), [0.7, 0.9])):
        out = audit_lemgene2(one_point(imm, p))
        assert out["delta_corrected"] <= 1e-6
        assert out["curvature_reading"] == "single intrinsic Ricci"
        assert out["intrinsic_delta_single_ricci"] <= 1e-6
        assert out["intrinsic_delta_printed_intrinsic"] > out[
            "intrinsic_delta_single_ricci"]


def test_lemgene2_constant_weight_trivial():
    out = audit_lemgene2(one_point(torus_r4("1"), [0.4, 1.1]))
    assert out["delta_corrected"] <= 1e-12


def test_lemgene3():
    for imm, p in ((torus_r4(), [0.4, 1.1]), (surface_s3d(), [0.7, 0.9])):
        assert audit_lemgene3(one_point(imm, p))["delta"] <= 1e-6
    # constant weight: both sides vanish
    assert audit_lemgene3(one_point(torus_r4("1"), [0.4, 1.1]))["delta"] <= 1e-12


def test_identity_suite_hermitian_and_contact():
    out = identity_suite(one_point(torus_r4(), [0.4, 1.1]))
    assert max(out.values()) <= 1e-10
    out2 = identity_suite(one_point(surface_s3d(), [0.7, 0.9]))
    assert max(out2.values()) <= 1e-10
    assert "trace_P" in out2 and out2["trace_P"] <= 1e-12


def test_phi_decomposition_audit():
    hopf = Immersion.from_strings(
        ["u", "v"], S3,
        ["0.6*cos(u)/(1 + 0.8*sin(v))", "0.6*sin(u)/(1 + 0.8*sin(v))",
         "0.8*cos(v)/(1 + 0.8*sin(v))"], "1")
    ev = one_point(hopf, [0.5, 1.1])
    # phi^2 nu = -nu + eta(nu) xi on the normal frame: the normal columns of
    # the block decomposition of phi^2
    identities = identity_suite(ev)
    assert identities["Ps_plus_st"] <= 1e-9
    assert identities["Ns_plus_t2"] <= 1e-9


def test_run_all_audits_summary():
    imm = surface_s3d()
    blocks = [one_point(imm, p) for p in ([0.4, 0.8], [1.9, 2.4])]
    summary = run_all_audits(_taken(blocks, None))
    assert blocks == []  # each evaluation released once used
    assert summary["lemgene1_corrected"] <= 1e-6
    assert summary["lemgene2_corrected"] <= 1e-6
    assert summary["lemgene3"] <= 1e-6
    assert summary["deltaH_translated"] <= 1e-6
    assert summary["identity_max"] <= 1e-9
    assert summary["lemgene2_reading"] == "single intrinsic Ricci"


def test_curvature_trace_audit_abstract():
    rng = np.random.default_rng(2)
    ab = make_space("abstract_gcsf", alpha="1 + 0.1*x1", beta="0.5")
    out2 = curvature_trace_audit(ab, rng.normal(size=(4, 4)) * 0.4, seed=5)
    assert out2["normal_trace"] <= 1e-9 and out2["tangent_trace"] <= 1e-9
    assert out2["alpha_beta_warning"]

    ab3 = make_space("abstract_gcsf", alpha="1 + 0.1*x1", beta="1 - 0.1*x1")
    out3 = curvature_trace_audit(ab3, rng.normal(size=(4, 4)) * 0.4, seed=5)
    assert not out3["alpha_beta_warning"]

    ag = make_space("abstract_gssf", n=2, f1="1 + 0.2*x5", f2="0.3*x1", f3="0.1")
    out4 = curvature_trace_audit(ag, rng.normal(size=(3, 5)) * 0.4, seed=6)
    assert out4["normal_trace"] <= 1e-9 and out4["tangent_trace"] <= 1e-9


def test_curvature_trace_audit_keeps_a_nan():
    """A coefficient that is NaN at one point of three makes the traces NaN
    and fires the alpha + beta warning: the maxima keep the NaN."""
    nan_off_zero = "(1e200*x1)*(1e200*x1) - (1e200*x1)*(1e200*x1)"
    ab = make_space("abstract_gcsf", alpha=nan_off_zero, beta="0.5")
    points = np.zeros((3, 4))
    points[1, 0] = 0.3
    with np.errstate(over="ignore", invalid="ignore"):
        out = curvature_trace_audit(ab, points, seed=5)
    assert np.isnan(out["normal_trace"]) and np.isnan(out["tangent_trace"])
    assert out["alpha_beta_warning"]


@pytest.mark.parametrize("check", [audit_mean_curvature_laplacian, theorem_residual])
def test_fourth_order_checks_reject_an_order_3_block(check):
    """The Laplacian of H and the theorem equations take four derivatives
    of the map; an order-3 block, whose trace terms have no Dperp H, is a
    ValueError that says so, and so is reading its Dperp H."""
    ev = one_point(torus_r4(), [0.3, 0.7], order=3)
    with pytest.raises(ValueError, match="order-4 block, not order 3"):
        ev.delta_perp_h_pos
    with pytest.raises(ValueError, match="order-4 block, not order 3"):
        check(ev)
