import re

import numpy as np
import pytest

from bihkit.calculus import Immersion, evaluate, evaluate_batches, matvec
from bihkit.expr import parse
from bihkit.residuals import (
    COROLLARIES,
    EQUATIONS,
    bi_f_tension_direct,
    bitension_direct,
    compare_modes,
    direct_field,
    equation_for,
    f_bitension_direct,
    tension,
    term_matrix,
    theorem_residual,
)
from bihkit.scenario import load_scenario, parse_scenario
from bihkit.spaces import SpaceError, curvature_model, make_space
from conftest import (CATALOG_NAMES, catalog_blocks, one_point, same_bits, scenario_path,
                      structure_at)

S3 = make_space("sasakian_sphere", n=1, ctilde=1.0)
S3D = make_space("sasakian_sphere", n=1, ctilde=3.0)
FLAT3 = make_space("cosymplectic_flat", n=1)
C2 = make_space("euclidean_complex", n=2)

R_SMALL = np.sqrt(2.0) - 1.0  # chart radius of the 45-degree small sphere


def small_sphere(weight="1"):
    return Immersion.from_strings(
        ["u", "v"], S3,
        [f"{R_SMALL}*cos(v)*cos(u)", f"{R_SMALL}*cos(v)*sin(u)",
         f"{R_SMALL}*sin(v)"], weight)


def great_circle():
    return Immersion.from_strings(["u"], S3, ["cos(u)", "0", "sin(u)"], "1")


def test_tension_examples():
    # geodesic great circle: tau = 0
    assert np.abs(tension(one_point(great_circle(), [0.4]))).max() <= 1e-12
    # S^2(r) in flat space: |tau| = 2/r
    r = 0.7
    imm = Immersion.from_strings(
        ["u", "v"], FLAT3,
        [f"{r}*cos(v)*cos(u)", f"{r}*cos(v)*sin(u)", f"{r}*sin(v)"], "1")
    tau = tension(one_point(imm, [0.5, 0.3]))
    assert np.linalg.norm(tau) == pytest.approx(2.0 / r, abs=1e-9)


def test_bitension_known_examples():
    # proper biharmonic small sphere
    assert np.linalg.norm(bitension_direct(one_point(small_sphere(), [0.7, 0.4]))) <= 1e-6
    # minimal great sphere: everything zero
    great = Immersion.from_strings(
        ["u", "v"], S3, ["cos(v)*cos(u)", "cos(v)*sin(u)", "sin(v)"], "1")
    assert np.linalg.norm(tension(one_point(great, [0.7, 0.4]))) <= 1e-10
    assert np.linalg.norm(bitension_direct(one_point(great, [0.7, 0.4]))) <= 1e-10
    # unit sphere in flat space: residual norm 4
    flat_sphere = Immersion.from_strings(
        ["u", "v"], FLAT3, ["cos(v)*cos(u)", "cos(v)*sin(u)", "sin(v)"], "1")
    assert np.linalg.norm(bitension_direct(one_point(flat_sphere, [0.7, 0.4]))) >= 0.1


def test_constant_weight_reductions():
    imm1 = small_sphere("1")
    imm3 = small_sphere("3")
    p = [0.7, 0.4]
    t2 = bitension_direct(one_point(imm1, p))
    fb = f_bitension_direct(one_point(imm3, p))
    assert np.abs(fb - 3.0 * t2).max() <= 1e-10
    # bi-f field is parallel to the bitension for constant weight
    nonminimal = Immersion.from_strings(
        ["u"], S3, ["0.5*cos(u)", "0.4*sin(u)", "0.2 + 0.1*sin(u)"], "2.5")
    base = Immersion.from_strings(
        ["u"], S3, ["0.5*cos(u)", "0.4*sin(u)", "0.2 + 0.1*sin(u)"], "1")
    p = [0.9]
    bf = bi_f_tension_direct(one_point(nonminimal, p))[0]
    t2 = bitension_direct(one_point(base, p))[0]
    # stable wedge norm: |a ^ b| = |a - proj_b a| |b|
    rej = bf - (np.dot(bf, t2) / np.dot(t2, t2)) * t2
    cross = np.linalg.norm(rej) * np.linalg.norm(t2)
    assert cross <= 1e-8 * (1 + np.linalg.norm(bf) * np.linalg.norm(t2))
    # and the ratio is -c^2
    assert np.abs(bf + 2.5**2 * t2).max() <= 1e-8


def test_f_constant_one_matches_bitension():
    imm = small_sphere("1")
    p = [0.3, 0.9]
    assert np.array_equal(
        f_bitension_direct(one_point(imm, p)), f_bitension_direct(one_point(imm, p))
    )
    assert np.abs(
        f_bitension_direct(one_point(imm, p)) - bitension_direct(one_point(imm, p))
    ).max() <= 1e-14


def test_abstract_ambient_rejected_for_direct():
    ab = make_space("abstract_gssf", n=1, f1="1", f2="0", f3="0")
    imm = Immersion.from_strings(["u"], ab, ["cos(u)", "sin(u)", "0"], "1")
    with pytest.raises(SpaceError):
        bitension_direct(one_point(imm, [0.1]))
    with pytest.raises(SpaceError):
        theorem_residual(one_point(imm, [0.1]), kind="fbh")


def test_theorem_residual_takes_only_the_residual_kinds():
    """An equation id or an unknown name is not a kind: on a Sasakian
    ambient, kind fbh_gcsf must not evaluate the Hermitian equation."""
    ev = one_point(small_sphere(), [0.4, 1.1])
    for kind in ("fbh_gcsf", "fbh_gssf", "bif_gcsf", "nonsense"):
        with pytest.raises(ValueError, match="unknown residual kind"):
            theorem_residual(ev, kind=kind)


def test_term_breakdown_sums_to_residual():
    imm = Immersion.from_strings(
        ["u", "v"], S3D,
        ["(0.5 + 0.2*cos(v))*cos(u)", "(0.5 + 0.2*cos(v))*sin(u)",
         "0.2*sin(v) + 0.1"],
        "1 + 0.2*sin(u)*cos(v)")
    for kind in ("fbh", "bif"):
        rep = theorem_residual(one_point(imm, [0.4, 1.1]), kind=kind, errata=True)
        normal = np.zeros(3)
        tangent = np.zeros(3)
        mat = rep.matrix
        for term, coeff, field in zip(mat.terms, mat.corrected, mat.fields):
            contrib = coeff[:, None] * field
            if term.part == "normal":
                normal = normal + contrib
            else:
                tangent = tangent + contrib
        assert np.abs(normal - rep.normal).max() <= 1e-12
        assert np.abs(tangent - rep.tangent).max() <= 1e-12


MODE_CASES = [
    ("fbh", Immersion.from_strings(
        ["u"], S3D, ["0.5*cos(u)", "0.4*sin(u)", "0.2 + 0.1*sin(u)"],
        "1 + 0.3*cos(u)"), [[0.3], [1.7]]),
    ("bif", Immersion.from_strings(
        ["u"], S3D, ["0.5*cos(u)", "0.4*sin(u)", "0.2 + 0.1*sin(u)"],
        "1 + 0.3*cos(u)"), [[0.3], [1.7]]),
    ("fbh", Immersion.from_strings(
        ["u", "v"], C2,
        ["0.8*cos(u)", "0.8*sin(u)", "0.5*cos(v)", "0.5*sin(v)"],
        "1 + 0.25*sin(u)*cos(v)"), [[0.4, 1.3]]),
    ("bif", Immersion.from_strings(
        ["u", "v"], C2,
        ["0.8*cos(u)", "0.8*sin(u)", "0.5*cos(v)", "0.5*sin(v)"],
        "1 + 0.25*sin(u)*cos(v)"), [[0.4, 1.3]]),
]


@pytest.mark.parametrize("kind,imm,points", MODE_CASES)
def test_mode_agreement_with_errata(kind, imm, points):
    for p in points:
        out = compare_modes(one_point(imm, p), kind=kind, errata=True)
        assert out["delta_normal"] <= 1e-10
        assert out["delta_tangent"] <= 1e-10


# Null directions of the curvature model: in dimension 3 the contact tensors
# satisfy R1 + R2 - R3/3 = 0, and in real dimension 2 the Hermitian ones
# R2 = 3 R1.  Shifting the coefficients along them leaves the curvature, and
# so the direct field, unchanged; theorem mode must follow.  The catalog has
# f2 = f3 and alpha = beta, so only a shift tells the coefficients apart.
GAUGES = {"contact": (3, (1.0, 1.0, -1.0 / 3.0)), "hermitian": (2, (3.0, -1.0))}
GAUGE_SCENARIOS = [
    "c01_circle_flat", "c02_curve_sasakian", "c04_small_sphere", "c05_great_sphere",
    "c06_sphere_r3", "c08_hopf_torus", "c09_curve_kenmotsu", "c11_hopf_torus_deformed",
    "c12_torus_deformed_generic", "c15_invariant_curve", "c16_xi_normal_curve",
    "c10_curve_cp1", "c17_circle_c1",
]


@pytest.mark.parametrize("name", GAUGE_SCENARIOS)
def test_mode_agreement_under_null_coefficient_shifts(name):
    """Every catalog scenario in a contact ambient of dimension 3 or a
    Hermitian one of real dimension 2: with the coefficients shifted by 0.7
    along the null direction, theorem and direct mode agree to 1e-10."""
    sc = load_scenario(scenario_path(name), validate=False)
    space = sc.immersion.ambient
    dim, gauge = GAUGES[space.structure]
    assert space.chart_dim == dim
    space.coeffs = tuple(c + 0.7 * g for c, g in zip(space.coeffs, gauge))
    for ev in evaluate_batches(sc.immersion, sc.sample_points()):
        out = compare_modes(ev, kind=sc.mode.get("kind", "fbh"), errata=True)
        assert max(out["delta_normal"].max(), out["delta_tangent"].max()) <= 1e-10, name


def test_mode_disagreement_without_errata_is_itemized():
    imm = Immersion.from_strings(
        ["u"], S3D, ["0.5*cos(u)", "0.4*sin(u)", "0.2 + 0.1*sin(u)"],
        "1 + 0.3*cos(u)")
    out = compare_modes(one_point(imm, [0.3]), kind="fbh", errata=False)
    assert max(out["delta_normal"].max(), out["delta_tangent"].max()) > 1e-6
    # every itemized term carries a catalogued correction
    catalogued = {term.name for term in EQUATIONS[equation_for(imm, "fbh")]
                  if term.erratum is not None}
    mat = out["report"].matrix
    itemized = [term.name for term, printed, corrected in
                zip(mat.terms, mat.printed, mat.corrected) if np.any(corrected != printed)]
    for name in itemized:
        assert name in catalogued
    assert itemized


# The (equation, term) pairs that carry an erratum: the f-biharmonic records
# sit on both fbh equations, the bi-f left-hand side's on all three bif ones.
ERRATUM_PAIRS = (
    {(eq_id, name) for eq_id in ("fbh_gcsf", "fbh_gssf")
     for name in ("delta_perp_H", "weight_connection", "shape_grad_ln_f")}
    | {(eq_id, name) for eq_id in ("bif_general", "bif_gcsf", "bif_gssf")
       for name in ("weight_laplacian", "weight_connection", "ta_nabla_perp_h",
                    "ricci_grad_f")}
    | {("bif_gcsf", "curv_alpha_grad_f"), ("bif_gcsf", "curv_beta_j2_gf"),
       ("bif_gssf", "curv_f3_NP_gf"), ("bif_gssf", "curv_f2_eta_H_tan"),
       ("bif_gssf", "curv_f3_PsH"), ("bif_gssf", "curv_f3_P2_gf")}
)


def test_errata_catalog_covers_all_corrected_terms():
    carried = [(eq_id, term) for eq_id, terms in EQUATIONS.items() for term in terms
               if term.erratum is not None]
    assert len(ERRATUM_PAIRS) == 24
    assert {(eq_id, term.name) for eq_id, term in carried} == ERRATUM_PAIRS
    assert len({term.erratum for _, term in carried}) == 13


def test_corollary_keys_name_terms_of_its_equation():
    """A substitution or coefficient key that names no term of the
    corollary's equation would silently substitute nothing."""
    assert len(COROLLARIES) == 21
    for cor in COROLLARIES.values():
        names = {term.name for term in EQUATIONS[cor.equation]}
        stray = (set(cor.substitutions) | set(cor.coefficients)) - names
        assert not stray, (cor.name, sorted(stray))


# The equations `term_matrix` evaluates on each ambient structure, and the
# residual kind `theorem_residual` takes for each.
STRUCTURE_EQUATIONS = {"hermitian": ("fbh_gcsf", "bif_gcsf", "bif_general"),
                       "contact": ("fbh_gssf", "bif_gssf", "bif_general")}
EQUATION_KIND = {"fbh_gcsf": "fbh", "fbh_gssf": "fbh", "bif_gcsf": "bif", "bif_gssf": "bif",
                 "bif_general": "bif_general"}


def _part_sums(mat, coefficients, shape):
    """The rows of a term matrix summed per part in term order, from zeros."""
    sums = {"normal": np.zeros(shape), "tangent": np.zeros(shape)}
    for term, coeff, field in zip(mat.terms, coefficients, mat.fields):
        sums[term.part] = sums[term.part] + coeff[:, None] * field
    return sums


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_term_matrix_rows_sum_to_the_theorem_residual(name):
    """On every block of a catalog scenario and every equation of its
    ambient structure: one row per term in table order, rows without an
    erratum with corrected == printed bit for bit, and, with errata on and
    off, the ordered row sums of each part equal theorem_residual's normal
    and tangent bit for bit."""
    for ev in catalog_blocks(name):
        shape = (len(ev), ev.d)
        for eq_id in STRUCTURE_EQUATIONS[ev.space.structure]:
            mat = term_matrix(ev, eq_id)
            assert mat.terms == EQUATIONS[eq_id]
            assert mat.printed.shape == mat.corrected.shape == (len(mat.terms), len(ev))
            assert mat.fields.shape == (len(mat.terms),) + shape
            for term, printed, corrected in zip(mat.terms, mat.printed, mat.corrected):
                if term.erratum is None:
                    assert same_bits(printed, corrected), (name, eq_id, term.name)
            for errata in (False, True):
                rep = theorem_residual(ev, kind=EQUATION_KIND[eq_id], errata=errata)
                sums = _part_sums(mat, mat.corrected if errata else mat.printed, shape)
                assert same_bits(sums["normal"], rep.normal), (name, eq_id, errata)
                assert same_bits(sums["tangent"], rep.tangent), (name, eq_id, errata)
                assert same_bits(rep.matrix.fields, mat.fields)


def test_term_matrix_erratum_rows_are_the_catalogued_ones():
    """Over the catalog blocks and the equations of each ambient structure,
    the rows whose corrected coefficient differs from the printed one at
    some point are exactly the 24 (equation, term) rows that carry an
    erratum: no erratum is lost, and no other row is corrected."""
    corrected = set()
    for name in CATALOG_NAMES:
        for ev in catalog_blocks(name):
            for eq_id in STRUCTURE_EQUATIONS[ev.space.structure]:
                mat = term_matrix(ev, eq_id)
                corrected |= {(eq_id, term.name) for term, printed, fixed in
                              zip(mat.terms, mat.printed, mat.corrected)
                              if np.any(fixed != printed)}
    assert corrected == ERRATUM_PAIRS


@pytest.mark.parametrize("name", sorted(COROLLARIES))
def test_corollary_changes_only_the_rows_it_names(name):
    """On every catalog block of its ambient structure, a corollary's term
    matrix is its equation's bit for bit except in the rows it names: a
    substituted row keeps its coefficients and takes the new field (zero
    for None), and a row whose coefficient the flags fix has printed ==
    corrected and keeps its field."""
    cor = COROLLARIES[name]
    blocks = [ev for sc_name in CATALOG_NAMES for ev in catalog_blocks(sc_name)
              if cor.equation in STRUCTURE_EQUATIONS[ev.space.structure]]
    assert blocks
    for ev in blocks:
        full, reduced = term_matrix(ev, cor.equation), term_matrix(ev, cor.equation, name)
        assert reduced.terms == full.terms
        for k, term in enumerate(full.terms):
            if term.name in cor.coefficients:
                assert same_bits(reduced.printed[k], reduced.corrected[k]), term.name
            else:
                assert same_bits(reduced.printed[k], full.printed[k]), term.name
                assert same_bits(reduced.corrected[k], full.corrected[k]), term.name
            if term.name not in cor.substitutions:
                assert same_bits(reduced.fields[k], full.fields[k]), term.name
            elif cor.substitutions[term.name] is None:
                assert not np.any(reduced.fields[k]), term.name


def test_corollary_of_another_equation_is_rejected():
    """A corollary reduces one equation: `term_matrix` and `theorem_residual`
    refuse it for another."""
    ev = catalog_blocks("c08_hopf_torus")[0]
    with pytest.raises(ValueError, match="reduces fbh_gssf, not bif_gssf"):
        term_matrix(ev, "bif_gssf", "fbh_gssf_xi_tangent")
    with pytest.raises(ValueError, match="reduces fbh_gcsf, not fbh_gssf"):
        theorem_residual(ev, kind="fbh", corollary="fbh_gcsf_curve")


# c18 rendered with `[mode] kind = bif`: its f = 1 + 0.1 sin u is not
# constant and CP^2 is curved, so four bif_gcsf rows correct there.
C18_BIF = "c18_hypersphere_cp2 (kind = bif)"

# The scenario that witnesses each erratum row, a catalog one run with its
# own `[mode] kind` or C18_BIF: there the relative correction delta
# delta_norm / scale of the row reaches 1e-3 at some point.
CATALOG_WITNESSES = {
    ("fbh_gcsf", "delta_perp_H"): "c10_curve_cp1",
    ("fbh_gcsf", "weight_connection"): "c10_curve_cp1",
    ("fbh_gcsf", "shape_grad_ln_f"): "c10_curve_cp1",
    ("fbh_gssf", "delta_perp_H"): "c02_curve_sasakian",
    ("fbh_gssf", "weight_connection"): "c02_curve_sasakian",
    ("fbh_gssf", "shape_grad_ln_f"): "c01_circle_flat",
    ("bif_gcsf", "weight_laplacian"): C18_BIF,
    ("bif_gcsf", "ricci_grad_f"): C18_BIF,
    ("bif_gcsf", "curv_alpha_grad_f"): C18_BIF,
    ("bif_gcsf", "curv_beta_j2_gf"): C18_BIF,
    ("bif_gssf", "weight_laplacian"): "c12_torus_deformed_generic",
    ("bif_gssf", "weight_connection"): "c09_curve_kenmotsu",
    ("bif_gssf", "ta_nabla_perp_h"): "c12_torus_deformed_generic",
    ("bif_gssf", "ricci_grad_f"): "c12_torus_deformed_generic",
    ("bif_gssf", "curv_f3_NP_gf"): "c12_torus_deformed_generic",
    ("bif_gssf", "curv_f2_eta_H_tan"): "c12_torus_deformed_generic",
    ("bif_gssf", "curv_f3_PsH"): "c12_torus_deformed_generic",
    ("bif_gssf", "curv_f3_P2_gf"): "c12_torus_deformed_generic",
}
# No scenario witnesses the other 6: c18's H is parallel, so bif_gcsf's
# weight_connection and ta_nabla_perp_h rows make no correction above
# round-off, and no scenario uses kind bif_general.
WITNESS_GAP = ERRATUM_PAIRS - set(CATALOG_WITNESSES)


def _witness_runs():
    """(name, kind, blocks) of every catalog scenario with its own kind, and
    of C18_BIF: c18's text with kind = bif, whose sample points are c18's,
    so it reads c18's blocks."""
    for name in CATALOG_NAMES:
        kind = load_scenario(scenario_path(name), validate=False).mode.get("kind", "fbh")
        yield name, kind, catalog_blocks(name)
    text = _scenario_text("c18_hypersphere_cp2")
    sc = parse_scenario(text.replace("kind = fbh", "kind = bif"), validate=False)
    assert sc.mode["kind"] == "bif" and sc.immersion.weight == parse("1 + 0.1*sin(u)", ["u"])
    blocks = catalog_blocks("c18_hypersphere_cp2")
    assert same_bits(np.concatenate([ev.points for ev in blocks]), sc.sample_points())
    yield C18_BIF, "bif", blocks


def _catalog_witness_deltas():
    """({(scenario, equation, term): the largest delta_norm / scale} of every
    erratum row, {scenario: the largest relative mode delta with errata on})
    over the blocks of every witness run."""
    out, agreement = {}, {}
    for name, kind, blocks in _witness_runs():
        for ev in blocks:
            modes = compare_modes(ev, kind=kind, errata=True)
            rep, eq_id = modes["report"], equation_for(ev.imm, kind)
            worst = max(modes["delta_normal"].max(), modes["delta_tangent"].max())
            agreement[name] = max(agreement.get(name, 0.0), float(worst))
            for term, delta in zip(rep.matrix.terms, rep.delta_norm / rep.scale):
                if term.erratum is not None:
                    key = (name, eq_id, term.name)
                    out[key] = max(out.get(key, 0.0), float(delta.max()))
    return out, agreement


def test_catalog_witnesses_of_the_errata():
    """18 of the 24 erratum rows have a witness, where the correction moves
    the residual by at least 1e-3 of its scale and the modes agree to
    1e-10 with errata on; the other 6 stay below 1e-3 on every run (the
    open gap)."""
    assert len(CATALOG_WITNESSES) == 18 and len(WITNESS_GAP) == 6
    assert WITNESS_GAP == {(eq_id, name) for eq_id, name in ERRATUM_PAIRS
                           if eq_id == "bif_general"} | {
        ("bif_gcsf", "weight_connection"), ("bif_gcsf", "ta_nabla_perp_h")}
    deltas, agreement = _catalog_witness_deltas()
    for (eq_id, term), name in CATALOG_WITNESSES.items():
        assert deltas[(name, eq_id, term)] >= 1e-3, (eq_id, term, name)
        assert agreement[name] <= 1e-10, (eq_id, term, name, agreement[name])
    for (name, eq_id, term), delta in deltas.items():
        if (eq_id, term) in WITNESS_GAP:
            assert delta < 1e-3, (eq_id, term, name)
    smallest = min(deltas[(name, *row)] for row, name in CATALOG_WITNESSES.items())
    assert smallest == deltas[("c12_torus_deformed_generic", "bif_gssf", "curv_f2_eta_H_tan")]
    assert smallest == pytest.approx(0.048, rel=0.02)
    c18 = {term: deltas[(C18_BIF, "bif_gcsf", term)] for term in (
        "weight_laplacian", "ricci_grad_f", "curv_alpha_grad_f", "curv_beta_j2_gf")}
    assert c18 == pytest.approx({"weight_laplacian": 12.7, "ricci_grad_f": 3.28,
                                 "curv_alpha_grad_f": 0.43, "curv_beta_j2_gf": 0.60}, rel=0.02)


def model_trace(ev, v):
    """tr R(dpsi, v) dpsi from the algebraic space-form curvature, at the
    point of a one-point evaluation."""
    G, ginv = ev.values(ev.G_field)[0], ev.values(ev.induced_metric_inv_field)[0]
    dpsi = ev.values(ev.dpsi)[0]
    structure = {key: val[0] for key, val in ev.structure.items()}
    R = curvature_model(ev.space.structure, G, structure, tuple(ev.coeffs[:, 0]))
    out = np.zeros(ev.d)
    for al in range(ev.m):
        for be in range(ev.m):
            out = out + ginv[al, be] * R(dpsi[:, al], v[0], dpsi[:, be])
    return out


def test_gcsf_curvature_trace_identity():
    # tr R(., H). = -p a H + 3 b (jlH + klH), both sides independent
    fs = make_space("fubini_study", n=2, hol=4.0)
    imm = Immersion.from_strings(
        ["u", "v"], fs, ["0.3*cos(u)", "0.3*sin(u)", "0.2*cos(v)", "0.2*sin(v)"],
        "1")
    p = [0.4, 1.0]
    ev = one_point(imm, p)
    lhs = model_trace(ev, ev.H)
    alpha, beta = ev.coeffs
    rhs = -ev.m * alpha * ev.H + 3.0 * beta * (ev.jl_H + ev.kl_H)
    assert np.abs(lhs - rhs).max() <= 1e-9
    # and the model trace agrees with the AD trace
    lhs_ad = ev.curvature_trace(ev.H)
    assert np.abs(lhs - lhs_ad).max() <= 1e-9


def test_gssf_curvature_trace_identity():
    imm = Immersion.from_strings(
        ["u", "v"], S3D,
        ["(0.5 + 0.2*cos(v))*cos(u)", "(0.5 + 0.2*cos(v))*sin(u)",
         "0.2*sin(v) + 0.1"], "1")
    p = [0.7, 0.9]
    ev = one_point(imm, p)
    f1, f2, f3 = ev.coeffs
    xi = S3D.structure_at(ev.values(ev.psi))["xi"][0]
    lhs = model_trace(ev, ev.H)
    rhs = (
        -ev.m * f1 * ev.H
        + f2 * (ev.xi_tan_norm2 * ev.H - ev.eta_h * ev.xi_tan + ev.m * ev.eta_h * xi)
        + 3.0 * f3 * (ev.jl_H + ev.kl_H)  # Ps H + Ns H
    )
    assert np.abs(lhs - rhs).max() <= 1e-9
    assert np.abs(lhs - ev.curvature_trace(ev.H)).max() <= 1e-9


def test_gradf_curvature_trace_lemmas():
    # GCSF: tr R(., grad f). = -(n-1) a grad f + 3 b (j^2 + kj) grad f
    fs = make_space("fubini_study", n=2, hol=4.0)
    imm = Immersion.from_strings(
        ["u", "v"], fs, ["0.3*cos(u)", "0.3*sin(u)", "0.2*cos(v)", "0.2*sin(v)"],
        "1 + 0.2*sin(u)")
    p = [0.4, 1.0]
    ev = one_point(imm, p)
    alpha, beta = ev.coeffs
    lhs = model_trace(ev, ev.grad_f)
    rhs = -(ev.m - 1.0) * alpha * ev.grad_f + 3.0 * beta * (ev.j2_grad_f + ev.kj_grad_f)
    assert np.abs(lhs - rhs).max() <= 1e-9

    # GSSF analogue with the corrected factor-3 phi-trace
    imm2 = Immersion.from_strings(
        ["u", "v"], S3D,
        ["(0.5 + 0.2*cos(v))*cos(u)", "(0.5 + 0.2*cos(v))*sin(u)",
         "0.2*sin(v) + 0.1"], "1 + 0.2*sin(u)")
    ev2 = one_point(imm2, p)
    f1, f2, f3 = ev2.coeffs
    st = structure_at(S3D, ev2.values(ev2.psi)[0])
    lhs2 = model_trace(ev2, ev2.grad_f)
    rhs2 = (
        -(ev2.m - 1.0) * f1 * ev2.grad_f
        + f2 * (ev2.xi_tan_norm2 * ev2.grad_f
                - ev2.eta_grad_f * ev2.xi_tan
                + (ev2.m - 1.0) * ev2.eta_grad_f * st["xi"])
        + 3.0 * f3 * (ev2.j2_grad_f + ev2.kj_grad_f)  # P^2 grad f + NP grad f
    )
    assert np.abs(lhs2 - rhs2).max() <= 1e-9


def test_bif_general_matches_direct():
    imm = Immersion.from_strings(
        ["u", "v"], C2,
        ["0.8*cos(u)", "0.8*sin(u)", "0.5*cos(v)", "0.5*sin(v)"],
        "1 + 0.25*sin(u)*cos(v)")
    p = [0.4, 1.3]
    ev = one_point(imm, p)
    rep = theorem_residual(ev, kind="bif_general", errata=True)
    direct = bi_f_tension_direct(ev)
    P_tan, P_nor = ev.projectors
    assert np.abs(rep.normal - matvec(P_nor, direct)).max() <= 1e-10
    assert np.abs(rep.tangent - matvec(P_tan, direct)).max() <= 1e-10


def _reduction_delta(imm, p, name, errata=True):
    cor = COROLLARIES[name]
    kind = "fbh" if cor.equation.startswith("fbh") else "bif"
    ev = one_point(imm, p)
    rep_parent = theorem_residual(ev, kind=kind, errata=errata)
    rep_cor = theorem_residual(ev, kind=kind, errata=errata, corollary=name)
    return max(
        np.abs(rep_parent.normal - rep_cor.normal).max(),
        np.abs(rep_parent.tangent - rep_cor.tangent).max(),
    ) / rep_parent.scale


def test_sample_corollary_reductions():
    lag = Immersion.from_strings(
        ["u", "v"], C2,
        ["0.8*cos(u)", "0.8*sin(u)", "0.5*cos(v)", "0.5*sin(v)"],
        "1 + 0.25*sin(u)*cos(v)")
    assert _reduction_delta(lag, [0.4, 1.3], "fbh_gcsf_lagrangian") <= 1e-10
    assert _reduction_delta(lag, [0.4, 1.3], "fbh_gcsf_lagrangian_parallel") <= 1e-10
    assert _reduction_delta(lag, [0.4, 1.3], "bif_gcsf_lagrangian_parallel") <= 1e-10

    hopf = Immersion.from_strings(
        ["u", "v"], S3,
        ["0.6*cos(u)/(1 + 0.8*sin(v))", "0.6*sin(u)/(1 + 0.8*sin(v))",
         "0.8*cos(v)/(1 + 0.8*sin(v))"],
        "1 + 0.2*cos(u)")
    for name in ("fbh_gssf_anti_invariant", "fbh_gssf_xi_tangent",
                 "fbh_gssf_hypersurface", "bif_gssf_hypersurface"):
        assert _reduction_delta(hopf, [0.5, 1.1], name) <= 1e-10

    # curves in CP^2: kl H = -H - m^2 H, with m^2 H far from zero on a
    # generic curve and -H on a circle of the totally real RP^2 (parallel H)
    fs = make_space("fubini_study", n=2, hol=4.0)
    curve = Immersion.from_strings(
        ["u"], fs, ["0.3*cos(u)", "0.2*sin(u)", "0.1*u", "0.15*sin(2*u)"],
        "1 + 0.2*sin(u)")
    assert np.abs(one_point(curve, [0.7]).mm_H).max() > 1.0
    assert _reduction_delta(curve, [0.7], "fbh_gcsf_curve") <= 1e-10
    circle = Immersion.from_strings(
        ["u"], fs, ["0.3*cos(u)", "0", "0.3*sin(u)", "0"], "1 + 0.2*sin(u)")
    for name in ("fbh_gcsf_curve", "fbh_gcsf_curve_parallel"):
        assert _reduction_delta(circle, [0.7], name) <= 1e-10


def test_corollary_requires_verified_flags_documented():
    # every registered corollary names only known flags
    from bihkit.calculus import FLAG_NAMES

    for cor in COROLLARIES.values():
        for f in cor.flags:
            assert f in FLAG_NAMES


def _scenario_text(name):
    with open(scenario_path(name), encoding="utf-8") as fh:
        return fh.read()


def _signed_direct(point):
    """The direct fbh field's component along the chart position vector at
    `point`, of a parsed scenario."""
    def signed(sc):
        ev = evaluate(sc.immersion, [point])
        return float(ev.inner(direct_field("fbh", ev), ev.values(ev.psi))[0])
    return signed


def _family_roots(text, constant, grid, signed, width=1e-12):
    """The roots of a signed scalar over a one-parameter family of scenarios:
    `text` with the literal `constant` replaced by a value x, and `signed`
    of the parsed scenario.  Each sign change over `grid` is bisected to a
    bracket of `width`.  Returns the roots and the number of scenarios
    evaluated."""
    calls = []

    def at(x):
        calls.append(x)
        return signed(parse_scenario(text.replace(constant, repr(float(x))), validate=False))

    roots, values = [], [at(x) for x in grid]
    for lo, hi, f_lo, f_hi in zip(grid, grid[1:], values, values[1:]):
        if f_lo * f_hi > 0.0:
            continue
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            f_mid = at(mid)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        roots.append(0.5 * (lo + hi))
    return roots, len(calls)


def test_small_sphere_family_vanishes_at_the_biharmonic_radius():
    """c04's chart radius rho over [0.2, 0.8]: the sphere of chart radius rho
    in the stereographic chart of S^3 is S^2(2 rho / (1 + rho^2)), proper
    biharmonic iff that radius is 1/sqrt(2) (Jiang 1986; Caddeo, Montaldo &
    Oniciuc 2002), that is rho = sqrt(2) - 1.  The direct residual's
    component along the chart position vector, at one point, changes sign
    once there, a simple zero found to 1e-10 in under 50 evaluations."""
    roots, evaluations = _family_roots(_scenario_text("c04_small_sphere"), "0.41421356237309503",
                                       np.linspace(0.2, 0.8, 7), _signed_direct([0.3, 0.4]))
    assert len(roots) == 1
    assert abs(roots[0] - R_SMALL) <= 1e-10, roots
    assert evaluations <= 50


def test_circle_family_vanishes_at_the_biharmonic_radius():
    """A circle of chart radius rho in the x1 x2-plane of c02's chart, with
    f = 1, over [0.2, 0.8]: it is a circle of Euclidean radius
    2 rho / (1 + rho^2) in S^3, proper biharmonic iff that radius is
    1/sqrt(2) (Caddeo, Montaldo & Oniciuc 2001), that is rho = sqrt(2) - 1.
    The direct residual's component along the chart position vector, at
    one point, changes sign once there, found to 1e-10 in at most 50
    evaluations."""
    text = _scenario_text("c02_curve_sasakian")
    circle = 'map = ["RHO*cos(u)", "RHO*sin(u)", "0"]'
    text = re.sub(r"map = \[.*\]", circle, text).replace('f = "exp(0.3*cos(u))"', 'f = "1"')
    assert circle in text and 'f = "1"' in text
    roots, evaluations = _family_roots(text, "RHO", np.linspace(0.2, 0.8, 7),
                                       _signed_direct([0.3]))
    assert len(roots) == 1
    assert abs(roots[0] - R_SMALL) <= 1e-10, roots
    assert evaluations <= 50


S4_FAMILY = """\
[ambient]
kind = sasakian_sphere
n = 2
ctilde = 1.0

[immersion]
params = [a, b, c, u]
a = [0.3, 1.2, open]
b = [0.3, 1.2, open]
c = [0.3, 1.2, open]
u = [0.0, 6.283185307179586, periodic]
map = ["RHO*cos(a)", "RHO*sin(a)*cos(b)", "RHO*sin(a)*sin(b)*cos(c)", \
"RHO*sin(a)*sin(b)*sin(c)*cos(u)", "RHO*sin(a)*sin(b)*sin(c)*sin(u)"]

[sampling]
grid = [4, 4, 4, 4]
"""


def test_hypersphere_family_of_s5_vanishes_at_the_biharmonic_radius():
    """The sphere of chart radius rho in the stereographic chart of S^5
    (`sasakian_sphere`, n = 2, ctilde = 1: the round metric), in four
    hyperspherical angles with f = 1, over [0.2, 0.8]: it is
    S^4(2 rho / (1 + rho^2)), proper biharmonic iff that radius is
    1/sqrt(2) (Jiang 1986; Caddeo, Montaldo & Oniciuc 2002), that is
    rho = sqrt(2) - 1.  The direct residual's component along the chart
    position vector, at one point, changes sign once there, found to 1e-10
    in at most 50 evaluations."""
    roots, evaluations = _family_roots(S4_FAMILY, "RHO", np.linspace(0.2, 0.8, 7),
                                       _signed_direct([0.7, 0.8, 0.9, 0.3]))
    assert len(roots) == 1
    assert abs(roots[0] - R_SMALL) <= 1e-10, roots
    assert evaluations <= 50


def test_hypersurface_corollary_vanishes_where_the_direct_residual_does():
    """On c04's radius family (see the small-sphere test) the theorem
    residual under the `fbh_gssf_hypersurface` corollary, the paper's
    equation for hypersurfaces with errata, changes sign once, at
    rho = sqrt(2) - 1, found to 1e-10 in at most 50 evaluations; and the
    direct residual vanishes at the same rho."""
    text = _scenario_text("c04_small_sphere")

    def signed(sc):
        ev = evaluate(sc.immersion, [[0.3, 0.4]])
        rep = theorem_residual(ev, "fbh", errata=True, corollary="fbh_gssf_hypersurface")
        return float(ev.inner(rep.normal, ev.values(ev.psi))[0])

    grid = np.linspace(0.2, 0.8, 7)
    roots, evaluations = _family_roots(text, "0.41421356237309503", grid, signed)
    assert len(roots) == 1
    assert abs(roots[0] - R_SMALL) <= 1e-10, roots
    assert evaluations <= 50
    direct, _evaluations = _family_roots(text, "0.41421356237309503", grid,
                                         _signed_direct([0.3, 0.4]))
    assert len(direct) == 1 and abs(direct[0] - roots[0]) <= 1e-10, (direct, roots)
