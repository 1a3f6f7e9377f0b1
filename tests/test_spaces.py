import numpy as np
import pytest

from bihkit.jets import Jet, jet_space
from conftest import at, same_bits
from bihkit.spaces import (
    ChartError,
    SpaceError,
    chart_jets,
    christoffels_at,
    curvature_from_christoffels,
    curvature_model,
    gcsf_coefficient_sum_spread,
    jet_matrix_inverse,
    make_space,
    metric_and_christoffel_jets,
    space_form_coefficients,
    _std_J,
)

RNG = np.random.default_rng(123)


def curvature_concrete(space, point, X, Y, Z):
    """R(X, Y)Z from the metric jets (bracket convention)."""
    R = curvature_from_christoffels(metric_and_christoffel_jets(space, point, 2)[1])
    return np.einsum("lijk,i,j,k->l", R, X, Y, Z)


def curvature_model_at(space, point, X, Y, Z):
    """The algebraic curvature R(X, Y)Z with the space's data at `point`
    (the fiducial identity metric on abstract spaces)."""
    G = space.metric_at(point) if space.has_metric else np.eye(space.chart_dim)
    R = curvature_model(space.family, G, space.structure_at(point),
                        space.curvature_coeffs_at(point))
    return R(X, Y, Z)


def sectional_curvature(space, point, X, Y):
    G = space.metric_at(point)
    g = lambda a, b: float(a @ G @ b)
    R = curvature_concrete(space, point, X, Y, Y)
    return g(R, X) / (g(X, X) * g(Y, Y) - g(X, Y) ** 2)


def random_point(space, scale=0.4):
    return RNG.normal(size=space.chart_dim) * scale


def test_flat_christoffels_and_curvature():
    sp = make_space("euclidean_complex", n=2)
    p = random_point(sp)
    assert np.abs(christoffels_at(sp, p)[1]).max() == 0.0
    X, Y, Z = RNG.normal(size=(3, 4))
    assert np.abs(curvature_concrete(sp, p, X, Y, Z)).max() == 0.0
    assert np.allclose(sp.metric_at(p), np.eye(4))


def test_christoffel_symmetry_and_compatibility():
    sp = make_space("sasakian_sphere", n=1, ctilde=1.0)
    p = random_point(sp)
    gam = christoffels_at(sp, p)[1]
    assert np.abs(gam - gam.transpose(0, 2, 1)).max() <= 1e-14
    # metric compatibility: d_k g_ij = Gamma^l_ki g_lj + Gamma^l_kj g_il
    G, Gam = metric_and_christoffel_jets(sp, p, 1)
    d = sp.chart_dim
    worst = 0.0
    for k in range(d):
        for i in range(d):
            for j in range(d):
                dg = G[i][j].deriv(k).value
                contracted = sum(
                    Gam[l][k][i].value * G[l][j].truncate(0).value
                    + Gam[l][k][j].value * G[i][l].truncate(0).value
                    for l in range(d)
                )
                worst = max(worst, abs(dg - contracted))
    assert worst <= 1e-9


def test_curvature_antisymmetry():
    sp = make_space("fubini_study", n=2, hol=4.0)
    p = random_point(sp, 0.3)
    X, Y, Z = RNG.normal(size=(3, 4))
    a = curvature_concrete(sp, p, X, Y, Z)
    b = curvature_concrete(sp, p, Y, X, Z)
    assert np.abs(a + b).max() <= 1e-12 * max(1.0, np.abs(a).max())


def test_fubini_study_normalizations():
    fs1 = make_space("fubini_study", n=1, hol=4.0)
    for p in (np.zeros(2), np.array([0.3, -0.2])):
        X, Y = RNG.normal(size=(2, 2))
        assert sectional_curvature(fs1, p, X, Y) == pytest.approx(4.0, abs=1e-8)
    fs2 = make_space("fubini_study", n=2, hol=4.0)
    for _ in range(20):
        p = random_point(fs2)
        X, Y = RNG.normal(size=(2, 4))
        K = sectional_curvature(fs2, p, X, Y)
        assert 1.0 - 1e-8 <= K <= 4.0 + 1e-8


def test_model_vs_concrete_all_spaces():
    spaces = [
        make_space("fubini_study", n=1, hol=4.0),
        make_space("fubini_study", n=2, hol=2.4),
        make_space("complex_hyperbolic", n=2, hol=-4.0),
        make_space("sasakian_sphere", n=1, ctilde=1.0),
        make_space("sasakian_sphere", n=1, ctilde=3.0),
        make_space("kenmotsu_hyperbolic", n=1),
        make_space("cosymplectic_flat", n=1),
    ]
    for sp in spaces:
        for _ in range(8):
            p = random_point(sp, 0.2)
            X, Y, Z = RNG.normal(size=(3, sp.chart_dim))
            a = curvature_concrete(sp, p, X, Y, Z)
            b = curvature_model_at(sp, p, X, Y, Z)
            scale = max(1.0, np.abs(a).max())
            assert np.abs(a - b).max() / scale <= 1e-7, sp.kind


def test_space_form_coefficients_table():
    assert space_form_coefficients("sasaki", 1.0) == (1.0, 0.0, 0.0)
    assert space_form_coefficients("kenmotsu", -1.0) == (-1.0, 0.0, 0.0)
    assert space_form_coefficients("cosymplectic", 0.0) == (0.0, 0.0, 0.0)
    c = 2.7
    assert space_form_coefficients("sasaki", c) == (
        (c + 3) / 4, (c - 1) / 4, (c - 1) / 4)
    assert space_form_coefficients("kenmotsu", c) == (
        (c - 3) / 4, (c + 1) / 4, (c + 1) / 4)
    assert space_form_coefficients("cosymplectic", c) == (c / 4, c / 4, c / 4)
    with pytest.raises(SpaceError):
        space_form_coefficients("nearly_kaehler", 1.0)


def test_hermitian_structure_invariants():
    for sp in (make_space("euclidean_complex", n=2),
               make_space("fubini_study", n=2, hol=4.0),
               make_space("complex_hyperbolic", n=1, hol=-2.0)):
        p = random_point(sp, 0.3)
        G = sp.metric_at(p)
        J = sp.structure_at(p)["J"]
        assert np.abs(J @ J + np.eye(sp.chart_dim)).max() <= 1e-10
        assert np.abs(J.T @ G @ J - G).max() <= 1e-10


def test_contact_structure_invariants():
    for sp in (make_space("sasakian_sphere", n=1, ctilde=1.0),
               make_space("sasakian_sphere", n=2, ctilde=2.0),
               make_space("kenmotsu_hyperbolic", n=1),
               make_space("cosymplectic_flat", n=1)):
        for _ in range(5):
            p = random_point(sp, 0.5)
            G = sp.metric_at(p)
            st = sp.structure_at(p)
            phi, xi, eta_vec = st["phi"], st["xi"], st["eta"]
            d = sp.chart_dim
            assert abs(eta_vec @ xi - 1.0) <= 1e-10
            assert np.abs(phi @ phi + np.eye(d) - np.outer(xi, eta_vec)).max() <= 1e-10
            assert np.abs(phi.T @ G @ phi - (G - np.outer(eta_vec, eta_vec))).max() <= 1e-10
            assert np.abs(phi @ xi).max() <= 1e-12
            assert np.abs(eta_vec - G @ xi).max() <= 1e-10


def _reeb_covariant_derivative(sp, p):
    """nabla-bar_i xi in chart coordinates (values)."""
    x = chart_jets(p, 1)
    xi = sp.structure_jets(x)["xi"]
    gam = christoffels_at(sp, p)[1]
    d = sp.chart_dim
    xi_val = np.array([j.value for j in xi])
    out = np.zeros((d, d))  # out[:, i] = nabla_i xi
    for i in range(d):
        for a in range(d):
            out[a, i] = xi[a].deriv(i).value + gam[a, i, :] @ xi_val
    return out


def test_sasakian_reeb_field_equation():
    sp = make_space("sasakian_sphere", n=1, ctilde=1.0)
    for _ in range(20):
        p = random_point(sp, 0.6)
        st = sp.structure_at(p)
        assert abs(st["eta"] @ st["xi"] - 1.0) <= 1e-12
        assert np.abs(st["phi"] @ st["xi"]).max() <= 1e-12
    for _ in range(5):
        p = random_point(sp, 0.5)
        nab = _reeb_covariant_derivative(sp, p)
        phi = sp.structure_at(p)["phi"]
        assert np.abs(nab + phi).max() <= 1e-8


def test_deformed_sasakian_reeb_field_equation():
    sp = make_space("sasakian_sphere", n=1, ctilde=3.0)
    for _ in range(4):
        p = random_point(sp, 0.5)
        nab = _reeb_covariant_derivative(sp, p)
        phi = sp.structure_at(p)["phi"]
        assert np.abs(nab + phi).max() <= 1e-8


def test_kenmotsu_reeb_field_equation():
    sp = make_space("kenmotsu_hyperbolic", n=1)
    for _ in range(4):
        p = random_point(sp, 0.5)
        nab = _reeb_covariant_derivative(sp, p)
        st = sp.structure_at(p)
        # nabla_X xi = X - eta(X) xi
        expected = np.eye(3) - np.outer(st["xi"], st["eta"])
        assert np.abs(nab - expected).max() <= 1e-8


def test_cosymplectic_parallel_structure():
    sp = make_space("cosymplectic_flat", n=1)
    p = random_point(sp, 0.5)
    nab = _reeb_covariant_derivative(sp, p)
    assert np.abs(nab).max() <= 1e-10
    # flat chart, constant phi: nabla phi = 0 by inspection of the jets
    x = chart_jets(p, 1)
    phi = sp.structure_jets(x)["phi"]
    for row in phi:
        for entry in row:
            for i in range(3):
                assert entry.deriv(i).value == 0.0


def _cyclic_sum(space, p, X, Y, Z, backend):
    f = curvature_concrete if backend == "concrete" else curvature_model_at
    return f(space, p, X, Y, Z) + f(space, p, Y, Z, X) + f(space, p, Z, X, Y)


def test_first_bianchi_concrete_and_generators():
    spaces = [
        make_space("fubini_study", n=2, hol=4.0),
        make_space("sasakian_sphere", n=1, ctilde=3.0),
        make_space("kenmotsu_hyperbolic", n=1),
    ]
    for sp in spaces:
        for _ in range(5):
            p = random_point(sp, 0.3)
            X, Y, Z = RNG.normal(size=(3, sp.chart_dim))
            s = _cyclic_sum(sp, p, X, Y, Z, "concrete")
            assert np.abs(s).max() <= 1e-9 * max(1.0, np.abs(X).max())
    # each algebraic generator individually (via abstract coefficient picks)
    generators = [
        make_space("abstract_gcsf", alpha="1", beta="0"),
        make_space("abstract_gcsf", alpha="0", beta="1"),
        make_space("abstract_gssf", n=1, f1="1", f2="0", f3="0"),
        make_space("abstract_gssf", n=1, f1="0", f2="1", f3="0"),
        make_space("abstract_gssf", n=1, f1="0", f2="0", f3="1"),
    ]
    for sp in generators:
        for _ in range(6):
            p = RNG.normal(size=sp.chart_dim)
            X, Y, Z = RNG.normal(size=(3, sp.chart_dim))
            s = _cyclic_sum(sp, p, X, Y, Z, "model")
            assert np.abs(s).max() <= 1e-9


def test_gssf_coefficient_selection():
    sp = make_space("abstract_gssf", n=1, f1="1", f2="0", f3="0")
    p = RNG.normal(size=3)
    X, Y, Z = RNG.normal(size=(3, 3))
    got = curvature_model_at(sp, p, X, Y, Z)
    expect = np.dot(Y, Z) * X - np.dot(X, Z) * Y  # fiducial identity metric
    assert np.abs(got - expect).max() <= 1e-12


def test_chart_rejections():
    ch = make_space("complex_hyperbolic", n=1, hol=-4.0)
    with pytest.raises(ChartError):
        ch.metric_at(np.array([0.9, 0.7]))
    with pytest.raises(ChartError):
        ch.metric_at(np.array([0.9]))
    eu = make_space("euclidean_complex", n=1)
    with pytest.raises(SpaceError):
        make_space("euclidean_sasakian")


def test_abstract_spaces_reject_connection():
    ab = make_space("abstract_gcsf", alpha="1", beta="x1")
    with pytest.raises(SpaceError):
        christoffels_at(ab, np.zeros(4))
    assert gcsf_coefficient_sum_spread(ab, [np.zeros(4), np.ones(4)]) > 0.0


def test_metric_positive_definite_rejection():
    # kenmotsu metric is PD everywhere it evaluates; degenerate matrices
    # surface through the jet inverse instead
    sp = make_space("kenmotsu_hyperbolic", n=1)
    G = sp.metric_at(np.array([0.1, 0.2, -0.4]))
    assert np.linalg.eigvalsh(G).min() > 0.0
    with pytest.raises(SpaceError, match="singular"):
        jet_matrix_inverse(Jet.constant(jet_space(3, 1), np.ones((3, 3))))


def test_sasaki_phi_sectional_curvature():
    # K(X, phi X) must equal ctilde for the deformed structure
    for ct in (1.0, 3.0, 0.5):
        sp = make_space("sasakian_sphere", n=1, ctilde=ct)
        for _ in range(4):
            p = random_point(sp, 0.4)
            st = sp.structure_at(p)
            X = RNG.normal(size=3)
            X = X - (st["eta"] @ X) * st["xi"]  # X in the contact plane
            K = sectional_curvature(sp, p, X, st["phi"] @ X)
            assert K == pytest.approx(ct, abs=1e-7)


CONCRETE = {
    "euclidean_complex": {"n": 1},
    "fubini_study": {"n": 2, "hol": 4.0},
    "complex_hyperbolic": {"n": 1, "hol": -4.0},
    "sasakian_sphere": {"n": 1, "ctilde": 3.0},
    "cosymplectic_flat": {"n": 1},
    "kenmotsu_hyperbolic": {"n": 1},
}


@pytest.mark.parametrize("kind", sorted(CONCRETE))
def test_batched_chart_jets_match_each_point(kind):
    """Chart jets seeded at P points at once give, at each point, the
    metric, structure and Christoffel jets of that point alone, bit for
    bit, at every order."""
    sp = make_space(kind, **CONCRETE[kind])
    points = RNG.uniform(-0.45, 0.45, size=(5, sp.chart_dim))
    for order in range(5):
        x = chart_jets(points, order)
        metric = Jet.stack(sp.metric_jets(x))
        structure = {k: Jet.stack(v) for k, v in sp.structure_jets(x).items()}
        gam = metric_and_christoffel_jets(sp, points, order)[1] if order else None
        for i, p in enumerate(points):
            one = chart_jets(p, order)
            assert same_bits(at(metric, i).c, Jet.stack(sp.metric_jets(one)).c)
            for k, v in sp.structure_jets(one).items():
                assert same_bits(at(structure[k], i).c, Jet.stack(v).c)
            if order:
                assert same_bits(at(gam, i).c, metric_and_christoffel_jets(sp, p, order)[1].c)
    G, Gam = christoffels_at(sp, points)
    for i, p in enumerate(points):
        assert all(map(same_bits, (G[i], Gam[i]), christoffels_at(sp, p)))


def _round_structure(sp, x):
    """The Sasakian round structure (lambda, xi0, eta0, phi0), all four
    built in one pass as the metric once took them: the oracle of
    `metric_jets` and `structure_jets`."""
    X, dX, lam = sp._embedding(x)
    J = _std_J(sp.chart_dim + 1)
    col = np.argmax(J != 0, axis=1)
    entry = J[np.arange(len(J)), col]
    JX = X[col] * -entry
    eta0 = (dX * JX[:, None]).sum(0)
    lam_inv = 1.0 / lam
    JdX = dX[col] * entry[:, None]
    phi0 = (dX[:, :, None] * JdX[:, None]).sum(0) * lam_inv
    return lam, eta0 * lam_inv, eta0, phi0


@pytest.mark.parametrize("n,ctilde", [(1, 1.0), (1, 0.5), (2, -1.5)])
def test_sasakian_metric_needs_only_lambda_and_eta(n, ctilde):
    """`metric_jets` builds lambda and eta0 alone; its metric, and the
    structure tensors, are those of the full round-structure build bit for
    bit at orders 0-4, at P points at once."""
    sp = make_space("sasakian_sphere", n=n, ctilde=ctilde)
    a = sp.homothety
    points = RNG.uniform(-0.45, 0.45, size=(3, sp.chart_dim))
    for order in range(5):
        x = chart_jets(points, order)
        lam, xi0, eta0, phi0 = _round_structure(sp, x)
        G = (eta0[:, None] * eta0[None] * (a * (a - 1.0))).add_diagonal(lam * a)
        assert same_bits(Jet.stack(sp.metric_jets(x)).c, G.upper().symmetric().c)
        structure = sp.structure_jets(x)
        for key, expected in (("phi", phi0), ("xi", xi0 / a), ("eta", eta0 * a)):
            assert same_bits(structure[key].c, expected.c), (order, key)
