import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihkit import variational
from bihkit.calculus import Immersion, evaluate_batches, parameter_jets
from bihkit.expr import eval_on_jets, parse
from bihkit.jets import Jet, jet_space
from bihkit.residuals import tension
from bihkit.scenario import load_scenario
from bihkit.spaces import ChartError, christoffels_at, make_space, matvec
from bihkit.variational import (
    ENERGIES,
    FUNCTIONALS,
    STEPS,
    QuadratureGrid,
    el_field,
    energies,
    first_variation_suite,
)
from bihkit.variational import _deformed_tension_data, _densities, _frozen
from conftest import catalog_blocks, get_scenario, one_point, same_bits, scenario_path

TAU = 2.0 * np.pi
FLAT3 = make_space("cosymplectic_flat", n=1)
S3 = make_space("sasakian_sphere", n=1, ctilde=1.0)


def circle(weight="1"):
    return Immersion.from_strings(["u"], FLAT3, ["cos(u)", "sin(u)", "0"], weight)


def node_energies(imm, grid):
    """`energies` from an order-2 evaluation of the nodes."""
    return energies(grid, evaluate_batches(imm, grid.points, 2))


def suite(imm, grid, whichs, variation):
    """`first_variation_suite` on an order-4 evaluation of the nodes."""
    return first_variation_suite(imm, grid, evaluate_batches(imm, grid.points, 4), whichs,
                                 variation)


def test_circle_energy_closed_forms():
    grid = QuadratureGrid([(0.0, TAU, 24, True)])
    imm = circle()
    values = node_energies(imm, grid)
    assert values["E"] == pytest.approx(np.pi, abs=1e-12)
    assert values["E2"] == pytest.approx(np.pi, abs=1e-12)
    EF = node_energies(circle("2"), grid)["EF"]
    assert EF == pytest.approx(2.0 * np.pi, abs=1e-12)
    # an unknown functional is missing from the table
    frozen = _frozen(evaluate_batches(imm, grid.points, 2))
    with pytest.raises(KeyError):
        _densities(FLAT3, frozen, ["E3"], (0.0,) * 3, (0.0,))
    with pytest.raises(KeyError):
        el_field(one_point(imm, [0.3]), "E3")


def test_quadrature_grid_shapes():
    g = QuadratureGrid([(0.0, TAU, 8, True), (-1.0, 1.0, 5, False)])
    assert len(g) == 40
    assert np.all(g.weights > 0.0)
    # periodic axis: equispaced, open axis: interior Gauss nodes
    assert g.points[:, 1].min() > -1.0 and g.points[:, 1].max() < 1.0
    with pytest.raises(ValueError):
        QuadratureGrid([(0.0, 1.0, 1, False)])


def test_gauss_legendre_rule_is_shared_and_read_only():
    """Grids with an n-node open axis share one read-only Gauss-Legendre
    rule, numpy's bit for bit: two grids of one open axis are equal bit for
    bit, a grid on another interval leaves the rule as it was, and the
    cached nodes and weights cannot be written."""
    axes = [(0.0, TAU, 4, True), (-1.2, 1.2, 6, False)]
    first, second = QuadratureGrid(axes), QuadratureGrid(axes)
    assert same_bits(first.points, second.points)
    assert same_bits(first.weights, second.weights)
    QuadratureGrid([(2.0, 5.0, 6, False)])
    x, w = variational._gauss_legendre(6)
    assert variational._gauss_legendre(6)[0] is x
    expected = np.polynomial.legendre.leggauss(6)
    assert same_bits(x, expected[0]) and same_bits(w, expected[1])
    for rule in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            rule[0] = 0.0


def test_quadrature_convergence_doubling():
    imm = Immersion.from_strings(
        ["u"], S3, ["0.5*cos(u)", "0.4*sin(u)", "0.2 + 0.1*sin(u)"],
        "1 + 0.2*cos(u)")
    vals = {}
    for n in (32, 64):
        grid = QuadratureGrid([(0.0, TAU, n, True)])
        for which, v in node_energies(imm, grid).items():
            vals.setdefault(which, []).append(v)
    for which, (a, b) in vals.items():
        assert abs(a - b) <= 1e-9 * (1.0 + abs(b)), which


def test_zero_variation_gives_zero():
    imm = circle("1 + 0.3*cos(u)")
    grid = QuadratureGrid([(0.0, TAU, 16, True)])
    fv = suite(imm, grid, ["E2F"], ["0", "0", "0"])["E2F"]
    assert fv["rhs"] == 0.0
    assert max(abs(v) for v in fv["lhs"]) <= 1e-12


def test_sign_coherence_tension_from_energy():
    """The field recovered variationally from E is the tension field with
    its sign (pairing constant +1)."""
    imm = circle()
    assert FUNCTIONALS["E"][2] == 1.0
    ev = one_point(imm, [0.3])
    el = el_field(ev, "E")
    assert np.abs(el - tension(ev)).max() == 0.0
    grid = QuadratureGrid([(0.0, TAU, 24, True)])
    fv = suite(imm, grid, ["E"], ["cos(u)", "sin(u)", "0"])["E"]
    # expanding circle with frozen metric: dE/dt = 2 pi, pairing agrees
    assert fv["rhs"] == pytest.approx(2.0 * np.pi, abs=1e-10)
    assert min(fv["deltas"]) <= 1e-10


def test_all_functionals_anchor_flat():
    imm = circle("1 + 0.3*cos(u)")
    grid = QuadratureGrid([(0.0, TAU, 24, True)])
    V = ["0.3*cos(2*u)", "-0.2*sin(u)", "0.1*cos(u)"]
    out = suite(imm, grid, list(ENERGIES), V)
    for which, fv in out.items():
        assert min(fv["deltas"]) <= 1e-10, which


def test_all_functionals_anchor_curved_with_decay():
    imm = Immersion.from_strings(
        ["u"], S3, ["0.5*cos(u)", "0.4*sin(u)", "0.2 + 0.1*sin(u)"],
        "1 + 0.2*cos(u)")
    grid = QuadratureGrid([(0.0, TAU, 32, True)])
    V = ["0.3*cos(2*u)", "-0.2*sin(u)", "0.1*cos(u)"]
    out = suite(imm, grid, list(ENERGIES), V)
    for which, fv in out.items():
        scale = 1.0 + abs(fv["rhs"])
        plateau = min(fv["deltas"])
        assert plateau <= 1e-5 * scale, (which, fv["deltas"])
        # observed O(h^2): the first step dominates the second by ~100x
        if fv["deltas"][0] > 100 * plateau and fv["deltas"][0] > 1e-12:
            assert fv["deltas"][1] <= fv["deltas"][0] / 20.0, (which, fv["deltas"])


def test_open_axis_variation_with_window():
    r0 = np.sqrt(2.0) - 1.0
    imm = Immersion.from_strings(
        ["u", "v"], S3,
        [f"{r0}*cos(v)*cos(u)", f"{r0}*cos(v)*sin(u)", f"{r0}*sin(v)"], "1")
    grid = QuadratureGrid([(0.0, TAU, 12, True), (-1.2, 1.2, 10, False)])
    win = "((v) - (-1.2))*((1.2) - (v))"
    V = [f"0.1*sin(u)*{win}", f"0.05*cos(v)*{win}", f"0.08*cos(u)*{win}"]
    fv = suite(imm, grid, ["E2"], V)["E2"]
    scale = 1.0 + abs(fv["rhs"])
    assert min(fv["deltas"]) <= 1e-5 * scale


def test_variation_chart_exit_detected():
    ch = make_space("complex_hyperbolic", n=1, hol=-4.0)
    imm = Immersion.from_strings(
        ["u"], ch, ["0.5*cos(u)", "0.5*sin(u)"], "1")
    grid = QuadratureGrid([(0.0, TAU, 8, True)])
    with pytest.raises(ChartError):
        suite(imm, grid, ["E"], ["100*cos(u)", "100*sin(u)"])


def test_first_variation_builds_the_metric_once_per_node_and_step(recorder):
    """The deformed maps of all the steps are evaluated from one chart
    build, for all quadrature nodes at once: the metric and its
    Christoffels come from the same jets, which hold one point per node and
    step, t-major, in the order +h, -h of each of the STEPS."""
    space = make_space("sasakian_sphere", n=1, ctilde=1.0)
    imm = Immersion.from_strings(
        ["u"], space, ["0.5*cos(u)", "0.4*sin(u)", "0.2 + 0.1*sin(u)"], "1")
    grid = QuadratureGrid([(0.0, TAU, 8, True)])
    V = ["0.1*cos(u)", "0", "0"]
    frozen = _frozen(evaluate_batches(imm, grid.points, 2))
    env = parameter_jets(imm.params, grid.points, 2)
    v = Jet.stack([eval_on_jets(parse(c, imm.params), env) for c in V]).point_values(len(grid))
    recorder.calls.clear()
    suite(imm, grid, ["E", "E2"], V)
    # the order-4 evaluation of the nodes builds the metric once (to order
    # 3), the steps once (to order 1)
    count = 2 * len(STEPS) * len(grid)
    assert recorder.of("spaces.AmbientSpace.metric_jets") == [(len(grid), 3), (count, 1)]
    steps = recorder.subjects("spaces.AmbientSpace.metric_jets")[1]
    assert all(xi.c.size == count * xi.space.size for xi in steps)
    positions = np.stack([xi.point_values(count) for xi in steps], axis=-1)
    assert same_bits(positions,
                     np.concatenate([frozen.psi + v * t for h in STEPS for t in (h, -h)]))


def test_first_variation_derives_tau_once_per_block(recorder):
    """E2 and E2F share the bitension of c08's one block of 36 nodes: over
    the five functionals the block takes the `pullback_derivative` of tau
    and of its first derivative once (the bitension), and those of
    tau_f = f tau + dpsi(grad f) once (EF2)."""
    sc = get_scenario("c08_hopf_torus")
    recorder.calls.clear()
    suite(sc.immersion, sc.quadrature(), list(ENERGIES), sc.default_variation())
    assert recorder.of("calculus.Evaluation.pullback_derivative") == [(36, 4)] * 4


def test_el_field_pairing_table():
    assert ENERGIES == tuple(FUNCTIONALS) == ("E", "E2", "E2F", "EF", "EF2")
    assert {which: pairing for which, (_d, _f, pairing) in FUNCTIONALS.items()} == {
        "E": 1.0, "EF": 1.0, "E2": -1.0, "E2F": -1.0, "EF2": 2.0
    }


def test_el_field_calls_the_field_bound_in_the_module(recorder):
    """Each functional's field is looked up by its module-level name at call
    time, so a wrapper bound there (the recorder's, a tracer's span) sees
    the call."""
    ev = one_point(circle("1 + 0.3*cos(u)"), [0.3])
    for which, name in (("E2", "bitension_direct"), ("E2F", "f_bitension_direct"),
                        ("EF2", "bi_f_tension_direct")):
        recorder.calls.clear()
        el_field(ev, which)
        assert (1, 4) in recorder.of(f"residuals.{name}"), which


@pytest.mark.parametrize("name", ["c04_small_sphere", "c08_hopf_torus",
                                  "c12_torus_deformed_generic"])
def test_order_4_node_evaluation_serves_the_frozen_metric(name):
    """The frozen data of the order-4 evaluation of the quadrature nodes
    (the one the pairing uses) equal those of an order-2 evaluation bit for
    bit, so one evaluation per node serves both: the ambient metric and
    chart Christoffels at psi, which the energies read, too."""
    def frozen(blocks):
        """The map's values, first and second derivatives, g, its inverse
        and Christoffels, det g, f, df, G and the chart Christoffels at the
        nodes."""
        return [np.concatenate([x(ev) for ev in blocks]) for x in (
            lambda ev: ev.values(ev.psi), lambda ev: ev.values(ev.dpsi),
            lambda ev: ev.values(ev.dpsi.derivs()), lambda ev: ev.values(ev.induced_metric_field),
            lambda ev: ev.values(ev.induced_metric_inv_field),
            lambda ev: ev.values(ev.intrinsic_christoffels), lambda ev: ev.gram_det,
            lambda ev: ev.values(ev.f_jet), lambda ev: ev.values(ev.f_jet.derivs()),
            lambda ev: ev.values(ev.G_field), lambda ev: ev.values(ev.chart_christoffels))]

    deep, shallow = (catalog_blocks(name, order, nodes=True) for order in (4, 2))
    assert all(map(same_bits, frozen(deep), frozen(shallow)))


def test_node_blocks_hold_the_chart_metric_and_christoffels_at_psi(catalog_names):
    """On every catalog scenario with a metric, the values of G and of the
    chart Christoffels in the node blocks at orders 2-4 are those of a chart
    build at psi (`christoffels_at`): the Christoffels bit for bit, G equal
    and bit for bit but for the sign of a zero (G is composed along the map,
    a sum begun at +0.0, so it never holds -0.0).  The energies from them
    equal, bit for bit, those of the chart built again at psi + 0 * 0."""
    zeros = (0.0,) * 3
    for name in catalog_names:
        sc = load_scenario(scenario_path(name), validate=False)
        if not sc.immersion.ambient.has_metric:
            continue
        for order in (2, 3, 4):
            blocks = catalog_blocks(name, order, nodes=True)
            frozen = _frozen(blocks)
            G, gam = christoffels_at(sc.immersion.ambient, frozen.psi)
            assert np.array_equal(frozen.G, G) and same_bits(frozen.G + 0.0, G + 0.0), name
            assert same_bits(frozen.gam_amb, gam), (name, order)
            rebuilt = _densities(sc.immersion.ambient, frozen, ENERGIES, zeros, (0.0,))
            read = _densities(None, frozen, ENERGIES, zeros, (0.0,))
            assert all(same_bits(read[which], rebuilt[which]) for which in ENERGIES), name


@pytest.mark.parametrize("name", ["c04_small_sphere", "c08_hopf_torus", "c18_hypersphere_cp2"])
def test_energies_build_no_chart(recorder, name):
    """`energies` never builds the ambient metric: it reads it, and the chart
    Christoffels, from the node blocks, whose own builds come first."""
    sc = load_scenario(scenario_path(name), validate=False)
    grid = sc.quadrature()
    blocks = list(evaluate_batches(sc.immersion, grid.points, 2))
    recorder.calls.clear()
    values = energies(grid, blocks)
    assert recorder.of("spaces.AmbientSpace.metric_jets") == [] and set(values) == set(ENERGIES)
    next(evaluate_batches(sc.immersion, grid.points[:1], 2))
    assert recorder.of("spaces.AmbientSpace.metric_jets") == [(1, 2)]


def test_frozen_grad_f_is_the_evaluated_field(catalog_names):
    """At the quadrature nodes of every catalog scenario with a metric, the
    frozen grad f is the evaluation's `grad_f_param_field`, bit for bit, at
    orders 2-4 (`energy` reads order 3, `variation` 4).  It agrees with g^-1 df taken
    again by `matvec` to the rounding of a length-m dot product: numpy's
    stacked matmul need not add left to right (1 ulp at 12 of c12's 36
    nodes on a 2-vCPU Xeon with numpy 2.4)."""
    eps = np.finfo(float).eps
    for name in catalog_names:
        sc = load_scenario(scenario_path(name), validate=False)
        if not sc.immersion.ambient.has_metric:
            continue
        for order in (2, 3, 4):
            blocks = catalog_blocks(name, order, nodes=True)
            got = _frozen(blocks).grad_f_param
            want = np.concatenate([ev.values(ev.grad_f_param_field) for ev in blocks])
            assert same_bits(got, want), (name, order)
            ginv = np.concatenate([ev.values(ev.induced_metric_inv_field) for ev in blocks])
            df = np.concatenate([ev.values(ev.f_jet.derivs()) for ev in blocks])
            bound = 4 * eps * matvec(np.abs(ginv), np.abs(df))
            assert (np.abs(got - matvec(ginv, df)) <= bound).all(), (name, order)


@pytest.mark.parametrize("name", ["c04_small_sphere", "c08_hopf_torus",
                                  "c12_torus_deformed_generic"])
def test_batched_steps_equal_one_step_calls(name):
    """Each step's tension vectors, dpsi_t and ambient metrics from the call
    that deforms the map by every step at once, and each functional's
    density from them, equal those of a call with that step alone, bit for
    bit: a node's chart values do not depend on the other positions."""
    sc = get_scenario(name)
    imm, grid = sc.immersion, sc.quadrature()
    count = len(grid)
    frozen = _frozen(evaluate_batches(imm, grid.points, 4))
    env = parameter_jets(imm.params, grid.points, 2)
    v = _arrays(Jet.stack([eval_on_jets(parse(c, imm.params), env)
                           for c in sc.default_variation()]), count)
    ts = [s for h in STEPS for s in (h, -h)]
    batched = _deformed_tension_data(imm.ambient, frozen, v, ts)
    assert all(len(x) == len(ts) * count for x in batched)
    densities = _densities(imm.ambient, frozen, ENERGIES, v, ts)
    for k, t in enumerate(ts):
        rows = slice(k * count, (k + 1) * count)
        alone = _deformed_tension_data(imm.ambient, frozen, v, (t,))
        assert all(same_bits(x[rows], y) for x, y in zip(batched, alone)), t
        one_step = _densities(imm.ambient, frozen, ENERGIES, v, (t,))
        for which in ENERGIES:
            assert same_bits(densities[which][k], one_step[which][0]), (t, which)


# Jet coefficients: signed zeros, and magnitudes whose products with the
# steps stay normal floats (below that, doubling a rounded subnormal need
# not equal rounding the doubled product, and the array sum may differ).
COEFF = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-290, 1e6),
                  st.floats(-1e6, -1e-290))


def _arrays(jet, count):
    """Values, first and second derivatives of a vector jet, point by point."""
    first = jet.derivs()
    return jet.point_values(count), first.point_values(count), first.derivs().point_values(count)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 2), d=st.integers(1, 3), count=st.integers(1, 2),
       t=st.sampled_from([s * h for h in STEPS for s in (1.0, -1.0)] + [0.0]))
def test_deformed_map_arrays_round_as_the_jet_sum(data, m, d, count, t):
    """x + y * t on the values, first and second derivatives of order-2
    jets psi and V equals those of the jet psi + v * t, bit for bit: the
    derivative scale factors 1 and 2 commute with the rounding."""
    sp = jet_space(m, 2)
    size = d * count * sp.size
    psi, v = (Jet(sp, np.reshape(data.draw(st.lists(COEFF, min_size=size, max_size=size)),
                                 (d, count, sp.size)), True) for _ in range(2))
    summed = _arrays(psi + v * t, count)
    for jet_array, x, y in zip(summed, _arrays(psi, count), _arrays(v, count)):
        assert same_bits(jet_array, x + y * t)
