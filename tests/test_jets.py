import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihkit import jets
from bihkit.jets import MAX_ORDER, Composer, Jet, JetError, jet_space
from conftest import at, coeff, partial, same_bits


def test_seed_variable_basic():
    j = Jet.variable(jet_space(2, 2), 0, 2.0)
    assert j.value == 2.0
    assert coeff(j, (1, 0)) == 1.0
    assert coeff(j, (0, 1)) == 0.0
    assert coeff(j, (2, 0)) == 0.0

    j2 = Jet.variable(jet_space(2, 1), 1, 0.0)
    assert j2.value == 0.0
    assert coeff(j2, (0, 1)) == 1.0


def test_square_of_seed():
    x = Jet.variable(jet_space(1, 3), 0, 3.0)
    sq = x * x
    assert np.allclose(sq.c, [9.0, 6.0, 1.0, 0.0])


def test_seed_out_of_range():
    with pytest.raises(JetError):
        Jet.variable(jet_space(2, 2), 2, 1.0)
    with pytest.raises(JetError):
        Jet.variable(jet_space(1, 7), 0, 1.0)


def test_sin_exp_series():
    s = Jet.variable(jet_space(1, 3), 0, 0.0).sin()
    assert np.allclose(s.c, [0.0, 1.0, 0.0, -1.0 / 6.0])
    e = Jet.variable(jet_space(1, 3), 0, 0.0).exp()
    assert np.allclose(e.c, [1.0, 1.0, 0.5, 1.0 / 6.0])


def _richardson_d4(g, x, hs=(0.04, 0.02, 0.01)):
    def d4(h):
        return (g(x + 2 * h) - 4 * g(x + h) + 6 * g(x) - 4 * g(x - h)
                + g(x - 2 * h)) / h**4

    v = [d4(h) for h in hs]
    r1 = [(4 * v[i + 1] - v[i]) / 3 for i in range(len(v) - 1)]
    return (16 * r1[1] - r1[0]) / 15


# frozen from the Richardson-extrapolated central-difference oracle above
D4_SIN_X2_AT_07 = -24.592023131086243


def test_fourth_derivative_vs_finite_differences():
    x = Jet.variable(jet_space(1, 4), 0, 0.7)
    val = partial((x * x).sin(), (4,))
    assert abs(val - D4_SIN_X2_AT_07) <= 1e-5
    # the in-test oracle reproduces the frozen value
    assert abs(_richardson_d4(lambda t: math.sin(t * t), 0.7)
               - D4_SIN_X2_AT_07) < 1e-9


def test_extract_partial_examples():
    sp = jet_space(2, 2)
    x = Jet.variable(sp, 0, 1.0)
    y = Jet.variable(sp, 1, 1.0)
    assert partial(x * y, (1, 1)) == pytest.approx(1.0)
    xx = Jet.variable(jet_space(1, 2), 0, 0.4)
    assert partial(xx * xx, (2,)) == pytest.approx(2.0)

    sp3 = jet_space(2, 3)
    f = Jet.variable(sp3, 0, 0.3).sin() * Jet.variable(sp3, 1, 0.5).cos()
    # d^2/dx^2 d/dy sin(x)cos(y) = sin(x) sin(y)
    exact = math.sin(0.3) * math.sin(0.5)
    assert abs(partial(f, (2, 1)) - exact) <= 1e-12

    with pytest.raises(JetError):
        partial(f, (2, 2))


def test_space_mismatch_errors():
    a = Jet.variable(jet_space(1, 2), 0, 1.0)
    b = Jet.variable(jet_space(2, 2), 0, 1.0)
    c = Jet.variable(jet_space(1, 3), 0, 1.0)
    with pytest.raises(JetError):
        a + b
    with pytest.raises(JetError):
        a * c


def test_domain_errors():
    z = Jet.constant(jet_space(1, 2), 0.0)
    with pytest.raises(JetError):
        1.0 / z
    with pytest.raises(JetError):
        z.log()
    with pytest.raises(JetError):
        Jet.constant(jet_space(1, 2), -1.0).sqrt()
    with pytest.raises(JetError):
        Jet.constant(jet_space(1, 2), -0.5) ** 0.5


def _poly_eval_partials(coeffs, point, gamma):
    """Analytic partial of a dense 2-var polynomial sum c[i,j] x^i y^j."""
    total = 0.0
    gx, gy = gamma
    for (i, j), c in coeffs.items():
        if i < gx or j < gy:
            continue
        scale = (math.factorial(i) // math.factorial(i - gx)) * (
            math.factorial(j) // math.factorial(j - gy)
        )
        total += c * scale * point[0] ** (i - gx) * point[1] ** (j - gy)
    return total


def test_random_polynomials_exact():
    rng = np.random.default_rng(42)
    sp = jet_space(2, 4)
    for _ in range(25):
        coeffs = {
            (i, j): rng.normal()
            for i in range(5)
            for j in range(5 - i)
        }
        pt = rng.normal(size=2)
        x = Jet.variable(sp, 0, pt[0])
        y = Jet.variable(sp, 1, pt[1])
        acc = Jet.constant(sp, 0.0)
        for (i, j), c in coeffs.items():
            acc = acc + c * x**i * y**j
        for gamma in sp.indices:
            exact = _poly_eval_partials(coeffs, pt, gamma)
            got = partial(acc, gamma)
            assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(-2, 2), min_size=6, max_size=6),
    b=st.lists(st.floats(-2, 2), min_size=6, max_size=6),
    x0=st.floats(-1, 1),
    y0=st.floats(-1, 1),
)
def test_leibniz_rule(a, b, x0, y0):
    """extract(a*b, gamma) equals the Leibniz convolution of the factors."""
    sp = jet_space(2, 3)
    x = Jet.variable(sp, 0, x0)
    y = Jet.variable(sp, 1, y0)
    pa = a[0] + a[1] * x + a[2] * y + a[3] * x * y + a[4] * x * x + a[5] * y * y
    pb = b[0] + b[1] * x + b[2] * y + b[3] * x * y + b[4] * x * x + b[5] * y * y
    prod = pa * pb
    for gamma in sp.indices:
        conv = 0.0
        gx, gy = gamma
        for ix in range(gx + 1):
            for iy in range(gy + 1):
                conv += (
                    math.comb(gx, ix) * math.comb(gy, iy)
                    * partial(pa, (ix, iy))
                    * partial(pb, (gx - ix, gy - iy))
                )
        assert abs(partial(prod, gamma) - conv) <= 1e-10 * max(1.0, abs(conv))


def _random_source(rng, depth, var):
    """Random expression text over one variable, safe for jet evaluation."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([var, f"{rng.uniform(0.3, 1.5):.3f}",
                           f"{rng.uniform(0.2, 0.9):.3f}*{var}"])
    op = rng.choice(["+", "*", "sin", "cos", "atan", "exp", "sq"])
    left = _random_source(rng, depth - 1, var)
    if op in ("+", "*"):
        right = _random_source(rng, depth - 1, var)
        return f"({left} {op} {right})"
    if op == "sq":
        return f"({left})^2"
    if op == "exp":
        return f"exp(0.2*({left}))"
    return f"{op}({left})"


def test_chain_consistency_composed_vs_fused():
    """Jets of f(g(x)) via composition agree with the fused evaluation
    for a catalog of 20 random expression trees."""
    from bihkit.expr import eval_on_jets, parse

    rng = np.random.default_rng(7)
    sp = jet_space(2, 4)
    for _ in range(20):
        x0, y0 = rng.uniform(-0.7, 0.7, size=2)
        inner_src = _random_source(rng, 2, "x")
        outer_src = _random_source(rng, 2, "t")
        inner_tree = parse(inner_src, ["x", "y"])
        outer_tree = parse(outer_src, ["t"])
        x = Jet.variable(sp, 0, x0)
        y = Jet.variable(sp, 1, y0)
        g = eval_on_jets(inner_tree, {"x": x, "y": y}) + 0.1 * y
        fused = eval_on_jets(outer_tree, {"t": g})
        outer_sp = jet_space(1, 4)
        t = Jet.variable(outer_sp, 0, g.value)
        outer_jet = eval_on_jets(outer_tree, {"t": t})
        comp = Composer([g - g.value]).apply(outer_jet)
        denom = np.maximum(1.0, np.abs(fused.c))
        assert np.max(np.abs(fused.c - comp.c) / denom) <= 1e-12


def test_composition_exactness():
    """Composer reproduces direct evaluation for analytic compositions."""
    rng = np.random.default_rng(11)
    sp = jet_space(2, 4)
    for _ in range(20):
        x0, y0 = rng.uniform(-0.7, 0.7, size=2)
        x = Jet.variable(sp, 0, x0)
        y = Jet.variable(sp, 1, y0)
        inner = x * y + 0.3 * x
        direct = inner.sin() * (inner * 0.25).exp()
        outer_sp = jet_space(1, 4)
        t = Jet.variable(outer_sp, 0, inner.value)
        outer = t.sin() * (t * 0.25).exp()
        comp = Composer([inner - inner.value]).apply(outer)
        denom = np.maximum(1.0, np.abs(direct.c))
        assert np.max(np.abs(direct.c - comp.c) / denom) <= 1e-12


def test_truncate_and_deriv():
    sp = jet_space(2, 3)
    x = Jet.variable(sp, 0, 0.4)
    y = Jet.variable(sp, 1, -0.2)
    f = (x * y).exp()
    fx = f.deriv(0)
    assert fx.space.order == 2
    assert fx.value == pytest.approx(partial(f, (1, 0)))
    assert coeff(f.truncate(1), (1, 0)) == pytest.approx(coeff(f, (1, 0)))
    with pytest.raises(JetError):
        f.truncate(4)


@pytest.mark.parametrize("num_vars", [1, 2, 3, 4])
def test_truncate_and_deriv_match_multi_index_lookup(num_vars):
    # Oracle: look every coefficient up by its multi-index; the derivative
    # coefficient at gamma is (gamma_axis + 1) * c[gamma + e_axis].
    rng = np.random.default_rng(num_vars)
    for order in range(MAX_ORDER + 1):
        sp = jet_space(num_vars, order)
        f = Jet(sp, rng.standard_normal(sp.size))
        for low in range(order + 1):
            expect = [coeff(f, g) for g in jet_space(num_vars, low).indices]
            t = f.truncate(low)
            assert t.space is jet_space(num_vars, low)
            assert np.array_equal(t.c, expect)
        if order == 0:
            continue
        lower = jet_space(num_vars, order - 1)
        for axis in range(num_vars):
            expect = [
                coeff(f, tuple(k + (a == axis) for a, k in enumerate(g))) * (g[axis] + 1)
                for g in lower.indices
            ]
            d = f.deriv(axis)
            assert d.space is lower
            assert np.array_equal(d.c, expect)
        before = f.c.copy()
        f.truncate(order - 1).c[:] = 0.0
        assert np.array_equal(f.c, before)


def test_referential_transparency():
    sp = jet_space(2, 4)
    x = Jet.variable(sp, 0, 0.3)
    y = Jet.variable(sp, 1, 0.9)
    a = (x.sin() * y.exp() / (y + 2.0)) ** 3
    b = (x.sin() * y.exp() / (y + 2.0)) ** 3
    assert np.array_equal(a.c, b.c)


COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-3.0, 3.0))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tensor_ops_match_scalar_jets(data):
    """Every tensor-jet operation equals the scalar-jet operation on each
    (broadcast) entry, bit for bit."""
    num_vars = data.draw(st.integers(1, 4))
    order = data.draw(st.integers(0, MAX_ORDER))
    sp = jet_space(num_vars, order)
    shape_a = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    # b broadcasts against a: a suffix of a's axes, each kept or set to 1
    kept = data.draw(st.integers(0, len(shape_a)))
    shape_b = tuple(n if data.draw(st.booleans()) else 1 for n in shape_a[len(shape_a) - kept:])

    def tensor(shape):
        flat = data.draw(st.lists(COEFF, min_size=math.prod(shape) * sp.size,
                                  max_size=math.prod(shape) * sp.size))
        return Jet(sp, np.reshape(flat, shape + (sp.size,)))

    a, b = tensor(shape_a), tensor(shape_b)
    out_shape = np.broadcast_shapes(shape_a, shape_b)
    ca = np.broadcast_to(a.c, out_shape + (sp.size,))
    cb = np.broadcast_to(b.c, out_shape + (sp.size,))

    def entrywise(op, *cs):
        first = (0,) * len(out_shape)
        out = np.empty(out_shape + (op(*(Jet(sp, c[first]) for c in cs)).space.size,))
        for idx in np.ndindex(*out_shape):
            out[idx] = op(*(Jet(sp, c[idx]) for c in cs)).c
        return out

    assert same_bits((a * b).c, entrywise(lambda x, y: x * y, ca, cb))
    assert same_bits((b * a).c, entrywise(lambda x, y: y * x, ca, cb))
    assert same_bits((a + b).c, entrywise(lambda x, y: x + y, ca, cb))
    assert same_bits((a - b).c, entrywise(lambda x, y: x - y, ca, cb))
    assert same_bits((-a).c, entrywise(lambda x: -x, ca))
    low = data.draw(st.integers(0, order))
    assert same_bits(a.truncate(low).c, entrywise(lambda x: x.truncate(low), ca))
    if order > 0:
        axis = data.draw(st.integers(0, num_vars - 1))
        assert same_bits(a.deriv(axis).c, entrywise(lambda x: x.deriv(axis), ca))
        for ax in range(num_vars):
            assert same_bits(a.derivs().c[..., ax, :], a.deriv(ax).c)
    # the sum over an axis adds its slices left to right
    acc = Jet(sp, ca[0])
    for k in range(1, out_shape[0]):
        acc = acc + Jet(sp, ca[k])
    assert same_bits(Jet(sp, ca).sum(0).c, acc.c)

    # P base points at once: every result, at each point, is the one-point
    # result; b has a points axis or is the same at every point
    points = data.draw(st.integers(1, 7))
    pa = Jet(sp, np.stack([tensor(shape_a).c for _ in range(points)], axis=-2), True)
    pb = (Jet(sp, np.stack([tensor(shape_b).c for _ in range(points)], axis=-2), True)
          if data.draw(st.booleans()) else b)

    def per_point(op, *jets):
        out = op(*jets)
        for p in range(points):
            assert same_bits(at(out, p).c, op(*(at(j, p) for j in jets)).c)

    per_point(lambda x, y: x * y, pa, pb)
    per_point(lambda x, y: y * x, pa, pb)
    per_point(lambda x, y: x + y, pa, pb)
    per_point(lambda x, y: y - x, pa, pb)
    per_point(lambda x: x.sum(0), pa)
    per_point(lambda x, y: x.sum(-1, start=y), pa, pb[..., 0] if pb.shape else pb)
    per_point(lambda x: x.truncate(low), pa)
    if order > 0:
        per_point(lambda x: x.derivs(), pa)
        per_point(lambda x: x.deriv(axis), pa)
    # univariate functions, their derivative values taken point by point
    scalar = pa[(0,) * len(shape_a)]
    positive = Jet(sp, np.concatenate([np.abs(scalar.c[..., :1]) + 0.25, scalar.c[..., 1:]],
                                      axis=-1), True)
    for fn in (Jet.sin, Jet.cos, Jet.exp, Jet.atan):
        per_point(fn, scalar)
    for fn in (Jet.log, Jet.sqrt, lambda x: x ** 1.5, lambda x: x ** -2, lambda x: 1.0 / x):
        per_point(fn, positive)
    # Composer.apply: inner jets at each point, outer at each point or shared
    inners = [Jet(sp, np.concatenate([np.zeros((points, 1)), c[..., 1:]], axis=-1), True)
              for c in (positive.c, scalar.c)]
    outer_sp = jet_space(2, order)
    outer = Jet(outer_sp, np.reshape(data.draw(st.lists(
        COEFF, min_size=points * outer_sp.size, max_size=points * outer_sp.size)),
        (points, outer_sp.size)), True)
    composed = Composer(inners).apply(outer)
    for p in range(points):
        want = Composer([at(h, p) for h in inners]).apply(at(outer, p))
        assert same_bits(at(composed, p).c, want.c)
        assert same_bits(at(Composer(inners).apply(at(outer, 0)), p).c,
                          Composer([at(h, p) for h in inners]).apply(at(outer, 0)).c)


@pytest.mark.parametrize("num_vars", [3, 4])
def test_products_over_the_gather_budget_match_scalar_jets(monkeypatch, num_vars):
    """A product of tensor jets gathers the whole table at once, or step by
    step once its broadcast entries times the table length exceed the
    budget; both give every entry the scalar (bincount) product bit for
    bit.  Signed zeros are in the coefficients, and the first rows' constant
    terms are -0.0: a sum started from its first term instead of 0.0 would
    keep a -0.0."""
    sp = jet_space(num_vars, MAX_ORDER)
    ran = []

    class Recorded(list):
        def __iter__(self):
            ran.append(self.name)
            return super().__iter__()

    for name in ("_one_gather", "_by_step"):
        groups = Recorded(getattr(sp, name))
        groups.name = name
        monkeypatch.setattr(sp, name, groups)
    rng = np.random.default_rng(num_vars)

    def tensor(shape):
        c = rng.standard_normal(shape + (sp.size,))
        c[rng.random(c.shape) < 0.3] = 0.0
        c[rng.random(c.shape) < 0.3] = -0.0
        return c

    fit = jets._PRODUCT_BUDGET // len(sp._mul_k)  # entries one gather takes
    for rows in (fit // 16, fit // 8 + 1):
        ca, cb = tensor((rows, 1)), tensor((1, 8))
        ca[:2, 0, 0], cb[0, :, 0] = -0.0, 1.0
        ran.clear()
        for x, y in ((ca, cb), (cb, ca)):
            prod = (Jet(sp, x) * Jet(sp, y)).c
            for i, j in np.ndindex(rows, 8):
                pair = (x[i, 0], y[0, j]) if x is ca else (x[0, j], y[i, 0])
                assert same_bits(prod[i, j], (Jet(sp, pair[0]) * Jet(sp, pair[1])).c)
        assert ran == ["_one_gather" if rows * 8 <= fit else "_by_step"] * 2


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batched_inverse_pivots_per_point(data):
    """`inverse` on P points picks each point's pivot rows: rows are
    permuted differently per point, and every point's inverse is the
    one-point inverse bit for bit (a singular point fails the batch)."""
    n = data.draw(st.integers(1, 4))
    points = data.draw(st.integers(1, 7))
    sp = jet_space(data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2)))
    mats = []
    for _ in range(points):
        flat = data.draw(st.lists(COEFF, min_size=n * n * sp.size, max_size=n * n * sp.size))
        c = np.reshape(flat, (n, n, sp.size))
        c[range(n), range(n), 0] += 4.0  # usually invertible
        mats.append(c[data.draw(st.permutations(range(n)))])
    M = Jet(sp, np.stack(mats, axis=-2), True)
    singles = []
    for p in range(points):
        try:
            singles.append(at(M, p).inverse())
        except JetError:
            singles.append(None)
    if any(x is None for x in singles):
        with pytest.raises(JetError):
            M.inverse()
        return
    inv = M.inverse()
    for p in range(points):
        assert same_bits(at(inv, p).c, singles[p].c)


def _full_width_inverse(M):
    """Gauss-Jordan on all 2n columns of [M | I] at every step, the pivot
    chosen per point: the oracle of `Jet.inverse`, which updates only the
    columns right of the pivot column."""
    n, sp = M.c.shape[0], M.space
    points = np.arange(M.c.shape[-2])
    eye = np.zeros((n, n, len(points), sp.size))
    eye[range(n), range(n), :, 0] = 1.0
    aug = np.concatenate([M.c, eye], axis=1)
    for col in range(n):
        piv = col + np.argmax(np.abs(aug[col:, col, :, 0]), axis=0)
        if (np.abs(aug[piv, col, points, 0]) < 1e-14).any():
            raise JetError("singular jet matrix")
        rows = np.repeat(np.arange(n)[:, None], len(points), axis=1)
        rows[col], rows[piv, points] = piv, col
        aug = np.take_along_axis(aug, rows[:, None, :, None], axis=0)
        pivot_row = Jet(sp, aug[col], True) * (1.0 / Jet(sp, aug[col, col], True))
        aug = (Jet(sp, aug, True) - Jet(sp, aug[:, col, None], True) * pivot_row).c
        aug[col] = pivot_row.c
    return aug[:, n:]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), points=st.integers(1, 5), num_vars=st.integers(1, 3),
       order=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_inverse_matches_full_width_gauss_jordan(n, points, num_vars, order, seed):
    """Eliminating on the live columns only gives the full-width
    elimination's inverse bit for bit, with rows permuted differently per
    point and coefficients of +-0.0 and 1.0 mixed in (and fails where it
    fails)."""
    sp = jet_space(num_vars, order)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-3.0, 3.0, size=(points, n, n, sp.size))
    special = rng.random(c.shape) < 0.3
    c[special] = rng.choice([0.0, -0.0, 1.0], size=special.sum())
    c[:, range(n), range(n), 0] += 4.0  # usually invertible
    c = np.stack([c[p, rng.permutation(n)] for p in range(points)], axis=-2)
    M = Jet(sp, c, True)
    try:
        expected = _full_width_inverse(M)
    except JetError:
        with pytest.raises(JetError):
            M.inverse()
        return
    assert same_bits(M.inverse().c, expected)


def test_lower_order_tables_are_prefixes():
    """A composer that built its monomial table for an outer order serves a
    lower order of the same variables from the prefix, bit for bit the
    table a fresh composer builds for that order."""
    sp = jet_space(2, 4)
    x = Jet.variable(sp, 0, np.array([0.3, -0.8]))
    y = Jet.variable(sp, 1, np.array([1.1, 0.2]))
    inners = [(x * y).sin().centered(), (x + y * y).centered(), (x * x).centered()]
    shared = Composer(inners)
    for order in (3, 2, 1, 0):
        outer = jet_space(3, order)
        assert same_bits(shared._table(outer), Composer(inners)._table(outer))
    assert list(shared._tables) == [jet_space(3, 3)]


def test_univariate_functions_make_no_constant_jets(monkeypatch):
    """A univariate function adds its constant rows to the coefficients
    directly instead of building a constant jet per Horner step."""
    calls = []
    constant = Jet.constant
    monkeypatch.setattr(Jet, "constant", staticmethod(
        lambda *args: calls.append(args) or constant(*args)))
    sp = jet_space(2, 4)
    scalar = Jet.variable(sp, 0, 0.7) * Jet.variable(sp, 1, 0.4) + 0.4
    assert calls == [(sp, 0.4)]  # the one float added above
    calls.clear()
    batched = Jet.variable(sp, 0, np.array([0.3, 0.9, 1.4]))
    for x in (scalar, Jet.stack([scalar, scalar * scalar]), batched):
        for fn in (Jet.sin, Jet.cos, Jet.tan, Jet.exp, Jet.log, Jet.sqrt, Jet.atan,
                   lambda y: y ** 0.5, lambda y: y ** -1, lambda y: y ** -2.5):
            fn(x)
    assert calls == []


def test_tensor_layout_methods():
    """Building and rearranging tensor jets touches the tensor axes only."""
    sp = jet_space(2, 2)
    rng = np.random.default_rng(5)
    a = Jet(sp, rng.standard_normal((3, 3, sp.size)))
    # upper/symmetric: the upper triangle, row-major, mirrored on any axis pair
    i, j = np.triu_indices(3)
    assert np.array_equal(a.upper().c, a.c[i, j])
    s = a.upper().symmetric()
    assert s.shape == (3, 3)
    for p, q in np.ndindex(3, 3):
        assert np.array_equal(s.c[p, q], a.c[min(p, q), max(p, q)])
    assert np.array_equal(a[None, i, j].symmetric(axis=1).c, s.c[None])
    with pytest.raises(JetError):
        a.reshape(9)[:4].symmetric()
    # add_diagonal: a scalar jet or one jet per diagonal entry
    w = Jet.variable(sp, 1, 0.5)
    d = a.add_diagonal(w)
    for p, q in np.ndindex(3, 3):
        expect = (a[p, q] + w).c if p == q else a.c[p, q]
        assert np.array_equal(d.c[p, q], expect)
    assert np.array_equal(a.add_diagonal(a[0]).c[2, 2], (a[2, 2] + a[0, 2]).c)
    # concatenate, transpose, constants and float-array factors
    assert np.array_equal(Jet.concatenate([a, a[:, :1]], axis=-1).c,
                          np.concatenate([a.c, a.c[:, :1]], axis=1))
    assert np.array_equal(a.transpose(1, 0).c, a.c.swapaxes(0, 1))
    eye = Jet.constant(sp, np.eye(2))
    assert eye.shape == (2, 2) and np.array_equal(eye.values, np.eye(2))
    assert not eye.c[..., 1:].any()
    f = np.array([2.0, -0.5, 3.0])
    assert np.array_equal((a * f).c, (f * a).c)
    for p in range(3):
        assert np.array_equal((a * f).c[:, p], (a[:, p] * f[p]).c)
