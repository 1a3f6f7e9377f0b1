import itertools
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

    # the whole table, which jets without a degree bound take
    count, one_gather, by_step, unsort = jets._sweep(sp, MAX_ORDER, MAX_ORDER)
    recorded = []
    for name, groups in (("one gather", one_gather), ("by step", by_step)):
        recorded.append(Recorded(groups))
        recorded[-1].name = name
    sweep = jets._sweep
    monkeypatch.setattr(jets, "_sweep", lambda space, dx, dy: (count, *recorded, unsort)
                        if (space, dx, dy) == (sp, MAX_ORDER, MAX_ORDER) else sweep(space, dx, dy))
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
        assert ran == ["one gather" if rows * 8 <= fit else "by step"] * 2


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


def _jet_elimination(M):
    """The inverse of `M` by the jet elimination (`_full_width_inverse`),
    with or without points axis as `M`."""
    batched = M if M.batched else Jet(M.space, M.c[..., None, :], True)
    out = _full_width_inverse(batched)
    return out if M.batched else out[..., 0, :]


def _assert_inverse_is_the_jet_elimination(M):
    """M.inverse() is the jet elimination's inverse bit for bit, or both
    raise JetError."""
    try:
        expected = _jet_elimination(M)
    except JetError:
        with pytest.raises(JetError, match="singular jet matrix"):
            M.inverse()
        return False
    assert same_bits(M.inverse().c, expected)
    return True


def _counting_products(recorder, fn):
    """(fn(), the number of jet products it ran)."""
    recorder.calls.clear()
    return fn(), len(recorder.of("jets._product"))


def _matrices(rng, n, sp, points, degree):
    """An n x n matrix of jets of `sp`, +-0.0 past the degree bound
    `degree`, with a points axis of `points` (0: none) and rows permuted
    per point; entries of +-0.0 and +-1 mixed in, diagonal values shifted
    by +-4 (usually invertible, pivots of both signs)."""
    shape = (n, n) + ((points,) if points else ())
    c = rng.uniform(-3.0, 3.0, size=shape + (sp.size,))
    special = rng.random(c.shape) < 0.3
    c[special] = rng.choice([0.0, -0.0, 1.0, -1.0], size=special.sum())
    c[range(n), range(n), ..., 0] += rng.choice([-4.0, 4.0], size=(n,) + shape[2:])
    past = np.array([sum(g) > degree for g in sp.indices])
    c[..., past] = rng.choice([0.0, -0.0], size=c[..., past].shape)
    if points:
        c = np.stack([c[rng.permutation(n), :, p] for p in range(points)], axis=-2)
    return Jet(sp, c, bool(points), degree)


INVERSE_SPACES = [(1, 0), (2, 0), (1, 4), (2, 3), (3, 2)]


@pytest.mark.parametrize("num_vars, order", INVERSE_SPACES)
@pytest.mark.parametrize("points", [0, 1, 5])
def test_constant_inverse_is_the_jet_elimination(recorder, num_vars, order, points):
    """A constant matrix (degree 0) or one of order 0 is eliminated on its
    constant terms alone, with no jet product: bit for bit the jet
    elimination, signed zeros included, at n = 1 to 4 with the pivot rows
    swapped per point, with and without points axis; the inverse is a
    degree-0 jet."""
    sp = jet_space(num_vars, order)
    rng = np.random.default_rng(order * 100 + num_vars * 10 + points)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            M = _matrices(rng, n, sp, points, 0)
            inv, products = _counting_products(recorder, M.inverse)
            assert products == 0
            assert inv._degree == 0 and inv.shape == M.shape and inv.batched == M.batched
            assert same_bits(inv.c, _jet_elimination(M)), n


@pytest.mark.parametrize("num_vars, order", INVERSE_SPACES)
@pytest.mark.parametrize("points", [0, 3])
def test_one_by_one_inverse_is_the_reciprocal(recorder, num_vars, order, points):
    """A 1 x 1 matrix of every degree bound is inverted by its reciprocal,
    the products of its Horner steps and none more: bit for bit the jet
    elimination, signed zeros included."""
    sp = jet_space(num_vars, order)
    rng = np.random.default_rng(order * 100 + num_vars * 10 + points)
    for degree in range(order + 1):
        M = _matrices(rng, 1, sp, points, degree)
        inv, products = _counting_products(recorder, M.inverse)
        reciprocal, own = _counting_products(recorder, M._reciprocal)
        assert products == (own if degree > 0 else 0)  # degree 0: a constant matrix
        assert same_bits(inv.c, _jet_elimination(M)), degree
        assert same_bits(inv.c, reciprocal.c + 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_non_finite_matrices_keep_the_jet_elimination(n):
    """A NaN or inf entry, and a 1 x 1 matrix whose reciprocal overflows,
    give the jet elimination's inverse bit for bit: 0 * inf and 0 * NaN
    fill the higher coefficients with NaN there."""
    sp = jet_space(2, 3)
    rng = np.random.default_rng(n)
    for bad in (math.nan, math.inf, -math.inf):
        for degree in (0, 3):
            for row in range(n):
                M = _matrices(rng, n, sp, 2, degree)
                M.c[row, 0, 1, 0] = bad  # at point 1 only
                with np.errstate(all="ignore"):
                    _assert_inverse_is_the_jet_elimination(M)
    M = _matrices(rng, n, sp, 0, 3)
    M.c[..., 1] = 1e300  # finite, but h^2 overflows in the Horner steps of a reciprocal
    with np.errstate(all="ignore"):
        assert _assert_inverse_is_the_jet_elimination(M)
        assert np.isnan(M.inverse().c[..., 1:]).any()


@pytest.mark.parametrize("degree", [0, 2])
def test_singular_threshold_of_the_cheap_inverses(degree):
    """The constant-term and the 1 x 1 inverses raise JetError exactly
    where the jet elimination does: a pivot below 1e-14 in magnitude, at
    any point of a batch."""
    sp = jet_space(1, 2)
    rng = np.random.default_rng(degree)
    raised = []
    for pivot in (0.0, -0.0, 9e-15, -9.9e-15, 1e-14, -1.2e-14, 1.0):
        for n in (1, 2):
            M = _matrices(rng, n, sp, 3, degree)
            M.c[..., 0] = np.diag([1.0, pivot][-n:])[..., None]  # the last pivot at each point
            raised.append(not _assert_inverse_is_the_jet_elimination(M))
    assert raised == [True] * 8 + [False] * 6


def test_lower_order_tables_are_prefixes():
    """A composer keeps one monomial table: it serves a lower degree or a
    lower order from the prefix, on rows and coefficients, bit for bit the
    table a fresh composer builds for exactly that degree and order, and
    builds the table again only when a call needs more of either."""
    sp = jet_space(2, 4)
    x = Jet.variable(sp, 0, np.array([0.3, -0.8]))
    y = Jet.variable(sp, 1, np.array([1.1, 0.2]))
    inners = [(x * y).sin().centered(), (x + y * y).centered(), (x * x).centered()]
    shared = Composer(inners)
    for degree, order in ((3, 3), (2, 3), (1, 2), (0, 0), (3, 1)):
        assert same_bits(shared._table(degree, order), Composer(inners)._table(degree, order))
    assert shared._depth == (3, 3) and shared._built.shape == (20, 2, 10)
    assert same_bits(shared._table(1, 4), Composer(inners)._table(1, 4))
    assert shared._depth == (3, 4) and shared._built.shape == (20, 2, 15)


def _dense_compose(inners, outer, order):
    """The reference composer: every row of the outer's basis, the
    monomials at the inner jets' full order, then the first coefficients of
    the jet space of `order` kept."""
    h = Jet.stack(inners)
    sp = jet_space(h.space.num_vars, order)
    table = np.zeros((outer.space.size,) + h.c.shape[1:])
    table[0, ..., 0] = 1.0
    for rows, parents, axes in jets._monomial_plan(outer.space):
        table[rows] = (h._like(table[parents]) * h[axes]).c
    c = outer.c
    batched = h.batched or outer.batched
    if batched and not outer.batched:
        c = c[..., None, :]
    acc = np.zeros(np.broadcast_shapes(c.shape[:-1] + (1,), table.shape[1:-1] + (sp.size,)))
    for i in range(outer.space.size):
        acc += c[..., i, None] * table[i, ..., :sp.size]
    return Jet(sp, acc, batched)


def _outer_rows(rng, space, kind, lead):
    """Coefficients (lead + (S,)) of an outer whose rows are live by `kind`:
    random with zero rows, all zero, constant, or only the pure powers of
    the first variable (a metric of t alone, as on a Kenmotsu chart)."""
    c = rng.normal(size=lead + (space.size,))
    if kind == "zero_rows":
        live = rng.random(space.size) < 0.5
    elif kind == "zero":
        live = np.zeros(space.size, dtype=bool)
    elif kind == "constant":
        live = np.arange(space.size) == 0
    else:
        live = np.array([sum(g) == g[0] for g in space.indices])
    return np.where(live, c, 0.0)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("kind", ["zero_rows", "zero", "constant", "t_only"])
def test_live_rows_compose_as_the_dense_table(batched, kind):
    """Composing only the live rows, from one shallow table, gives the bits
    of the dense all-rows, full-depth composition: a metric to order 3 and
    Christoffels to order 2 along three inners of order 4, as
    `calculus._ambient_along` composes them, then a full-order `apply` that
    makes the table deeper."""
    rng = np.random.default_rng(["zero_rows", "zero", "constant", "t_only"].index(kind))
    sp = jet_space(2, 4)
    value = rng.normal(size=3) if batched else 0.4
    x, y = Jet.variable(sp, 0, value), Jet.variable(sp, 1, value)
    inners = [(x * y).sin().centered(), (x + y * y).centered(), (x * 0.5).exp().centered()]
    composer = Composer(inners)
    for trial in range(3):
        for outer_order, shape, truncated in ((3, (3, 3), True), (2, (3, 3, 3), True),
                                              (2, (3,), False)):
            outer_sp = jet_space(3, outer_order)
            points = (3,) if batched and trial == 1 else ()
            outer = Jet(outer_sp, _outer_rows(rng, outer_sp, kind, shape + points),
                        bool(points))
            got = (composer.apply_truncated if truncated else composer.apply)(outer)
            order = outer_order if truncated else sp.order
            assert same_bits(got.c, _dense_compose(inners, outer, order).c)
            assert got.space is jet_space(2, order) and got.batched == (batched or bool(points))


def test_zero_coefficients_leave_overflowing_monomials_out():
    """A monomial that overflows adds nothing where its outer coefficient is
    zero, on every entry and point: the row is dead.  The dense composition
    made such a coefficient NaN (0 * inf); a live row still overflows."""
    sp = jet_space(1, 2)
    inners = [Jet(sp, [0.0, 1e200, 0.0]), Jet(sp, [0.0, 1.0, 0.0])]  # h1^2 overflows
    outer_sp = jet_space(2, 2)  # rows 1, h1, h2, h1^2, h1 h2, h2^2
    outer = Jet(outer_sp, [[1.0, 0.0, 0.0, 0.0, 0.0, 1.0], [2.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(Composer(inners).apply(outer).c, np.array([[1.0, 0.0, 1.0],
                                                                    [2.0, 0.0, 0.0]]))
        assert np.isnan(_dense_compose(inners, outer, 2).c[:, 2]).all()
        live = Jet(outer_sp, [1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
        assert Composer(inners).apply(live).c[2] == np.inf
    # NaN and inf coefficients count as live: bad * h2 = [NaN, bad, NaN]
    for bad in (np.nan, np.inf):
        outer = Jet(outer_sp, [1.0, 0.0, bad, 0.0, 0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            got = Composer(inners).apply(outer).c
            assert same_bits(got, _dense_compose(inners, outer, 2).c)
        assert np.isnan(got[[0, 2]]).all() and same_bits(got[1], np.float64(bad))


def test_univariate_functions_make_no_constant_jets(recorder):
    """A univariate function adds its constant rows to the coefficients
    directly instead of building a constant jet per Horner step."""
    sp = jet_space(2, 4)
    scalar = Jet.variable(sp, 0, 0.7) * Jet.variable(sp, 1, 0.4) + 0.4
    assert recorder.subjects("jets.Jet.constant") == [(sp, 0.4)]  # the one float added above
    recorder.calls.clear()
    batched = Jet.variable(sp, 0, np.array([0.3, 0.9, 1.4]))
    for x in (scalar, Jet.stack([scalar, scalar * scalar]), batched):
        for fn in (Jet.sin, Jet.cos, Jet.tan, Jet.exp, Jet.log, Jet.sqrt, Jet.atan,
                   lambda y: y ** 0.5, lambda y: y ** -1, lambda y: y ** -2.5):
            fn(x)
    assert recorder.of("jets.Jet.constant") == []


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


def _past_degree_is_zero(x):
    """Every coefficient of `x` past its degree bound is +-0.0."""
    past = [k for k, g in enumerate(x.space.indices) if sum(g) > x._degree]
    return not x.c[..., past].any()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_degree_bounds_every_built_jet(data):
    """A jet built from variables and constants by the public operations,
    composition, inverse and the univariate functions included, is +-0.0
    past its degree bound: the bound that lets a product skip pairs."""
    sp = jet_space(data.draw(st.integers(1, 3)), data.draw(st.integers(0, MAX_ORDER)))
    points = data.draw(st.sampled_from([(), (3,)]))
    value = lambda: np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=math.prod(
        points), max_size=math.prod(points)))).reshape(points)
    pool = [Jet.variable(sp, i, value()) for i in range(sp.num_vars)]
    pool += [Jet.constant(sp, data.draw(COEFF)), Jet.constant(sp, 0.0) * pool[0]]
    bounded = lambda x: (x.sin() + 2.0) * 0.5  # values in [0.5, 1.5]
    outer_sp = jet_space(2, sp.order)
    u, v = Jet.variable(outer_sp, 0, 0.3), Jet.variable(outer_sp, 1, -0.2)
    outers = (u * v + 1.0, u * u * v, Jet.constant(outer_sp, 2.0), (u + v).exp(), v * 0.0)
    ops = {
        "add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b,
        "scale": lambda a, b: a * data.draw(COEFF), "div": lambda a, b: -a / 3.0,
        "sin": lambda a, b: a.sin(), "cos": lambda a, b: a.cos(), "atan": lambda a, b: a.atan(),
        "exp": lambda a, b: bounded(a).exp(), "log": lambda a, b: bounded(a).log(),
        "sqrt": lambda a, b: bounded(a).sqrt(), "pow": lambda a, b: bounded(a) ** -1.5,
        "recip": lambda a, b: b / bounded(a), "square": lambda a, b: a ** 2,
        "centered": lambda a, b: a.centered(),
        "sum": lambda a, b: Jet.stack([a, b]).sum(0),
        "concatenate": lambda a, b: Jet.concatenate([a[None], b[None]])[1],
        "diagonal": lambda a, b: Jet.stack([Jet.stack([a, b]),
                                            Jet.stack([b, a])]).add_diagonal(b)[0, 0],
        "inverse": lambda a, b: Jet.stack([
            Jet.stack([bounded(a) + 1.0, bounded(b) * 0.5]),
            Jet.stack([bounded(b) * 0.5, bounded(a) + 1.0])]).inverse()[0, 1],
        "compose": lambda a, b: Composer([a.centered(), b.centered()]).apply(
            data.draw(st.sampled_from(outers))),
    }
    for _ in range(data.draw(st.integers(1, 6))):
        name = data.draw(st.sampled_from(sorted(ops)))
        a, b = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        with np.errstate(all="ignore"):
            x = ops[name](a, b)
        assert _past_degree_is_zero(x), name
        if np.isfinite(x.c).all() and np.abs(x.c).max() < 1e6:
            pool.append(x)
    for x in pool:
        for low in range(sp.order + 1):
            assert _past_degree_is_zero(x.truncate(low))
        if sp.order:
            assert _past_degree_is_zero(x.derivs())
            assert _past_degree_is_zero(x.derivs()[..., 0] * x.truncate(sp.order - 1))


def test_degree_rules():
    """The bound each operation gives: tight where the rule knows a zero
    (a derivative drops one degree, a composition multiplies the top live
    degree of the outer by the inner bound), the order where it claims
    nothing."""
    sp = jet_space(2, 4)
    x, y = Jet.variable(sp, 0, 0.5), Jet.variable(sp, 1, np.array([0.2, -0.7]))
    one = Jet.constant(sp, 1.0)
    assert [j._degree for j in (x, one, x.derivs(), one.derivs(), x * y, x * y * y,
                                x + one, (x * y).truncate(1), one.centered(),
                                (x * one).centered(), x * y * x * y * x)] == [
        1, 0, 0, -1, 2, 3, 1, 1, -1, 1, 4]
    assert (x * y).derivs()._degree == 1 and (x * x).derivs().derivs()._degree == 0
    assert (one.derivs()[0] * x.truncate(3))._degree == -1 and (x * 2.0)._degree == 1
    with np.errstate(all="ignore"):  # +-0.0 * inf and +-0.0 / 0.0 are NaN
        assert (x * math.inf)._degree == 4 and (x / 0.0)._degree == 4
    # Horner steps from a constant: a function of a constant is a constant
    assert one.sin()._degree == 0 and x.sin()._degree == 4
    assert Jet.stack([x, x * y])._degree == 2
    assert Jet(sp, np.zeros(sp.size))._degree == 4
    assert Jet.stack([Jet.stack([x + 2.0, one]), Jet.stack([one, y + 2.0])]).inverse()._degree == 4
    outer_sp = jet_space(2, 4)
    u, v = Jet.variable(outer_sp, 0, 0.0), Jet.variable(outer_sp, 1, 0.0)
    inners = [(x * y).centered(), (x * x).centered()]  # degree 2
    compose = Composer(inners)
    assert compose.apply(u * 3.0 + 1.0)._degree == 2
    assert compose.apply(u * v)._degree == 4
    assert compose.apply(Jet.constant(outer_sp, 2.0))._degree == 0
    assert compose.apply(u * 0.0)._degree == -1
    assert Composer([x.centered(), y.centered()]).apply(u * v + v)._degree == 2
    # zero inners leave the constant row
    assert Composer([one.centered(), one.centered()]).apply(u * v + 1.0)._degree == 0


@pytest.mark.parametrize("num_vars, order", [(1, 4), (2, 3), (3, 4)])
def test_degree_bounded_products_match_the_whole_table(num_vars, order):
    """A product of jets with degree bounds gathers only the pairs the
    bounds leave, and gives the whole table's bits: signed zeros in the
    coefficients, -0.0 constant terms, scalar and tensor jets, both gather
    modes (one gather, or step by step past the budget), and an inf or NaN
    factor, which makes the whole table's 0 * inf NaNs."""
    sp = jet_space(num_vars, order)
    rng = np.random.default_rng(num_vars * 10 + order)
    degree = np.array([sum(g) for g in sp.indices])

    def factor(shape, bound):
        c = rng.standard_normal(shape + (sp.size,))
        c[rng.random(c.shape) < 0.2] = -0.0
        c[rng.random(c.shape) < 0.2] = 0.0
        c.reshape(-1, sp.size)[:2, 0] = -0.0
        c[..., degree > bound] = rng.choice([0.0, -0.0], size=c[..., degree > bound].shape)
        return c

    fit = jets._PRODUCT_BUDGET // len(sp._mul_k)
    shapes = [((), ()), ((3, 1), (1, 4)), ((fit // 4 + 1, 1), (1, 8))]
    for (sa, sb), dx, dy in itertools.product(shapes, range(-1, order + 1), range(-1, order + 1)):
        for bad in (None, np.inf, -np.inf, np.nan):
            a, b = factor(sa, dx), factor(sb, dy)
            if bad is not None and max(dx, dy) >= 0:  # one coefficient within a bound
                rows, bound = (a, dx) if dx >= 0 else (b, dy)
                rows = rows.reshape(-1, sp.size)
                rows[rng.integers(len(rows)), rng.choice(np.flatnonzero(degree <= bound))] = bad
            with np.errstate(all="ignore"):
                got = Jet(sp, a, degree=dx) * Jet(sp, b, degree=dy)
                want = Jet(sp, a) * Jet(sp, b)
            assert same_bits(got.c, want.c), (sa, dx, dy, bad)
            assert _past_degree_is_zero(got)
            if bad is None and np.isfinite(got.c).all():
                assert got._degree == (-1 if min(dx, dy) < 0 else min(dx + dy, order))


# The derivative values of each univariate function as the per-value closures
# listed them, one call per value: the reference the table built in C loops
# must match bit for bit.
def _ref_reciprocal(c0, order):
    if c0 == 0.0:
        raise JetError("division by jet with zero constant term")
    return [(-1.0) ** k * math.factorial(k) / c0 ** (k + 1) for k in range(order + 1)]


def _ref_sin(c0, order):
    table = [math.sin(c0), math.cos(c0), -math.sin(c0), -math.cos(c0)]
    return [table[k % 4] for k in range(order + 1)]


def _ref_cos(c0, order):
    table = [math.cos(c0), -math.sin(c0), -math.cos(c0), math.sin(c0)]
    return [table[k % 4] for k in range(order + 1)]


def _ref_exp(c0, order):
    return [math.exp(c0)] * (order + 1)


def _ref_log(c0, order):
    if c0 <= 0.0:
        raise JetError("log of non-positive jet value")
    return [math.log(c0)] + [(-1.0) ** (k - 1) * math.factorial(k - 1) / c0**k
                             for k in range(1, order + 1)]


def _ref_atan(c0, order):
    w = 1.0 + c0 * c0
    return [math.atan(c0), 1.0 / w, -2.0 * c0 / w**2, (6.0 * c0 * c0 - 2.0) / w**3,
            (24.0 * c0 - 24.0 * c0**3) / w**4][: order + 1]


def _ref_power(r):
    def derivs(c0, order):
        if c0 <= 0.0:
            raise JetError("non-integer power requires positive base value")
        out, scale = [], 1.0
        for k in range(order + 1):
            out.append(scale * c0 ** (r - k))
            scale *= r - k
        return out

    return derivs


def _per_value(derivs):
    """phi(x) from `derivs` called once per value, composed by Jet._compose."""
    def phi(x):
        v = x.c[..., 0]
        table = np.array([derivs(c0, x.space.order) for c0 in v.ravel().tolist()])
        return x._compose(list(table.T.reshape((-1,) + v.shape)))

    return phi


def _ref_tan(x):
    return _per_value(_ref_sin)(x) * _per_value(_ref_reciprocal)(_per_value(_ref_cos)(x))


# name: (function, its per-value reference, the magnitudes of its values
# (powers of ten), whether negative values are in its domain)
_UNIVARIATE = {
    "sin": (Jet.sin, _per_value(_ref_sin), (-300, 300), True),
    "cos": (Jet.cos, _per_value(_ref_cos), (-300, 300), True),
    "tan": (Jet.tan, _ref_tan, (-300, 300), True),
    "exp": (Jet.exp, _per_value(_ref_exp), (-300, 2.85), True),  # e^709 is near overflow
    "log": (Jet.log, _per_value(_ref_log), (-75, 75), False),
    "sqrt": (Jet.sqrt, _per_value(_ref_power(0.5)), (-85, 300), False),  # x^-3.5 overflows
    "atan": (Jet.atan, _per_value(_ref_atan), (-30, 38), True),  # (1 + x^2)^4 overflows
    "pow_1.5": (lambda x: x ** 1.5, _per_value(_ref_power(1.5)), (-40, 40), False),
    "pow_-2.5": (lambda x: x ** -2.5, _per_value(_ref_power(-2.5)), (-40, 40), False),
    "reciprocal": (lambda x: 1.0 / x,
                   lambda x: Jet.constant(x.space, 1.0) * _per_value(_ref_reciprocal)(x),
                   (-60, 60), True),
}


@pytest.mark.parametrize("name", list(_UNIVARIATE))
def test_univariate_tables_match_the_per_value_closures(name):
    """Each univariate function on a batched tensor jet, at orders 0-4, equals
    bit for bit the composition of its derivative values taken one value at a
    time with `math` and float `**`."""
    fn, ref, (low, high), signed = _UNIVARIATE[name]
    rng = np.random.default_rng(2200 + list(_UNIVARIATE).index(name))
    for order in range(MAX_ORDER + 1):
        sp = jet_space(2, order)
        values = 10.0 ** rng.uniform(low, high, (3, 4, 8))  # a (3, 4) tensor at 8 points
        if signed:
            values *= rng.choice([-1.0, 1.0], values.shape)
        c = rng.normal(size=values.shape + (sp.size,))
        c[..., 0] = values
        x = Jet(sp, c, True)
        with np.errstate(all="ignore"):  # Horner may overflow near the top of the range
            got, want = fn(x), ref(x)
        assert same_bits(got.c, want.c)


def _raised(fn, values):
    """(type, message) of what fn raises on a batched jet at `values`."""
    try:
        fn(Jet.variable(jet_space(2, 4), 0, np.array(values)))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name, values, error", [
    ("reciprocal", [1e200, 0.0], OverflowError),
    ("reciprocal", [0.0, 1e200], JetError),
    ("reciprocal", [1e-100, 0.0], ZeroDivisionError),  # x^4 underflows to 0
    ("log", [1e200, -1.0], OverflowError),
    ("log", [-1.0, 1e200], JetError),
    ("exp", [0.5, 1e3, -1.0], OverflowError),
    ("sin", [0.5, math.inf], ValueError),
    ("tan", [0.5, math.inf], ValueError),
    ("sqrt", [1e-90, -1.0], OverflowError),  # 1e-90 ** -3.5 overflows, as ** 0.5 does
])
def test_a_multi_value_jet_raises_its_first_failing_value_error(name, values, error):
    """A jet at several values raises what its first failing value raises on
    its own, as the per-value closures did, whatever the values after it
    raise."""
    fn, ref = _UNIVARIATE[name][:2]
    got = _raised(fn, values)
    assert got[0] is error
    assert got == _raised(ref, values)
    first = next(v for v in values if _raised(fn, [v]) is not None)
    assert got == _raised(fn, [first])
