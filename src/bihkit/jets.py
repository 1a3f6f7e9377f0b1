"""Truncated multivariate Taylor (jet) arithmetic up to total order 4.

A jet stores the partial derivatives up to a fixed total order at a base
point as Taylor coefficients: the coefficient of the multi-index gamma is the
partial derivative divided by gamma!.  Arithmetic and elementary functions
propagate these coefficients exactly, so every derivative read from a jet is
exact to machine precision for the truncation order.

Tensor jets.  The coefficient array of a `Jet` has shape
(*tensor_index, S), S being the size of the jet space: shape (S,) is one
scalar jet, shape (d, d, S) a matrix of them.  Leading axes broadcast like
numpy axes, and indexing a jet (`G[a]`, `G[:, b, None]`) indexes them only.
A product of two tensor jets multiplies every pair of broadcast entries in
one call, so a contraction such as sum_b G[a, b] * v[b] is one jet product
followed by a sum over b.  The layout is private to this module: other code
builds tensors with `stack`, `concatenate` and `constant`, rearranges them
with indexing, `reshape`, `transpose`, `upper`/`symmetric` and
`add_diagonal`, and contracts them with products (a float array scales
entry by entry), `sum` and `inverse`.

Points axis.  A jet may also hold P base points at once: its coefficients
then have shape (*tensor_index, P, S), the points axis just before the
coefficient axis, so tensor axes keep broadcasting from the right.
`Jet.variable` with one value per point seeds such a jet, and everything
computed from it carries the axis; a jet without it (a constant) is the same
at every point and combines with one that has it.  `point_values(P)` gives
the constant terms point by point.  Tensor indexing, `sum`, `transpose` and
the other tensor methods never see the points axis.

Tables.  The basis of a space is graded lexicographic, so the basis of every
lower order is a prefix of it and truncation keeps leading coefficients.
The multiplication table lists the pairs (i, j) of basis indices whose total
degree stays within the order, row-major in (i, j), with the output index k
of each pair; derivative tables map each lower-order index to the index one
step up along an axis, with its scale factor.

Float order.  Every operation on a tensor jet, or on P points, rounds
exactly as the same operation on each entry at each point as a scalar jet
would:
  * a product accumulates, per output coefficient, its terms in table order
    from 0.0.  The table is in sweep order (step r holds the r-th term of
    every output that has one, a prefix of the outputs): one gather per
    factor, one multiply, R in-order slice adds (the first onto 0.0) and an
    unsort, R + 4 numpy calls (R = 5, 9, 12 at order 4 in 1, 2, 3 variables).
    Past _PRODUCT_BUDGET values the gathers go step by step, at most S values
    per entry.  Two scalar jets take one `np.bincount`;
  * `sum` adds the slices of an axis left to right, never pairwise;
  * `inverse` (Gauss-Jordan on [M | I]) updates at step `col` only the
    columns right of the pivot column, the ones later steps read; each
    entry is computed as in the full-width elimination;
  * a `Composer` serves a lower outer order from the prefix of a table it
    built for a higher one: the rows are the same products;
  * truncation commutes with every operation on finite values: a kept
    coefficient adds the same terms in the same order at any order, plus,
    in the Horner steps of a univariate function, terms that have the zero
    constant term of the inner jet as a factor, which leave a sum begun at
    +0.0 unchanged.  So `christoffel_jets` may truncate an inverse it is
    given instead of inverting the truncated metric;
  * the operand order of a product is kept (a*b and b*a accumulate in a
    different order);
  * the derivative values a univariate function (sin, exp, log, powers, the
    reciprocal, ...) composes with are computed point by point with `math`
    and float `**`, never with numpy ufuncs: on a 2.1 GHz Xeon with numpy 2.4,
    `np.exp`, `np.log`, `np.arctan` and array `**` differ from them in the
    last bit on 9,457, 209, 286 and 10,689 of 200,000 random arguments
    (`np.sin`, `np.cos` and `np.sqrt` matched on all).
This matters because some reports depend on round-off: on the Reeb-normal
circle (scenario c16) |H|^2 is about 5e-32, and the pinned `props` ratios
there are quotients of round-off noise, so the mean-curvature path must stay
bit-identical to the scalar loops it replaced.  This holds for jets only: the
value-level contractions `calculus` makes from the fields' values add in
numpy's order, within 1e-12 relative of index loops.

Orders are capped at 4: the deepest quantity assembled downstream (the
normal Laplacian of the mean curvature field) consumes four derivatives of
an immersion.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 4

__all__ = [
    "Jet",
    "JetError",
    "JetSpace",
    "jet_space",
    "Composer",
]


class JetError(ValueError):
    """Domain violation or space mismatch in jet arithmetic."""


def _multi_indices(num_vars, order):
    """All multi-indices with |gamma| <= order, graded lexicographic."""
    out = []
    for total in range(order + 1):
        level = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                level.append(prefix + (remaining,))
                return
            for k in range(remaining, -1, -1):
                rec(prefix + (k,), remaining - k, slots - 1)

        rec((), total, num_vars)
        out.extend(sorted(level, reverse=True))
    return out


class JetSpace:
    """Shared context for jets with a fixed variable count and order.

    Precomputes the multi-index basis, the truncated multiplication table
    and the derivative tables.  Instances are cached; jets only combine when
    they carry the same space object.
    """

    def __init__(self, num_vars, order):
        if not 1 <= num_vars:
            raise JetError(f"num_vars must be >= 1, got {num_vars}")
        if not 0 <= order <= MAX_ORDER:
            raise JetError(f"order must be in 0..{MAX_ORDER}, got {order}")
        self.num_vars = num_vars
        self.order = order
        self.indices = _multi_indices(num_vars, order)
        self.size = len(self.indices)
        self.index_of = {g: i for i, g in enumerate(self.indices)}
        mul_i, mul_j, mul_k = [], [], []
        for i, gi in enumerate(self.indices):
            for j, gj in enumerate(self.indices):
                if sum(gi) + sum(gj) <= order:
                    g = tuple(a + b for a, b in zip(gi, gj))
                    mul_i.append(i)
                    mul_j.append(j)
                    mul_k.append(self.index_of[g])
        self._mul_i = np.array(mul_i)
        self._mul_j = np.array(mul_j)
        self._mul_k = np.array(mul_k)
        # The rank sweep of the product: outputs sorted by their term count,
        # most first, so the outputs with an r-th term are a prefix; step r
        # lists, over that prefix, the table pairs of each output's r-th
        # term in table order.  _unsort restores basis order.
        terms = [[] for _ in range(self.size)]
        for p, k in enumerate(mul_k):
            terms[k].append(p)
        by_count = sorted(range(self.size), key=lambda k: -len(terms[k]))
        steps = [[terms[k][r] for k in by_count if len(terms[k]) > r]
                 for r in range(len(terms[by_count[0]]))]
        self._unsort = np.argsort(by_count)
        # Two groupings of the steps into gathers, each group the factor rows
        # of its steps' pairs and per step the slice of its terms and its
        # output count: the whole table in one, or one per step.
        def group(run):
            pairs, spans = [], []
            for step in run:
                spans.append((slice(len(pairs), len(pairs) + len(step)), len(step)))
                pairs += step
            return self._mul_i[pairs], self._mul_j[pairs], spans

        self._one_gather = [group(steps)]
        self._by_step = [group([step]) for step in steps]
        # The basis is graded by total degree, so the basis of every lower
        # order is a prefix of this one: truncation keeps the first entries.
        # Derivative tables, over that order-1 prefix: _diff[axis][i] is the
        # row of indices[i] + e_axis and _diff_scale[axis][i] its factor.
        low = math.comb(num_vars + order - 1, num_vars)  # size at order - 1
        self._diff = np.zeros((num_vars, low), dtype=int)
        self._diff_scale = np.zeros((num_vars, low))
        for i, g in enumerate(self.indices[:low]):
            for ax in range(num_vars):
                up = tuple(v + (1 if a == ax else 0) for a, v in enumerate(g))
                self._diff[ax, i] = self.index_of[up]
                self._diff_scale[ax, i] = g[ax] + 1

    def __repr__(self):
        return f"JetSpace(num_vars={self.num_vars}, order={self.order})"


@lru_cache(maxsize=None)
def jet_space(num_vars, order):
    return JetSpace(num_vars, order)


@lru_cache(maxsize=None)
def _upper_pairs(n):
    """Index arrays (i, j) of the pairs i <= j < n, row-major."""
    return np.triu_indices(n)


def _constant_terms(value, size):
    """Coefficients of constant jets with the constant terms `value`."""
    c = np.zeros(np.shape(value) + (size,))
    c[..., 0] = value
    return c


# Values (broadcast entries times table pairs) a product may gather at once;
# a larger one gathers the table step by step, S values per entry at most.
_PRODUCT_BUDGET = 1 << 16


def _product(space, x, y):
    """Coefficients of the products of the (broadcast) jets x and y; each
    output adds its terms in table order from 0.0."""
    entries = np.broadcast(x[..., 0], y[..., 0]).size
    groups = (space._one_gather if entries * len(space._mul_k) <= _PRODUCT_BUDGET
              else space._by_step)
    # the rank sweep: step r adds the r-th term of every output that has one
    acc = None
    for i, j, steps in groups:
        terms = x[..., i] * y[..., j]
        for part, n in steps:
            if acc is None:
                acc = terms[..., part] + 0.0
            else:
                acc[..., :n] += terms[..., part]
    return acc[..., space._unsort]


class Jet:
    """Immutable truncated Taylor expansion of a scalar or of a tensor of
    scalars (coefficients on the last axis), at one base point or at P
    points (`batched`: a points axis just before the coefficient axis)."""

    __slots__ = ("space", "c", "batched")
    # numpy operands defer to the Jet operators instead of broadcasting
    __array_ufunc__ = None

    def __init__(self, space, coeffs, batched=False):
        self.space = space
        self.c = np.asarray(coeffs, dtype=float)
        self.batched = batched
        if self.c.shape[-1:] != (space.size,) or self.c.ndim < 1 + batched:
            raise JetError("coefficient vector does not match jet space")

    def _like(self, c):
        return Jet(self.space, c, self.batched)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(space, value):
        """Constant jet; an ndarray `value` gives a tensor of constants."""
        return Jet(space, _constant_terms(value, space.size))

    @staticmethod
    def variable(space, index, value):
        """The coordinate `index` as a jet at `value`; one value per point
        (a 1-d array) gives a jet with a points axis."""
        if not 0 <= index < space.num_vars:
            raise JetError(
                f"variable index {index} out of range for {space.num_vars} vars"
            )
        value = np.asarray(value, dtype=float)
        if value.ndim > 1:
            raise JetError("a variable takes one value or one value per point")
        c = _constant_terms(value, space.size)
        if space.order >= 1:
            unit = tuple(1 if a == index else 0 for a in range(space.num_vars))
            c[..., space.index_of[unit]] = 1.0
        return Jet(space, c, value.ndim == 1)

    @staticmethod
    def _common(jets, full=False):
        """(coefficient arrays, batched) of jets of one space: when one has a
        points axis, the others get a unit one (`full`: as long as theirs)."""
        points = [x.c.shape[-2] for x in jets if x.batched]
        if not points:
            return [x.c for x in jets], False
        return [x.c if x.batched else np.broadcast_to(
            x.c[..., None, :], x.c.shape[:-1] + (points[0], x.space.size))
            if full else x.c[..., None, :] for x in jets], True

    @staticmethod
    def stack(items):
        """Tensor jet of a (nested) list of jets of one space."""
        leaves = []

        def walk(x):
            if isinstance(x, Jet):
                leaves.append(x)
            else:
                for e in x:
                    walk(e)

        walk(items)
        coeffs, batched = Jet._common(leaves, full=True)
        coeffs = iter(coeffs)

        def build(x):
            return next(coeffs) if isinstance(x, Jet) else np.array([build(e) for e in x])

        return Jet(leaves[0].space, build(items), batched)

    @staticmethod
    def concatenate(items, axis=0):
        """Join tensor jets of one space along an existing tensor axis."""
        coeffs, batched = Jet._common(items, full=True)
        axis = axis if axis >= 0 else axis - 1 - batched
        return Jet(items[0].space, np.concatenate(coeffs, axis=axis), batched)

    # -- tensor structure --------------------------------------------------

    @property
    def shape(self):
        return self.c.shape[: self.c.ndim - 1 - self.batched]

    def __getitem__(self, index):
        """Index the tensor axes (never the points or coefficient axis; `...`
        stands for tensor axes only)."""
        if not isinstance(index, tuple):
            index = (index,)
        return self._like(self.c[index + (slice(None),) * (1 + self.batched)])

    def reshape(self, *shape):
        return self._like(self.c.reshape(*shape, *self.c.shape[len(self.shape):]))

    def transpose(self, *axes):
        """Permute the tensor axes."""
        return self._like(self.c.transpose(*axes, *range(len(axes), self.c.ndim)))

    def upper(self):
        """Entries over the pairs i <= j of the first two axes, row-major
        (the order of `np.triu_indices`), on one axis."""
        return self[_upper_pairs(self.c.shape[0])]

    def symmetric(self, axis=0):
        """Inverse of `upper`: the symmetric tensor whose entries over the
        pairs i <= j are the entries along `axis`; entry p goes to
        (i_p, j_p) and (j_p, i_p) on the axes `axis`, `axis` + 1."""
        pairs = self.c.shape[axis]
        n = (math.isqrt(8 * pairs + 1) - 1) // 2
        if n * (n + 1) // 2 != pairs:
            raise JetError(f"{pairs} entries are not the upper triangle of a square")
        i, j = _upper_pairs(n)
        lead = (slice(None),) * axis
        c = np.empty(self.c.shape[:axis] + (n, n) + self.c.shape[axis + 1:])
        c[lead + (i, j)] = self.c
        c[lead + (j, i)] = self.c
        return self._like(c)

    def inverse(self):
        """Inverse of a square matrix of jets by Gauss-Jordan elimination
        with value pivoting, the pivot chosen per point; each step scales the
        pivot row and clears its column in all other rows at once, on the
        augmented matrix [M | I].  Only the live columns are kept: step `col`
        reads column `col` and updates the ones right of it, then drops it,
        so after n steps the n columns left are the inverse."""
        n = self.c.shape[0]
        sp = self.space
        c = self.c if self.batched else self.c[..., None, :]
        points = np.arange(c.shape[2])
        eye = np.zeros((n, n, len(points), sp.size))
        eye[range(n), range(n), :, 0] = 1.0
        aug = np.concatenate([c, eye], axis=1)
        for col in range(n):
            # aug holds the columns col.. of [M | I]: aug[:, 0] is column col
            piv = col + np.argmax(np.abs(aug[col:, 0, :, 0]), axis=0)
            if (np.abs(aug[piv, 0, points, 0]) < 1e-14).any():
                raise JetError("singular jet matrix")
            if (piv != col).any():
                rows = np.repeat(np.arange(n)[:, None], len(points), axis=1)
                rows[col], rows[piv, points] = piv, col
                aug = np.take_along_axis(aug, rows[:, None, :, None], axis=0)
            pivot_row = Jet(sp, aug[col, 1:], True) * (1.0 / Jet(sp, aug[col, 0], True))
            # row r becomes row r - A[r, col] * pivot row
            aug = (Jet(sp, aug[:, 1:], True) - Jet(sp, aug[:, :1], True) * pivot_row).c
            aug[col] = pivot_row.c
        return self._like(aug if self.batched else aug[..., 0, :])

    def add_diagonal(self, other):
        """Copy with `other` added onto every entry [k, k] of the first two
        axes (a scalar, or one entry per k)."""
        (x, y), batched = Jet._common([self, self._coerce(other)], full=True)
        k = np.arange(x.shape[0])
        c = x.copy()
        c[k, k] = c[k, k] + y
        return Jet(self.space, c, batched)

    def sum(self, axis=0, start=None):
        """Sum over one tensor axis, left to right, optionally onto `start`."""
        (c, *s), batched = Jet._common([self] + ([start] if start is not None else []))
        lead = (slice(None),) * (axis % len(self.shape))
        acc = c[lead + (0,)]
        if s:
            acc = s[0] + acc
        for k in range(1, c.shape[len(lead)]):
            acc = acc + c[lead + (k,)]
        return Jet(self.space, acc, batched)

    # -- basic access ------------------------------------------------------

    @property
    def value(self):
        return float(self.c[0])

    @property
    def values(self):
        """Constant terms of every entry, as a new C-ordered array."""
        return self.c[..., 0].copy()

    def point_values(self, count):
        """Constant terms point by point, shape (count, *tensor_shape), as a
        new C-ordered array; `count` is the number of points."""
        v = self.c[..., 0]
        if self.batched:
            return np.ascontiguousarray(v.transpose(v.ndim - 1, *range(v.ndim - 1)))
        return np.array(np.broadcast_to(v, (count,) + v.shape))

    def truncate(self, order):
        """Copy of this jet in the lower-order space (coefficients dropped)."""
        if order == self.space.order:
            return self
        if order > self.space.order:
            raise JetError("cannot raise jet order by truncation")
        sp = jet_space(self.space.num_vars, order)
        return Jet(sp, self.c[..., : sp.size].copy(), self.batched)

    def deriv(self, axis):
        """Partial derivative along one variable; drops one order."""
        return self.derivs()[..., axis]

    def derivs(self):
        """Every first partial derivative, on a new last tensor axis."""
        if self.space.order == 0:
            raise JetError("cannot differentiate an order-0 jet")
        sp = jet_space(self.space.num_vars, self.space.order - 1)
        c = self.c[..., self.space._diff] * self.space._diff_scale
        return Jet(sp, c.swapaxes(-3, -2) if self.batched else c, self.batched)

    def centered(self):
        """This jet minus its constant terms (rounded as subtracting each
        entry's value): the zero-shifted inner jet a `Composer` takes."""
        c = self.c.copy()
        c[..., 0] -= self.c[..., 0]
        return self._like(c)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise JetError(
                    f"jet space mismatch: {self.space} vs {other.space}"
                )
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet.constant(self.space, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (x, y), batched = Jet._common([self, o])
        return Jet(self.space, x + y, batched)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (x, y), batched = Jet._common([self, o])
        return Jet(self.space, x - y, batched)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (x, y), batched = Jet._common([o, self])
        return Jet(self.space, x - y, batched)

    def __neg__(self):
        return self._like(-self.c)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self._like(self.c * float(other))
        o = self._coerce(other)
        if o is None:
            if isinstance(other, np.ndarray):  # one float factor per tensor entry
                return self._like(self.c * other.reshape(other.shape + (1,) * (1 + self.batched)))
            return NotImplemented
        sp = self.space
        if self.c.ndim == 1 == o.c.ndim:
            # scalar jets take one bincount, same float order as the sweep:
            # 3.0 us against 12-14 us for an S = 5 product.  The benchmark
            # workloads hardly notice, but the scalar-loop references of the
            # tier-1 tests do: back to back, the suite took 14.5 and 10.8 s
            # with it and 19.6 and 18.8 s without (2-vCPU Xeon, numpy 2.4)
            prod = self.c[sp._mul_i] * o.c[sp._mul_j]
            return Jet(sp, np.bincount(sp._mul_k, weights=prod, minlength=sp.size))
        (x, y), batched = Jet._common([self, o])
        return Jet(sp, _product(sp, x, y), batched)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self._like(self.c / float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._reciprocal()

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)) or (
            isinstance(exponent, float) and exponent.is_integer()
        ):
            n = int(exponent)
            if n == 0:
                return Jet.constant(self.space, 1.0)
            if n < 0:
                return (self.__pow__(-n))._reciprocal()
            acc = self
            for _ in range(n - 1):
                acc = acc * self
            return acc
        r = float(exponent)

        def derivs(c0):
            if c0 <= 0.0:
                raise JetError("non-integer power requires positive base value")
            out, scale = [], 1.0
            for k in range(self.space.order + 1):
                out.append(scale * c0 ** (r - k))
                scale *= r - k
            return out

        return self._apply(derivs)

    # -- composition with univariate functions -----------------------------

    def _apply(self, derivs):
        """phi(self) for a univariate phi, `derivs(x)` listing the
        derivative values phi^(k)(x), k = 0..order, at a float x; they are
        taken entry by entry and point by point."""
        if self.c.ndim == 1:
            return self._compose(derivs(float(self.c[0])))
        x = self.c[..., 0]
        table = np.array([derivs(v) for v in x.ravel().tolist()])
        return self._compose(list(table.T.reshape((-1,) + x.shape)))

    def _compose(self, derivs):
        """Jet of phi(self) from the derivative values phi^(k) at the
        constant terms (floats, or one array of values per k) by Horner's
        rule; each step adds its constant row with one array add over all
        coefficients, so -0.0 + 0.0 rounds as for a constant jet."""
        sp = self.space
        h = self.c.copy()
        h[..., 0] = 0.0
        h = self._like(h)
        acc = self._like(_constant_terms(derivs[sp.order] / math.factorial(sp.order), sp.size))
        for k in range(sp.order - 1, -1, -1):
            acc = acc * h
            acc = self._like(acc.c + _constant_terms(derivs[k] / math.factorial(k), sp.size))
        return acc

    def _reciprocal(self):
        def derivs(c0):
            if c0 == 0.0:
                raise JetError("division by jet with zero constant term")
            return [(-1.0) ** k * math.factorial(k) / c0 ** (k + 1)
                    for k in range(self.space.order + 1)]

        return self._apply(derivs)

    def sin(self):
        def derivs(c0):
            table = [math.sin(c0), math.cos(c0), -math.sin(c0), -math.cos(c0)]
            return [table[k % 4] for k in range(self.space.order + 1)]

        return self._apply(derivs)

    def cos(self):
        def derivs(c0):
            table = [math.cos(c0), -math.sin(c0), -math.cos(c0), math.sin(c0)]
            return [table[k % 4] for k in range(self.space.order + 1)]

        return self._apply(derivs)

    def tan(self):
        c = self.cos()
        if (c.c[..., 0] == 0.0).any():
            raise JetError("tan at a pole of cosine")
        return self.sin() / c

    def exp(self):
        return self._apply(lambda c0: [math.exp(c0)] * (self.space.order + 1))

    def log(self):
        def derivs(c0):
            if c0 <= 0.0:
                raise JetError("log of non-positive jet value")
            return [math.log(c0)] + [
                (-1.0) ** (k - 1) * math.factorial(k - 1) / c0**k
                for k in range(1, self.space.order + 1)
            ]

        return self._apply(derivs)

    def sqrt(self):
        if (self.c[..., 0] <= 0.0).any():
            raise JetError("sqrt of non-positive jet value")
        return self.__pow__(0.5)

    def atan(self):
        def derivs(c0):
            w = 1.0 + c0 * c0
            return [
                math.atan(c0),
                1.0 / w,
                -2.0 * c0 / w**2,
                (6.0 * c0 * c0 - 2.0) / w**3,
                (24.0 * c0 - 24.0 * c0**3) / w**4,
            ][: self.space.order + 1]

        return self._apply(derivs)

    def __repr__(self):
        points = f", points={self.c.shape[-2]}" if self.batched else ""
        if self.shape or self.batched:
            return f"Jet({self.space.num_vars}v/o{self.space.order}, shape={self.shape}{points})"
        return f"Jet({self.space.num_vars}v/o{self.space.order}, value={self.value:.6g})"


@lru_cache(maxsize=None)
def _monomial_plan(space):
    """Per degree of the basis of `space`: the rows of its multi-indices
    gamma, the rows of their parents gamma - e_i and the axes i, i being the
    first nonzero entry of gamma; h^gamma = h^(gamma - e_i) * h_i then takes
    one product per degree."""
    plan = []
    for degree in range(1, space.order + 1):
        level = [g for g in space.indices if sum(g) == degree]
        axes = [next(i for i, e in enumerate(g) if e) for g in level]
        parents = [space.index_of[tuple(e - (i == ax) for i, e in enumerate(g))]
                   for g, ax in zip(level, axes)]
        plan.append(([space.index_of[g] for g in level], parents, axes))
    return plan


class Composer:
    """Substitutes inner jets into outer jets (jet-of-function composition).

    Given inner jets h_1..h_k (shared space, zero-shifted by the caller so
    that h_i encodes inner_i - inner_i(base), see `Jet.centered`), an outer
    jet in k variables evaluates to sum_gamma c_gamma * prod_i h_i^gamma_i;
    the outer may be a tensor jet, and inners and outer may hold P points
    (the same P).  The monomials h^gamma are tabulated once per outer space,
    so many outers compose against one inner set.
    """

    def __init__(self, inners):
        if not inners:
            raise JetError("composer needs at least one inner jet")
        self.inner_space = inners[0].space
        for h in inners:
            if h.space is not self.inner_space:
                raise JetError("inner jets must share a space")
            if (h.c[..., 0] != 0.0).any():
                raise JetError("inner jets must have zero constant term")
        self._inners = Jet.stack(inners)
        self._tables = {}

    def _table(self, space):
        """Rows h^gamma over the basis of an outer space, built once; the
        table of a lower order is the prefix of a built one (the rows of
        its basis, computed the same way)."""
        table = self._tables.get(space)
        if table is None:
            for built, rows in self._tables.items():
                if built.num_vars == space.num_vars and built.order > space.order:
                    return rows[:space.size]
            inners = self._inners
            table = np.zeros((space.size,) + inners.c.shape[1:])
            table[0, ..., 0] = 1.0
            for rows, parents, axes in _monomial_plan(space):
                table[rows] = (inners._like(table[parents]) * inners[axes]).c
            self._tables[space] = table
        return table

    def apply(self, outer):
        return self._apply(outer, self.inner_space)

    def apply_truncated(self, outer):
        """Compose and truncate to the outer order (the valid depth); only
        the kept coefficients are accumulated."""
        order = min(outer.space.order, self.inner_space.order)
        return self._apply(outer, jet_space(self.inner_space.num_vars, order))

    def _apply(self, outer, space):
        """The composed jet in `space`, the inner space or a lower order of
        it: the first coefficients of the inner basis, a prefix."""
        if outer.space.num_vars != self._inners.shape[0]:
            raise JetError("outer jet variable count does not match inners")
        table = self._table(outer.space)[..., :space.size]
        c = outer.c
        batched = self._inners.batched or outer.batched
        if batched and not outer.batched:
            c = c[..., None, :]
        # acc = 0 + c_0 h^gamma_0 + c_1 h^gamma_1 + ... in basis order, one
        # row at a time into one buffer; a zero coefficient adds a signed
        # zero to a sum that started at +0.0, which leaves it unchanged
        acc = np.zeros(np.broadcast_shapes(c.shape[:-1] + (1,), table.shape[1:]))
        term = np.empty_like(acc)
        for i in range(table.shape[0]):
            acc += np.multiply(c[..., i, None], table[i], out=term)
        return Jet(space, acc, batched)
