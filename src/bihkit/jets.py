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
the constant terms point by point, `take_points` the jet at some points.
Tensor indexing, `sum`, `transpose` and the other tensor methods never see
the points axis.

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
  * a product skips the pairs past its factors' degree bounds (a jet is
    +-0.0 past its bound): their terms are +-0.0, and a sum begun at +0.0
    never holds -0.0, so no bit changes.  A non-finite factor shows in the
    product via pair (0, j) or (i, 0), and a product that is not finite is
    taken again over the whole table, keeping its 0 * inf NaNs;
  * `sum` adds the slices of an axis left to right, never pairwise;
  * `inverse` (Gauss-Jordan on [M | I]) updates at step `col` only the
    columns right of the pivot column, the ones later steps read; each
    entry is computed as in the full-width elimination.  A finite constant
    or an order-0 matrix is eliminated on its constant terms, as its jet
    products round them (x * y + 0.0, the pivot 1.0 / x + 0.0, +0.0 past
    them); a 1 x 1 one with a finite reciprocal is that reciprocal + 0.0,
    as its product with the I entry rounds (else 0 * inf fills it with NaN);
  * a `Composer` adds only the live rows of an outer (a dead row adds
    0 * h^gamma = +-0.0 to a sum begun at +0.0) and serves every outer and
    kept order from a prefix, on rows and coefficients, of the one table it
    built, at the inner jets truncated to the kept order: the rows are the
    same products.  Only where h^gamma overflows does this differ: a zero
    coefficient no longer makes it NaN;
  * truncation commutes with every operation on finite values: a kept
    coefficient adds the same terms in the same order at any order, plus,
    in the Horner steps of a univariate function, terms that have the zero
    constant term of the inner jet as a factor, which leave a sum begun at
    +0.0 unchanged.  So `christoffel_jets` may truncate an inverse it is
    given instead of inverting the truncated metric;
  * the operand order of a product is kept (a*b and b*a accumulate in a
    different order);
  * a univariate function (sin, exp, log, powers, the reciprocal, ...) takes
    its derivative values value by value in C loops with `math` and float
    `**`, never numpy ufuncs (on a 2.1 GHz Xeon with numpy 2.4, `np.exp`,
    `np.log`, `np.arctan` and array `**` differ in the last bit on 9,457,
    209, 286 and 10,689 of 200,000 random arguments), and combines them with
    numpy's element-wise IEEE + - * /, which rounds as float arithmetic does.
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
import operator
from functools import lru_cache
from itertools import accumulate, chain, combinations_with_replacement, repeat

import numpy as np

MAX_ORDER = 4

__all__ = ["Jet", "JetError", "JetSpace", "jet_space", "Composer"]


class JetError(ValueError):
    """Domain violation or space mismatch in jet arithmetic."""


def _multi_indices(num_vars, order):
    """All multi-indices with |gamma| <= order, graded lexicographic: the
    sorted variable tuples of each degree, in order, counted variable by
    variable, come out in decreasing lexicographic order of the exponents."""
    return [tuple(map(combo.count, range(num_vars))) for total in range(order + 1)
            for combo in combinations_with_replacement(range(num_vars), total)]


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
        self.num_vars, self.order = num_vars, order
        self.indices = _multi_indices(num_vars, order)
        self.size = len(self.indices)
        self.index_of = {g: i for i, g in enumerate(self.indices)}
        mul_i, mul_j, mul_k = [], [], []
        for i, gi in enumerate(self.indices):
            for j, gj in enumerate(self.indices):
                if sum(gi) + sum(gj) <= order:
                    mul_i.append(i)
                    mul_j.append(j)
                    mul_k.append(self.index_of[tuple(map(operator.add, gi, gj))])
        self._mul_i, self._mul_j, self._mul_k = map(np.array, (mul_i, mul_j, mul_k))
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


@lru_cache(maxsize=None)
def _sweep(space, dx, dy):
    """(pair count, gathers of the whole sweep in one, one per step, unsort)
    of the table pairs (i, j) with |i| <= dx, |j| <= dy, and (0, k) for each
    output k past degree dx + dy (one +-0.0 term), in sweep order."""
    deg = [sum(g) for g in space.indices]
    terms = [[] for _ in range(space.size)]
    for p, (i, j, k) in enumerate(zip(space._mul_i.tolist(), space._mul_j.tolist(),
                                      space._mul_k.tolist())):
        if deg[i] <= dx and deg[j] <= dy or i == 0 and deg[k] > dx + dy:
            terms[k].append(p)
    by_count = sorted(range(space.size), key=lambda k: -len(terms[k]))
    steps = [[terms[k][r] for k in by_count if len(terms[k]) > r]
             for r in range(len(terms[by_count[0]]))]

    def group(run):  # factor rows of the pairs; per step its terms and output count
        pairs, spans = [], []
        for step in run:
            spans.append((slice(len(pairs), len(pairs) + len(step)), len(step)))
            pairs += step
        return space._mul_i[pairs], space._mul_j[pairs], spans

    return (sum(map(len, steps)), [group(steps)], [group([step]) for step in steps],
            np.argsort(by_count))


# Values (broadcast entries times table pairs) a product may gather at once;
# a larger one gathers the table step by step, S values per entry at most.
_PRODUCT_BUDGET = 1 << 16


def _product(space, x, y, dx, dy):
    """(coefficients, degree bound) of x * y, (broadcast) jets of degree bounds
    dx and dy: each output adds the terms the bounds leave, in table order from 0.0."""
    top = space.order
    if min(dx, dy) <= 0:  # a constant or zero factor scales the other
        acc = x[..., :1] * y if dx <= dy else x * y[..., :1]
        acc += 0.0
    elif x.ndim == 1 == y.ndim:
        # scalar jets: one bincount, in the sweep's float order (3 vs 12-14 us at S = 5)
        acc = np.bincount(space._mul_k, weights=x[space._mul_i] * y[space._mul_j],
                          minlength=space.size)
    else:
        count, one_gather, by_step, unsort = _sweep(space, dx, dy)
        entries = np.broadcast(x[..., 0], y[..., 0]).size
        # the rank sweep: step r adds the r-th term of every output that has one
        acc = None
        for i, j, steps in one_gather if entries * count <= _PRODUCT_BUDGET else by_step:
            terms = x[..., i] * y[..., j]
            for part, n in steps:
                if acc is None:
                    acc = terms[..., part] + 0.0
                else:
                    acc[..., :n] += terms[..., part]
        acc = acc[..., unsort]
    if min(dx, dy) < top and not math.isfinite(acc.sum()):
        # a non-finite factor shows via pair (i, 0) or (0, j): keep 0 * inf
        return _product(space, x, y, top, top)
    return acc, (-1 if min(dx, dy) < 0 else min(dx + dy, top))


_SIGNED_FACTORIALS = np.array([(-1.0) ** k * math.factorial(k) for k in range(MAX_ORDER + 1)])


def _rows(*rows):
    """The rows (iterables of floats, all of one length) as one 2-d array."""
    return np.fromiter(chain(*rows), float).reshape(len(rows), -1)


def _over_powers(head, xs, count):
    """Rows `head`, then (-1)^k k! / x^(k+1), k < count; a zero power raises as float / does."""
    t = _rows(*head, *(map(pow, xs, repeat(k + 1.0)) for k in range(count)))
    if np.count_nonzero(t[len(head):]) < count * len(xs):
        raise ZeroDivisionError("float division by zero")
    t[len(head):] = _SIGNED_FACTORIALS[:count, None] / t[len(head):]
    return t


class Jet:
    """Immutable truncated Taylor expansion of a scalar or of a tensor of
    scalars (coefficients on the last axis), at one base point or at P
    points (`batched`: a points axis just before the coefficient axis).
    Every coefficient past total degree `_degree` is +-0.0 (-1: all are)."""

    __slots__ = ("space", "c", "batched", "_degree")
    # numpy operands defer to the Jet operators instead of broadcasting
    __array_ufunc__ = None

    def __init__(self, space, coeffs, batched=False, degree=None):
        self.space = space
        self.c = np.asarray(coeffs, dtype=float)
        self.batched = batched
        self._degree = space.order if degree is None else min(degree, space.order)
        if self.c.shape[-1:] != (space.size,) or self.c.ndim < 1 + batched:
            raise JetError("coefficient vector does not match jet space")

    def _like(self, c, degree=None):
        return Jet(self.space, c, self.batched, degree)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(space, value):
        """Constant jet; an ndarray `value` gives a tensor of constants."""
        return Jet(space, _constant_terms(value, space.size), degree=0)

    @staticmethod
    def variable(space, index, value):
        """The coordinate `index` as a jet at `value`; one value per point
        (a 1-d array) gives a jet with a points axis."""
        if not 0 <= index < space.num_vars:
            raise JetError(f"variable index {index} out of range for {space.num_vars} vars")
        value = np.asarray(value, dtype=float)
        if value.ndim > 1:
            raise JetError("a variable takes one value or one value per point")
        c = _constant_terms(value, space.size)
        if space.order >= 1:
            unit = tuple(1 if a == index else 0 for a in range(space.num_vars))
            c[..., space.index_of[unit]] = 1.0
        return Jet(space, c, value.ndim == 1, 1)

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
        """Tensor jet of a list of jets of one space and one shape."""
        coeffs, batched = Jet._common(items, full=True)
        return Jet(items[0].space, np.stack(coeffs), batched, max(x._degree for x in items))

    @staticmethod
    def concatenate(items, axis=0):
        """Join tensor jets of one space along an existing tensor axis."""
        coeffs, batched = Jet._common(items, full=True)
        axis = axis if axis >= 0 else axis - 1 - batched
        return Jet(items[0].space, np.concatenate(coeffs, axis=axis), batched,
                   max(x._degree for x in items))

    # -- tensor structure --------------------------------------------------

    @property
    def shape(self):
        return self.c.shape[: self.c.ndim - 1 - self.batched]

    def __getitem__(self, index):
        """Index the tensor axes (never the points or coefficient axis; `...`
        stands for tensor axes only)."""
        if not isinstance(index, tuple):
            index = (index,)
        return self._like(self.c[index + (slice(None),) * (1 + self.batched)], self._degree)

    def reshape(self, *shape):
        return self._like(self.c.reshape(*shape, *self.c.shape[len(self.shape):]), self._degree)

    def transpose(self, *axes):
        """Permute the tensor axes."""
        return self._like(self.c.transpose(*axes, *range(len(axes), self.c.ndim)), self._degree)

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
        return self._like(c, self._degree)

    def inverse(self):
        """Inverse of a square matrix of jets by Gauss-Jordan elimination
        with value pivoting, the pivot chosen per point; each step scales the
        pivot row and clears its column in all other rows at once, on the
        augmented matrix [M | I].  Only the live columns are kept: step `col`
        reads column `col` and updates the ones right of it, then drops it,
        so after n steps the n columns left are the inverse.  A finite
        constant or an order-0 matrix is eliminated on its constant terms
        alone, a 1 x 1 one is its reciprocal (see Float order)."""
        n, sp = self.c.shape[0], self.space
        c = self.c if self.batched else self.c[..., None, :]
        constant = sp.order == 0 or self._degree <= 0 and np.isfinite(c[..., 0]).all()
        if n == 1 and not constant and (np.abs(c[..., 0]) >= 1e-14).all():
            inv = self._reciprocal()
            if np.isfinite(inv.c).all():  # else 0 * inf fills its product with the I entry
                return inv._like(inv.c + 0.0, inv._degree)
        if constant:  # each product rounds as its constant term, x * y + 0.0
            c, mul, reciprocal = c[..., :1], (lambda x, y: x * y + 0.0), (lambda x: 1.0 / x + 0.0)
        else:
            mul = lambda x, y: (Jet(sp, x, True) * Jet(sp, y, True)).c
            reciprocal = lambda x: (1.0 / Jet(sp, x, True)).c
        points = np.arange(c.shape[2])
        eye = np.zeros((n, n, len(points), c.shape[-1]))
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
            pivot_row = mul(aug[col, 1:], reciprocal(aug[col, 0]))
            # row r becomes row r - A[r, col] * pivot row
            aug = aug[:, 1:] - mul(aug[:, :1], pivot_row)
            aug[col] = pivot_row
        aug = aug if self.batched else aug[..., 0, :]
        if constant:
            return Jet(sp, _constant_terms(aug[..., 0], sp.size), self.batched, 0)
        return self._like(aug)

    def add_diagonal(self, other):
        """Copy with `other` added onto every entry [k, k] of the first two
        axes (a scalar, or one entry per k)."""
        (x, y), batched = Jet._common([self, self._coerce(other)], full=True)
        k = np.arange(x.shape[0])
        c = x.copy()
        c[k, k] = c[k, k] + y
        return Jet(self.space, c, batched, max(self._degree, getattr(other, "_degree", 0)))

    def sum(self, axis=0, start=None):
        """Sum over one tensor axis, left to right, optionally onto `start`."""
        (c, *s), batched = Jet._common([self] + ([start] if start is not None else []))
        lead = (slice(None),) * (axis % len(self.shape))
        acc = c[lead + (0,)]
        if s:
            acc = s[0] + acc
        for k in range(1, c.shape[len(lead)]):
            acc = acc + c[lead + (k,)]
        return Jet(self.space, acc, batched, max(self._degree, getattr(start, "_degree", -1)))

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

    def take_points(self, rows):
        """The jet at the points `rows` (a slice), copied; one without points axis as is."""
        return self._like(self.c[..., rows, :].copy(), self._degree) if self.batched else self

    def truncate(self, order):
        """Copy of this jet in the lower-order space (coefficients dropped)."""
        if order == self.space.order:
            return self
        if order > self.space.order:
            raise JetError("cannot raise jet order by truncation")
        sp = jet_space(self.space.num_vars, order)
        return Jet(sp, self.c[..., : sp.size].copy(), self.batched, self._degree)

    def deriv(self, axis):
        """Partial derivative along one variable; drops one order."""
        return self.derivs()[..., axis]

    def derivs(self):
        """Every first partial derivative, on a new last tensor axis."""
        if self.space.order == 0:
            raise JetError("cannot differentiate an order-0 jet")
        sp = jet_space(self.space.num_vars, self.space.order - 1)
        c = self.c[..., self.space._diff] * self.space._diff_scale
        return Jet(sp, c.swapaxes(-3, -2) if self.batched else c, self.batched,
                   max(self._degree - 1, -1))

    def centered(self):
        """This jet minus its constant terms (rounded as subtracting each
        entry's value): the zero-shifted inner jet a `Composer` takes."""
        c = self.c.copy()
        c[..., 0] -= self.c[..., 0]
        # a constant leaves 0.0 everywhere, or NaN where it was not finite
        return self._like(c, -1 if self._degree <= 0 and not c[..., 0].any() else self._degree)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise JetError(f"jet space mismatch: {self.space} vs {other.space}")
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet.constant(self.space, other)
        return None

    def _combine(self, other, op):
        """op(self's coefficients, other's), for + and -."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (x, y), batched = Jet._common([self, o])
        return Jet(self.space, op(x, y), batched, max(self._degree, o._degree))

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return self._combine(other, lambda x, y: y - x)

    def __neg__(self):
        return self._like(-self.c, self._degree)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self._like(self.c * float(other), self._degree if math.isfinite(other) else None)
        o = self._coerce(other)
        if o is None:
            if isinstance(other, np.ndarray):  # one float factor per tensor entry
                return self._like(self.c * other.reshape(other.shape + (1,) * (1 + self.batched)),
                                  self._degree if np.isfinite(other).all() else None)
            return NotImplemented
        (x, y), batched = Jet._common([self, o])
        c, degree = _product(self.space, x, y, self._degree, o._degree)
        return Jet(self.space, c, batched, degree)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self._like(self.c / float(other),
                              self._degree if math.isfinite(other) and other else None)
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
        if isinstance(exponent, (int, np.integer)) or (isinstance(exponent, float)
                                                       and exponent.is_integer()):
            n = int(exponent)
            if n == 0:
                return Jet.constant(self.space, 1.0)
            if n < 0:
                return (self.__pow__(-n))._reciprocal()
            acc = self
            for _ in range(n - 1):
                acc = acc * self
            return acc
        return self._power(float(exponent), "non-integer power requires positive base value")

    def _power(self, r, domain_error):
        """self ** r for a non-integer r; a non-positive value raises `domain_error`."""
        scales = np.array([*accumulate([1.0] + [r - k for k in range(self.space.order)],
                                       operator.mul)])[:, None]  # r (r - 1) ... (r - k + 1)

        def derivs(xs):
            if any(map(operator.le, xs, repeat(0.0))):
                raise JetError(domain_error)
            return scales * _rows(*(map(pow, xs, repeat(r - k)) for k in range(len(scales))))

        return self._apply(derivs)

    # -- composition with univariate functions -----------------------------

    def _apply(self, derivs):
        """phi(self) for a univariate phi: `derivs(xs)` gives phi^(k)(x), k = 0..order, on
        rows for the list xs of constant terms, in C loops (see Float order; no warnings).
        If it raises, each value is taken alone in order; the first failing one raises."""
        x = self.c[..., 0]
        xs = x.ravel().tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                table = derivs(xs)
            except (ValueError, ArithmeticError):
                for v in xs:
                    derivs([v])
                raise
        return self._compose(table.reshape((-1,) + x.shape))

    def _compose(self, derivs):
        """Jet of phi(self) from the derivative values phi^(k) at the
        constant terms (floats, or one array of values per k) by Horner's
        rule; each step adds its constant row with one array add over all
        coefficients, so -0.0 + 0.0 rounds as for a constant jet."""
        sp = self.space
        h = self.c.copy()
        h[..., 0] = 0.0
        h = self._like(h, self._degree if self._degree > 0 else -1)
        acc = self._like(_constant_terms(derivs[sp.order] / math.factorial(sp.order), sp.size), 0)
        for k in range(sp.order - 1, -1, -1):
            acc = acc * h
            acc = self._like(acc.c + _constant_terms(derivs[k] / math.factorial(k), sp.size),
                             max(acc._degree, 0))
        return acc

    def _reciprocal(self):
        def derivs(xs):
            if 0.0 in xs:
                raise JetError("division by jet with zero constant term")
            return _over_powers([], xs, self.space.order + 1)

        return self._apply(derivs)

    def _turns(self, f, g, rows):
        """sin or cos: phi^(k) is row rows[k] of f, g, -f, -g at the values."""
        def derivs(xs):
            t = _rows(map(f, xs), map(g, xs))
            return np.concatenate([t, -t])[rows[: self.space.order + 1]]

        return self._apply(derivs)

    def sin(self):
        return self._turns(math.sin, math.cos, [0, 1, 2, 3, 0])

    def cos(self):
        return self._turns(math.cos, math.sin, [0, 3, 2, 1, 0])

    def tan(self):
        return self.sin() / self.cos()

    def exp(self):
        return self._apply(lambda xs: _rows(map(math.exp, xs)).repeat(self.space.order + 1, 0))

    def log(self):
        def derivs(xs):
            if any(map(operator.le, xs, repeat(0.0))):
                raise JetError("log of non-positive jet value")
            return _over_powers([map(math.log, xs)], xs, self.space.order)

        return self._apply(derivs)

    def sqrt(self):
        return self._power(0.5, "sqrt of non-positive jet value")

    def atan(self):
        def derivs(xs):
            ws = list(map(operator.add, repeat(1.0), map(operator.mul, xs, xs)))  # 1 + x * x
            at, x, w, w2, w3, w4, x3 = _rows(map(math.atan, xs), xs, ws, *(
                map(pow, ws, repeat(e)) for e in (2.0, 3.0, 4.0)), map(pow, xs, repeat(3.0)))
            return np.array([at, 1.0 / w, -2.0 * x / w2, (6.0 * x * x - 2.0) / w3,
                             (24.0 * x - 24.0 * x3) / w4][: self.space.order + 1])

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
    (the same P).  Only the live rows are added: those whose outer
    coefficient is nonzero (NaN and inf count) on some entry and point.
    The monomials h^gamma are tabulated once per composer, up to the highest
    live degree and to the order the result keeps, so many outers compose
    against one table, each reading a prefix of its rows and coefficients.
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
        self._depth = (-1, -1)  # (degree, order) of the table built
        self._built = None

    def _table(self, degree, order):
        """Rows h^gamma, |gamma| <= degree, to the given order: a prefix,
        on rows and coefficients, of the one table, built again deeper when
        it is too shallow (the kept coefficients of a row are the same
        products at any order, as truncation commutes with them)."""
        k = self._inners.shape[0]
        if degree > self._depth[0] or order > self._depth[1]:
            top, depth = max(degree, self._depth[0]), max(order, self._depth[1])
            self._depth = (top, depth)
            inners = self._inners.truncate(depth)
            outer = jet_space(k, top)
            table = np.zeros((outer.size,) + inners.c.shape[1:])
            table[0, ..., 0] = 1.0
            self._degrees = [0]  # the degree bound of each level
            for rows, parents, axes in _monomial_plan(outer):
                level = inners._like(table[parents], self._degrees[-1]) * inners[axes]
                table[rows] = level.c
                self._degrees.append(level._degree)
            self._built = table
        return self._built[:jet_space(k, degree).size, ...,
                           :jet_space(self.inner_space.num_vars, order).size]

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
        c = outer.c
        batched = self._inners.batched or outer.batched
        if batched and not outer.batched:
            c = c[..., None, :]
        live = np.flatnonzero((c != 0.0).reshape(-1, c.shape[-1]).any(axis=0))
        # acc = 0 + c_0 h^gamma_0 + c_1 h^gamma_1 + ... over the live rows in
        # basis order, one row at a time into one buffer; a dead row would
        # add 0 * (finite) = +-0.0 to a sum begun at +0.0, leaving it as is
        acc = np.zeros(np.broadcast_shapes(
            c.shape[:-1] + (1,), self._inners.c.shape[1:-1] + (space.size,)))
        degree = -1
        if live.size:
            top = sum(outer.space.indices[live[-1]])
            table = self._table(top, space.order)
            term = np.empty_like(acc)
            for i in live:
                acc += np.multiply(c[..., i, None], table[i], out=term)
            # +-0.0 past a row's bound stays so times a finite coefficient
            degree = max(self._degrees[:top + 1]) if math.isfinite(acc.sum()) else space.order
        return Jet(space, acc, batched, degree)
