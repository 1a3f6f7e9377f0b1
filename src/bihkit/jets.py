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

Tables.  The basis of a space is graded lexicographic, so the basis of every
lower order is a prefix of it and truncation keeps leading coefficients.
The multiplication table lists the pairs (i, j) of basis indices whose total
degree stays within the order, row-major in (i, j), with the output index k
of each pair; derivative tables map each lower-order index to the index one
step up along an axis, with its scale factor.

Float order.  Every operation on a tensor jet rounds exactly as the same
operation on each of its entries as a scalar jet would:
  * a product accumulates, per output coefficient, its terms in table order
    starting from 0.0 (one `np.bincount` over all entries, offset per entry);
  * `sum` adds the slices of an axis left to right, never pairwise;
  * the operand order of a product is kept (a*b and b*a accumulate in a
    different order).
This matters because some reports depend on round-off: on the Reeb-normal
circle (scenario c16) |H|^2 is about 5e-32, and the pinned `props` ratios
there are quotients of round-off noise, so the mean-curvature path must stay
bit-identical to the scalar loops it replaced.

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
    and per-index factorials.  Instances are cached; jets only combine when
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
        self.factorials = np.array(
            [math.prod(math.factorial(k) for k in g) for g in self.indices],
            dtype=float,
        )
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


class Jet:
    """Immutable truncated Taylor expansion of a scalar or of a tensor of
    scalars (coefficients on the last axis)."""

    __slots__ = ("space", "c")
    # numpy operands defer to the Jet operators instead of broadcasting
    __array_ufunc__ = None

    def __init__(self, space, coeffs):
        self.space = space
        self.c = np.asarray(coeffs, dtype=float)
        if self.c.shape[-1:] != (space.size,):
            raise JetError("coefficient vector does not match jet space")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(space, value):
        """Constant jet; an ndarray `value` gives a tensor of constants."""
        c = np.zeros(getattr(value, "shape", ()) + (space.size,))
        c[..., 0] = value
        return Jet(space, c)

    @staticmethod
    def variable(space, index, value):
        if not 0 <= index < space.num_vars:
            raise JetError(
                f"variable index {index} out of range for {space.num_vars} vars"
            )
        c = np.zeros(space.size)
        c[0] = float(value)
        if space.order >= 1:
            unit = tuple(1 if a == index else 0 for a in range(space.num_vars))
            c[space.index_of[unit]] = 1.0
        return Jet(space, c)

    @staticmethod
    def stack(items):
        """Tensor jet of a (nested) list of jets of one space."""
        def coeffs(x):
            return x.c if isinstance(x, Jet) else np.array([coeffs(e) for e in x])
        first = items
        while not isinstance(first, Jet):
            first = first[0]
        return Jet(first.space, coeffs(items))

    @staticmethod
    def concatenate(items, axis=0):
        """Join tensor jets of one space along an existing tensor axis."""
        axis = axis if axis >= 0 else axis - 1
        return Jet(items[0].space, np.concatenate([x.c for x in items], axis=axis))

    # -- tensor structure --------------------------------------------------

    @property
    def shape(self):
        return self.c.shape[:-1]

    def __getitem__(self, index):
        """Index the tensor axes (never the coefficient axis; `...` stands
        for tensor axes only)."""
        if not isinstance(index, tuple):
            index = (index,)
        return Jet(self.space, self.c[index + (slice(None),)])

    def reshape(self, *shape):
        return Jet(self.space, self.c.reshape(*shape, self.space.size))

    def transpose(self, *axes):
        """Permute the tensor axes."""
        return Jet(self.space, self.c.transpose(*axes, len(axes)))

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
        return Jet(self.space, c)

    def inverse(self):
        """Inverse of a square matrix of jets by Gauss-Jordan elimination
        with value pivoting; each step scales the pivot row and clears its
        column in all other rows at once, on the augmented matrix [M | I]."""
        n = self.c.shape[0]
        sp = self.space
        eye = np.zeros((n, n, sp.size))
        eye[range(n), range(n), 0] = 1.0
        aug = np.concatenate([self.c, eye], axis=1)
        for col in range(n):
            piv = col + int(np.argmax(np.abs(aug[col:, col, 0])))
            if abs(aug[piv, col, 0]) < 1e-14:
                raise JetError("singular jet matrix")
            aug[[col, piv]] = aug[[piv, col]]
            pivot_row = Jet(sp, aug[col]) * (1.0 / Jet(sp, aug[col, col]))
            # row r becomes row r - A[r, col] * pivot row
            aug = (Jet(sp, aug) - Jet(sp, aug[:, col, None]) * pivot_row).c
            aug[col] = pivot_row.c
        return Jet(sp, aug[:, n:])

    def add_diagonal(self, other):
        """Copy with `other` added onto every entry [k, k] of the first two
        axes (a scalar, or one entry per k)."""
        o = self._coerce(other)
        k = np.arange(self.c.shape[0])
        c = self.c.copy()
        c[k, k] = c[k, k] + o.c
        return Jet(self.space, c)

    def sum(self, axis=0, start=None):
        """Sum over one tensor axis, left to right, optionally onto `start`."""
        lead = (slice(None),) * (axis % (self.c.ndim - 1))
        acc = self.c[lead + (0,)]
        if start is not None:
            acc = start.c + acc
        for k in range(1, self.c.shape[len(lead)]):
            acc = acc + self.c[lead + (k,)]
        return Jet(self.space, acc)

    # -- basic access ------------------------------------------------------

    @property
    def value(self):
        return float(self.c[0])

    @property
    def values(self):
        """Constant terms of every entry, as a new C-ordered array."""
        return self.c[..., 0].copy()

    def coeff(self, gamma):
        return float(self.c[self.space.index_of[tuple(gamma)]])

    def partial(self, gamma):
        gamma = tuple(gamma)
        if len(gamma) != self.space.num_vars:
            raise JetError("multi-index length does not match num_vars")
        if sum(gamma) > self.space.order:
            raise JetError(
                f"requested order {sum(gamma)} exceeds jet order {self.space.order}"
            )
        i = self.space.index_of[gamma]
        return float(self.c[i] * self.space.factorials[i])

    def truncate(self, order):
        """Copy of this jet in the lower-order space (coefficients dropped)."""
        if order == self.space.order:
            return self
        if order > self.space.order:
            raise JetError("cannot raise jet order by truncation")
        sp = jet_space(self.space.num_vars, order)
        return Jet(sp, self.c[..., : sp.size].copy())

    def deriv(self, axis):
        """Partial derivative along one variable; drops one order."""
        if self.space.order == 0:
            raise JetError("cannot differentiate an order-0 jet")
        sp = jet_space(self.space.num_vars, self.space.order - 1)
        c = self.c[..., self.space._diff[axis]]
        return Jet(sp, c * self.space._diff_scale[axis])

    def derivs(self):
        """Every first partial derivative, on a new last tensor axis."""
        if self.space.order == 0:
            raise JetError("cannot differentiate an order-0 jet")
        sp = jet_space(self.space.num_vars, self.space.order - 1)
        return Jet(sp, self.c[..., self.space._diff] * self.space._diff_scale)

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
        return Jet(self.space, self.c + o.c)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.space, self.c - o.c)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.space, o.c - self.c)

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.space, self.c * float(other))
        o = self._coerce(other)
        if o is None:
            if isinstance(other, np.ndarray):  # one float factor per tensor entry
                return Jet(self.space, self.c * other[..., None])
            return NotImplemented
        sp = self.space
        if self.c.ndim == 1 == o.c.ndim:
            # scalar jets skip the bin keys: 1.6 us against 7.5 us for an
            # S = 5 product, 6 % of the curves and 9 % of the variation2d
            # benchmark wall time (2-vCPU Xeon, numpy 2.4)
            prod = self.c[sp._mul_i] * o.c[sp._mul_j]
            return Jet(sp, np.bincount(sp._mul_k, weights=prod, minlength=sp.size))
        prod = self.c[..., sp._mul_i] * o.c[..., sp._mul_j]
        # entry n's table row k goes to bin n*size + k, so one bincount
        # keeps every entry's table order (keys are not cached: keeping
        # them fragments the heap, about 2.5 MB more peak memory on c13)
        count = prod.size // prod.shape[-1]
        keys = (np.arange(count)[:, None] * sp.size + sp._mul_k).ravel()
        out = np.bincount(keys, weights=prod.ravel(), minlength=count * sp.size)
        return Jet(sp, out.reshape(*prod.shape[:-1], sp.size))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.space, self.c / float(other))
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
        c0 = self.value
        if c0 <= 0.0:
            raise JetError("non-integer power requires positive base value")
        derivs = []
        scale = 1.0
        for k in range(self.space.order + 1):
            derivs.append(scale * c0 ** (r - k))
            scale *= r - k
        return self._compose(derivs)

    # -- composition with univariate functions -----------------------------

    def _compose(self, derivs):
        """Jet of phi(self) from derivative values phi^(k) at self.value."""
        sp = self.space
        h = Jet(sp, np.concatenate(([0.0], self.c[1:])))
        acc = Jet.constant(sp, derivs[sp.order] / math.factorial(sp.order))
        for k in range(sp.order - 1, -1, -1):
            acc = acc * h + derivs[k] / math.factorial(k)
        return acc

    def _reciprocal(self):
        c0 = self.value
        if c0 == 0.0:
            raise JetError("division by jet with zero constant term")
        derivs = [
            (-1.0) ** k * math.factorial(k) / c0 ** (k + 1)
            for k in range(self.space.order + 1)
        ]
        return self._compose(derivs)

    def sin(self):
        c0 = self.value
        table = [math.sin(c0), math.cos(c0), -math.sin(c0), -math.cos(c0)]
        return self._compose([table[k % 4] for k in range(self.space.order + 1)])

    def cos(self):
        c0 = self.value
        table = [math.cos(c0), -math.sin(c0), -math.cos(c0), math.sin(c0)]
        return self._compose([table[k % 4] for k in range(self.space.order + 1)])

    def tan(self):
        c = self.cos()
        if c.value == 0.0:
            raise JetError("tan at a pole of cosine")
        return self.sin() / c

    def exp(self):
        e = math.exp(self.value)
        return self._compose([e] * (self.space.order + 1))

    def log(self):
        c0 = self.value
        if c0 <= 0.0:
            raise JetError("log of non-positive jet value")
        derivs = [math.log(c0)] + [
            (-1.0) ** (k - 1) * math.factorial(k - 1) / c0**k
            for k in range(1, self.space.order + 1)
        ]
        return self._compose(derivs)

    def sqrt(self):
        c0 = self.value
        if c0 <= 0.0:
            raise JetError("sqrt of non-positive jet value")
        return self.__pow__(0.5)

    def atan(self):
        c0 = self.value
        w = 1.0 + c0 * c0
        derivs = [
            math.atan(c0),
            1.0 / w,
            -2.0 * c0 / w**2,
            (6.0 * c0 * c0 - 2.0) / w**3,
            (24.0 * c0 - 24.0 * c0**3) / w**4,
        ]
        return self._compose(derivs[: self.space.order + 1])

    def __repr__(self):
        if self.shape:
            return f"Jet({self.space.num_vars}v/o{self.space.order}, shape={self.shape})"
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
    that h_i encodes inner_i - inner_i(base)), an outer jet in k variables
    evaluates to sum_gamma c_gamma * prod_i h_i^gamma_i; the outer may be a
    tensor jet.  The monomials h^gamma are tabulated once per outer space,
    so many outers compose against one inner set.
    """

    def __init__(self, inners):
        if not inners:
            raise JetError("composer needs at least one inner jet")
        self.inner_space = inners[0].space
        for h in inners:
            if h.space is not self.inner_space:
                raise JetError("inner jets must share a space")
            if h.value != 0.0:
                raise JetError("inner jets must have zero constant term")
        self._inners = Jet.stack(inners)
        self._tables = {}

    def _table(self, space):
        """Rows h^gamma over the basis of an outer space, built once."""
        table = self._tables.get(space)
        if table is None:
            table = np.zeros((space.size, self.inner_space.size))
            table[0, 0] = 1.0
            for rows, parents, axes in _monomial_plan(space):
                table[rows] = (Jet(self.inner_space, table[parents]) * self._inners[axes]).c
            self._tables[space] = table
        return table

    def apply(self, outer):
        if outer.space.num_vars != self._inners.shape[0]:
            raise JetError("outer jet variable count does not match inners")
        table = self._table(outer.space)
        # acc = 0 + c_0 h^gamma_0 + c_1 h^gamma_1 + ... in basis order; a
        # zero coefficient adds a signed zero to a sum that started at +0.0,
        # which leaves it unchanged
        terms = outer.c[..., None] * table
        acc = np.zeros(terms.shape[:-2] + (self.inner_space.size,))
        for i in range(table.shape[0]):
            acc = acc + terms[..., i, :]
        return Jet(self.inner_space, acc)

    def apply_truncated(self, outer):
        """Compose and truncate to the outer order (the valid depth)."""
        out = self.apply(outer)
        if outer.space.order < self.inner_space.order:
            return out.truncate(outer.space.order)
        return out
