"""Truncated multivariate Taylor (jet) arithmetic up to total order 4.

A jet stores, for one scalar quantity, the values of all partial derivatives
up to a fixed total order at a base point, encoded as Taylor coefficients
(coefficient of the multi-index gamma is the partial derivative divided by
gamma!).  Arithmetic and elementary functions propagate these coefficients
exactly, so every derivative extracted from a jet is exact to machine
precision for the truncation order.

Orders are capped at 4: the deepest quantity assembled downstream (the
normal Laplacian of the mean curvature field) consumes four derivatives of
an immersion.  Tables are dense; parameter counts stay small (<= 6 vars).
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


class Jet:
    """Immutable truncated Taylor expansion of one scalar quantity."""

    __slots__ = ("space", "c")

    def __init__(self, space, coeffs):
        self.space = space
        self.c = np.asarray(coeffs, dtype=float)
        if self.c.shape != (space.size,):
            raise JetError("coefficient vector does not match jet space")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(space, value):
        c = np.zeros(space.size)
        c[0] = float(value)
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

    # -- basic access ------------------------------------------------------

    @property
    def value(self):
        return float(self.c[0])

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
        return Jet(sp, self.c[: sp.size].copy())

    def deriv(self, axis):
        """Partial derivative along one variable; drops one order."""
        if self.space.order == 0:
            raise JetError("cannot differentiate an order-0 jet")
        sp = jet_space(self.space.num_vars, self.space.order - 1)
        return Jet(sp, self.c[self.space._diff[axis]] * self.space._diff_scale[axis])

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
            return NotImplemented
        sp = self.space
        prod = self.c[sp._mul_i] * o.c[sp._mul_j]
        return Jet(sp, np.bincount(sp._mul_k, weights=prod, minlength=sp.size))

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
        return f"Jet({self.space.num_vars}v/o{self.space.order}, value={self.value:.6g})"


class Composer:
    """Substitutes inner jets into outer jets (jet-of-function composition).

    Given inner jets h_1..h_k (shared space, zero-shifted by the caller so
    that h_i encodes inner_i - inner_i(base)), an outer jet in k variables
    evaluates to sum_gamma c_gamma * prod_i h_i^gamma_i.  Monomial products
    are cached so many outers can be composed against one inner set.
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
        self._inners = list(inners)
        self._powers = {}
        one = Jet.constant(self.inner_space, 1.0)
        self._powers[(0,) * len(inners)] = one

    def _monomial(self, gamma):
        got = self._powers.get(gamma)
        if got is not None:
            return got
        ax = next(i for i, g in enumerate(gamma) if g > 0)
        parent = tuple(g - (1 if i == ax else 0) for i, g in enumerate(gamma))
        val = self._monomial(parent) * self._inners[ax]
        self._powers[gamma] = val
        return val

    def apply(self, outer):
        if outer.space.num_vars != len(self._inners):
            raise JetError("outer jet variable count does not match inners")
        acc = np.zeros(self.inner_space.size)
        for i, gamma in enumerate(outer.space.indices):
            ci = outer.c[i]
            if ci != 0.0:
                acc = acc + ci * self._monomial(gamma).c
        return Jet(self.inner_space, acc)

    def apply_truncated(self, outer):
        """Compose and truncate to the outer order (the valid depth)."""
        out = self.apply(outer)
        if outer.space.order < self.inner_space.order:
            return out.truncate(outer.space.order)
        return out
