"""Exact arithmetic with sums of roots of unity.

A value is represented in the group ring Z[Z_delta]: an integer vector
``coeffs`` of length delta encodes ``sum_j coeffs[j] * w^j`` where
``w = exp(2*pi*i/delta)``.  Addition and rotation are then plain integer
vector operations, which is what correlation accumulation needs; nothing
is reduced until a zero test, where the vector is reduced modulo the
delta-th cyclotomic polynomial.

Coefficients live in int64.  Every term produced by a correlation has
unit magnitude, so a code correlation of M sequences of length N has
coefficients bounded by M*N; nothing enforces that bound yet.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import DeltaMismatch


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _poly_divmod(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Long division of integer polynomials (ascending coefficients).

    The divisor must be monic so the quotient stays integral.
    """
    assert den and den[-1] == 1
    rem = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(len(rem) - deg_d, 0)
    for i in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - deg_d] = c
        for j, dc in enumerate(den):
            rem[i - deg_d + j] -= c * dc
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """n-th cyclotomic polynomial as ascending integer coefficients.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of all
    proper divisors of n; every division is exact.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    if n < 1:
        raise ValueError("cyclotomic_poly requires n >= 1")
    poly: tuple[int, ...] = tuple([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_poly(d))
            assert rem == ()
    return poly


@dataclass(frozen=True, eq=False)
class CycInt:
    """An element of Z[w] for w a primitive delta-th root of unity.

    The coefficient vector is *not* kept reduced; two instances are equal
    when their difference reduces to zero modulo the delta-th cyclotomic
    polynomial.
    """

    delta: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        arr = np.asarray(self.coeffs, dtype=np.int64)
        if arr.shape != (self.delta,):
            raise ValueError("coefficient vector must have length delta")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zero(cls, delta: int) -> CycInt:
        return cls(delta, np.zeros(delta, dtype=np.int64))

    @classmethod
    def from_int(cls, value: int, delta: int) -> CycInt:
        coeffs = np.zeros(delta, dtype=np.int64)
        coeffs[0] = value
        return cls(delta, coeffs)

    @classmethod
    def root(cls, delta: int, e: int) -> CycInt:
        """The single root of unity w^e."""
        coeffs = np.zeros(delta, dtype=np.int64)
        coeffs[e % delta] = 1
        return cls(delta, coeffs)

    def __add__(self, other: CycInt) -> CycInt:
        if self.delta != other.delta:
            raise DeltaMismatch(f"delta {self.delta} != {other.delta}")
        return CycInt(self.delta, self.coeffs + other.coeffs)

    def __sub__(self, other: CycInt) -> CycInt:
        if self.delta != other.delta:
            raise DeltaMismatch(f"delta {self.delta} != {other.delta}")
        return CycInt(self.delta, self.coeffs - other.coeffs)

    def __neg__(self) -> CycInt:
        return CycInt(self.delta, -self.coeffs)

    def __mul__(self, other: CycInt) -> CycInt:
        """Product in the group ring (cyclic convolution of coefficients)."""
        if self.delta != other.delta:
            raise DeltaMismatch(f"delta {self.delta} != {other.delta}")
        conv = np.convolve(self.coeffs, other.coeffs)
        folded = conv[: self.delta].copy()
        if len(conv) > self.delta:
            tail = conv[self.delta :]
            folded[: len(tail)] += tail
        return CycInt(self.delta, folded)

    def mul_root(self, e: int) -> CycInt:
        """Multiply by w^e, i.e. rotate the coefficient vector by e."""
        return CycInt(self.delta, np.roll(self.coeffs, e % self.delta))

    def conjugate(self) -> CycInt:
        """Complex conjugate: w^j maps to w^(-j)."""
        idx = (-np.arange(self.delta)) % self.delta
        return CycInt(self.delta, self.coeffs[idx])

    def promoted(self, new_delta: int) -> CycInt:
        """Re-express over a root order that is a multiple of delta."""
        if new_delta % self.delta != 0:
            raise DeltaMismatch(f"{new_delta} is not a multiple of {self.delta}")
        ratio = new_delta // self.delta
        coeffs = np.zeros(new_delta, dtype=np.int64)
        coeffs[np.arange(self.delta) * ratio] = self.coeffs
        return CycInt(new_delta, coeffs)

    def reduced(self) -> tuple[int, ...]:
        """Canonical form: remainder modulo the delta-th cyclotomic polynomial."""
        _, rem = _poly_divmod(tuple(int(c) for c in self.coeffs), cyclotomic_poly(self.delta))
        return rem

    def is_zero(self) -> bool:
        """Exact zero test; true iff the value is 0 as a complex number."""
        return self.reduced() == ()

    def to_complex(self) -> complex:
        """Double-precision value of the element."""
        angles = 2j * cmath.pi * np.arange(self.delta) / self.delta
        return complex(np.sum(self.coeffs * np.exp(angles)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.delta == other.delta and (self - other).is_zero()

    def __hash__(self) -> int:
        return hash((self.delta, self.reduced()))

    def __repr__(self) -> str:
        return f"CycInt(delta={self.delta}, coeffs={self.coeffs.tolist()})"
