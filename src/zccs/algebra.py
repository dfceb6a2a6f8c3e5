"""Exact arithmetic with sums of roots of unity.

A value is represented in the group ring Z[Z_delta]: an integer vector
``coeffs`` of length delta encodes ``sum_j coeffs[j] * w^j`` where
``w = exp(2*pi*i/delta)``.  Addition and rotation are then plain integer
vector operations, which is what correlation accumulation needs; nothing
is reduced until a zero test, where the vector is reduced modulo the
delta-th cyclotomic polynomial.

Coefficients are stored in int64 and combined in Python ints, so a
``CycInt`` result that leaves int64 raises ``OverflowError`` instead of
wrapping.  Every term produced by a correlation has unit magnitude, so a
code correlation of M sequences of length N has coefficients bounded by
M*N.  :data:`MAX_TERMS` caps M*N and :data:`MAX_DELTA` caps the root
order; ``CodeSet`` and the file reader refuse larger sets, and
``CycInt`` refuses a larger root order.  Under those caps
:func:`fft_error` bounds the floating-point steps of :mod:`zccs.correlate`.

A zero test is linear algebra, the reduced form c = h @ R with
R = :func:`reduction_matrix`.  :func:`harmonic_reduction` gives c from
the phi(delta)/2 primitive harmonics of h, which is how ``zccs corr``
gets it from its FFT; :func:`reduced_forms` takes the
product in float64 for count histograms, which MAX_TERMS keeps exact,
when the engine recounts a block; and ``CycInt.reduced`` folds any int64
coefficients by Phi_delta's nonzero terms in Python ints.  A value's
complex number is read from c alone, by :func:`form_values` over the
table :func:`roots`, exact at the quarter turns, so ``zccs corr`` and
``CycInt.to_complex`` print the same digits.

The tables of a root order, and what the other modules compute from a
set's shape alone, are cached by :func:`shape_cache` in one store of
SHAPE_CACHE_BYTES (32 MiB) at most, which holds the largest root order's
tables while it is verified (25 MB at delta = 1021, the scan's included);
``lru_cache`` keeps only values of a fixed small size.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from math import expm1, gcd, isqrt, log1p, sqrt

import numpy as np

from .errors import DeltaMismatch, ZccsError

MAX_TERMS = 1 << 20
"""Largest M*N (unit terms in one code correlation) a code set may have."""
MAX_DELTA = 1 << 10
"""Largest root order delta a code set may have."""
ROOT_ERROR = 2.0**-48
"""Bound on |roots(delta)[j] - exp(2*pi*i*j/delta)|: the angle's three roundings and cos and sin."""
RESIDUAL_TOL = 0.25  # the largest |c - rint(c)| accepted from an FFT recovery of reduced forms
SHAPE_CACHE_BYTES = 1 << 25
"""Byte budget of the one store of every :func:`shape_cache` function's values."""

_STORE: dict = {}  # (function, args) -> (value, counted bytes), least recently used first
_held = 0


def shape_cache(size=lambda value: value.nbytes):
    """Cache a pure function of hashable positional arguments in the store
    all such functions share, which keeps the most recently used values,
    counted by ``size``, up to SHAPE_CACHE_BYTES in all; a larger value is
    returned uncached.  The values must be read-only, since every caller
    shares them.  ``cache_clear()`` drops the function's values."""

    def decorate(fn):
        @wraps(fn)
        def cached(*args):
            global _held
            if (hit := _STORE.pop(key := (fn, args), None)) is None:
                value = fn(*args)
                if (nbytes := size(value)) > SHAPE_CACHE_BYTES:
                    return value
                hit, _held = (value, nbytes), _held + nbytes
                while _held > SHAPE_CACHE_BYTES:
                    _held -= _STORE.pop(next(iter(_STORE)))[1]
            _STORE[key] = hit
            return hit[0]

        def cache_clear() -> None:
            global _held
            for key in [key for key in _STORE if key[0] is fn]:
                _held -= _STORE.pop(key)[1]

        cached.cache_clear = cache_clear
        return cached

    return decorate


def owned_int64(values) -> np.ndarray:
    """``values`` as an int64 array no caller can write through: a
    read-only array as it is, anything else copied.  Entries it would
    change raise: TypeError unless integers, OverflowError past int64."""
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if arr.dtype.kind == "O":
        ints = all(isinstance(v, (int, np.integer)) for v in arr.flat)
    else:  # "i", the usual input, before can_cast, which costs more
        ints = arr.dtype.kind == "i" or np.can_cast(arr.dtype, np.int64)
    if not ints:
        raise TypeError(f"expected integers that fit int64, got {arr.dtype} entries")
    return np.array(arr, dtype=np.int64, copy=True if arr.flags.writeable else None)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """n-th cyclotomic polynomial as ascending integer coefficients.

    For n >= 2, Phi_n is the Moebius product of (1 - x^(n/s))^mu(s) over
    the squarefree products s of n's primes.  The factors act on a power
    series cut after degree phi(n), in Python ints: multiplying by
    1 - x^d subtracts the series shifted by d, and dividing by it is a
    running sum along each residue class mod d.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    if n < 1:
        raise ValueError("cyclotomic_poly requires n >= 1")
    if n == 1:
        return (-1, 1)
    phi, factors = n, [(1, 1)]  # (s, mu(s))
    for p in range(2, n + 1):
        if n % p == 0 and is_prime(p):
            phi = phi // p * (p - 1)
            factors += [(s * p, -mu) for s, mu in factors]
    series = np.zeros(phi + 1, dtype=object)
    series[0] = 1
    for s, mu in factors:
        d = n // s
        if mu == 1:
            series[d:] = series[d:] - series[:-d]
        else:
            padded = np.concatenate([series, np.zeros(-len(series) % d, dtype=object)])
            series = np.cumsum(padded.reshape(-1, d), axis=0).ravel()[: phi + 1]
    return tuple(series.tolist())


@shape_cache()
def reduction_matrix(delta: int) -> np.ndarray:
    """delta x phi(delta) integer matrix whose row j is x^j mod Phi_delta.

    Reduction is linear, so ``h @ reduction_matrix(delta)`` is the reduced
    form of every coefficient vector stacked in ``h`` at once, and a
    vector is zero in Z[w] iff its row of the product is all zero.  Rows
    below phi are the unit vectors; row j + 1 is x times row j with its
    x^phi term folded back through the monic Phi_delta.
    """
    phi = np.array(cyclotomic_poly(delta)[:-1], dtype=np.int64)
    n = len(phi)
    out = np.zeros((delta, n), dtype=np.int64)
    out[:n] = np.eye(n, dtype=np.int64)
    for j in range(n, delta):
        out[j, 1:] = out[j - 1, :-1]
        out[j] -= out[j - 1, -1] * phi
    out.flags.writeable = False
    return out


@shape_cache()
def reduction_max(delta: int) -> np.ndarray:
    """The phi(delta) column maxima max_d |R[d, i]| of R = reduction_matrix(delta).

    A vector h has |(h @ R)[i]| <= sum|h| * reduction_max(delta)[i]."""
    out = np.abs(reduction_matrix(delta)).max(axis=0)
    out.flags.writeable = False
    return out


def reduced_forms(h: np.ndarray) -> np.ndarray:
    """``h @ reduction_matrix(delta)`` for count histograms h of shape (..., delta).

    The engine's exact recount, the fallback behind every FFT recovery,
    reduces its histograms with it.  Every vector of h
    holds non-negative counts summing to at most MAX_TERMS, and
    max|R| <= 5 for delta <= MAX_DELTA, so every partial sum is an integer
    below 5 * 2**20 < 2**53: the product is taken in float64, where numpy
    uses BLAS, and is exact there, as the FFT recovery's forms are.
    """
    return h.astype(np.float64) @ reduction_matrix(h.shape[-1]).astype(np.float64)


@shape_cache()
def roots(delta: int) -> np.ndarray:
    """The read-only table of w^j, j = 0..delta-1, w = exp(2*pi*i/delta),
    with w^j exactly 1, i, -1 or -i wherever 4j = 0 mod delta.  The scan
    reads the harmonics w^(-r*e) of an exponent e as roots[-r*e mod delta]."""
    j = np.arange(delta)
    out = np.exp(2j * np.pi * j / delta)
    quarter = 4 * j % delta == 0
    out[quarter] = np.array([1, 1j, -1, -1j])[4 * j[quarter] // delta]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def fft_error(m: int, n: int, length: int) -> float:
    """eps >= |H^ - H| for every harmonic sum of every cell and lag of a
    scan of a (K, m, n) array at a 5-smooth FFT length L (ValueError for
    others), in Percival's form (Math. Comp. 72, 2003), with u = 2^-53 and
    g(k) = k*u/(1 - k*u) (Higham, Accuracy and Stability, ch. 3 and 24).
    pocketfft runs L in passes of radix 2, 3, 4, 5 or 8.  A pass output, a
    twiddle read within mu = 2^-49 times sum_k w_k z_k over p inputs, takes
    at most 8 roundings on any path, with coefficients of modulus <= 1 per
    input part, so it is off by c*sum|z_k| at most, c = 2g(8) +
    (sqrt(2)g(2)(1 + mu) + mu)(1 + 2g(8)).  A pass's moduli are all-ones
    blocks, of norm p = sqrt(p)*||A_p||, multiplying to the all-ones |F|,
    so a transform of z is off by theta*||z||_1 per output and
    phi*sqrt(L)*||z||_2 in norm at most: theta = (1 + c)^P - 1 and phi =
    prod(1 + c*sqrt(p)) - 1 over the P prime factors p of L, which bound
    any grouping into passes.  Members of n units read within rho =
    ROOT_ERROR give ||F x^ - F x||_2 <= a*sqrt(L*n), a = phi*(1 + rho) +
    rho.  Products and the sum over m members add kappa = (1 + sqrt(2)g(2))
    (1 + g(m - 1)) - 1 of sum|F x^||F y^|, so by Cauchy-Schwarz, as
    sum ||x||*||y|| = m*n, the summed spectra are off by m*L*n*e in 1-norm,
    e = kappa*(1 + a)^2 + a*(2 + a).  The inverse and its rounded 1/L add
    theta + g(2)(1 + theta) of their 1-norm over L, at most m*n*(1 + e).
    eps is the sum, raised by 2^-40 for its own rounding.
    """
    primes = []
    for p in (2, 3, 5):
        while length % p == 0:
            primes, length = primes + [p], length // p
    if length != 1:
        raise ValueError("the FFT error bound covers 5-smooth lengths only")
    mu, (g2, g8, gm) = 2.0**-49, (k * 2.0**-53 / (1 - k * 2.0**-53) for k in (2, 8, m - 1))
    c = 2 * g8 + (sqrt(2) * g2 * (1 + mu) + mu) * (1 + 2 * g8)
    theta, phi = expm1(len(primes) * log1p(c)), expm1(sum(log1p(c * sqrt(p)) for p in primes))
    a = phi * (1 + ROOT_ERROR) + ROOT_ERROR
    kappa = sqrt(2) * g2 + gm + sqrt(2) * g2 * gm
    e = kappa * (1 + a) ** 2 + a * (2 + a)
    return m * n * (e + (theta + g2 * (1 + theta)) * (1 + e)) * (1 + 2.0**-40)


def form_values(c: np.ndarray, delta: int) -> np.ndarray:
    """The complex values sum_i c[..., i] w^i of reduced forms c of shape
    (..., phi(delta)), with w^i read from :func:`roots`.

    An elementwise product and a sum along the last axis, with no BLAS
    kernel, so a form's value does not depend, to the last bit, on the
    forms evaluated with it.  A part that is exactly zero reads +0, never -0.
    """
    return (c * roots(delta)[: c.shape[-1]]).sum(axis=-1) + 0.0


@shape_cache(size=lambda pair: pair[0].nbytes + pair[1].nbytes)
def harmonic_reduction(delta: int) -> tuple[np.ndarray, np.ndarray]:
    """``(harmonics, basis)``: the primitive harmonics of Z_delta and the
    real matrix that maps them to reduced forms.

    A histogram h over Z_delta has the harmonics H_r = sum_d h[d] w^(-r*d),
    and h[d] = sum_r w_r * Re(H_r w^(r*d)) / delta over r = 0..delta/2,
    with w_r = 1 when 2r = 0 mod delta and 2 otherwise.  Reduction mod
    Phi_delta is linear, so c = h @ R = Re(H @ B) with row r of B =
    w_r * sum_d w^(r*d) R[d] / delta.  That row is zero unless
    gcd(r, delta) = 1: sum_d w^(r*d) x^d vanishes at every primitive
    delta-th root of unity when r is not a unit mod delta, so it lies in
    the ideal (Phi_delta).  ``harmonics`` keeps the r <= delta/2 with
    gcd(r, delta) = 1, phi/2 of them for delta >= 3, and ``basis`` holds
    the rows Re B_r and -Im B_r interleaved, so that for every histogram

        h @ reduction_matrix(delta) == H[harmonics].view(float) @ basis.

    An error e in every harmonic moves c by at most e times the error
    gain, the largest column sum of |B_r| (13.1 at most, at
    delta = 935).  A check raises ZccsError unless gain times :func:`fft_error`
    at MAX_TERMS members and the FFT length 2*MAX_TERMS, which bounds every
    scan the caps admit, is at most RESIDUAL_TOL.

    >>> harmonics, basis = harmonic_reduction(6)
    >>> harmonics.tolist()
    [1]
    >>> basis.shape
    (2, 2)
    """
    harmonics = np.array([r for r in range(delta // 2 + 1) if gcd(r, delta) == 1])
    weights = np.where(2 * harmonics % delta == 0, 1.0, 2.0)
    # R is real, so sum_d w^(r*d) R[d] is the conjugate of rfft(R)[r]:
    # spectrum[r] is the conjugate of B_r, whose parts are Re B_r and -Im B_r.
    spectrum = weights[:, None] * np.fft.rfft(reduction_matrix(delta), axis=0)[harmonics] / delta
    basis = np.stack((spectrum.real, spectrum.imag), axis=1).reshape(-1, spectrum.shape[1])
    gain = float(np.hypot(basis[0::2], basis[1::2]).sum(axis=0).max())
    if gain * fft_error(MAX_TERMS, 1, 2 * MAX_TERMS) > RESIDUAL_TOL:
        raise ZccsError(f"delta={delta}: harmonic error gain {gain:.4g} leaves no room for FFT round-off")
    harmonics.flags.writeable = False
    basis.flags.writeable = False
    return harmonics, basis


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
        if not 1 <= self.delta <= MAX_DELTA:
            raise ValueError(f"delta must lie in [1, {MAX_DELTA}], got {self.delta}")
        arr = owned_int64(self.coeffs)
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
        coeffs[0] = operator.index(value)  # TypeError unless an integer
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
        return CycInt(self.delta, self.coeffs.astype(object) + other.coeffs)

    def __sub__(self, other: CycInt) -> CycInt:
        if self.delta != other.delta:
            raise DeltaMismatch(f"delta {self.delta} != {other.delta}")
        return CycInt(self.delta, self.coeffs.astype(object) - other.coeffs)

    def __neg__(self) -> CycInt:
        return CycInt(self.delta, -self.coeffs.astype(object))

    def __mul__(self, other: CycInt) -> CycInt:
        """Product in the group ring (cyclic convolution of coefficients)."""
        if self.delta != other.delta:
            raise DeltaMismatch(f"delta {self.delta} != {other.delta}")
        conv = np.convolve(self.coeffs.astype(object), other.coeffs)
        folded = conv[: self.delta].copy()
        folded[: self.delta - 1] += conv[self.delta :]
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

    def _form(self) -> list[int]:
        """The phi(delta) coefficients of the remainder modulo Phi_delta.

        From the top power down, each x^j with j >= phi is folded back by
        x^phi = x^phi mod Phi_delta (row phi of :func:`reduction_matrix`),
        over that row's nonzero terms, in Python ints: the coefficients
        may be any int64 values."""
        rem = self.coeffs.tolist()
        reduce = reduction_matrix(self.delta)
        phi = reduce.shape[1]
        if phi < self.delta:
            terms = [(k, v) for k, v in enumerate(reduce[phi].tolist()) if v]
            for j in range(self.delta - 1, phi - 1, -1):
                if top := rem[j]:
                    for k, v in terms:
                        rem[j - phi + k] += top * v
        return rem[:phi]

    def reduced(self) -> tuple[int, ...]:
        """Canonical form: remainder modulo the delta-th cyclotomic
        polynomial, without trailing zeros."""
        rem = self._form()
        while rem and rem[-1] == 0:
            rem.pop()
        return tuple(rem)

    def is_zero(self) -> bool:
        """Exact zero test; true iff the value is 0 as a complex number."""
        return self.reduced() == ()

    def to_complex(self) -> complex:
        """Double-precision value of the element: :func:`form_values` of
        its remainder, as ``zccs corr`` prints it."""
        return complex(form_values(np.array(self._form(), dtype=np.float64), self.delta))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.delta == other.delta and (self - other).is_zero()

    def __hash__(self) -> int:
        return hash((self.delta, self.reduced()))

    def __repr__(self) -> str:
        return f"CycInt(delta={self.delta}, coeffs={self.coeffs.tolist()})"
