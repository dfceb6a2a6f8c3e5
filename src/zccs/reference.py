"""The paper-literal reference: one object per sequence, code and value.

The paper defines each member as the sequence of one function
(:func:`codeword_function`, :func:`sequence_of`) and each extended
member as the sequence of a rational extension (:class:`PbfSpec`,
:func:`pbf_sequence`), and each correlation as a sum over the overlap
(:func:`accf`, :func:`code_accf`, :func:`profile`).  This module keeps
those definitions as objects, :class:`RootSequence` and :class:`Code`
over exact :class:`CycInt` values, so that tests can check the
broadcast builders of :mod:`zccs.construct` and the FFT engine of
:mod:`zccs.correlate` against them.  It also keeps the paper's second
assembly of the extended set, :func:`build_zccs_by_concatenation`, from
p phase-rotated copies of the base codes, which the tests compare with
``build_zccs``, and :func:`owned_int64`, the integer check of
``CycInt`` and ``RootSequence``.  Both classes read their root order
delta as an int in [1, MAX_DELTA].

Every correlation here, a whole :func:`profile` too, is counted
directly by ``correlate._count``, the one name this module takes from
the engine.  No product module imports it at module level;
``CodeSet.codes`` is its one entry from the product side.  ``algebra``
and ``construct`` also resolve ``CycInt`` and the concatenation builder
by a module ``__getattr__``, kept only because ``benchmarks/`` looks the
two up under those modules' names.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import lcm

import numpy as np

from .algebra import MAX_DELTA, MAX_TERMS, form_values, is_prime, reduction_matrix
from .boolfn import GeneralizedBooleanFunction, PathCertificate, extension_exponent
from .construct import CodeLabel, CodeSet, _prepare, family_labels
from .correlate import _count
from .errors import ArityError, DeltaMismatch, InvalidParams, ShapeError, TruncateError


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


def _root_order(delta) -> int:
    """delta as an int: TypeError unless an integer, ValueError outside
    [1, MAX_DELTA]."""
    delta = operator.index(delta)
    if not 1 <= delta <= MAX_DELTA:
        raise ValueError(f"delta must lie in [1, {MAX_DELTA}], got {delta}")
    return delta


@dataclass(frozen=True, eq=False)
class CycInt:
    """An element of Z[w] for w a primitive delta-th root of unity.

    The coefficient vector is *not* kept reduced; two instances are equal
    when their difference reduces to zero modulo the delta-th cyclotomic
    polynomial.  Coefficients are stored in int64 and combined in Python
    ints, so a result that leaves int64 raises OverflowError instead of
    wrapping.
    """

    delta: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "delta", _root_order(self.delta))
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



@dataclass(frozen=True, eq=False)
class RootSequence:
    """Sequence of delta-th roots of unity, stored as an exponent vector."""

    delta: int
    exponents: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "delta", _root_order(self.delta))
        arr = owned_int64(self.exponents)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("exponent vector must be 1-d and non-empty")
        if np.any(arr < 0) or np.any(arr >= self.delta):
            arr = arr % self.delta
        arr.flags.writeable = False
        object.__setattr__(self, "exponents", arr)

    def __len__(self) -> int:
        return int(self.exponents.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootSequence):
            return NotImplemented
        return self.delta == other.delta and np.array_equal(self.exponents, other.exponents)

    def conjugate(self) -> RootSequence:
        return RootSequence(self.delta, (-self.exponents) % self.delta)

    def truncate(self, keep: int) -> RootSequence:
        """Keep the first ``keep`` entries."""
        if keep <= 0 or keep > len(self):
            raise TruncateError(f"cannot keep {keep} of {len(self)} entries")
        return RootSequence(self.delta, self.exponents[:keep].copy())

    def promoted(self, new_delta: int) -> RootSequence:
        """Same complex values expressed over a larger root order."""
        if new_delta % self.delta != 0:
            raise ValueError(f"{new_delta} is not a multiple of {self.delta}")
        return RootSequence(new_delta, self.exponents * (new_delta // self.delta))

    def to_complex(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.exponents / self.delta)

    def __repr__(self) -> str:
        return f"RootSequence(delta={self.delta}, exponents={self.exponents.tolist()})"


def sequence_of(f: GeneralizedBooleanFunction) -> RootSequence:
    """Evaluate f at every index r and return (w_q^f(r))_r, r bit-ordered."""
    return RootSequence(f.q, f.truth_table())


@dataclass(frozen=True)
class Code:
    """Ordered list of equal-length sequences over one root order."""

    sequences: tuple[RootSequence, ...]
    label: CodeLabel

    def __post_init__(self):
        lengths = {len(s) for s in self.sequences}
        deltas = {s.delta for s in self.sequences}
        if len(lengths) > 1 or len(deltas) > 1:
            raise InvalidParams("code members must share length and root order")


@dataclass(frozen=True)
class PbfSpec:
    """Parameters of the rational extension of a Boolean function.

    The extension appends s fresh binary variables and adds
    (lam*q/p) * (x_m + 2*x_{m+1} + ... + 2**(s-1)*x_{m+s-1}) to the base
    function (family "F") or to its input complement (family "G").  Its
    2**(m+s) entries, all of which :func:`pbf_sequence` evaluates, may
    number at most MAX_TERMS.
    """

    f: GeneralizedBooleanFunction
    p: int
    s: int
    lam: int
    family: str = "F"

    def __post_init__(self):
        extension_exponent(self.p, self.f.q, self.s)
        if self.f.m + self.s >= MAX_TERMS.bit_length():
            raise InvalidParams(f"need 2**(m+s) <= {MAX_TERMS} entries, got m={self.f.m}, s={self.s}")
        if not 0 <= self.lam < self.p:
            raise InvalidParams(f"lambda must lie in [0, p), got {self.lam}")
        if self.family not in ("F", "G"):
            raise InvalidParams(f"family must be 'F' or 'G', got {self.family!r}")


def codeword_function(
    f: GeneralizedBooleanFunction, deleted, d_vec, t_vec, d: int, gamma: int, family: str = "F"
) -> GeneralizedBooleanFunction:
    """The member function selected by bits d_vec, code index bits t_vec,
    and the extra bit d.

    Family "F": f + (q/2) * ((d_vec + t_vec) . x + d * x_gamma) where x runs
    over the deleted variables.  Family "G" complements f's inputs, the
    deleted variables, and the bit d (but not x_gamma itself).
    """
    deleted, d_vec, t_vec = tuple(deleted), tuple(d_vec), tuple(t_vec)
    if len(d_vec) != len(deleted) or len(t_vec) != len(deleted):
        raise ArityError("d_vec and t_vec must match the deleted-variable count")
    if any(b not in (0, 1) for b in d_vec + t_vec + (d,)):
        raise InvalidParams("d_vec, t_vec, and d must be binary")
    half = f.q // 2
    if family == "F":
        g = f
        for var, (di, ti) in zip(deleted, zip(d_vec, t_vec)):
            g = g.with_term((var,), half * (di + ti))
        g = g.with_term((gamma,), half * d)
    elif family == "G":
        g = f.complement_inputs()
        for var, (di, ti) in zip(deleted, zip(d_vec, t_vec)):
            # (d_i + t_i) * (1 - x_var)
            g = g.with_term((), half * (di + ti))
            g = g.with_term((var,), -half * (di + ti))
        g = g.with_term((gamma,), half * (1 - d))
    else:
        raise InvalidParams(f"family must be 'F' or 'G', got {family!r}")
    return g


def pbf_sequence(spec: PbfSpec, d_vec, t_vec, d: int, cert: PathCertificate, gamma: int | None) -> RootSequence:
    """Root-of-unity sequence of the extended function, length 2**(m+s).

    Index r' = r + 2**m * w (w from the s fresh variables) carries
    exponent (delta/q)*base(r) + (delta/p)*lam*w mod delta, where base is
    the codeword function of the certificate's deleted vertices and of
    ``cert.end(gamma)``, the builders' gamma rule, and delta = lcm(p, q).
    """
    gamma, f = cert.end(gamma), spec.f
    delta = lcm(spec.p, f.q)
    base = codeword_function(f, cert.deleted, d_vec, t_vec, d, gamma, spec.family)
    base_exp = sequence_of(base).exponents
    scale = delta // f.q
    step = (delta // spec.p) * spec.lam
    w = np.arange(1 << spec.s, dtype=np.int64)[:, None]
    return RootSequence(delta, ((scale * base_exp + step * w) % delta).ravel())


def build_zccs_by_concatenation(
    f: GeneralizedBooleanFunction,
    deleted,
    gamma: int | None = None,
    p: int = 2,
) -> CodeSet:
    """Assemble the same set as ``build_zccs`` without the extended
    functions: each "U" code is p blocks of the base code's sequences, the
    i-th block phase-rotated by w_p^(lam*i); each "V" code concatenates the
    conjugated complement-family sequences rotated by w_p^(-lam*i).
    """
    pp, base = _prepare(f, deleted, gamma, p)
    delta, n = pp.delta, 1 << f.m
    # axes (family, lam, t, nu, entry); block i of a sequence is entries i*n..
    source = (delta // f.q) * base[:, None]
    sign = np.array([1, -1]).reshape(2, 1, 1, 1, 1)
    lam = np.arange(p).reshape(1, p, 1, 1, 1)
    ramp = sign * (delta // p) * lam * np.repeat(np.arange(p), n)
    return CodeSet((np.tile(source, p) + ramp).reshape(pp.K, pp.M, pp.N), family_labels(pp), pp)


def _stacked(a: tuple[RootSequence, ...], b: tuple[RootSequence, ...]) -> tuple[np.ndarray, int]:
    """The (2, M, N) exponent array and root order of two member lists
    that can be correlated: as many members, of one length and order."""
    if not a or len(a) != len(b):
        raise ShapeError("codes must have the same, nonzero number of sequences")
    if len(a[0]) != len(b[0]):
        raise ShapeError(f"sequence lengths differ: {len(a[0])} != {len(b[0])}")
    if a[0].delta != b[0].delta:
        raise ShapeError(f"root orders differ: {a[0].delta} != {b[0].delta}")
    return np.array([[s.exponents for s in seqs] for seqs in (a, b)]), a[0].delta


def accf(a: RootSequence, b: RootSequence, tau: int) -> CycInt:
    """Aperiodic cross-correlation of two sequences at shift tau.

    Sum of a[i+tau] * conj(b[i]) over the overlap for 0 <= tau < N, the
    mirrored sum for -N < tau < 0, and zero outside (-N, N).
    """
    exps, delta = _stacked((a,), (b,))
    return CycInt(delta, _count(exps[0], exps[1], delta, tau))


def code_accf(a: Code, b: Code, tau: int) -> CycInt:
    """Correlation of two codes: the sum over paired member sequences."""
    exps, delta = _stacked(a.sequences, b.sequences)
    return CycInt(delta, _count(exps[0], exps[1], delta, tau))


@dataclass(frozen=True)
class CorrelationProfile:
    """Code-level correlation at every shift in (-N, N)."""

    length: int
    values: dict[int, CycInt]


def profile(a: Code, b: Code) -> CorrelationProfile:
    """:func:`code_accf` at every shift in (-N, N), each counted directly."""
    exps, delta = _stacked(a.sequences, b.sequences)
    n = exps.shape[-1]
    values = {tau: CycInt(delta, _count(exps[0], exps[1], delta, tau)) for tau in range(-n + 1, n)}
    return CorrelationProfile(n, values)


def root_sum(p: int, c: int) -> CycInt:
    """Sum of w_p^(c*alpha) over alpha = 0..p-1; zero unless p divides c."""
    # CycInt refuses a root order past MAX_DELTA; refusing it first also
    # bounds the primality test.
    if p > MAX_DELTA:
        raise ValueError(f"p must be at most {MAX_DELTA}, got {p}")
    if not is_prime(p):
        raise InvalidParams(f"p must be prime, got {p}")
    exps = (c * np.arange(p, dtype=np.int64)) % p
    return CycInt(p, np.bincount(exps, minlength=p))
