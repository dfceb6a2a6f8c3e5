"""The paper-literal reference: one object per sequence, code and value.

The paper defines each member as the sequence of one function
(:func:`codeword_function`, :func:`sequence_of`) and each extended
member as the sequence of a rational extension (:class:`PbfSpec`,
:func:`pbf_sequence`), and each correlation as a sum over the overlap
(:func:`accf`, :func:`code_accf`, :func:`profile`).  This module keeps
those definitions as objects, :class:`RootSequence` and :class:`Code`
over :class:`~zccs.algebra.CycInt` values, so that tests can check the
broadcast builders of :mod:`zccs.construct` and the FFT engine of
:mod:`zccs.correlate` against them.  Every correlation here, a whole
:func:`profile` too, is counted directly by ``correlate._count``, the
one name this module takes from the engine.  No product module imports
it at module level; ``CodeSet.codes`` is its one entry from the product
side.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from .algebra import MAX_DELTA, MAX_TERMS, CycInt, is_prime, owned_int64
from .boolfn import GeneralizedBooleanFunction, PathCertificate, extension_exponent
from .construct import CodeLabel
from .correlate import _count
from .errors import ArityError, InvalidParams, ShapeError, TruncateError


@dataclass(frozen=True, eq=False)
class RootSequence:
    """Sequence of delta-th roots of unity, stored as an exponent vector."""

    delta: int
    exponents: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
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
