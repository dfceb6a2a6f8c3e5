"""Builders for complete complementary codes and Z-complementary code sets.

Both builders start from a second-order Boolean function whose graph,
after deleting k chosen vertices, is a path with every edge weighing q/2.
The base construction yields 2**(k+1) mutually complementary codes of
2**(k+1) sequences of length 2**m.  The prime-extension construction
multiplies the family by a prime p: it appends s extra variables carrying
a rational linear part, truncates the resulting length-2**(m+s) sequences
to p*2**m entries, and yields p*2**(k+1) codes whose zero-correlation
zone is 2**m.  The same set can equivalently be assembled by
concatenating p phase-rotated copies of the base codes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

import numpy as np

from .algebra import MAX_DELTA, MAX_TERMS, is_prime
from .boolfn import (
    GeneralizedBooleanFunction,
    PbfSpec,
    RootSequence,
    check_path_after_deletion,
    codeword_function,
    graph_of,
    pbf_sequence,
    sequence_of,
)
from .errors import InvalidGamma, InvalidParams, ShapeError


@dataclass(frozen=True)
class CodeLabel:
    """Identifies a code: family "C"/"Cbar" (base) or "U"/"V" (extended),
    the code index t, and for extended families the phase index lam."""

    family: str
    t: int
    lam: int | None = None


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
class CodeSetParams:
    K: int
    M: int
    N: int
    Z: int
    q: int
    m: int
    k: int
    delta: int
    p: int | None = None
    s: int | None = None


@dataclass(frozen=True, eq=False)
class CodeSet:
    """K codes of M sequences of length N over delta-th roots of unity,
    held as one read-only int64 (K, M, N) array ``exponents`` reduced mod
    delta: entry [mu, nu, i] is the exponent of entry i of sequence nu of
    code mu, whose label is ``labels[mu]``."""

    exponents: np.ndarray = field(repr=False)
    labels: tuple[CodeLabel, ...]
    params: CodeSetParams

    def __post_init__(self):
        pp = self.params
        if not 1 <= pp.delta <= MAX_DELTA:
            raise InvalidParams(f"delta must lie in [1, {MAX_DELTA}], got {pp.delta}")
        if not (pp.M >= 1 and pp.N >= 1 and pp.M * pp.N <= MAX_TERMS):
            raise InvalidParams(f"M*N must lie in [1, {MAX_TERMS}], got M={pp.M} N={pp.N}")
        exps = np.mod(self.exponents, pp.delta, dtype=np.int64)
        if exps.shape != (pp.K, pp.M, pp.N) or len(self.labels) != pp.K:
            raise ShapeError(f"{len(self.labels)} labels and {exps.shape} exponents are not K={pp.K} codes")
        exps.flags.writeable = False
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "labels", tuple(self.labels))

    @cached_property
    def codes(self) -> tuple[Code, ...]:
        """The codes, each sequence a read-only view of a row of ``exponents``."""
        delta = self.params.delta
        return tuple(
            Code(tuple(RootSequence(delta, row) for row in code), label)
            for code, label in zip(self.exponents, self.labels)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeSet):
            return NotImplemented
        same = self.params == other.params and self.labels == other.labels
        return same and np.array_equal(self.exponents, other.exponents)


def _prepare(f: GeneralizedBooleanFunction, deleted, gamma: int | None):
    cert = check_path_after_deletion(graph_of(f), deleted, f.q)
    if gamma is None:
        gamma = min(cert.end_vertices)
    elif gamma not in cert.end_vertices:
        raise InvalidGamma(f"x{gamma} is not an end vertex of the path")
    return cert, gamma


def _bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> i) & 1 for i in range(width))


def _member_order(k: int):
    """Yield (d_vec, d) with member index nu = d*2**k + sum(d_i * 2**i)."""
    for nu in range(1 << (k + 1)):
        yield _bits(nu & ((1 << k) - 1), k), nu >> k


def build_ccc(
    f: GeneralizedBooleanFunction,
    deleted,
    gamma: int | None = None,
) -> CodeSet:
    """Base family: a (2**(k+1), 2**(k+1), 2**m) complete complementary set.

    Codes 0..2**k-1 come from the function itself (family "C"); the next
    2**k codes are the conjugated complement family ("Cbar").
    """
    cert, gamma = _prepare(f, deleted, gamma)
    k = len(cert.deleted)
    half, n = 1 << k, 1 << f.m
    exps = np.empty((2 * half, 2 * half, n), dtype=np.int64)
    for t in range(half):
        t_vec = _bits(t, k)
        for nu, (d_vec, d) in enumerate(_member_order(k)):
            for mu, family, sign in ((t, "F", 1), (half + t, "G", -1)):
                g = codeword_function(f, cert.deleted, d_vec, t_vec, d, gamma, family)
                exps[mu, nu] = sign * sequence_of(g).exponents
    labels = [CodeLabel(family, t) for family in ("C", "Cbar") for t in range(half)]
    return CodeSet(exps, labels, CodeSetParams(K=2 << k, M=2 << k, N=n, Z=n, q=f.q, m=f.m, k=k, delta=f.q))


def _extended_set(exps: np.ndarray, f: GeneralizedBooleanFunction, k: int, p: int, s: int) -> CodeSet:
    """The prime-extension set of exponents exps: "U" codes, then "V", each in lam-major order."""
    labels = [CodeLabel(family, t, lam) for family in ("U", "V") for lam in range(p) for t in range(1 << k)]
    params = CodeSetParams(
        K=p * (2 << k), M=2 << k, N=p << f.m, Z=1 << f.m, q=f.q, m=f.m, k=k, delta=lcm(p, f.q), p=p, s=s,
    )
    return CodeSet(exps, labels, params)


def min_blocks_exponent(p: int) -> int:
    """Smallest s with 2**s >= p."""
    s = 1
    while (1 << s) < p:
        s += 1
    return s


def build_zccs(
    f: GeneralizedBooleanFunction,
    deleted,
    gamma: int | None = None,
    p: int = 2,
    s: int | None = None,
) -> CodeSet:
    """Prime-extension family: an optimal (p*2**(k+1), 2**m) Z-complementary
    code set of 2**(k+1) sequences per code, length p*2**m.

    s only controls the pre-truncation length 2**(m+s) and defaults to the
    smallest value with 2**s >= p; the truncated output does not depend on
    it.  Code mu = lam*2**k + t is the "U" family; the "V" family follows
    in the same order, conjugated.
    """
    if not is_prime(p):
        raise InvalidParams(f"p must be prime, got {p}")
    if s is None:
        s = min_blocks_exponent(p)
    cert, gamma = _prepare(f, deleted, gamma)
    k = len(cert.deleted)
    keep = p << f.m
    half = p << k
    exps = np.empty((2 * half, 2 << k, keep), dtype=np.int64)
    for lam in range(p):
        u_spec, v_spec = PbfSpec(f, p, s, lam, "F"), PbfSpec(f, p, s, lam, "G")
        for t in range(1 << k):
            t_vec = _bits(t, k)
            mu = (lam << k) + t
            for nu, (d_vec, d) in enumerate(_member_order(k)):
                exps[mu, nu] = pbf_sequence(u_spec, d_vec, t_vec, d, cert, gamma).exponents[:keep]
                exps[half + mu, nu] = -pbf_sequence(v_spec, d_vec, t_vec, d, cert, gamma).exponents[:keep]
    return _extended_set(exps, f, k, p, s)


def build_zccs_by_concatenation(
    f: GeneralizedBooleanFunction,
    deleted,
    gamma: int | None = None,
    p: int = 2,
) -> CodeSet:
    """Assemble the same set as :func:`build_zccs` without the extended
    functions: each "U" code is p blocks of the base code's sequences, the
    i-th block phase-rotated by w_p^(lam*i); each "V" code concatenates the
    conjugated complement-family sequences rotated by w_p^(-lam*i).
    """
    if not is_prime(p):
        raise InvalidParams(f"p must be prime, got {p}")
    cert, gamma = _prepare(f, deleted, gamma)
    k = len(cert.deleted)
    base = build_ccc(f, cert.deleted, gamma).exponents
    delta = lcm(p, f.q)
    n = base.shape[-1]
    # axes (family, lam, t, nu, entry); block i of a sequence is entries i*n..
    source = (delta // f.q) * base.reshape(2, 1, 1 << k, 2 << k, n)
    sign = np.array([1, -1]).reshape(2, 1, 1, 1, 1)
    lam = np.arange(p).reshape(1, p, 1, 1, 1)
    ramp = sign * (delta // p) * lam * np.repeat(np.arange(p), n)
    exps = (np.tile(source, p) + ramp).reshape(2 * p << k, 2 << k, p * n)
    return _extended_set(exps, f, k, p, min_blocks_exponent(p))
