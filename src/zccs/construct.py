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

from dataclasses import dataclass
from math import lcm

import numpy as np

from .algebra import is_prime
from .boolfn import (
    GeneralizedBooleanFunction,
    PathCertificate,
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


@dataclass(frozen=True, eq=False)
class Code:
    """Ordered list of equal-length sequences over one root order."""

    sequences: tuple[RootSequence, ...]
    label: CodeLabel

    def __post_init__(self):
        lengths = {len(s) for s in self.sequences}
        deltas = {s.delta for s in self.sequences}
        if len(lengths) > 1 or len(deltas) > 1:
            raise InvalidParams("code members must share length and root order")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.label == other.label and self.sequences == other.sequences


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
    codes: tuple[Code, ...]
    params: CodeSetParams

    def __post_init__(self):
        pp = self.params
        if len(self.codes) != pp.K:
            raise InvalidParams("code count disagrees with params.K")
        for mu, code in enumerate(self.codes):
            if len(code.sequences) != pp.M or any(len(s) != pp.N or s.delta != pp.delta for s in code.sequences):
                raise ShapeError(f"code {mu} is not {pp.M} sequences of length {pp.N} over delta={pp.delta}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeSet):
            return NotImplemented
        return self.params == other.params and self.codes == other.codes


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
    codes: list[Code] = []
    for family in ("C", "Cbar"):
        for t in range(1 << k):
            t_vec = _bits(t, k)
            members = []
            for d_vec, d in _member_order(k):
                if family == "C":
                    g = codeword_function(f, cert.deleted, d_vec, t_vec, d, gamma, "F")
                    members.append(sequence_of(g))
                else:
                    g = codeword_function(f, cert.deleted, d_vec, t_vec, d, gamma, "G")
                    members.append(sequence_of(g).conjugate())
            codes.append(Code(tuple(members), CodeLabel(family, t)))
    n = 1 << f.m
    params = CodeSetParams(
        K=2 << k, M=2 << k, N=n, Z=n, q=f.q, m=f.m, k=k, delta=f.q,
    )
    return CodeSet(tuple(codes), params)


def _zccs_params(f, k, p, s, delta):
    return CodeSetParams(
        K=p * (2 << k),
        M=2 << k,
        N=p << f.m,
        Z=1 << f.m,
        q=f.q,
        m=f.m,
        k=k,
        delta=delta,
        p=p,
        s=s,
    )


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
    delta = lcm(p, f.q)
    codes: list[Code] = []
    for family in ("U", "V"):
        pbf_family = "F" if family == "U" else "G"
        for lam in range(p):
            spec = PbfSpec(f, p, s, lam, pbf_family)
            for t in range(1 << k):
                t_vec = _bits(t, k)
                members = []
                for d_vec, d in _member_order(k):
                    seq = pbf_sequence(spec, d_vec, t_vec, d, cert, gamma).truncate(keep)
                    if family == "V":
                        seq = seq.conjugate()
                    members.append(seq)
                codes.append(Code(tuple(members), CodeLabel(family, t, lam)))
    return CodeSet(tuple(codes), _zccs_params(f, k, p, s, delta))


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
    base = build_ccc(f, cert.deleted, gamma)
    delta = lcm(p, f.q)
    scale = delta // f.q
    step = delta // p
    half = len(base.codes) // 2
    codes: list[Code] = []
    for family in ("U", "V"):
        for lam in range(p):
            for t in range(1 << k):
                source = base.codes[t if family == "U" else half + t]
                sign = 1 if family == "U" else -1
                members = []
                for seq in source.sequences:
                    promoted = scale * seq.exponents
                    blocks = [(promoted + sign * step * lam * i) % delta for i in range(p)]
                    members.append(RootSequence(delta, np.concatenate(blocks)))
                codes.append(Code(tuple(members), CodeLabel(family, t, lam)))
    s = min_blocks_exponent(p)
    return CodeSet(tuple(codes), _zccs_params(f, k, p, s, delta))
