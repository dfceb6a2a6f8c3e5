"""Exact decision procedures for zero-correlation-zone properties.

A cell (mu1, mu2, tau) is ideal when it is a code's own zero shift, which
is M*N for every code a CodeSet admits, or when its correlation reduces
to zero modulo the delta-th cyclotomic polynomial; no verdict depends on
a floating-point tolerance.  The scan goes row by row in mu1: calls of
:func:`~zccs.correlate.code_reductions` give the exact reduced forms,
modulo Phi_delta, of the correlations of each row with the codes
mu2 >= mu1 over a window of shifts, and a cell is ideal when its form
is all zero.  Each correlation gives the shifts tau and -tau, and the
cells below the diagonal come from theta(B, A)(tau) = conj(theta(A,
B)(-tau)), so each unordered pair is correlated once.  A report decides
each cell once: the zone rows up to z, then, when the maximal width is
wanted, the shifts from z up to the first failure found.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .construct import CodeSet
from .correlate import code_reductions
from .errors import InvalidZ, NotAZccs


class ZccsCheck(NamedTuple):
    ok: bool
    witness: tuple[int, int, int] | None


def _ideal_blocks(cs: CodeSet, rows: range, t0: int, t1: int) -> Iterator[tuple[int, range, np.ndarray]]:
    """Yields ``(mu1, block, ideal)`` for the rows' codes mu2 >= mu1, block
    by block: ``ideal[j, 0, tau - t0]`` tells whether cell (mu1, block[j],
    tau) is ideal and ``ideal[j, 1, tau - t0]`` whether its mirror
    (block[j], mu1, tau) is."""
    for mu1, block, c in code_reductions(cs.exponents, cs.params.delta, rows, t0, t1):
        ideal = ~c.any(axis=-1)
        if t0 == 0 and block.start == mu1:
            ideal[0, :, 0] = True
        yield mu1, block, ideal


def _first_bad_shift(cs: CodeSet, start: int) -> int:
    """First tau >= start with a non-ideal cell, N when there is none.

    Scans the rows over the shifts from start up to the first failure
    found so far; after a row that narrowed it, the scan goes on over
    the narrower window, and it ends once a failure turns up at start
    itself.
    """
    k, first, row = cs.params.K, cs.params.N, 0
    while row < k and first > start:
        window = first
        for mu1, block, ideal in _ideal_blocks(cs, range(row, k), start, window):
            bad = np.flatnonzero(~ideal.all(axis=(0, 1)))
            if bad.size:
                first = min(first, start + int(bad[0]))
            if first == start or (block.stop == k and first < window):
                row = mu1 + 1
                break
        else:
            row = k
    return first


def check_zccs(cs: CodeSet, z: int) -> ZccsCheck:
    """Decide the zone conditions at width z.

    Every cell with 0 <= tau < z must be ideal.  On failure the witness
    is the first non-ideal (mu1, mu2, tau) in lexicographic scan order.
    Row mu1 correlates the codes mu2 >= mu1 only; a failure of its -tau
    half at (mu2, mu1, tau) is kept as row mu2's pending witness, which
    precedes every cell of the upper part of row mu2.
    """
    n = cs.params.N
    if z < 1 or z > n:
        raise InvalidZ(f"need 1 <= Z <= {n}, got {z}")
    pending: dict[int, tuple[int, int, int]] = {}
    for mu1, block, ideal in _ideal_blocks(cs, range(cs.params.K), 0, z):
        if mu1 in pending:
            return ZccsCheck(False, pending[mu1])
        bad = np.argwhere(~ideal[:, 0])
        if bad.size:
            j, tau = bad[0]
            return ZccsCheck(False, (mu1, block[j], int(tau)))
        for j in np.flatnonzero(~ideal[:, 1].all(axis=1)):
            pending.setdefault(block[j], (block[j], mu1, int(np.argmin(ideal[j, 1]))))
    return ZccsCheck(True, None)


def max_zcz(cs: CodeSet) -> int:
    """Widest z for which :func:`check_zccs` holds: the first shift with a
    non-ideal cell, or N.  Returns 0 when cross-correlations at shift 0
    already fail (no width qualifies).  The scan costs at most K(K+1)/2
    FFT correlations of the M members, each of length about 2N.
    """
    return _first_bad_shift(cs, 0)


def check_optimal(cs: CodeSet, z: int) -> bool:
    """Set-size bound K <= M * floor(N/Z) met with equality."""
    ok, _ = check_zccs(cs, z)
    if not ok:
        raise NotAZccs(f"set fails the zone conditions at Z={z}")
    p = cs.params
    return p.K == p.M * (p.N // z)


def check_ccc(cs: CodeSet) -> bool:
    """True when the set is completely complementary: K = M and the
    zone spans the whole length."""
    if cs.params.K != cs.params.M:
        return False
    return check_zccs(cs, cs.params.N).ok


@dataclass(frozen=True)
class VerificationReport:
    claimed_z: int
    is_zccs_at_claimed_z: bool
    peak: int
    optimal: bool
    is_ccc: bool
    witness: tuple[int, int, int] | None
    max_zcz: int | None = None


def verify_code_set(cs: CodeSet, z: int | None = None, compute_max: bool = False) -> VerificationReport:
    """Full report against a claimed zone width (default: the built-in one).

    The maximal width, needed for ``compute_max`` and for is_ccc when
    K = M, resumes the scan at z when the zone holds.
    """
    pp = cs.params
    if z is None:
        z = pp.Z
    ok, witness = check_zccs(cs, z)
    width = _first_bad_shift(cs, z if ok else 0) if compute_max or pp.K == pp.M else None
    return VerificationReport(
        claimed_z=z,
        is_zccs_at_claimed_z=ok,
        peak=pp.M * pp.N,
        optimal=ok and pp.K == pp.M * (pp.N // z),
        is_ccc=pp.K == pp.M and width == pp.N,
        witness=witness,
        max_zcz=width if compute_max else None,
    )
