"""Exact decision procedures for zero-correlation-zone properties.

A cell (mu1, mu2, tau) is ideal when it is a code's own zero shift, which
is M*N for every code a CodeSet admits, or when its correlation reduces
to zero modulo the delta-th cyclotomic polynomial; no verdict depends on
a floating-point tolerance.  Every answer is read from a K x K map of
each ordered pair's first non-ideal shift in the window scanned, N when
there is none.  One scan lowers it row by row in mu1 from the exact
reduced forms, modulo Phi_delta, that :func:`~zccs.correlate.code_reductions`
gives of the correlations of row mu1 with the codes mu2 >= mu1 at tau
and -tau.  The -tau half is the mirror pair's, as theta(B, A)(tau) =
conj(theta(A, B)(-tau)), so each unordered pair is correlated once.  The
zone check's witness, the maximal width (the map's minimum) and a
report's width scan, which goes on from the check's map, all read it.
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


def _lower(cs: CodeSet, first: np.ndarray, rows: range, t0: int, t1: int) -> Iterator[tuple[int, range]]:
    """Lowers ``first`` to the first non-ideal shifts in [t0, t1) of the
    rows' cells, yielding ``(mu1, block)`` after each block of codes."""
    for mu1, block, c in code_reductions(cs.exponents, cs.params.delta, rows, t0, t1):
        bad = c.any(axis=-1)
        if t0 == 0 and block.start == mu1:
            bad[0, :, 0] = False
        shift = np.where(bad.any(axis=-1), t0 + bad.argmax(axis=-1), cs.params.N)
        cols = slice(block.start, block.stop)
        np.minimum(first[mu1, cols], shift[:, 0], out=first[mu1, cols])
        np.minimum(first[cols, mu1], shift[:, 1], out=first[cols, mu1])
        yield mu1, block


def _check(cs: CodeSet, z: int, first: np.ndarray) -> ZccsCheck:
    """:func:`check_zccs`, lowering ``first`` over the shifts below z."""
    n = cs.params.N
    if z < 1 or z > n:
        raise InvalidZ(f"need 1 <= Z <= {n}, got {z}")
    for mu1, block in _lower(cs, first, range(cs.params.K), 0, z):
        bad = np.flatnonzero(first[mu1, : block.stop] < z)
        if bad.size:
            return ZccsCheck(False, (mu1, int(bad[0]), int(first[mu1, bad[0]])))
    return ZccsCheck(True, None)


def _width(cs: CodeSet, first: np.ndarray, z: int, witness: tuple[int, int, int] | None) -> int:
    """First tau with a non-ideal cell, or N, going on from ``first`` as
    a check at width z left it: from shift z, or from the witness row.

    The rows are scanned over the shifts up to the map's minimum; after
    a row that lowered it, the scan goes on over the narrower window,
    and it ends once a cell fails at the window's first shift.
    """
    k = cs.params.K
    start, row = (0, witness[0]) if witness else (z, 0)
    while row < k and (window := int(first.min())) > start:
        for mu1, block in _lower(cs, first, range(row, k), start, window):
            if first.min() == start or (block.stop == k and first.min() < window):
                break
        row = mu1 + 1
    return int(first.min())


def check_zccs(cs: CodeSet, z: int) -> ZccsCheck:
    """Decide the zone conditions at width z.

    Every cell with 0 <= tau < z must be ideal.  On failure the witness
    is the first non-ideal (mu1, mu2, tau) in lexicographic order; the
    map's row mu1 is known up to a block's end once the block is scanned.
    """
    return _check(cs, z, np.full((cs.params.K,) * 2, cs.params.N))


def max_zcz(cs: CodeSet) -> int:
    """Widest z for which :func:`check_zccs` holds: the first shift with a
    non-ideal cell, or N.  Returns 0 when cross-correlations at shift 0
    already fail (no width qualifies).  The scan costs at most K(K+1)/2
    FFT correlations of the M members, each of length about 2N.
    """
    return _width(cs, np.full((cs.params.K,) * 2, cs.params.N), 0, None)


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

    The maximal width, needed for ``compute_max`` and, when the zone holds
    and K = M, for is_ccc, goes on from the check's map.
    """
    pp = cs.params
    if z is None:
        z = pp.Z
    first = np.full((pp.K, pp.K), pp.N)
    ok, witness = _check(cs, z, first)
    width = _width(cs, first, z, witness) if compute_max or (ok and pp.K == pp.M) else None
    return VerificationReport(
        claimed_z=z,
        is_zccs_at_claimed_z=ok,
        peak=pp.M * pp.N,
        optimal=ok and pp.K == pp.M * (pp.N // z),
        is_ccc=pp.K == pp.M and width == pp.N,
        witness=witness,
        max_zcz=width if compute_max else None,
    )
