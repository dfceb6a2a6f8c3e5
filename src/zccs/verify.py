"""Exact decision procedures for zero-correlation-zone properties.

A cell (mu1, mu2, tau) is ideal when it is a code's own zero shift, which
is M*N for every code a CodeSet admits, or when its correlation reduces
to zero modulo the delta-th cyclotomic polynomial, decided from a few
harmonics under a proven FFT error bound.  Every answer is read from a
K x K map of each ordered pair's first non-ideal shift in the window
scanned, N when there is none.  One scan lowers it, tile by tile of rows,
from which cells :func:`~zccs.correlate.code_nonzero` finds nonzero among
the correlations of each row with the codes from its tile on, at tau and
-tau; the -tau half is the mirror pair's.  The zone check's witness, the
maximal width (the map's minimum) and a report's width scan, which goes
on from the check's map, all read it.  The check at width z scans one
shift past the zone, so when a cell fails at z, as one does in every set
the builders make, a report takes the width z from the check's own map.
"""
from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .construct import CodeSet
from .correlate import code_nonzero
from .errors import InvalidZ, NotAZccs


class ZccsCheck(NamedTuple):
    ok: bool
    witness: tuple[int, int, int] | None


def _lower(cs: CodeSet, first: np.ndarray, rows: range, t0: int, t1: int) -> Iterator[tuple[range, range]]:
    """Lowers ``first`` to the first non-ideal shifts in [t0, t1) of the
    rows' cells, yielding ``(tile, block)`` after each tile and block."""
    for tile, block, bad in code_nonzero(cs.exponents, cs.params.delta, rows, t0, t1):
        if t0 == 0:
            mus = np.arange(max(tile.start, block.start), min(tile.stop, block.stop))
            bad[mus - tile.start, mus - block.start, :, 0] = False
        shift = np.where(bad.any(axis=-1), bad.argmax(axis=-1) + t0, cs.params.N)
        t, b = slice(tile.start, tile.stop), slice(block.start, block.stop)
        np.minimum(first[t, b], shift[..., 0], out=first[t, b])
        np.minimum(first[b, t], shift[..., 1].T, out=first[b, t])
        yield tile, block


def _check(cs: CodeSet, z: int, first: np.ndarray) -> tuple[int, ZccsCheck]:
    """z as an int and :func:`check_zccs` at z, lowering ``first`` over the
    shifts up to z, or below N: one shift past the zone, so a passing
    check leaves the map's minimum exact when a cell fails at z."""
    n = cs.params.N
    try:
        z = operator.index(z)
    except TypeError:
        raise InvalidZ(f"Z must be an integer, got {z!r}") from None
    if z < 1 or z > n:
        raise InvalidZ(f"need 1 <= Z <= {n}, got {z}")
    for tile, block in _lower(cs, first, range(cs.params.K), 0, min(z + 1, n)):
        bad = first[tile.start : tile.stop, : block.stop] < z
        if bad.any():
            mu1, mu2 = divmod(int(bad.argmax()), block.stop)
            return z, ZccsCheck(False, (tile.start + mu1, mu2, int(first[tile.start + mu1, mu2])))
    return z, ZccsCheck(True, None)


def _width(cs: CodeSet, first: np.ndarray, start: int, witness: tuple[int, int, int] | None) -> int:
    """First tau with a non-ideal cell, or N, going on from ``first``, which
    is exact below ``start``: from that shift, or from shift 0 at the
    witness row.  Rows are scanned up to the map's minimum, a new scan
    going on over the narrower window after a tile lowers it, until a cell
    fails at its start; a minimum at ``start`` needs no scan."""
    k = cs.params.K
    start, row = (0, witness[0]) if witness else (start, 0)
    while row < k and (window := int(first.min())) > start:
        for tile, block in _lower(cs, first, range(row, k), start, window):
            if first.min() == start or (block.stop == k and first.min() < window):
                break
        row = tile.stop
    return int(first.min(initial=cs.params.N))


def check_zccs(cs: CodeSet, z: int) -> ZccsCheck:
    """Decide the zone conditions at width z.

    Every cell with 0 <= tau < z must be ideal.  On failure the witness
    is the first non-ideal (mu1, mu2, tau) in lexicographic order; a
    tile's map rows are known up to a block's end once it is scanned.
    """
    return _check(cs, z, np.full((cs.params.K,) * 2, cs.params.N))[1]


def max_zcz(cs: CodeSet) -> int:
    """Widest z for which :func:`check_zccs` holds: the first shift with a
    non-ideal cell, or N.  Returns 0 when cross-correlations at shift 0
    already fail (no width qualifies).  The scan costs at most K(K+1)/2
    FFT correlations of the M members, each of length about 2N.
    """
    return _width(cs, np.full((cs.params.K,) * 2, cs.params.N), 0, None)


def check_optimal(cs: CodeSet, z: int) -> bool:
    """Set-size bound K <= M * floor(N/Z) met with equality."""
    z, (ok, _) = _check(cs, z, np.full((cs.params.K,) * 2, cs.params.N))
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
    and K = M, for is_ccc, goes on from the check's map: past shift z
    after a passing check, which needs no scan when a cell fails at z, as
    one does in every set the builders make.
    """
    pp = cs.params
    first = np.full((pp.K, pp.K), pp.N)
    z, (ok, witness) = _check(cs, pp.Z if z is None else z, first)
    width = _width(cs, first, min(z + 1, pp.N), witness) if compute_max or (ok and pp.K == pp.M) else None
    return VerificationReport(
        claimed_z=z,
        is_zccs_at_claimed_z=ok,
        peak=pp.M * pp.N,
        optimal=ok and pp.K == pp.M * (pp.N // z),
        is_ccc=pp.K == pp.M and width == pp.N,
        witness=witness,
        max_zcz=width if compute_max else None,
    )
