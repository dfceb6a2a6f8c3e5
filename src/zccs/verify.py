"""Exact decision procedures for zero-correlation-zone properties.

A cell (mu1, mu2, tau) is ideal when it is a code's own zero shift, which
is M*N for every code a CodeSet admits, or when its correlation reduces
to zero modulo the delta-th cyclotomic polynomial; no verdict depends on
a floating-point tolerance.  The scan goes row by row in mu1: one call of
:func:`~zccs.correlate.code_reductions` gives the exact reduced forms,
modulo Phi_delta, of the correlations of the row over a window of
shifts, and a cell is ideal when its form is all zero.  A report
decides each cell once: the zone rows up to z, then, when the maximal
width is wanted, the shifts from z up to the first failure found.
Shifts tau >= 0 cover negative ones too, because theta(A, B)(-tau) is
the conjugate of theta(B, A)(tau).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .construct import CodeSet
from .correlate import code_reductions
from .errors import InvalidZ, NotAZccs


class ZccsCheck(NamedTuple):
    ok: bool
    witness: tuple[int, int, int] | None


def _ideal_row(cs: CodeSet, mu1: int, t0: int, t1: int) -> np.ndarray:
    """Boolean (K, t1 - t0) mask: is cell (mu1, mu2, tau) ideal."""
    blocks = code_reductions(cs.exponents, cs.params.delta, mu1, range(cs.params.K), t0, t1)
    ideal = np.concatenate([~c.any(axis=-1) for _, c in blocks])
    if t0 == 0:
        ideal[mu1, 0] = True
    return ideal


def _first_bad_shift(cs: CodeSet, start: int) -> int:
    """First tau >= start with a non-ideal cell, N when there is none.

    Scans the rows over the shifts from start up to the first failure
    found so far, so the window narrows as failures turn up and the scan
    ends once a row fails at start itself.
    """
    first = cs.params.N
    for mu1 in range(cs.params.K):
        if first == start:
            break
        bad = np.flatnonzero(~_ideal_row(cs, mu1, start, first).all(axis=0))
        if bad.size:
            first = start + int(bad[0])
    return first


def check_zccs(cs: CodeSet, z: int) -> ZccsCheck:
    """Decide the zone conditions at width z.

    Every cell with 0 <= tau < z must be ideal.  On failure the witness
    is the first non-ideal (mu1, mu2, tau) in lexicographic scan order.
    """
    n = cs.params.N
    if z < 1 or z > n:
        raise InvalidZ(f"need 1 <= Z <= {n}, got {z}")
    for mu1 in range(cs.params.K):
        bad = np.argwhere(~_ideal_row(cs, mu1, 0, z))
        if bad.size:
            mu2, tau = bad[0]
            return ZccsCheck(False, (mu1, int(mu2), int(tau)))
    return ZccsCheck(True, None)


def max_zcz(cs: CodeSet) -> int:
    """Widest z for which :func:`check_zccs` holds: the first shift with a
    non-ideal cell, or N.  Returns 0 when cross-correlations at shift 0
    already fail (no width qualifies).  The scan costs at most K^2 FFT
    correlations of the M members, each of length about 2N.
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
