"""Exact decision procedures for zero-correlation-zone properties.

A cell (mu1, mu2, tau) is ideal when it is a code's own zero shift, which
is M*N for every code a CodeSet admits, or when its correlation reduces
to zero modulo a cyclotomic polynomial; no verdict depends on a
floating-point tolerance.  A report decides each cell once: the zone
scan up to z, then, when the maximal width is wanted, shift by shift
from there.  Shifts tau >= 0 cover negative ones too, because
theta(A, B)(-tau) is the conjugate of theta(B, A)(tau).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .construct import CodeSet
from .correlate import code_accf
from .errors import InvalidZ, NotAZccs


class ZccsCheck(NamedTuple):
    ok: bool
    witness: tuple[int, int, int] | None


def _ideal(cs: CodeSet, mu1: int, mu2: int, tau: int) -> bool:
    if mu1 == mu2 and tau == 0:
        return True
    return code_accf(cs.codes[mu1], cs.codes[mu2], tau).is_zero()


def _first_bad_shift(cs: CodeSet, start: int) -> int:
    """First tau >= start with a non-ideal cell, scanning shift by shift;
    N when there is none."""
    k = cs.params.K
    for tau in range(start, cs.params.N):
        if not all(_ideal(cs, mu1, mu2, tau) for mu1 in range(k) for mu2 in range(k)):
            return tau
    return cs.params.N


def check_zccs(cs: CodeSet, z: int) -> ZccsCheck:
    """Decide the zone conditions at width z.

    Every cell with 0 <= tau < z must be ideal.  On failure the witness
    is the first non-ideal (mu1, mu2, tau) in lexicographic scan order.
    """
    n = cs.params.N
    if z < 1 or z > n:
        raise InvalidZ(f"need 1 <= Z <= {n}, got {z}")
    k = cs.params.K
    for mu1 in range(k):
        for mu2 in range(k):
            for tau in range(z):
                if not _ideal(cs, mu1, mu2, tau):
                    return ZccsCheck(False, (mu1, mu2, tau))
    return ZccsCheck(True, None)


def max_zcz(cs: CodeSet) -> int:
    """Widest z for which :func:`check_zccs` holds: the first shift with a
    non-ideal cell, or N.  Returns 0 when cross-correlations at shift 0
    already fail (no width qualifies).  Worst case this is O(K^2 * M * N^2)
    exact integer work, which is fine at the scale the builders produce.
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
