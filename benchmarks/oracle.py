"""Independent floating-point correlation, used to check the program's
exact verdicts.  Works on plain exponent arrays and complex doubles only.
"""
from __future__ import annotations

import numpy as np

TOL = 1e-6


def to_complex(exps: np.ndarray, delta: int) -> np.ndarray:
    return np.exp(2j * np.pi * exps / delta)


def cell(exps: np.ndarray, delta: int, mu1: int, mu2: int, tau: int) -> complex:
    """Definitional code correlation sum_j sum_i a_j[i+tau] conj(b_j[i])."""
    a, b = to_complex(exps[mu1], delta), to_complex(exps[mu2], delta)
    n = a.shape[-1]
    if tau >= 0:
        return complex(np.sum(a[:, tau:] * np.conj(b[:, : n - tau])))
    return complex(np.sum(a[:, : n + tau] * np.conj(b[:, -tau:])))


def pair_profile(exps: np.ndarray, delta: int, mu1: int, mu2: int) -> np.ndarray:
    """Correlation of codes mu1, mu2 at tau = -(N-1) .. N-1, by FFT."""
    n = exps.shape[-1]
    fa = np.fft.fft(to_complex(exps[mu1], delta), 2 * n)
    fb = np.fft.fft(to_complex(exps[mu2], delta), 2 * n)
    full = np.fft.ifft(np.sum(fa * np.conj(fb), axis=0))
    return np.concatenate([full[n + 1 :], full[:n]])


def first_violation(exps: np.ndarray, delta: int, z: int) -> tuple[int, int, int] | None:
    """First (mu1, mu2, tau) with 0 <= tau < z, in lexicographic order, whose
    correlation is not the ideal value (M*N at a code's own zero shift,
    zero everywhere else); None when the zone holds."""
    K, M, N = exps.shape
    spec = np.fft.fft(to_complex(exps, delta), 2 * N)
    table = np.fft.ifft(np.einsum("ajn,bjn->abn", spec, np.conj(spec)))[:, :, :z]
    table[np.arange(K), np.arange(K), 0] -= M * N
    bad = np.argwhere(np.abs(table) > TOL)
    return tuple(int(v) for v in bad[0]) if len(bad) else None
