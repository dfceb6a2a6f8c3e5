"""Exact aperiodic correlation of root-of-unity sequences and codes.

Each correlation value is accumulated in the group ring (see
:mod:`zccs.algebra`): a product of two unit entries is a single root of
unity, so a correlation sum is a histogram of exponent differences.
Zero tests are deferred to the caller and are bit-exact.

:func:`code_accf` builds one histogram by direct counting; it is the
reference.  The batched engine works on the (K, M, N) exponent array of
a code set: for a row code mu1, a block of codes mu2 and a window of
shifts it maps each exponent e to the harmonics w^(-r*e), correlates
them over the whole block with FFTs along the sequence and sums over
the M members.  Two recoveries share that core:

* :func:`code_histograms` takes every harmonic r = 0..delta/2 and
  inverts the harmonic transform to the histograms.  It accepts a block
  only when its residuals stay below RESIDUAL_TOL, every count is
  non-negative and each histogram sums to its M*(N - tau) terms.
* :func:`code_reductions` takes only the phi(delta)/2 primitive
  harmonics, the ones that survive reduction modulo Phi_delta, and maps
  them straight to the reduced forms h @ R (see
  :func:`~zccs.algebra.harmonic_reduction`).  It accepts a block only
  when every coordinate lies within RESIDUAL_TOL of an integer and
  inside the bound M*(N - tau)*max_d|R[d, i]|.

The values are integers of at most 5*MAX_TERMS, so double-precision
round-off is far below 1/2 (Percival, Math. Comp. 72, 2003).  Any block
that fails a check is recounted exactly by the counter behind
:func:`code_accf`, so no result rests on a floating tolerance.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .algebra import CycInt, harmonic_reduction, is_prime, reduced_forms, reduction_matrix
from .boolfn import RootSequence
from .construct import Code
from .errors import InvalidParams, ShapeError

# Largest |h - rint(h)| accepted from the FFT before a block is recounted.
RESIDUAL_TOL = 0.25
# Byte budget of a block's spectra, the largest transient array; a block
# holds as many codes as fit, and at least one.
BLOCK_BYTES = 1 << 18


def _check_pair(a: RootSequence, b: RootSequence):
    if len(a) != len(b):
        raise ShapeError(f"sequence lengths differ: {len(a)} != {len(b)}")
    if a.delta != b.delta:
        raise ShapeError(f"root orders differ: {a.delta} != {b.delta}")


def _count(a: np.ndarray, b: np.ndarray, delta: int, tau: int) -> np.ndarray:
    """Coefficients of the correlation of two (M, N) exponent arrays at
    shift tau: the histogram over Z_delta of a[nu, i + tau] - b[nu, i]."""
    n = a.shape[-1]
    if tau <= -n or tau >= n:
        return np.zeros(delta, dtype=np.int64)
    if tau >= 0:
        diffs = a[:, tau:] - b[:, : n - tau]
    else:
        diffs = a[:, : n + tau] - b[:, -tau:]
    return np.bincount((diffs % delta).ravel(), minlength=delta)


def accf(a: RootSequence, b: RootSequence, tau: int) -> CycInt:
    """Aperiodic cross-correlation of two sequences at shift tau.

    Sum of a[i+tau] * conj(b[i]) over the overlap for 0 <= tau < N, the
    mirrored sum for -N < tau < 0, and zero outside (-N, N).
    """
    _check_pair(a, b)
    return CycInt(a.delta, _count(a.exponents[None], b.exponents[None], a.delta, tau))


def _stacked(a: Code, b: Code) -> np.ndarray:
    """(2, M, N) exponent array of two codes that can be correlated."""
    if not a.sequences or len(a.sequences) != len(b.sequences):
        raise ShapeError("codes must have the same, nonzero number of sequences")
    _check_pair(a.sequences[0], b.sequences[0])
    return np.array([[s.exponents for s in c.sequences] for c in (a, b)])


def code_accf(a: Code, b: Code, tau: int) -> CycInt:
    """Correlation of two codes: the sum over paired member sequences."""
    exps, delta = _stacked(a, b), a.sequences[0].delta
    return CycInt(delta, _count(exps[0], exps[1], delta, tau))


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n, a length the FFT handles quickly."""
    while True:
        rest = n
        for f in (2, 3, 5):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return n
        n += 1


def _recount(exps: np.ndarray, delta: int, mu1: int, block: range, t0: int, t1: int) -> np.ndarray:
    """The histograms of a block counted exactly, cell by cell."""
    return np.array([[_count(exps[mu1], exps[mu2], delta, tau) for tau in range(t0, t1)] for mu2 in block])


def _harmonic_sums(
    exps: np.ndarray, delta: int, harmonics: np.ndarray, mu1: int, mu2s: range, t0: int, t1: int
) -> Iterator[tuple[range, np.ndarray]]:
    """The harmonics of the histograms of code mu1 against the codes mu2s.

    Yields, block by block of consecutive codes, ``(block, sums)`` with
    ``sums[j, tau - t0, i]`` = sum_d h[d] w^(-r*d) for r = harmonics[i]
    and h the histogram of code mu1 with code block[j] at shift tau.
    Each exponent e maps to w^(-r*e); the harmonics of mu1 are correlated
    with a whole block by FFTs along the sequence and summed over the M
    members.  A block holds as many codes as fit BLOCK_BYTES of spectra;
    when one code does not fit, the harmonics are taken in chunks that
    do, every block of a chunk in turn, and a block is yielded once its
    last chunk is in.
    """
    _, m, n = exps.shape
    if not 0 <= t0 < t1 <= n:
        raise ValueError(f"need 0 <= t0 < t1 <= N={n}, got [{t0}, {t1})")
    width = t1 - t0
    # Shifts t0.. of mu1 pair its entries from t0 on with the first n - t0
    # of each mu2; a cyclic length of n - t0 + width - 1 keeps the window
    # free of wrap-around.
    length = _fft_length(n - t0 + width - 1)
    per_harmonic = 16 * m * length
    span = max(1, min(len(harmonics), BLOCK_BYTES // per_harmonic))
    step = max(1, BLOCK_BYTES // (per_harmonic * span))
    pending: dict[int, np.ndarray] = {}
    for lo in range(0, len(harmonics), span):
        chunk = slice(lo, lo + span)
        table = np.exp(-2j * np.pi * (np.outer(harmonics[chunk], np.arange(delta)) % delta) / delta)
        row = np.fft.fft(table[:, exps[mu1, :, t0:]], length)
        for start in range(mu2s.start, mu2s.stop, step):
            block = range(start, min(start + step, mu2s.stop))
            spectra = np.fft.fft(table[:, exps[block.start : block.stop, :, : n - t0]], length)
            np.conjugate(spectra, out=spectra)
            spectra *= row[:, None]
            if lo == 0:
                pending[start] = np.empty((len(block), width, len(harmonics)), dtype=complex)
            pending[start][..., chunk] = np.fft.ifft(spectra.sum(axis=2))[..., :width].transpose(1, 2, 0)
            if chunk.stop >= len(harmonics):
                yield block, pending.pop(start)


def code_histograms(
    exps: np.ndarray, delta: int, mu1: int, mu2s: range, t0: int, t1: int
) -> Iterator[tuple[range, np.ndarray]]:
    """Exact correlation histograms of code mu1 against the codes mu2s.

    ``exps`` is a (K, M, N) array of exponents mod delta, such as
    ``CodeSet.exponents``.  For shifts t0 <= tau < t1 (0 <= t0 < t1 <= N)
    yields, block by block of consecutive codes, ``(block, h)`` with h an
    int64 array of shape (len(block), t1 - t0, delta) and ``h[i, tau - t0]``
    the coefficients of the correlation of code mu1 with code block[i] at
    shift tau, as :func:`code_accf` gives them.  It recovers h from all
    the harmonics r = 0..delta/2 with an inverse real FFT.
    """
    _, m, n = exps.shape
    harmonics = np.arange(delta // 2 + 1)
    terms = m * (n - np.arange(t0, t1))
    for block, sums in _harmonic_sums(exps, delta, harmonics, mu1, mu2s, t0, t1):
        approx = np.fft.irfft(sums, delta)
        counts = np.rint(approx)
        hist = counts.astype(np.int64)
        if (
            np.abs(approx - counts).max() < RESIDUAL_TOL
            and (hist >= 0).all()
            and (hist.sum(axis=-1) == terms).all()
        ):
            yield block, hist
        else:
            yield block, _recount(exps, delta, mu1, block, t0, t1)


def code_reductions(
    exps: np.ndarray, delta: int, mu1: int, mu2s: range, t0: int, t1: int
) -> Iterator[tuple[range, np.ndarray]]:
    """Reduced forms of the correlations of code mu1 against the codes mu2s.

    Takes the arguments of :func:`code_histograms` and yields, block by
    block, ``(block, c)`` with c an int64 array of shape (len(block),
    t1 - t0, phi(delta)) equal to ``h @ reduction_matrix(delta)`` for the
    histograms h that :func:`code_histograms` yields: ``c[i, tau - t0]``
    is zero iff that correlation is.  Only the primitive harmonics of
    :func:`~zccs.algebra.harmonic_reduction` are correlated, and c =
    Re(sums @ basis).
    """
    _, m, n = exps.shape
    harmonics, basis = harmonic_reduction(delta)
    # Re(S @ B) as one real product: S viewed as interleaved (Re, Im)
    # pairs times the rows Re B_r, -Im B_r interleaved the same way.
    interleaved = np.stack((basis.real, -basis.imag), axis=1).reshape(-1, basis.shape[1])
    # |c[tau, i]| <= sum_d h[d] |R[d, i]| <= M * (N - tau) * max_d |R[d, i]|.
    bound = m * (n - np.arange(t0, t1))[:, None] * np.abs(reduction_matrix(delta)).max(axis=0)
    for block, sums in _harmonic_sums(exps, delta, harmonics, mu1, mu2s, t0, t1):
        approx = sums.view(np.float64) @ interleaved
        reduced = np.rint(approx)
        if np.abs(approx - reduced).max() < RESIDUAL_TOL and (np.abs(reduced) <= bound).all():
            yield block, reduced.astype(np.int64)
        else:
            yield block, reduced_forms(_recount(exps, delta, mu1, block, t0, t1))


def pair_histograms(a: Code, b: Code) -> np.ndarray:
    """Histograms of the correlation of a with b at every shift in (-N, N).

    Row tau + N - 1 equals ``code_accf(a, b, tau).coeffs``; negative shifts
    come from theta(a, b)(-tau) = conj(theta(b, a)(tau)).
    """
    exps, delta = _stacked(a, b), a.sequences[0].delta
    n = exps.shape[-1]
    ((_, ab),) = code_histograms(exps, delta, 0, range(1, 2), 0, n)
    ((_, ba),) = code_histograms(exps, delta, 1, range(0, 1), 0, n)
    conj = (-np.arange(delta)) % delta
    return np.concatenate([ba[0, :0:-1][:, conj], ab[0]])


@dataclass(frozen=True)
class CorrelationProfile:
    """Code-level correlation at every shift in (-N, N)."""

    length: int
    values: dict[int, CycInt]


def profile(a: Code, b: Code) -> CorrelationProfile:
    h = pair_histograms(a, b)
    n = len(a.sequences[0])
    delta = h.shape[1]
    return CorrelationProfile(n, {tau: CycInt(delta, h[tau + n - 1]) for tau in range(-n + 1, n)})


def root_sum(p: int, c: int) -> CycInt:
    """Sum of w_p^(c*alpha) over alpha = 0..p-1; zero unless p divides c."""
    if not is_prime(p):
        raise InvalidParams(f"p must be prime, got {p}")
    exps = (c * np.arange(p, dtype=np.int64)) % p
    return CycInt(p, np.bincount(exps, minlength=p))
