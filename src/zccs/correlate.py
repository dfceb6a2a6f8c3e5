"""Exact aperiodic correlation of root-of-unity sequences and codes.

Each correlation value is accumulated in the group ring (see
:mod:`zccs.algebra`): a product of two unit entries is a single root of
unity, so a correlation sum is a histogram of exponent differences.
Zero tests are deferred to the caller and are bit-exact.

:func:`code_accf` builds one histogram by direct counting; it is the
reference.  The batched engine works on the (K, M, N) exponent array of
a code set and correlates each unordered pair of codes once: row mu1
takes only the codes mu2 >= mu1.  It maps each exponent e to the
harmonics w^(-r*e), correlates the row with a whole slice of codes by
FFTs along the sequence and sums over the M members.  When the spectra
of every code fit CACHE_BYTES, a scan computes each code's once, block
by block as the rows first reach them; else it keeps only the row's own
block and computes the later ones again for each row.  One cyclic
correlation of length >= N + t1 - 1 holds both theta(mu1, mu2)(tau) and
theta(mu1, mu2)(-tau) for every tau < t1, and the second gives the mirror
cell, since theta(mu2, mu1)(tau) = conj(theta(mu1, mu2)(-tau)).  Two
recoveries share that core, and each checks both halves:

* :func:`code_histograms` takes every harmonic r = 0..delta/2 and
  inverts the harmonic transform to the histograms.  It accepts a block
  only when its residuals stay below RESIDUAL_TOL, every count is
  non-negative and each histogram sums to its M*(N - |tau|) terms.
* :func:`code_reductions` takes only the phi(delta)/2 primitive
  harmonics, the ones that survive reduction modulo Phi_delta, and maps
  them straight to the reduced forms h @ R (see
  :func:`~zccs.algebra.harmonic_reduction`).  It accepts a block only
  when every coordinate lies within RESIDUAL_TOL of an integer and
  inside the bound M*(N - |tau|)*max_d|R[d, i]|.

The values are integers of at most 5*MAX_TERMS, so double-precision
round-off is far below 1/2 (Percival, Math. Comp. 72, 2003).  Any block
that fails a check is recounted exactly by the counter behind
:func:`code_accf`, so no result rests on a floating tolerance.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .algebra import CycInt, harmonic_reduction, is_prime, reduced_forms, reduction_max
from .boolfn import RootSequence
from .construct import Code
from .errors import InvalidParams, ShapeError

# Largest |h - rint(h)| accepted from the FFT before a block is recounted.
RESIDUAL_TOL = 0.25
# Byte budget of a block's spectra and of a slice's member sums, the
# transient arrays; a block holds as many codes as fit, and at least one.
BLOCK_BYTES = 1 << 18
# Byte budget of the spectra of a whole code set: a scan keeps every
# code's spectra when they fit, else only those of the row's own block.
CACHE_BYTES = 1 << 21


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
    """The histograms of a block at shifts +tau and -tau counted exactly, cell by cell."""
    return np.array([
        [[_count(exps[mu1], exps[mu2], delta, side * tau) for tau in range(t0, t1)] for side in (1, -1)]
        for mu2 in block
    ])


def _harmonic_sums(
    exps: np.ndarray, delta: int, harmonics: np.ndarray, rows: range, t0: int, t1: int, cols: range | None = None
) -> Iterator[tuple[int, range, np.ndarray]]:
    """The harmonics of the histograms of each row code against the codes from it on.

    For each mu1 in rows, yields slice by slice of the codes mu2 >= mu1
    in cols (default: all of them) ``(mu1, block, sums)``, with block
    the slice's codes and
    ``sums[j, 0, tau - t0, i]`` = sum_d h[d] w^(-r*d) for r = harmonics[i]
    and h the histogram of code mu1 with code block[j] at shift tau, and
    ``sums[j, 1, tau - t0, i]`` the same at shift -tau.  Each exponent e
    maps to w^(-r*e); the harmonics of mu1 are correlated with a whole
    slice of codes by FFTs along the sequence and summed over the M
    members.

    Spectra are computed in blocks of as many codes as fit BLOCK_BYTES,
    starting at multiples of that many codes; when one code does not
    fit, its harmonics are taken in chunks that do.  When the spectra of
    every code at every harmonic fit CACHE_BYTES, the scan keeps them
    all, conjugated.  The row's codes are then taken in slices whose
    member sum, one value per harmonic, code and lag, fits BLOCK_BYTES.
    A slice's M-fold product is summed in one step when it fits
    BLOCK_BYTES too, else member by member into a kept accumulator.  A
    block is computed when a slice first reaches it; row mu1 reads only
    the codes from mu1 on, so the computed blocks are a prefix and one
    watermark tracks them.  A slice that reaches past them ends with the
    first block it computes, so a scan that stops at a witness has
    computed no block it did not read.  Otherwise the scan keeps only
    the row's own block, for the next rows inside it, and the slices are
    the blocks; later blocks are computed again for each row, and a
    slice is yielded once the last chunk of its harmonics is in.
    """
    k, m, n = exps.shape
    if not 0 <= t0 < t1 <= n:
        raise ValueError(f"need 0 <= t0 < t1 <= N={n}, got [{t0}, {t1})")
    cols = range(k) if cols is None else cols
    width, nh = t1 - t0, len(harmonics)
    # A cyclic length of n + t1 - 1 keeps every shift |tau| < t1 free of
    # wrap-around: +tau sits at index tau and -tau at index length - tau.
    length = _fft_length(n + t1 - 1)
    taus = np.arange(t0, t1)
    ends = np.concatenate([taus, -taus % length])
    per_harmonic = 16 * m * length
    span = max(1, min(nh, BLOCK_BYTES // per_harmonic))
    step = max(1, BLOCK_BYTES // (per_harmonic * span))
    if k * nh * per_harmonic <= CACHE_BYTES:
        # The cache holds every code at every harmonic, so a row takes all
        # harmonics at once, in slices whose member sums fit a block.
        chunks = [range(nh)]
        held, per_slice = k, min(k, max(1, BLOCK_BYTES // (16 * nh * length)))
    else:
        chunks = [range(lo, min(lo + span, nh)) for lo in range(0, nh, span)]
        held = per_slice = step
    # The conjugated spectra of codes base..base + held at the harmonics
    # of one chunk, computed up to code `filled`; np.empty only reserves
    # the pages, which are touched as blocks are computed.
    cache = np.empty((len(chunks[0]), held, m, length), dtype=complex)
    key, filled = None, 0
    # Buffers to sum the members one by one, for slices whose M-fold
    # product outgrows a block.
    if 16 * len(chunks[0]) * per_slice * m * length > BLOCK_BYTES:
        acc, term = np.empty((2, len(chunks[0]), per_slice, length), dtype=complex)

    def spectra(block: range, chunk: range, out: np.ndarray | None = None) -> np.ndarray:
        table = np.exp(-2j * np.pi * (np.outer(harmonics[chunk.start : chunk.stop], np.arange(delta)) % delta) / delta)
        spec = np.fft.fft(np.take(table, exps[block.start : block.stop], axis=1), length)
        return np.conjugate(spec, out=spec if out is None else out)

    def fill(base: int, chunk: range, stop: int) -> None:
        nonlocal filled
        while filled < stop:
            block = range(filled, min(filled - filled % step + step, k))
            for lo in range(chunk.start, chunk.stop, span):
                part = range(lo, min(lo + span, chunk.stop))
                spectra(block, part, cache[lo - chunk.start : part.stop - chunk.start, block.start - base : block.stop - base])
            filled = block.stop

    for mu1 in rows:
        first = max(mu1, cols.start)
        base = mu1 - mu1 % held
        pending: dict[int, np.ndarray] = {}
        for chunk in chunks:
            if key != (base, chunk.start):
                key, filled = (base, chunk.start), base
            fill(base, chunk, mu1 + 1)
            row = cache[: len(chunk), mu1 - base].conj()
            start = first
            while start < cols.stop:
                stop = min(start - start % per_slice + per_slice, cols.stop)
                if stop > filled:
                    stop = min(stop, start - start % step + step)
                block = range(start, stop)
                start = stop
                if block.stop <= base + held:
                    fill(base, chunk, block.stop)
                    spec, out = cache[: len(chunk), block.start - base : block.stop - base], None
                else:
                    spec = out = spectra(block, chunk)
                if spec.nbytes <= BLOCK_BYTES:
                    sums = np.multiply(spec, row[:, None], out=out).sum(axis=2)
                else:
                    sums = acc[: len(chunk), : len(block)]
                    np.multiply(spec[:, :, 0], row[:, None, 0], out=sums)
                    for nu in range(1, m):
                        sums += np.multiply(spec[:, :, nu], row[:, None, nu], out=term[: len(chunk), : len(block)])
                halves = np.fft.ifft(sums)[..., ends]
                if chunk.start == 0:
                    pending[block.start] = np.empty((len(block), 2, width, nh), dtype=complex)
                pending[block.start][..., chunk.start : chunk.stop] = halves.reshape(-1, len(block), 2, width).transpose(1, 2, 3, 0)
                if chunk.stop == nh:
                    yield mu1, block, pending.pop(block.start)


def code_histograms(
    exps: np.ndarray, delta: int, rows: range, t0: int, t1: int, cols: range | None = None
) -> Iterator[tuple[int, range, np.ndarray]]:
    """Exact correlation histograms of each row code against the codes from it on.

    ``exps`` is a (K, M, N) array of exponents mod delta, such as
    ``CodeSet.exponents``.  For each mu1 in rows and shifts t0 <= tau < t1
    (0 <= t0 < t1 <= N) yields, slice by slice of the codes mu2 >= mu1 in
    cols (default: all of them), ``(mu1, block, h)`` with h an int64 array
    of shape (len(block), 2, t1 - t0, delta): ``h[i, 0, tau - t0]`` and
    ``h[i, 1, tau - t0]`` are the coefficients of the correlation of code
    mu1 with code block[i] at shifts tau and -tau, as :func:`code_accf`
    gives them.  The cells below the diagonal follow from
    theta(B, A)(tau) = conj(theta(A, B)(-tau)).  It recovers h from all
    the harmonics r = 0..delta/2 with an inverse real FFT.
    """
    _, m, n = exps.shape
    harmonics = np.arange(delta // 2 + 1)
    terms = m * (n - np.arange(t0, t1))
    for mu1, block, sums in _harmonic_sums(exps, delta, harmonics, rows, t0, t1, cols):
        approx = np.fft.irfft(sums, delta)
        del sums  # the checks run in place, as in code_reductions
        hist = np.rint(approx).astype(np.int64)
        approx -= hist
        if (
            np.abs(approx, out=approx).max() < RESIDUAL_TOL
            and (hist >= 0).all()
            and (hist.sum(axis=-1) == terms).all()
        ):
            yield mu1, block, hist
        else:
            yield mu1, block, _recount(exps, delta, mu1, block, t0, t1)


def code_reductions(
    exps: np.ndarray, delta: int, rows: range, t0: int, t1: int
) -> Iterator[tuple[int, range, np.ndarray]]:
    """Reduced forms of the correlations of each row code against the codes from it on.

    Takes the arguments of :func:`code_histograms` and yields, slice by
    slice, ``(mu1, block, c)`` with c an int64 array of shape (len(block),
    2, t1 - t0, phi(delta)) equal to ``h @ reduction_matrix(delta)`` for
    the histograms h that :func:`code_histograms` yields: ``c[i, side,
    tau - t0]`` is zero iff that correlation is.  Only the primitive
    harmonics of :func:`~zccs.algebra.harmonic_reduction` are correlated,
    and c = Re(sums @ basis).
    """
    _, m, n = exps.shape
    harmonics, basis = harmonic_reduction(delta)
    # Re(S @ B) as one real product: S viewed as interleaved (Re, Im)
    # pairs times the rows Re B_r, -Im B_r interleaved the same way.
    interleaved = np.stack((basis.real, -basis.imag), axis=1).reshape(-1, basis.shape[1])
    # |c[., tau, i]| <= sum_d h[d] |R[d, i]| <= M * (N - |tau|) * max_d |R[d, i]|.
    bound = m * (n - np.arange(t0, t1))[:, None] * reduction_max(delta)
    for mu1, block, sums in _harmonic_sums(exps, delta, harmonics, rows, t0, t1):
        approx = sums.view(np.float64) @ interleaved
        # The checks run in place: with the harmonics in chunks a row holds
        # all its blocks until the last chunk, and a copy of a block would
        # outgrow them.
        del sums
        reduced = np.rint(approx)
        approx -= reduced
        if np.abs(approx, out=approx).max() < RESIDUAL_TOL and (np.abs(reduced, out=approx) <= bound).all():
            del approx
            yield mu1, block, reduced.astype(np.int64)
        else:
            yield mu1, block, reduced_forms(_recount(exps, delta, mu1, block, t0, t1))


def code_pair_histograms(exps: np.ndarray, delta: int, mu1: int, mu2: int) -> np.ndarray:
    """Histograms of the correlation of codes mu1 and mu2 of a (K, M, N)
    exponent array at every shift in (-N, N), from one two-sided
    correlation.  Row tau + N - 1 equals ``code_accf(a, b, tau).coeffs``.
    """
    pair = exps[[mu1]] if mu1 == mu2 else exps[[mu1, mu2]]
    n = exps.shape[-1]
    ((_, _, h),) = code_histograms(pair, delta, range(1), 0, n, range(len(pair) - 1, len(pair)))
    return np.concatenate([h[0, 1, :0:-1], h[0, 0]])


def pair_histograms(a: Code, b: Code) -> np.ndarray:
    """Histograms of the correlation of a with b at every shift in (-N, N);
    row tau + N - 1 equals ``code_accf(a, b, tau).coeffs``."""
    return code_pair_histograms(_stacked(a, b), a.sequences[0].delta, 0, 1)


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
