"""Exact aperiodic correlation of the codes of an exponent array.

Each correlation value is accumulated in the group ring (see
:mod:`zccs.algebra`): a product of two unit entries is a single root of
unity, so a correlation sum is a histogram of exponent differences.
Zero tests are deferred to the caller and are bit-exact.

:func:`_count` builds one histogram by direct counting: it is the
exact fallback here and, behind each :mod:`zccs.reference` value, the
reference the engine is tested against.  The batched engine works on
the (K, M, N) exponent array of a code set and correlates each
unordered pair of codes once: a tile of rows takes the codes from its
first row on, in :func:`blocks`.  :func:`scan_plan` sets tiles, harmonic
chunks and kept spectra before any FFT, and :func:`_harmonic_sums`
runs them.  One cyclic correlation of length >= N + t1 - 1 holds
theta(mu1, mu2)(tau) and theta(mu1, mu2)(-tau) for every tau < t1, and
the second gives the mirror cell, since theta(mu2, mu1)(tau) =
conj(theta(mu1, mu2)(-tau)).  :func:`code_reductions` recovers from
that core the reduced forms h @ R of both halves: it takes only the
phi(delta)/2 primitive harmonics, the ones that survive reduction modulo
Phi_delta, and maps them straight to the reduced forms (see
:func:`~zccs.algebra.harmonic_reduction`).  It accepts a block only when
every coordinate lies within RESIDUAL_TOL of an integer and inside the
bound M*(N - |tau|)*max_d|R[d, i]|.  The verifier reads every cell from
it, and ``zccs corr`` one pair's, through :func:`code_pair_reductions`.

The values are integers of at most 5*MAX_TERMS, so double-precision
round-off is far below 1/2 (Percival, Math. Comp. 72, 2003).  Any block
that fails a check is recounted exactly, row by row, by :func:`_count`,
and reduced by :func:`~zccs.algebra.reduced_forms`, so no result rests
on a floating tolerance.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import harmonic_reduction, reduced_forms, reduction_max, roots

# Largest |h - rint(h)| accepted from the FFT before a block is recounted.
RESIDUAL_TOL = 0.25
# Byte budget of a block's member sums, one complex value per harmonic,
# code and lag; a block holds as many codes as fit, and at least one.
BLOCK_BYTES = 1 << 18
# Byte budget of the spectra a scan keeps, taken greedily in the order it
# first reads them: every code's when they fit, else a prefix.
CACHE_BYTES = 1 << 21


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


@lru_cache(maxsize=64)
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


def _recount(exps: np.ndarray, delta: int, tile: range, block: range, t0: int, t1: int) -> np.ndarray:
    """The histograms of a tile and block at shifts +tau and -tau counted exactly, row by row and cell by cell."""
    return np.array([
        [[[_count(exps[mu1], exps[mu2], delta, side * tau) for tau in range(t0, t1)] for side in (1, -1)] for mu2 in block]
        for mu1 in tile
    ])


ScanPlan = NamedTuple("ScanPlan", [("length", int), ("chunks", list), ("step", int), ("tiles", list), ("keep", dict)])


def blocks(codes: range, step: int) -> Iterator[tuple[int, range]]:
    """The block rule: ``(lo, block)`` for each multiple lo of step with codes in [lo, lo + step), block those codes."""
    for lo in range(codes.start - codes.start % step, codes.stop, step):
        yield lo, range(max(lo, codes.start), min(lo + step, codes.stop))


def scan_plan(k: int, m: int, n: int, nh: int, rows: range, t1: int, col: int = 0) -> ScanPlan:
    """The schedule of a scan of a (K, M, N) array's rows against the codes
    from each tile and from col on, at nh harmonics and shifts below t1.
    Each tile, in scan order, comes with the first code ``own`` of its
    block and the ``codes`` it reads, whose :func:`blocks` ``(lo, block)``
    read the spectra of codes lo to lo + step; ``keep`` maps each spectra
    ``(chunk.start, lo)`` kept to its bytes.

    A block holds as many codes as have member sums, one complex value
    per harmonic and lag, that fit BLOCK_BYTES, from multiples of that
    many codes on; when one code's do not fit, its harmonics are taken in
    chunks that do.  A tile is one row while the codes from its start on
    span more than one block.  Then a scan's first tile takes all the rows
    when their member sums fit BLOCK_BYTES, else one, and each next tile
    doubles the last one's height, capped so that its member sums fit
    BLOCK_BYTES: a square tile spends half its cells below the diagonal.
    In the order the scan first reads them, chunk by chunk (the first
    tile's own block and blocks, then each later tile's own block, as its
    codes are a suffix of the first tile's), spectra are kept while each
    fits CACHE_BYTES with those before.
    """
    # A cyclic length of n + t1 - 1 keeps every shift |tau| < t1 free of
    # wrap-around: +tau sits at index tau and -tau at index length - tau.
    length = _fft_length(n + t1 - 1)
    span = max(1, min(nh, BLOCK_BYTES // (16 * length)))
    step = max(1, BLOCK_BYTES // (16 * length * span))
    chunks = [range(lo, min(lo + span, nh)) for lo in range(0, nh, span)]
    tiles, keep, total, mu1, height = [], {}, 0, rows.start, 1
    while mu1 < rows.stop:
        codes, own = range(max(mu1, col), k), mu1 - mu1 % step
        cap = BLOCK_BYTES // (16 * length * span * max(1, len(codes)))
        if own + step < k:
            height = 1
        elif mu1 == rows.start and cap >= len(rows):
            height = len(rows)
        else:
            height = max(1, min(height, cap))
        tile = range(mu1, min(mu1 + height, rows.stop))
        tiles.append((tile, own, codes))
        mu1, height = tile.stop, 2 * len(tile)
    reads = [dict.fromkeys([own, *(lo for lo, _ in blocks(codes, step))]) for _, own, codes in tiles[:1]]
    reads += [[own] for own in dict.fromkeys(own for _, own, _ in tiles[1:]) if own not in reads[0]]
    for chunk, lo in ((chunk, lo) for los in reads for chunk in chunks for lo in los):
        size = 16 * len(chunk) * min(step, k - lo) * m * length
        if total + size <= CACHE_BYTES:
            keep[chunk.start, lo], total = size, total + size
    return ScanPlan(length, chunks, step, tiles, keep)


def _harmonic_sums(
    exps: np.ndarray, delta: int, harmonics: np.ndarray, rows: range, t0: int, t1: int, col: int = 0
) -> Iterator[tuple[range, range, np.ndarray]]:
    """The harmonics of the histograms of tiles of row codes against the codes from each tile on.

    For each tile of the rows, yields block by block of the codes mu2 >=
    max(tile.start, col) ``(tile, block, sums)``:
    ``sums[t, j, 0, tau - t0, i]`` = sum_d h[d] w^(-r*d) for r =
    harmonics[i] and h the histogram of code tile[t] with code block[j]
    at shift tau, and ``sums[t, j, 1, tau - t0, i]`` the same at -tau.
    Each exponent e maps to w^(-r*e); one einsum correlates the tile with
    a block by FFTs along the sequence and sums over the M members, the
    cells below the diagonal too.  It runs :func:`scan_plan`: spectra are
    computed when a tile reads them, and stored when the plan keeps them,
    so a scan that stops at a witness computed no block it did not read.
    """
    k, m, n = exps.shape
    if not (isinstance(t0, (int, np.integer)) and isinstance(t1, (int, np.integer)) and 0 <= t0 < t1 <= n):
        raise ValueError(f"need integers 0 <= t0 < t1 <= N={n}, got [{t0}, {t1})")
    width, nh = t1 - t0, len(harmonics)
    plan = scan_plan(k, m, n, nh, rows, t1, col)
    taus = np.arange(t0, t1)
    ends = np.concatenate([taus, -taus % plan.length])
    store: dict[tuple[int, int], np.ndarray] = {}

    def spectra(chunk: range, lo: int) -> np.ndarray:
        spec = store.get((chunk.start, lo))
        if spec is None:
            table = roots(delta)[-np.outer(harmonics[chunk.start : chunk.stop], np.arange(delta)) % delta]
            codes = exps[lo : lo + plan.step]
            # Each member's roots, one take for all the block's codes, go
            # into the zero-padded array, which is transformed in place,
            # so a block's spectra take one array.
            spec = np.empty((len(chunk), len(codes), m, plan.length), dtype=complex)
            spec[..., n:] = 0
            for j in range(m):
                spec[:, :, j, :n] = np.take(table, codes[:, j], axis=1)
            np.conjugate(np.fft.fft(spec, out=spec), out=spec)
            if (chunk.start, lo) in plan.keep:
                store[chunk.start, lo] = spec
        return spec

    for tile, own, codes in plan.tiles:
        pending: dict[int, np.ndarray] = {}
        for chunk in plan.chunks:
            mine = spectra(chunk, own)
            tile_spec = mine[:, tile.start - own : tile.stop - own].conj()
            for lo, block in blocks(codes, plan.step):
                spec = mine if lo == own else spectra(chunk, lo)
                sums = np.einsum("htnl,hjnl->htjl", tile_spec, spec[:, block.start - lo : block.stop - lo])
                halves = np.fft.ifft(sums, out=sums)[..., ends]
                if chunk.start == 0:
                    pending[block.start] = np.empty((len(tile), len(block), 2, width, nh), dtype=complex)
                pending[block.start][..., chunk.start : chunk.stop] = halves.reshape(
                    len(chunk), len(tile), len(block), 2, width).transpose(1, 2, 3, 4, 0)
                if chunk.stop == nh:
                    yield tile, block, pending.pop(block.start)


def code_reductions(
    exps: np.ndarray, delta: int, rows: range, t0: int, t1: int, col: int = 0
) -> Iterator[tuple[range, range, np.ndarray]]:
    """Reduced forms of the correlations of tiles of row codes against the codes from each tile on.

    ``exps`` is a (K, M, N) array of exponents mod delta, such as
    ``CodeSet.exponents``.  For shifts t0 <= tau < t1 (0 <= t0 < t1 <= N)
    yields, tile by tile of the rows and block by block of the codes mu2
    >= max(tile.start, col), ``(tile, block, c)`` with c an int64 array
    of shape (len(tile), len(block), 2, t1 - t0, phi(delta)):
    ``c[t, j, 0, tau - t0]`` and ``c[t, j, 1, tau - t0]`` are
    ``h @ reduction_matrix(delta)`` for h the coefficients of the
    correlation of code tile[t] with code block[j] at shifts tau and
    -tau, as :func:`~zccs.reference.code_accf` counts them, so each is
    zero iff that correlation is.  Only the primitive harmonics of
    :func:`~zccs.algebra.harmonic_reduction` are correlated, and c is
    the sums, viewed as interleaved (Re, Im) float pairs, times its basis.
    """
    _, m, n = exps.shape
    harmonics, basis = harmonic_reduction(delta)
    # |c[., tau, i]| <= sum_d h[d] |R[d, i]| <= M * (N - |tau|) * max_d |R[d, i]|.
    bound = m * (n - np.arange(t0, t1))[:, None] * reduction_max(delta)
    for tile, block, sums in _harmonic_sums(exps, delta, harmonics, rows, t0, t1, col):
        approx = sums.view(np.float64) @ basis
        # The checks run in place: with the harmonics in chunks a tile holds
        # all its blocks until the last chunk, and a copy would outgrow them.
        del sums
        reduced = np.rint(approx)
        approx -= reduced
        if np.abs(approx, out=approx).max() < RESIDUAL_TOL and (np.abs(reduced, out=approx) <= bound).all():
            del approx
            yield tile, block, reduced.astype(np.int64)
        else:
            yield tile, block, reduced_forms(_recount(exps, delta, tile, block, t0, t1))


def code_pair_reductions(exps: np.ndarray, delta: int, mu1: int, mu2: int) -> np.ndarray:
    """Reduced forms of the correlation of codes mu1 and mu2 of a (K, M, N)
    exponent array at every shift in (-N, N), from one two-sided
    correlation: row tau + N - 1 is ``code_accf(a, b, tau).coeffs @
    reduction_matrix(delta)``.  Only the pair's own cell is computed.
    """
    pair = exps[[mu1]] if mu1 == mu2 else exps[[mu1, mu2]]
    ((_, _, c),) = code_reductions(pair, delta, range(1), 0, exps.shape[-1], len(pair) - 1)
    return np.concatenate([c[0, 0, 1, :0:-1], c[0, 0, 0]])
