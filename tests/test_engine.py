"""The batched correlation engine against the per-cell reference path.

``code_reductions`` and ``code_pair_reductions`` must give, cell for cell
and at shifts +tau and -tau, the reductions mod Phi_delta of the
histograms ``code_accf`` counts, each block equal to the exact recount
``_recount`` times R, and the reports and ``zccs corr`` output built on
them must not depend on whether a block was accepted from the FFT or
recounted exactly.
"""
import csv
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from zccs import correlate, verify
from zccs.algebra import MAX_TERMS, harmonic_reduction, reduced_forms, reduction_matrix
from zccs.boolfn import parse_gbf
from zccs.cli import main, write_code_set
from zccs.construct import CodeLabel, CodeSet, build_ccc, build_zccs
from zccs.correlate import code_pair_reductions, code_reductions
from zccs.reference import Code, RootSequence, code_accf
from zccs.verify import check_ccc, check_zccs, max_zcz, verify_code_set

from oracles import corrupt_later_rows, corrupt_seeded, float_zcz_width

ENGINE_SETS = {
    "zccs_12x4x24_delta6": lambda: build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3, s=2),
    "zccs_10x2x20_delta20": lambda: build_zccs(parse_gbf("2*x0*x1 + x1", 2, 4), [], 0, p=5),
    "zccs_14x2x28_delta28": lambda: build_zccs(parse_gbf("2*x0*x1 + 3*x0 + 1", 2, 4), [], 0, p=7),
}


# Cache budgets that keep no block's spectra, and every code's.
CACHE_REGIMES = (0, 1 << 40)

# The exact counter and the block budget, kept before any test patches them.
RECOUNT = correlate._recount
BLOCK_BYTES = correlate.BLOCK_BYTES


def _refuse(*args):
    raise AssertionError("a block failed its recovery check and was recounted")


@pytest.fixture()
def no_fallback(monkeypatch):
    """Fail the test if any block is recounted instead of taken from the FFT."""
    monkeypatch.setattr(correlate, "_recount", _refuse)


def code_histograms(exps, delta, rows, t0, t1):
    """The tiles and blocks of ``code_reductions``, each with its histograms
    recounted exactly by ``_recount``, after checking that the block's
    reduced forms are those histograms times R."""
    for tile, block, c in code_reductions(exps, delta, rows, t0, t1):
        hist = RECOUNT(exps, delta, tile, block, t0, t1)
        assert np.array_equal(c, hist @ reduction_matrix(delta)), (tile, block)
        yield tile, block, hist


def _plan(exps, delta, rows, t1):
    """The plan of a scan of the rows against every code at every primitive harmonic."""
    k, m, n = exps.shape
    return correlate.scan_plan(k, m, n, len(harmonic_reduction(delta)[0]), rows, t1)


def _forward_ffts(plan):
    """The forward FFTs a run of the plan makes: one per kept spectra, one per read of any other."""
    reads = [(chunk.start, lo) for _, own, codes in plan.tiles for chunk in plan.chunks
             for lo in dict.fromkeys([own] + [lo for lo, _ in correlate.blocks(codes, plan.step)])]
    return len(plan.keep) + sum(read not in plan.keep for read in reads)


def _budget(n, t1, values):
    """The BLOCK_BYTES of ``values`` complex member sums at the plan's FFT length."""
    return 16 * correlate.scan_plan(0, 1, n, 1, range(0), t1).length * values


def _tiles(exps, delta, t0, t1, engine=code_histograms, rows=None):
    """The engine's ``(tile, block, values)`` over the rows, checked for shape.

    They must be the plan's, in its order: tiles that cover the rows, each
    with blocks that cover exactly the codes from its first row on."""
    k = len(exps)
    rows = range(k) if rows is None else rows
    out = list(engine(exps, delta, rows, t0, t1))
    plan = _plan(exps, delta, rows, t1)
    blocks = [(tile, list(correlate.blocks(codes, plan.step))) for tile, _, codes in plan.tiles]
    assert [(tile, block) for tile, block, _ in out] == [(tile, b) for tile, bs in blocks for _, b in bs]
    assert [mu for tile, _ in blocks for mu in tile] == list(rows)
    for tile, bs in blocks:
        assert [mu for _, block in bs for mu in block] == list(range(tile.start, k))
    for tile, block, values in out:
        assert values.shape[:4] == (len(tile), len(block), 2, t1 - t0)
    return out


def _upper(exps, delta, t0, t1, engine=code_histograms, rows=None):
    """The engine's values for each row mu1, over the codes mu2 >= mu1."""
    out = _tiles(exps, delta, t0, t1, engine, rows)
    upper = {}
    for tile in dict.fromkeys(tile for tile, _, _ in out):
        values = np.concatenate([v for t, _, v in out if t == tile], axis=1)
        for i, mu1 in enumerate(tile):
            upper[mu1] = values[i, i:]
    return upper


def _accf_table(codes):
    """``table[mu1, mu2, tau + N - 1]`` = ``code_accf(codes[mu1], codes[mu2], tau).coeffs``."""
    n = len(codes[0].sequences[0])
    return np.array([[[code_accf(a, b, tau).coeffs for tau in range(-n + 1, n)] for b in codes] for a in codes])


def _expected(table, mu1, t0, t1):
    """Row mu1 of the table over the codes mu2 >= mu1 at shifts +tau and -tau."""
    n = (table.shape[2] + 1) // 2
    taus = np.arange(t0, t1)
    return table[mu1, mu1:][:, np.stack([n - 1 + taus, n - 1 - taus])]


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", sorted(ENGINE_SETS))
def test_batched_histograms_match_code_accf(name, seed, no_fallback, monkeypatch):
    cs = ENGINE_SETS[name]()
    if seed is not None:
        cs = corrupt_seeded(cs, seed)
    codes, pp = cs.codes, cs.params
    n = pp.N
    table = _accf_table(codes)
    for cache_bytes in CACHE_REGIMES:
        monkeypatch.setattr(correlate, "CACHE_BYTES", cache_bytes)
        rng = np.random.default_rng(seed)
        upper = _upper(cs.exponents, pp.delta, 0, n)
        for mu1 in range(pp.K):
            assert np.array_equal(upper[mu1], _expected(table, mu1, 0, n))
            t0 = int(rng.integers(n))
            t1 = int(rng.integers(t0 + 1, n + 1))
            window = _upper(cs.exponents, pp.delta, t0, t1, rows=range(mu1, pp.K))
            assert np.array_equal(window[mu1], upper[mu1][:, :, t0:t1])
            for mu2 in range(pp.K):
                both = code_pair_reductions(cs.exponents, pp.delta, mu1, mu2)
                assert both.shape == (2 * n - 1, len(reduction_matrix(pp.delta)[0]))
                assert np.array_equal(both, table[mu1, mu2] @ reduction_matrix(pp.delta))


@pytest.mark.parametrize("block_bytes", [correlate.BLOCK_BYTES, 1])
@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", sorted(ENGINE_SETS))
def test_reductions_match_reduced_code_accf(name, seed, block_bytes, no_fallback, monkeypatch):
    # A budget of one byte puts every harmonic of every code in a chunk of its own.
    monkeypatch.setattr(correlate, "BLOCK_BYTES", block_bytes)
    cs = ENGINE_SETS[name]()
    if seed is not None:
        cs = corrupt_seeded(cs, seed)
    pp = cs.params
    table = _accf_table(cs.codes) @ reduction_matrix(pp.delta)
    for cache_bytes in CACHE_REGIMES:
        monkeypatch.setattr(correlate, "CACHE_BYTES", cache_bytes)
        rng = np.random.default_rng(seed)
        upper = _upper(cs.exponents, pp.delta, 0, pp.N, code_reductions)
        for mu1 in range(pp.K):
            assert upper[mu1].dtype == np.int64
            assert np.array_equal(upper[mu1], _expected(table, mu1, 0, pp.N))
        for _ in range(3):
            t0 = int(rng.integers(1, pp.N))
            t1 = int(rng.integers(t0 + 1, pp.N + 1))
            first = int(rng.integers(pp.K))
            window = _upper(cs.exponents, pp.delta, t0, t1, code_reductions, range(first, pp.K))
            for mu1 in range(first, pp.K):
                assert np.array_equal(window[mu1], _expected(table, mu1, t0, t1))


def _engine_setup(engine, cs):
    """The harmonics an engine correlates and the table it must reproduce:
    the histograms or their reductions."""
    delta = cs.params.delta
    table = _accf_table(cs.codes)
    return harmonic_reduction(delta)[0], table if engine is code_histograms else table @ reduction_matrix(delta)


@pytest.mark.parametrize("span, step", [(None, 1), (None, 2), (None, 3), (1, 1), (2, 1)])
@pytest.mark.parametrize("engine", [code_histograms, code_reductions])
def test_aligned_blocks_and_harmonic_chunks(engine, span, step, no_fallback, monkeypatch):
    cs = corrupt_seeded(ENGINE_SETS["zccs_14x2x28_delta28"](), 4)
    pp = cs.params
    harmonics, table = _engine_setup(engine, cs)
    # The budget that gives blocks of `step` codes, or chunks of `span`
    # harmonics, over the full window.
    monkeypatch.setattr(correlate, "BLOCK_BYTES", _budget(pp.N, pp.N, (span or len(harmonics)) * step))
    for cache_bytes in CACHE_REGIMES:
        monkeypatch.setattr(correlate, "CACHE_BYTES", cache_bytes)
        blocks = [(tile, block) for tile, block, _ in engine(cs.exponents, pp.delta, range(pp.K), 0, pp.N)]
        for tile, block in blocks:
            assert block.start == tile.start or block.start % step == 0
            assert block.stop == pp.K or block.stop % step == 0
            assert 1 <= len(block) <= step
            assert block.start // step == (block.stop - 1) // step
        assert max(len(block) for _, block in blocks) == min(step, pp.K - 1)
        for t0, t1, first in ((0, pp.N, 0), (0, 5, 3), (4, 9, 0), (13, pp.N, 5)):
            window = _upper(cs.exponents, pp.delta, t0, t1, engine, range(first, pp.K))
            for mu1 in range(first, pp.K):
                assert np.array_equal(window[mu1], _expected(table, mu1, t0, t1))


def _check_cells(out, table, t0, t1):
    """Every cell the engine yields, those below a tile's diagonal too,
    against ``table`` of :func:`_accf_table` (reduced or not)."""
    n = (table.shape[2] + 1) // 2
    sides = np.stack([n - 1 + np.arange(t0, t1), n - 1 - np.arange(t0, t1)])
    for tile, block, values in out:
        for t, mu1 in enumerate(tile):
            for j, mu2 in enumerate(block):
                assert np.array_equal(values[t, j], table[mu1, mu2][sides]), (tile, block, mu1, mu2)


@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize("engine", [code_histograms, code_reductions])
def test_tiles_match_code_accf_cell_by_cell(engine, height, no_fallback, monkeypatch):
    cs = corrupt_seeded(ENGINE_SETS["zccs_14x2x28_delta28"](), 4)
    pp = cs.params
    harmonics, table = _engine_setup(engine, cs)
    for t0, t1, first in ((0, pp.N, 0), (0, 5, 3), (4, 9, 0), (13, pp.N, 5)):
        # The budget of `height` rows' member sums against every code: one
        # block, and tiles capped at `height` rows while many codes remain.
        per_code = _budget(pp.N, t1, len(harmonics))
        monkeypatch.setattr(correlate, "BLOCK_BYTES", per_code * pp.K * height)
        out = _tiles(cs.exponents, pp.delta, t0, t1, engine, range(first, pp.K))
        heights = [len(tile) for tile in dict.fromkeys(tile for tile, _, _ in out)]
        assert all(b <= 2 * a for a, b in zip(heights, heights[1:]))
        if first == 0:
            assert heights[:3] == [1, min(2, height), min(4, height)]
        for tile, block, _ in out:
            assert block == range(tile.start, pp.K)
            assert len(tile) * len(block) * per_code <= correlate.BLOCK_BYTES
        _check_cells(out, table, t0, t1)


@pytest.mark.parametrize("engine", [code_histograms, code_reductions])
def test_tiles_start_where_the_column_blocks_end(engine, no_fallback, monkeypatch):
    cs = corrupt_seeded(ENGINE_SETS["zccs_14x2x28_delta28"](), 5)
    pp = cs.params
    harmonics, table = _engine_setup(engine, cs)
    # Blocks of 6 codes: rows 0-11 take single-row tiles over several
    # blocks, though the budget alone would give row 11 two rows, and
    # rows 12-13, whose codes form the last block, one tile.
    monkeypatch.setattr(correlate, "BLOCK_BYTES", _budget(pp.N, pp.N, 6 * len(harmonics)))
    out = _tiles(cs.exponents, pp.delta, 0, pp.N, engine)
    tiles = list(dict.fromkeys(tile for tile, _, _ in out))
    assert tiles == [range(mu1, mu1 + 1) for mu1 in range(12)] + [range(12, 14)]
    assert [block for tile, block, _ in out if tile.start == 9] == [range(9, 12), range(12, 14)]
    _check_cells(out, table, 0, pp.N)


def _recording_tiles(monkeypatch) -> list:
    """Record the tile of every block the verifier reads."""
    tiles = []
    reductions = verify.code_reductions

    def recording(*args):
        for tile, block, c in reductions(*args):
            tiles.append(tile)
            yield tile, block, c

    monkeypatch.setattr(verify, "code_reductions", recording)
    return tiles


def test_passing_scan_doubles_its_tiles(no_fallback, monkeypatch):
    cs = build_zccs(parse_gbf("2*x1*x2", 3, 4), [0], p=5)
    pp = cs.params
    assert (pp.K, pp.M, pp.N, pp.Z) == (20, 4, 40, 8)
    # The budget of rows 7-14 against codes 7-19: the set does not fit one
    # tile and no tile is capped, so ceil(log2(K + 1)) = 5 tiles of 1, 2,
    # 4, 8 and 5 rows.  The default budget caps the fourth tile at 6 rows,
    # and a budget the whole set fits takes it as one tile.
    per_code = _budget(pp.N, pp.Z + 1, len(harmonic_reduction(pp.delta)[0]))
    for block_bytes, heights in ((per_code * 8 * 13, [1, 2, 4, 8, 5]), (BLOCK_BYTES, [1, 2, 4, 6, 7]), (1 << 40, [20])):
        monkeypatch.setattr(correlate, "BLOCK_BYTES", block_bytes)
        assert [len(tile) for tile, _, _ in _plan(cs.exponents, pp.delta, range(pp.K), pp.Z + 1).tiles] == heights
        assert check_zccs(cs, pp.Z).ok


def _sweep_grid_sets():
    """The small sets of the benchmark's design-space sweep, from path
    functions: q in (2, 4), m in (2, 3, 4), k < m deleted vertices with k
    in (0, 1, 2), p in (2, 3, 5, 7), and K*K*N at most 2048."""
    for q in (2, 4):
        for m in (2, 3, 4):
            for k in range(min(m, 3)):
                f = parse_gbf(" + ".join([f"{q // 2}*x{v}*x{v + 1}" for v in range(k, m - 1)] + ["x0", "1"]), m, q)
                yield build_ccc(f, range(k))
                for p in (2, 3, 5, 7):
                    if (p * (2 << k)) ** 2 * (1 << m) <= 2048:
                        yield build_zccs(f, range(k), p=p)


def test_sweep_sets_that_fit_are_one_tile(no_fallback):
    one = 0
    for cs in _sweep_grid_sets():
        pp = cs.params
        for z, ok in [(pp.Z, check_zccs(cs, pp.Z).ok)] + [(pp.N, check_ccc(cs))] * (pp.K == pp.M):
            assert ok
            tiles = [tile for tile, _, _ in _plan(cs.exponents, pp.delta, range(pp.K), min(z + 1, pp.N)).tiles]
            assert tiles[0] in (range(pp.K), range(1)), (pp, z)
            one += tiles == [range(pp.K)]
    # At the default budget 59 of the 68 checks fit one tile.
    assert one == 59


def test_built_sets_are_never_recounted(no_fallback):
    sets = [build() for build in ENGINE_SETS.values()] + [
        build_ccc(parse_gbf("x1*x2", 3, 2), [0], 2),
        build_ccc(parse_gbf("2*x0*x1 + 2*x1*x2 + 2*x2*x3", 4, 4), [0, 3]),
        build_zccs(parse_gbf("2*x1*x2", 3, 4), [0], p=5),
        build_zccs(parse_gbf("2*x1*x2 + 2*x2*x3 + 2*x3*x4 + 2*x4*x5", 6, 4), [0], 1, p=5),
    ]
    for cs in sets:
        pp = cs.params
        report = verify_code_set(cs, compute_max=True)
        assert report.is_zccs_at_claimed_z and report.max_zcz >= pp.Z
        assert report.is_ccc == (pp.K == pp.M)
        assert max_zcz(cs) == report.max_zcz


def _counting_fft(monkeypatch) -> list:
    """Record the shape of every array np.fft.fft is called on."""
    calls = []
    fft = np.fft.fft

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    return calls


def test_harmonic_sums_runs_its_plan(monkeypatch):
    # Budgets from one harmonic to whole sets, caches of none, a prefix or all; K = 0 has no rows.
    # Rows from 0 against codes from K/2 on: each later tile reads its own block first.
    calls, rng, plans = _counting_fft(monkeypatch), np.random.default_rng(0), []
    grid = itertools.product(((0, 2, 8, 6), (1, 1, 5, 28), (5, 2, 12, 20), (14, 2, 28, 28), (2, 2, 8, 1024)),
                             (1, 1 << 13, BLOCK_BYTES, 1 << 40), (0, 1 << 15, 1 << 40))
    for (k, m, n, delta), block_bytes, cache_bytes in grid:
        monkeypatch.setattr(correlate, "BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(correlate, "CACHE_BYTES", cache_bytes)
        exps, harmonics = rng.integers(0, delta, (k, m, n)), harmonic_reduction(delta)[0]
        for rows, t0, t1, col in ((range(k), 0, n, 0), (range(k // 2, k), n // 2, n, 0),
                                  (range(min(1, k)), 1, 3, min(1, k)), (range(k), 0, n, k // 2)):
            calls.clear()
            sums = correlate._harmonic_sums(exps, delta, harmonics, rows, t0, t1, col)
            plan = correlate.scan_plan(k, m, n, len(harmonics), rows, t1, col)
            plans.append(plan)
            blocks = [(t, b) for t, _, codes in plan.tiles for _, b in correlate.blocks(codes, plan.step)]
            assert [(t, b) for t, b, _ in sums] == blocks
            assert len(calls) == _forward_ffts(plan)
            # A cache that holds every spectra computes each once.
            assert cache_bytes < 1 << 40 or len(calls) == len(plan.keep)
    assert any(len(plan.chunks) > 1 for plan in plans)
    assert any(0 < len(plan.keep) < _forward_ffts(plan) for plan in plans)


def _chain(q, m, first=0):
    """The path function sum of (q/2)*x_i*x_(i+1) over i = first..m-2."""
    return parse_gbf(" + ".join(f"{q // 2}*x{i}*x{i + 1}" for i in range(first, m - 1)), m, q)


# The forward FFTs of a full report, compute_max included, on sets whose
# plans span one tile to many, with and without harmonic chunks.
SCHEDULES = {
    "zccs_20x4x320": (lambda: build_zccs(_chain(4, 6, 1), [0], 1, p=5), 2),
    "zccs_20x4x640": (lambda: build_zccs(_chain(4, 7, 1), [0], 1, p=5), 36),
    "zccs_24x8x768": (lambda: build_zccs(parse_gbf("x2*x3 + x3*x4 + x4*x5 + x5*x6 + x6*x7", 8, 2), [0, 1], p=3), 20),
    "zccs_28x4x1792": (lambda: build_zccs(
        parse_gbf("x0*x3 + x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x6 + x6*x7", 8, 2), [0], p=7), 206),
    "ccc_2x2x1024_delta1024": (lambda: build_ccc(_chain(1024, 10), []), 94),
    "ccc_2x2x4096_delta1024": (lambda: build_ccc(_chain(1024, 12), []), 382),
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_report_keeps_its_forward_fft_count(name, monkeypatch):
    build, ffts = SCHEDULES[name]
    cs = build()
    calls = _counting_fft(monkeypatch)
    report = verify_code_set(cs, compute_max=True)
    assert report.is_zccs_at_claimed_z and report.max_zcz == cs.params.Z
    assert len(calls) == ffts


@pytest.mark.parametrize("span", [None, 2])
def test_one_block_scan_takes_one_forward_fft_per_chunk(span, monkeypatch):
    cs = ENGINE_SETS["zccs_14x2x28_delta28"]()
    pp = cs.params
    if span is not None:
        # A one-code set whose harmonics come in chunks of `span`.
        cs = CodeSet(cs.exponents[:1], cs.labels[:1], replace(pp, K=1))
        monkeypatch.setattr(correlate, "BLOCK_BYTES", _budget(pp.N, pp.Z + 1, span))
    plan = _plan(cs.exponents, pp.delta, range(cs.params.K), pp.Z + 1)
    assert _forward_ffts(plan) == len(plan.chunks) == (1 if span is None else 3)
    assert check_zccs(cs, pp.Z).ok


@pytest.mark.parametrize("span", [None, 2])
def test_cached_scan_takes_one_forward_fft_per_block_and_chunk(span, monkeypatch):
    cs = ENGINE_SETS["zccs_14x2x28_delta28"]()
    pp = cs.params
    # Blocks of 3 codes, or of one code whose harmonics come in chunks of `span`.
    monkeypatch.setattr(correlate, "BLOCK_BYTES", _budget(pp.N, pp.Z + 1, span or 3 * len(harmonic_reduction(pp.delta)[0])))
    blocks, chunks = (5, 1) if span is None else (pp.K, 3)
    assert _forward_ffts(_plan(cs.exponents, pp.delta, range(pp.K), pp.Z + 1)) == blocks * chunks
    assert check_zccs(cs, pp.Z).ok
    # Keeping no spectra takes more.
    monkeypatch.setattr(correlate, "CACHE_BYTES", 0)
    assert _forward_ffts(_plan(cs.exponents, pp.delta, range(pp.K), pp.Z + 1)) > 2 * blocks * chunks
    assert check_zccs(cs, pp.Z).ok


def test_set_past_the_cap_keeps_a_prefix_of_its_blocks(no_fallback, monkeypatch):
    cs = ENGINE_SETS["zccs_14x2x28_delta28"]()
    pp = cs.params
    # Blocks of 3 codes, 5 in all; the cap holds the spectra of two.
    monkeypatch.setattr(correlate, "BLOCK_BYTES", _budget(pp.N, pp.Z + 1, 3 * len(harmonic_reduction(pp.delta)[0])))
    counts, kept, forms = [], [], []
    for cache_bytes in (0, 2 * pp.M * correlate.BLOCK_BYTES, 1 << 40):
        monkeypatch.setattr(correlate, "CACHE_BYTES", cache_bytes)
        plan = _plan(cs.exponents, pp.delta, range(pp.K), pp.Z + 1)
        counts.append(_forward_ffts(plan))
        kept.append(sorted(lo for _, lo in plan.keep))
        assert check_zccs(cs, pp.Z).ok
        forms.append(_upper(cs.exponents, pp.delta, 0, pp.Z, code_reductions))
    assert counts[0] > counts[1] > counts[2] == 5
    assert kept == [[], [0, 3], [0, 3, 6, 9, 12]]
    for upper in forms[1:]:
        assert all(np.array_equal(upper[mu1], forms[0][mu1]) for mu1 in range(pp.K))


def _corrupt_code_0_or_5(code):
    """The 14x2x28 set with code 0's or code 5's first entry shifted: the
    witness is then in row 0, at code 0 or 5."""
    cs = ENGINE_SETS["zccs_14x2x28_delta28"]()
    exps = cs.exponents.copy()
    exps[code, 0, 0] = (exps[code, 0, 0] + 1) % cs.params.delta
    return CodeSet(exps, cs.labels, cs.params)


@pytest.mark.parametrize("code", [0, 5])
def test_row_0_witness_computes_no_later_block(code, monkeypatch):
    cs = _corrupt_code_0_or_5(code)
    pp = cs.params
    # Blocks of 2 codes.
    monkeypatch.setattr(correlate, "BLOCK_BYTES", _budget(pp.N, pp.Z + 1, 2 * len(harmonic_reduction(pp.delta)[0])))
    calls = _counting_fft(monkeypatch)
    tiles = _recording_tiles(monkeypatch)
    ok, witness = check_zccs(cs, pp.Z)
    assert not ok and witness[:2] == (0, code)
    # Row 0 only, over the blocks up to the witness's: codes 0-1, and 2-3
    # and 4-5 for code 5.
    assert set(tiles) == {range(0, 1)}
    assert len(calls) == code // 2 + 1


@pytest.mark.parametrize("code", [0, 5])
def test_row_0_witness_in_one_block_computes_one_row(code, monkeypatch):
    cs = _corrupt_code_0_or_5(code)
    calls = _counting_fft(monkeypatch)
    tiles = _recording_tiles(monkeypatch)
    ok, witness = check_zccs(cs, cs.params.Z)
    assert not ok and witness[:2] == (0, code)
    # All 14 codes are one block, of which the scan reads row 0 only.
    assert tiles == [range(0, 1)]
    assert len(calls) == 1


def test_report_resumes_the_width_scan_at_the_witness_row(monkeypatch):
    # Rows 0 and 1 are clean at z = 2; the first failure is the mirror
    # cell (2, 1, 1), as in test_verify's test_first_failure_in_a_mirror_cell.
    cs = corrupt_later_rows(build_zccs(parse_gbf("x0*x1", 2, 2), [], 0, p=2), 1857)
    # No spectra kept and one code per block, so every row scanned costs FFTs.
    monkeypatch.setattr(correlate, "CACHE_BYTES", 0)
    monkeypatch.setattr(correlate, "BLOCK_BYTES", 1)
    calls = _counting_fft(monkeypatch)
    assert check_zccs(cs, 2) == (False, (2, 1, 1))
    width = max_zcz(cs)
    alone = len(calls)
    calls.clear()
    report = verify_code_set(cs, 2, compute_max=True)
    assert report.witness == (2, 1, 1)
    assert report.max_zcz == width == float_zcz_width(cs)
    assert len(calls) < alone


def test_failed_ccc_check_scans_nothing_more(monkeypatch):
    cs = corrupt_seeded(build_ccc(parse_gbf("x1*x2", 3, 2), [0], 2), 0)
    pp = cs.params
    assert pp.K == pp.M and pp.Z == pp.N
    calls = _counting_fft(monkeypatch)
    assert not check_zccs(cs, pp.N).ok
    alone = len(calls)
    calls.clear()
    report = verify_code_set(cs)
    assert len(calls) == alone
    assert not report.is_ccc and report.max_zcz is None


WIDTH_FREE_SETS = {
    **ENGINE_SETS,
    "zccs_8x4x8": lambda: build_zccs(parse_gbf("x0*x1", 2, 2), [], 0, p=2),
    "zccs_20x4x40": lambda: build_zccs(parse_gbf("2*x1*x2", 3, 4), [0], p=5),
    "zccs_28x4x56": lambda: build_zccs(parse_gbf("2*x0*x1 + 2*x1*x2 + x2", 3, 4), [0], p=7),
    "zccs_16x8x32": lambda: build_zccs(parse_gbf("x0*x1 + x2*x3 + x2", 4, 2), [0, 1], p=2),
    "ccc_8x8x16": lambda: build_ccc(parse_gbf("2*x0*x1 + 2*x1*x2 + 2*x2*x3", 4, 4), [0, 3]),
    "zccs_20x4x320": lambda: build_zccs(parse_gbf("2*x1*x2 + 2*x2*x3 + 2*x3*x4 + 2*x4*x5", 6, 4), [0], 1, p=5),
    "zccs_24x8x384": lambda: build_zccs(parse_gbf("x0*x3 + x2*x3 + x3*x4 + x4*x5 + x5*x6 + x1", 7, 2), [0, 1], p=3),
}


@pytest.mark.parametrize("name", sorted(WIDTH_FREE_SETS))
def test_built_set_report_takes_its_width_from_the_zone_check(name, no_fallback, monkeypatch):
    # A built set fails at tau = Z, which the check, scanning one shift
    # past the zone, has already found: the width costs no further scan.
    cs = WIDTH_FREE_SETS[name]()
    pp = cs.params
    calls = _counting_fft(monkeypatch)
    tiles = _recording_tiles(monkeypatch)
    assert check_zccs(cs, pp.Z).ok
    alone = calls[:], tiles[:]
    calls.clear()
    tiles.clear()
    report = verify_code_set(cs, compute_max=True)
    assert (calls, tiles) == alone
    assert report.max_zcz == pp.Z == float_zcz_width(cs)
    assert report.is_ccc == (pp.K == pp.M)


def _peak(call):
    """The call's result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cached_verification_memory():
    cs = build_zccs(parse_gbf("2*x1*x2 + 2*x2*x3 + 2*x3*x4 + 2*x4*x5", 6, 4), [0], 1, p=5)
    pp = cs.params
    assert (pp.K, pp.M, pp.N, pp.Z, pp.delta) == (20, 4, 320, 64, 20)
    # The zone check keeps the spectra of every code: 1.97 MB in 2 blocks.
    plan = _plan(cs.exponents, pp.delta, range(pp.K), pp.Z + 1)
    assert _forward_ffts(plan) == len(plan.keep) == 2 and sum(plan.keep.values()) == 1966080
    report, peak = _peak(lambda: verify_code_set(cs, compute_max=True))
    assert report.is_zccs_at_claimed_z and report.max_zcz == pp.Z
    # About 2.9 MB: the 1.97 MB of kept spectra, one block's sums and forms.
    assert peak < 4e6


def test_plan_holds_one_entry_per_tile():
    # The p = 509, k = 1 shape of family_params at one code a block and one
    # harmonic: 2036 one-row tiles, each over the codes from its row on.
    plan, peak = _peak(lambda: correlate.scan_plan(2036, 4, 16288, 1, range(2036), 33, 0))
    assert plan.step == 1 and len(plan.tiles) == 2036
    assert all(codes == range(tile.start, 2036) for tile, _, codes in plan.tiles)
    # About 0.8 MB; a list of every tile's blocks would hold K^2/2 pairs.
    assert peak < 10e6


def test_reductions_of_a_root_order_1024_ccc(no_fallback):
    cs = build_ccc(parse_gbf(" + ".join(f"512*x{i}*x{i + 1}" for i in range(9)), 10, 1024), [])
    pp = cs.params
    assert (pp.K, pp.M, pp.N, pp.delta) == (2, 2, 1024, 1024)
    # One code's member sums at 256 primitive harmonics outgrow BLOCK_BYTES.
    assert len(_plan(cs.exponents, pp.delta, range(pp.K), pp.N).chunks) == 32
    upper = _upper(cs.exponents, pp.delta, 0, pp.N, code_reductions)
    for mu1 in range(pp.K):
        (hist,) = RECOUNT(cs.exponents, pp.delta, range(mu1, mu1 + 1), range(mu1, pp.K), 0, pp.N)
        assert np.array_equal(upper[mu1], reduced_forms(hist))
    report, peak = _peak(lambda: verify_code_set(cs, compute_max=True))
    assert report.is_ccc and report.max_zcz == pp.N
    # About 41 MB with the split.
    assert peak < 48e6


def test_complex_values_of_a_profile_stay_small(tmp_path):
    cs = corrupt_seeded(build_ccc(parse_gbf(" + ".join(f"512*x{i}*x{i + 1}" for i in range(9)), 10, 1024), []), 0)
    path, out = tmp_path / "ccc.json", tmp_path / "prof.csv"
    write_code_set(cs, str(path))
    status, peak = _peak(lambda: main(["corr", "--in", str(path), "--pair", "1,1", "--csv", str(out)]))
    assert status == 0
    # About 26 MB: the pair's harmonics and their product with the basis,
    # 8.4 MB each.  The histograms of every harmonic took 52.8 MB.
    assert peak < 32e6
    # The rows print the reference's values, to the last digit.
    lines = out.read_text().splitlines()
    codes, n = cs.codes, cs.params.N
    assert sum(line.endswith(",false") for line in lines) > 1000
    for tau in range(-n + 1, n, 15):
        value = code_accf(codes[1], codes[1], tau)
        z = value.to_complex()
        want = f"{tau},{z.real:.12g},{z.imag:.12g},{abs(z):.12g},false" if not value.is_zero() else f"{tau},0,0,0,true"
        assert lines[tau + n] == want


def test_out_of_bound_reductions_are_recounted(monkeypatch):
    # Adding 2^24 to every harmonic adds 2^24 * x^0 to every reduced form:
    # integers still, but beyond |c| <= M * (N - tau) * max|R| <= 5 * 2^20.
    harmonic_sums = correlate._harmonic_sums

    def shifted(*args):
        for tile, block, sums in harmonic_sums(*args):
            yield tile, block, sums + float(1 << 24)

    cs = corrupt_seeded(ENGINE_SETS["zccs_10x2x20_delta20"](), 2)
    pp = cs.params
    fast = _upper(cs.exponents, pp.delta, 0, pp.N, code_reductions)
    assert 1 << 24 > 5 * MAX_TERMS
    recounted = []

    def counting(*args):
        recounted.append(args)
        return RECOUNT(*args)

    monkeypatch.setattr(correlate, "_harmonic_sums", shifted)
    monkeypatch.setattr(correlate, "_recount", counting)
    slow = _upper(cs.exponents, pp.delta, 0, pp.N, code_reductions)
    # Every block is recounted, row by row of its tile.
    assert sorted(mu1 for args in recounted for mu1 in args[2]) == list(range(pp.K))
    for mu1 in range(pp.K):
        assert np.array_equal(slow[mu1], fast[mu1])


def test_recounted_pairs_print_the_same_corr_bytes(monkeypatch, tmp_path):
    # The shift of test_out_of_bound_reductions_are_recounted sends every
    # pair to the exact recount; zccs corr must not notice.
    harmonic_sums = correlate._harmonic_sums

    def shifted(*args):
        for tile, block, sums in harmonic_sums(*args):
            yield tile, block, sums + float(1 << 24)

    cs = corrupt_seeded(ENGINE_SETS["zccs_10x2x20_delta20"](), 2)
    path = tmp_path / "set.json"
    write_code_set(cs, str(path))
    pairs = ["0,0", "0,1", "1,0", "9,3", "2,9"]

    def csv_bytes():
        out = []
        for pair in pairs:
            assert main(["corr", "--in", str(path), "--pair", pair, "--csv", str(tmp_path / "prof.csv")]) == 0
            out.append((tmp_path / "prof.csv").read_bytes())
        return out

    fast = csv_bytes()
    recounted = []

    def counting(*args):
        recounted.append(args)
        return RECOUNT(*args)

    monkeypatch.setattr(correlate, "_harmonic_sums", shifted)
    monkeypatch.setattr(correlate, "_recount", counting)
    assert csv_bytes() == fast
    assert len(recounted) == len(pairs)
    assert any(b",false\r\n" in out and b",0,0,0,true\r\n" in out for out in fast)


def test_empty_or_outside_window_is_refused():
    cs = ENGINE_SETS["zccs_12x4x24_delta6"]()
    for t0, t1 in ((3, 3), (0, 25), (-1, 2), (0, 8.5), (0.0, 8)):
        with pytest.raises(ValueError):
            list(code_reductions(cs.exponents, cs.params.delta, range(2), t0, t1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_histograms_of_random_exponent_arrays(data):
    delta = data.draw(st.integers(1, 30), label="delta")
    k = data.draw(st.integers(1, 5), label="K")
    m = data.draw(st.integers(1, 4), label="M")
    n = data.draw(st.integers(1, 24), label="N")
    exps = data.draw(arrays(np.int64, (k, m, n), elements=st.integers(0, delta - 1)), label="exponents")
    codes = [Code(tuple(RootSequence(delta, seq) for seq in code), CodeLabel("C", 0)) for code in exps]
    first = data.draw(st.integers(0, k - 1), label="first row")
    t0 = data.draw(st.integers(0, n - 1), label="t0")
    t1 = data.draw(st.integers(t0 + 1, n), label="t1")
    mu1 = data.draw(st.integers(0, k - 1), label="mu1")
    mu2 = data.draw(st.integers(0, k - 1), label="mu2")
    cache_bytes = data.draw(st.sampled_from(CACHE_REGIMES), label="CACHE_BYTES")
    # Budgets of a harmonic of a code a block, of a few codes, and the default.
    block_bytes = data.draw(st.sampled_from((1, 2048, BLOCK_BYTES)), label="BLOCK_BYTES")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlate, "_recount", _refuse)
        patch.setattr(correlate, "CACHE_BYTES", cache_bytes)
        patch.setattr(correlate, "BLOCK_BYTES", block_bytes)
        upper = _upper(exps, delta, t0, t1, rows=range(first, k))
        reduced = _upper(exps, delta, t0, t1, code_reductions, range(first, k))
        both = code_pair_reductions(exps, delta, mu1, mu2)
    for row in range(first, k):
        assert np.array_equal(reduced[row], upper[row] @ reduction_matrix(delta))
        zero = ~reduced[row].any(axis=-1)
        for col in range(row, k):
            for side in (1, -1):
                for tau in range(t0, t1):
                    ref = code_accf(codes[row], codes[col], side * tau)
                    cell = (col - row, (1 - side) // 2, tau - t0)
                    assert np.array_equal(upper[row][cell], ref.coeffs)
                    assert zero[cell] == ref.is_zero()
    for tau in range(-n + 1, n):
        assert np.array_equal(both[tau + n - 1], code_accf(codes[mu1], codes[mu2], tau).coeffs @ reduction_matrix(delta))


def _reports_and_rows(cs, path):
    reports = [verify_code_set(cs, z, compute_max=True) for z in (1, cs.params.Z, cs.params.N)]
    rows = []
    for pair in ("0,0", "0,1", "3,2"):
        out = path.with_suffix(f".{pair.replace(',', '_')}.csv")
        assert main(["corr", "--in", str(path), "--pair", pair, "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            rows.append(list(csv.reader(fh)))
    return reports, rows


@pytest.mark.parametrize("seed", [None, 3])
def test_exact_fallback_reports_the_same(seed, monkeypatch, tmp_path):
    cs = ENGINE_SETS["zccs_12x4x24_delta6"]()
    if seed is not None:
        cs = corrupt_seeded(cs, seed)
    path = tmp_path / "set.json"
    write_code_set(cs, str(path))
    fast = _reports_and_rows(cs, path)

    recounted = []

    def counting(*args):
        recounted.append(args)
        return RECOUNT(*args)

    monkeypatch.setattr(correlate, "RESIDUAL_TOL", 0.0)
    monkeypatch.setattr(correlate, "_recount", counting)
    exact = _reports_and_rows(cs, path)
    assert recounted
    assert exact == fast
    if seed is not None:
        assert not fast[0][1].is_zccs_at_claimed_z
