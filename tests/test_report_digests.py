"""Verifier reports pinned on a seeded design-space sweep.

The sets are the ZCCS and base CCC of seeded random path functions at
every point of the sweep grid (q in (2, 4), m in (2, 3, 4), k < m deleted
vertices with k in (0, 1, 2), p in (2, 3, 5, 7), and (p * 2^(k+1))^2 * 2^m
at most 2048), in four pools, and the ZCCS of two larger shapes, 20x4x320
(q = 4, p = 5, m = 6, k = 1) and 24x8x384 (q = 2, p = 3, m = 7, k = 2).
Each set is verified with ``verify_code_set(compute_max=True)`` as built,
after each of three seeded single-exponent corruptions and, for a ZCCS,
at the claimed width Z + 1.  One SHA-256 per set over its reports is
compared with ``report_digests.json``, and every report's ``max_zcz``
with the float oracle's width, so that the file cannot freeze a wrong
width.

Rewrite the expected file, printing the sets that changed, with

    PYTHONPATH=src:tests python tests/test_report_digests.py --write
"""
import dataclasses
import hashlib
import json
import random
import sys
from functools import cache
from pathlib import Path

import pytest

from zccs.boolfn import parse_gbf
from zccs.construct import build_ccc, build_zccs
from zccs.verify import verify_code_set

from oracles import corrupt_seeded, float_zcz_width

EXPECTED = Path(__file__).with_name("report_digests.json")
SEED, POOLS, CORRUPTIONS = 1, 4, 3
GRID = [(q, m, k, p) for q in (2, 4) for m in (2, 3, 4) for k in (0, 1, 2) for p in (2, 3, 5, 7)
        if k < m and (p * (2 << k)) ** 2 * (1 << m) <= 2048]
LARGE = [(4, 6, 1, 5), (2, 7, 2, 3)]


def _function(rng: random.Random, q: int, m: int, k: int):
    """A seeded certified function and its deleted vertices: a random path
    over the m - k kept vertices with edges of weight q/2, random linear
    terms and constant, and random edges at the deleted vertices."""
    verts = list(range(m))
    rng.shuffle(verts)
    deleted, path = sorted(verts[:k]), verts[k:]
    terms = [f"{q // 2}*x{a}*x{b}" for a, b in zip(path, path[1:])]
    terms += [f"{c}*x{v}" for v in range(m) if (c := rng.randrange(q))]
    terms += [f"{rng.randrange(1, q)}*x{d}*x{v}" for d in deleted for v in range(m)
              if v != d and not (v in deleted and v < d) and rng.random() < 0.5]
    terms.append(str(rng.randrange(q)))
    return parse_gbf(" + ".join(terms), m, q), deleted


@cache
def _sets() -> dict:
    """Each set's builder, by name: the sweep pools' ZCCS and CCC, then the large ZCCS."""
    rng, sets = random.Random(SEED), {}
    for pool in range(POOLS):
        for q, m, k, p in GRID:
            f, deleted = _function(rng, q, m, k)
            sets[f"sweep{pool}/q{q}m{m}k{k}p{p}/zccs"] = lambda f=f, d=deleted, p=p: build_zccs(f, d, p=p)
            sets[f"sweep{pool}/q{q}m{m}k{k}p{p}/ccc"] = lambda f=f, d=deleted: build_ccc(f, d)
    for q, m, k, p in LARGE:
        f, deleted = _function(rng, q, m, k)
        sets[f"large/q{q}m{m}k{k}p{p}/zccs"] = lambda f=f, d=deleted, p=p: build_zccs(f, d, p=p)
    return sets


NAMES = list(_sets())


def reports(name: str) -> list:
    """The set's reports, each with the set it verified: as built, after
    each corruption, and for a ZCCS at width Z + 1."""
    built = _sets()[name]()
    runs = [(built, None)] + [(corrupt_seeded(built, seed), None) for seed in range(CORRUPTIONS)]
    if name.endswith("/zccs"):
        runs.append((built, built.params.Z + 1))
    return [(cs, verify_code_set(cs, z, compute_max=True)) for cs, z in runs]


def digest(pairs: list) -> str:
    text = json.dumps([dataclasses.astuple(report) for _, report in pairs])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


def test_the_expected_file_lists_every_set(expected):
    assert len(NAMES) == 2 * POOLS * len(GRID) + len(LARGE) == 290
    assert sorted(expected) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_reports(name, expected):
    pairs = reports(name)
    assert digest(pairs) == expected[name]
    for cs, report in pairs:
        assert report.max_zcz == float_zcz_width(cs)


def write() -> None:
    """Rewrite the expected file and print the sets whose digests changed."""
    old = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    new = {name: digest(reports(name)) for name in NAMES}
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            print(f"{name}: {old.get(name)} -> {new.get(name)}")
    EXPECTED.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write()
