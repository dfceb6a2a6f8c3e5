"""Seeded input generation: Boolean-function texts, code-set documents,
corrupted sets and malformed documents.

Nothing here calls into the program under test except the builders that
produce the reference sets the reject workload corrupts; the documents
themselves are written by this module in the documented format
(format_version 1), not by ``zccs.cli.write_code_set``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import lcm

import numpy as np


@dataclass(frozen=True)
class FunctionSpec:
    """A second-order function over Z_q in text form plus its construction
    parameters; ``deleted`` are the k vertices removed to leave the path."""

    text: str
    q: int
    m: int
    k: int
    p: int
    deleted: tuple[int, ...]

    @property
    def shape(self) -> dict:
        """K, M, N, Z and delta of the ZCCS built from this function."""
        return {
            "K": self.p * (2 << self.k),
            "M": 2 << self.k,
            "N": self.p << self.m,
            "Z": 1 << self.m,
            "delta": lcm(self.p, self.q),
        }


def random_function(rng: random.Random, q: int, m: int, k: int, p: int) -> FunctionSpec:
    """Random certified function: the m-k kept vertices form a random path
    whose edges weigh q/2; random linear terms, random edges touching the
    deleted vertices and a random constant are added on top."""
    verts = list(range(m))
    rng.shuffle(verts)
    deleted, path = sorted(verts[:k]), verts[k:]
    terms = [(q // 2, tuple(sorted(pair))) for pair in zip(path, path[1:])]
    terms += [(c, (v,)) for v in range(m) if (c := rng.randrange(q))]
    for d in deleted:
        for v in range(m):
            if v != d and not (v in deleted and v < d) and rng.random() < 0.5:
                terms.append((rng.randrange(1, q), tuple(sorted((d, v)))))
    rng.shuffle(terms)
    parts = [f"{c}*" + "*".join(f"x{v}" for v in mono) for c, mono in terms]
    if const := rng.randrange(q):
        parts.append(str(const))
    return FunctionSpec(" + ".join(parts) or "0", q, m, k, p, tuple(deleted))


def cli_args(spec: FunctionSpec, out: str) -> list[str]:
    """``zccs generate`` arguments that build the ZCCS of ``spec``."""
    args = ["generate", "--kind", "zccs", "--q", str(spec.q), "--p", str(spec.p),
            "--m", str(spec.m), "--f", spec.text, "--out", out]
    if spec.deleted:
        args += ["--delete", ",".join(f"x{v}" for v in spec.deleted)]
    return args


def exponents_of(code_set) -> np.ndarray:
    """(K, M, N) exponent array of a built ``CodeSet``."""
    return np.array([[s.exponents for s in c.sequences] for c in code_set.codes], dtype=np.int64)


def document(code_set) -> dict:
    """Format-version-1 document of a built set, written field by field."""
    pp = code_set.params
    names = ("K", "M", "N", "Z", "q", "m", "k", "delta", "p", "s")
    return {
        "format_version": 1,
        "delta": pp.delta,
        "params": {name: getattr(pp, name) for name in names},
        "codes": [
            {
                "label": {"family": c.label.family, "t": c.label.t, "lam": c.label.lam},
                "sequences": [s.exponents.tolist() for s in c.sequences],
            }
            for c in code_set.codes
        ],
    }


def document_exponents(doc: dict) -> np.ndarray:
    return np.array([c["sequences"] for c in doc["codes"]], dtype=np.int64)


def with_exponents(doc: dict, exps: np.ndarray) -> dict:
    """Fresh copy of ``doc`` (params included) carrying ``exps``."""
    codes = [{"label": dict(c["label"]), "sequences": rows} for c, rows in zip(doc["codes"], exps.tolist())]
    return {**doc, "params": dict(doc["params"]), "codes": codes}


def write_document(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


@dataclass(frozen=True)
class RejectCase:
    """One ``zccs verify`` input of the reject workload.

    ``expect`` is 1 for a well-formed set that violates the zone ``z`` it
    is verified against (``exps`` then holds its exponents for the float
    re-check) and 2 for a malformed document.  ``zcz`` is the ``--zcz``
    argument, if any.
    """

    name: str
    path: str
    zcz: int | None
    expect: int
    exps: np.ndarray | None = None
    delta: int = 0
    z: int = 0


def _spread(i: int, n: int, size: int) -> int:
    """Centre of the i-th of n equal slices of range(size)."""
    return (2 * i + 1) * size // (2 * n)


def corrupted_cases(rng, doc, tag, path_of, n_exponent, n_swap) -> list[RejectCase]:
    """Well-formed sets that break the zone, each of which verify must
    reject with exit status 1 and a witness.

    The first corrupted code of each case sits at evenly spaced code
    indices; member, position, new exponent and swap partner are seeded.
    The verifier scans code pairs in order and stops at the first witness,
    so the code index sets how much it scans: spacing it evenly gives every
    seed the same spread of witness depths.
    """
    base = document_exponents(doc)
    delta, (K, M, N), Z = doc["delta"], base.shape, doc["params"]["Z"]
    cases = []
    for i in range(n_exponent):
        exps = base.copy()
        c, j, pos = _spread(i, n_exponent, K), rng.randrange(M), rng.randrange(N)
        exps[c, j, pos] = (exps[c, j, pos] + rng.randrange(1, delta)) % delta
        cases.append((f"{tag}.exponent{i}", exps, None))
    for i in range(n_swap):
        exps = base.copy()
        a = _spread(i, n_swap, K - 1)
        b = rng.randrange(a + 1, K)
        j = rng.choice([j for j in range(M) if not np.array_equal(base[a, j], base[b, j])])
        exps[[a, b], j] = exps[[b, a], j]
        cases.append((f"{tag}.swap{i}", exps, None))
    cases.append((f"{tag}.zcz_plus_one", base, Z + 1))
    out = []
    for name, exps, zcz in cases:
        path = path_of(name)
        write_document(with_exponents(doc, exps), path)
        out.append(RejectCase(name, path, zcz, 1, exps, delta, zcz or Z))
    return out


def malformed_cases(rng, doc, tag, path_of) -> list[RejectCase]:
    """One document per malformed class the reader must refuse (exit 2)."""
    base = document_exponents(doc)
    K, M, N = base.shape
    c, j = rng.randrange(K), rng.randrange(M)
    docs = {}

    bad = with_exponents(doc, base)
    pos = rng.randrange(N)
    bad["codes"][c]["sequences"][j][pos] = float(base[c, j, pos]) + 0.5
    docs["float_exponent"] = bad

    bad = with_exponents(doc, base)
    pos = rng.choice(np.flatnonzero(base[c, j] <= 1).tolist())
    bad["codes"][c]["sequences"][j][pos] = bool(base[c, j, pos])
    docs["bool_exponent"] = bad

    bad = with_exponents(doc, base)
    bad["params"]["Z"] = N + 1
    docs["z_above_n"] = bad

    bad = with_exponents(doc, base)
    bad["codes"][c]["label"]["family"] = "W"
    docs["unknown_family"] = bad

    bad = with_exponents(doc, base)
    bad["delta"] = bad["params"]["delta"] = 2 * doc["delta"]
    docs["inconsistent_delta"] = bad

    bad = with_exponents(doc, base)
    del bad["codes"][c]
    docs["code_count_mismatch"] = bad

    out = []
    for kind, bad in docs.items():
        path = path_of(f"{tag}.{kind}")
        write_document(bad, path)
        out.append(RejectCase(f"{tag}.{kind}", path, None, 2))
    return out
