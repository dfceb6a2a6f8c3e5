"""The three workloads.  Each one generates its inputs from the seed when
constructed (that is the set-up the benchmark times) and then hands out
the operations of one pass at a time.

An operation is one call the benchmark times plus a check of its output
that runs outside the timed region.  A check returns None when the
output is right, or a message saying what is wrong.
"""
from __future__ import annotations

import csv
import io
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import oracle


@dataclass(frozen=True)
class Op:
    kind: str
    group: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # False for malformed documents: their outcome counts in `failed` only,
    # not in the verdict-correctness flag (see README).
    well_formed: bool = True


def call_cli(z, argv: list[str]) -> tuple[int, str, str]:
    """Run ``zccs.cli.main`` in process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = z.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_cells(exps: np.ndarray, delta: int, z: int, rng: random.Random, n: int) -> str | None:
    """Re-check n seeded cells inside the zone with the float oracle."""
    K, M, N = exps.shape
    for _ in range(n):
        mu1, mu2, tau = rng.randrange(K), rng.randrange(K), rng.randrange(z)
        ideal = M * N if mu1 == mu2 and tau == 0 else 0
        value = oracle.cell(exps, delta, mu1, mu2, tau)
        if abs(value - ideal) > oracle.TOL:
            return f"float correlation at ({mu1},{mu2},{tau}) is {value:.6g}, expected {ideal}"
    return None


def _sizes(spec: inputs.FunctionSpec) -> dict:
    return dict(spec.shape, q=spec.q, p=spec.p, m=spec.m, k=spec.k)


class SweepSmall:
    """Design-space sweep: for each point of the grid, build and verify the
    sets of a seeded random certified function through the library API."""

    name = "sweep_small"
    POOL = 4  # distinct function sets; pass i uses pool entry i % POOL
    CELL_CAP = {"full": 2048, "tiny": 128}

    def __init__(self, z, seed: int, size: str, workdir: str):
        self.z = z
        self.seed = seed
        cap = self.CELL_CAP[size]
        grid = [
            (q, m, k, p)
            for q in (2, 4)
            for m in (2, 3, 4)
            for k in (0, 1, 2)
            for p in (2, 3, 5, 7)
            if k < m and (p * (2 << k)) ** 2 * (1 << m) <= cap
        ]
        rng = random.Random(seed)
        self.pool = [[inputs.random_function(rng, q, m, k, p) for q, m, k, p in grid] for _ in range(self.POOL)]

    def shape(self) -> dict:
        specs = self.pool[0]
        return {
            "points_per_pass": len(specs),
            "K_max": max(s.shape["K"] for s in specs),
            "N_max": max(s.shape["N"] for s in specs),
            "cells_per_pass": sum(s.shape["K"] ** 2 * s.shape["Z"] for s in specs),
        }

    def ops(self, index: int) -> list[Op]:
        return [
            Op("point", f"K{spec.shape['K']}", lambda spec=spec: self._point(spec),
               lambda out, spec=spec, i=i: self._check(spec, out, random.Random(f"{self.seed}:{index}:{i}")))
            for i, spec in enumerate(self.pool[index % self.POOL])
        ]

    def _point(self, spec):
        bf, con, ver = self.z.boolfn, self.z.construct, self.z.verify
        f = bf.parse_gbf(spec.text, spec.m, spec.q)
        bf.check_path_after_deletion(bf.graph_of(f), spec.deleted, spec.q)
        ccc = con.build_ccc(f, spec.deleted)
        is_ccc = ver.check_ccc(ccc)
        cs = con.build_zccs(f, spec.deleted, p=spec.p)
        cat = con.build_zccs_by_concatenation(f, spec.deleted, p=spec.p)
        report = ver.verify_code_set(cs, compute_max=True)
        return is_ccc, cs, cat, report

    @staticmethod
    def _check(spec, out, rng) -> str | None:
        is_ccc, cs, cat, report = out
        want, pp = spec.shape, cs.params
        got = {"K": pp.K, "M": pp.M, "N": pp.N, "Z": pp.Z, "delta": pp.delta}
        if got != want:
            return f"{spec.text}: shape {got}, expected {want}"
        if not is_ccc:
            return f"{spec.text}: base family is not complete complementary"
        if not (report.is_zccs_at_claimed_z and report.claimed_z == pp.Z):
            return f"{spec.text}: zone verdict fails at Z={pp.Z}"
        if pp.K != pp.M * (pp.N // pp.Z) or not report.optimal:
            return f"{spec.text}: set size misses K = M*floor(N/Z)"
        if report.max_zcz is None or report.max_zcz < pp.Z:
            return f"{spec.text}: max_zcz {report.max_zcz} < Z={pp.Z}"
        exps = inputs.exponents_of(cs)
        labels = [c.label for c in cs.codes]
        if labels != [c.label for c in cat.codes] or not np.array_equal(exps, inputs.exponents_of(cat)):
            return f"{spec.text}: PBF and concatenation sets differ"
        return check_cells(exps, pp.delta, pp.Z, rng, 8)


class VerifyLarge:
    """The CLI path on the large sets: generate, verify, verify --max-zcz
    and corr on a few seeded code pairs, run in process through main."""

    name = "verify_large"
    SETS = {"full": [(4, 5, 6, 1), (2, 3, 7, 2)], "tiny": [(2, 3, 3, 1), (4, 5, 2, 0)]}
    PAIRS = 8  # corr commands are short: eight per set keep corr_s steady
    SAMPLE_CELLS = 64

    def __init__(self, z, seed: int, size: str, workdir: str):
        self.z = z
        self.seed = seed
        rng = random.Random(seed)
        self.sets = []
        for q, p, m, k in self.SETS[size]:
            spec = inputs.random_function(rng, q, m, k, p)
            K = spec.shape["K"]
            pairs = [(rng.randrange(K), rng.randrange(K)) for _ in range(self.PAIRS)]
            tag = f"K{K}xM{spec.shape['M']}xN{spec.shape['N']}"
            self.sets.append((tag, spec, pairs, os.path.join(workdir, tag + ".json")))
        self.exps: dict[str, np.ndarray] = {}

    def shape(self) -> dict:
        return {tag: _sizes(spec) for tag, spec, _, _ in self.sets}

    def ops(self, index: int) -> list[Op]:
        ops = []
        for tag, spec, pairs, path in self.sets:
            cli = lambda argv: lambda: call_cli(self.z, argv)
            rng = random.Random(f"{self.seed}:{index}:{tag}")
            ops += [
                Op("generate", tag, cli(inputs.cli_args(spec, path)), lambda out, t=tag, s=spec, p=path: self._generated(t, s, p, out)),
                Op("verify", tag, cli(["verify", "--in", path]), lambda out, t=tag, s=spec, r=rng: self._verified(t, s, out, r, False)),
                Op("verify_max_zcz", tag, cli(["verify", "--in", path, "--max-zcz"]), lambda out, t=tag, s=spec, r=rng: self._verified(t, s, out, r, True)),
            ]
            for n, (mu1, mu2) in enumerate(pairs):
                csv_path = f"{path[:-5]}.corr{n}.csv"
                argv = ["corr", "--in", path, "--pair", f"{mu1},{mu2}", "--csv", csv_path]
                ops.append(Op("corr", tag, cli(argv), lambda out, t=tag, s=spec, a=mu1, b=mu2, c=csv_path: self._corr(t, s, a, b, c, out)))
        return ops

    def _generated(self, tag, spec, path, out) -> str | None:
        code, stdout, _ = out
        sh = spec.shape
        line = f"K={sh['K']} M={sh['M']} N={sh['N']} Z={sh['Z']} delta={sh['delta']}"
        if code != 0 or line not in stdout:
            return f"generate {tag}: exit {code}, output {stdout.strip()!r}"
        with open(path) as fh:
            self.exps[tag] = inputs.document_exponents(json.load(fh))
        if self.exps[tag].shape != (sh["K"], sh["M"], sh["N"]):
            return f"generate {tag}: file holds shape {self.exps[tag].shape}"
        return None

    def _verified(self, tag, spec, out, rng, with_max) -> str | None:
        code, stdout, _ = out
        Z = spec.shape["Z"]
        if code != 0 or f"is_zccs@Z={Z}: true" not in stdout:
            return f"verify {tag}: exit {code}, output {stdout.strip()!r}"
        if with_max and f"max_zcz: {Z}\n" not in stdout:
            return f"verify --max-zcz {tag}: expected max_zcz {Z}, output {stdout.strip()!r}"
        if tag not in self.exps:
            return f"verify {tag}: no generated file to re-check"
        return check_cells(self.exps[tag], spec.shape["delta"], Z, rng, self.SAMPLE_CELLS)

    def _corr(self, tag, spec, mu1, mu2, csv_path, out) -> str | None:
        code = out[0]
        if code != 0 or tag not in self.exps:
            return f"corr {tag}: exit {code}"
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        N = spec.shape["N"]
        expected = oracle.pair_profile(self.exps[tag], spec.shape["delta"], mu1, mu2)
        if [int(r["tau"]) for r in rows] != list(range(-N + 1, N)):
            return f"corr {tag}: wrong shift column"
        for r, want in zip(rows, expected):
            value = complex(float(r["re"]), float(r["im"]))
            if (r["exact_zero"] == "true") != (abs(want) < oracle.TOL):
                return f"corr {tag} tau={r['tau']}: exact_zero={r['exact_zero']} but |value|={abs(want):.3g}"
            if abs(value - want) > oracle.TOL + 1e-9 * abs(want):
                return f"corr {tag} tau={r['tau']}: value {value} differs from float {want}"
        return None


WITNESS = re.compile(r"witness: mu1=(\d+) mu2=(\d+) tau=(\d+)")


class RejectCorrupt:
    """Broken input to ``zccs verify``: seeded corruptions of the two
    mid-size sets (exit 1 with a witness) and one malformed document per
    class the reader must refuse (exit 2)."""

    name = "reject_corrupt"
    SETS = VerifyLarge.SETS
    EXPONENT_CASES = 6
    SWAP_CASES = 2

    def __init__(self, z, seed: int, size: str, workdir: str):
        self.z = z
        rng = random.Random(seed)
        self.cases: list[inputs.RejectCase] = []
        self.sizes = {}
        for n, (q, p, m, k) in enumerate(self.SETS[size]):
            spec = inputs.random_function(rng, q, m, k, p)
            cs = z.construct.build_zccs(z.boolfn.parse_gbf(spec.text, m, q), spec.deleted, p=p)
            doc = inputs.document(cs)
            tag = f"K{cs.params.K}xM{cs.params.M}xN{cs.params.N}"
            self.sizes[tag] = _sizes(spec)
            path_of = lambda name: os.path.join(workdir, name + ".json")
            self.cases += inputs.corrupted_cases(rng, doc, tag, path_of, self.EXPONENT_CASES, self.SWAP_CASES)
            if n == 0:
                # Malformed documents come from the smaller set: a reader
                # that accepts one runs a full verification of it.
                self.cases += inputs.malformed_cases(rng, doc, tag, path_of)
        self.expected: dict[str, tuple | None] = {}

    def shape(self) -> dict:
        return dict(self.sizes, files_per_pass=len(self.cases))

    def ops(self, index: int) -> list[Op]:
        ops = []
        for case in self.cases:
            argv = ["verify", "--in", case.path] + (["--zcz", str(case.zcz)] if case.zcz else [])
            kind = "corrupt" if case.expect == 1 else "malformed"
            ops.append(Op(kind, case.name, lambda argv=argv: call_cli(self.z, argv),
                          lambda out, case=case: self._check(case, out), case.expect == 1))
        return ops

    def _check(self, case, out) -> str | None:
        code, stdout, stderr = out
        if case.expect == 2:
            if code != 2 or not stderr.startswith("error:"):
                return f"{case.name}: expected exit 2 with an error, got exit {code}"
            return None
        found = WITNESS.search(stdout)
        if code != 1 or not found:
            return f"{case.name}: expected exit 1 with a witness, got exit {code}"
        witness = tuple(int(g) for g in found.groups())
        _, M, N = case.exps.shape
        if case.name not in self.expected:
            self.expected[case.name] = oracle.first_violation(case.exps, case.delta, case.z)
        mu1, mu2, tau = witness
        ideal = M * N if mu1 == mu2 and tau == 0 else 0
        if abs(oracle.cell(case.exps, case.delta, mu1, mu2, tau) - ideal) <= oracle.TOL:
            return f"{case.name}: witness {witness} is ideal in float"
        if witness != self.expected[case.name]:
            return f"{case.name}: witness {witness}, float scan finds {self.expected[case.name]} first"
        return None


WORKLOADS = {w.name: w for w in (SweepSmall, VerifyLarge, RejectCorrupt)}
