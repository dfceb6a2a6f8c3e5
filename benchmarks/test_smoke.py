"""Smoke run of the benchmark: every workload at tiny size, untraced and
traced, must finish, emit every declared metric with its unit, and name
every workload metric in its report.

    python3 -m pytest benchmarks/test_smoke.py -q
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
REPORTED = {
    "sweep_small": ["sweep_points_per_s"],
    "verify_large": ["generate_s", "verify_s", "verify_max_zcz_s", "corr_s"],
    "reject_corrupt": ["reject_s.p50", "reject_s.p90"],
}
ALWAYS = ["setup_s", "peak_rss_mb", "failed_frac"]


def run(cwd, *args):
    cmd = BENCH["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_emits_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        for name in REPORTED[workload] + ALWAYS:
            assert f"metric {name} = " in proc.stdout
    if workload != "reject_corrupt":
        assert result["failed"] == 0, proc.stdout
    if trace:
        assert os.path.exists(os.path.join(ROOT, ".bench_out", f"{workload}-seed3-trace1.spans.csv.gz"))


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "sweep_small", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
