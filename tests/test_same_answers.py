"""Same answers: ``zccs verify`` and ``zccs corr`` pinned on fixed sets.

Each case runs the CLI on one written code set and compares its exit
code and the SHA-256 of its output with ``same_answers.json``.  The sets
are the README 12x4x24 set, the 20x4x320 (delta = 20) and q = 4 CCC sets
that CI verifies, the 2x2x1024 delta = 1024 CCC, and the 24x8x768 and
28x4x1792 sets, whose spectra outgrow the scan's cache, each as built and
with one ``oracles.corrupt_seeded`` corruption.  So that the file cannot
freeze a wrong verdict, every verify case is also checked against the
float oracle: its exit code, witness and ``max_zcz``.  ``corr`` runs on
the pairs (0, 1) and (1, 0) of every set and, on a corrupted set, also
on the shifted code mu with itself and with code 0, (mu, mu) and
(0, mu), whose rows are mostly not exact zeros, so the digits of the
values are pinned too.  On the three smallest sets the library calls are
pinned as well, each checked against the float oracle: verify_code_set
with and without compute_max and check_zccs at z in {1, 2, Z, N}, and
max_zcz and check_ccc, by the verdict, witness, max_zcz and is_ccc they
return.  Last, ``zccs verify`` reads each document of the seeded
``docfuzz`` corpus from a file of its own, and each mutation kind is
pinned by one SHA-256 over the exit codes, stdout and stderr of its
documents in corpus order, so every refusal message is pinned byte for
byte.

Rewrite the expected file, printing the cases that changed, with

    PYTHONPATH=src:tests python tests/test_same_answers.py --write
"""
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from zccs.boolfn import parse_gbf
from zccs.cli import main, write_code_set
from zccs.construct import build_ccc, build_zccs
from zccs.verify import check_ccc, check_zccs, max_zcz, verify_code_set

from docfuzz import KINDS, mutations
from oracles import corrupt_seeded, first_violation, float_zcz_width

EXPECTED = Path(__file__).with_name("same_answers.json")
SEED = 0

SETS = {
    "readme_12x4x24": lambda: build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3),
    "k20_20x4x320": lambda: build_zccs(
        parse_gbf("2*x1*x2 + 2*x2*x3 + 2*x3*x4 + 2*x4*x5", 6, 4), [0], 1, p=5),
    "ccc_q4_m4": lambda: build_ccc(parse_gbf("2*x0*x1 + 2*x1*x2 + 2*x2*x3", 4, 4), [0, 3]),
    "ccc_delta1024": lambda: build_ccc(parse_gbf(" + ".join(f"512*x{i}*x{i + 1}" for i in range(9)), 10, 1024), []),
    "zccs_24x8x768": lambda: build_zccs(parse_gbf("x2*x3 + x3*x4 + x4*x5 + x5*x6 + x6*x7", 8, 2), [0, 1], p=3),
    "zccs_28x4x1792": lambda: build_zccs(
        parse_gbf("x0*x3 + x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x6 + x6*x7", 8, 2), [0], p=7),
}
# The sets whose library calls are pinned too; the float oracle's
# witness search is too slow for the larger ones.
LIBRARY_SETS = ("readme_12x4x24", "k20_20x4x320", "ccc_q4_m4")
VERIFY_FLAGS = {"plain": [], "max": ["--max-zcz"], "z1_max": ["--zcz", "1", "--max-zcz"]}


@cache
def code_set(name: str):
    """The set a case name starts with, as built or corrupted."""
    base, variant = name.rsplit("/", 1)
    cs = SETS[base]()
    return cs if variant == "built" else corrupt_seeded(cs, SEED)


def _set_names() -> list[str]:
    return [f"{base}/{variant}" for base in SETS for variant in ("built", "corrupt")]


def _corr_pairs(set_name: str) -> list[str]:
    """(0, 1) and (1, 0), and on a corrupted set (mu, mu) and (0, mu) for
    the code mu the corruption shifts, (1, 0) when mu = 0."""
    pairs = ["0,1", "1,0"]
    base, variant = set_name.rsplit("/", 1)
    if variant == "corrupt":
        shifted = (code_set(f"{base}/built").exponents != code_set(set_name).exponents).any(axis=(1, 2))
        (mu,) = np.flatnonzero(shifted).tolist()
        pairs += [f"{mu},{mu}", f"0,{mu}" if mu else "1,0"]
    return list(dict.fromkeys(pairs))


def _library_calls(set_name: str) -> list[str]:
    """verify_code_set with and without compute_max and check_zccs at
    each z in {1, 2, Z, N}, then max_zcz and check_ccc."""
    pp = code_set(set_name).params
    zones = sorted({1, 2, pp.Z, pp.N})
    calls = [f"verify_code_set-z{z}{max_}" for z in zones for max_ in ("", "-max")]
    return calls + [f"check_zccs-z{z}" for z in zones] + ["max_zcz", "check_ccc"]


VERIFY_CASES = [f"{s}/verify-{flag}" for s in _set_names() for flag in VERIFY_FLAGS]
CORR_CASES = [f"{s}/corr-{pair}" for s in _set_names() for pair in _corr_pairs(s)]
LIBRARY_CASES = [f"{s}/{call}" for s in _set_names() if s.split("/")[0] in LIBRARY_SETS for call in _library_calls(s)]
FUZZ_SEED, FUZZ_COUNT = 777, 3000
FUZZ_CASES = [f"fuzz/{kind}" for kind in KINDS]


def run_case(case: str, directory: Path) -> tuple[dict, str]:
    """The answer of one case, its exit code and output digest, and the
    output: stdout for verify, the CSV for corr."""
    set_name, command = case.rsplit("/", 1)
    path = directory / (set_name.replace("/", "-") + ".json")
    if not path.exists():
        write_code_set(code_set(set_name), str(path))
    if command.startswith("verify-"):
        with redirect_stdout(io.StringIO()) as out:
            code = main(["verify", "--in", str(path), *VERIFY_FLAGS[command.removeprefix("verify-")]])
        text = out.getvalue()
    else:
        csv = directory / "out.csv"
        code = main(["corr", "--in", str(path), "--pair", command.removeprefix("corr-"), "--csv", str(csv)])
        text = csv.read_bytes().decode()
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}, text


def library_answer(case: str) -> dict:
    """What one library call returns of the verdict, the witness, max_zcz
    and is_ccc."""
    set_name, call = case.rsplit("/", 1)
    cs = code_set(set_name)
    name, *args = call.split("-")
    if name == "verify_code_set":
        report = verify_code_set(cs, int(args[0][1:]), compute_max=args[1:] == ["max"])
        answer = {"ok": report.is_zccs_at_claimed_z, "witness": report.witness, "max_zcz": report.max_zcz,
                  "is_ccc": report.is_ccc}
    elif name == "check_zccs":
        answer = check_zccs(cs, int(args[0][1:]))._asdict()
    else:
        answer = {"max_zcz": max_zcz(cs)} if name == "max_zcz" else {"is_ccc": check_ccc(cs)}
    return json.loads(json.dumps(answer))  # the witness as a list


def fuzz_answers(directory: Path) -> dict:
    """The answer of each fuzz case: one SHA-256 over the exit code, stdout
    and stderr of ``zccs verify`` on each document of its kind, each read
    from a file of its own, in corpus order."""
    digests = {kind: hashlib.sha256() for kind in KINDS}
    for i, (kind, data) in enumerate(mutations(FUZZ_SEED, FUZZ_COUNT)):
        path = directory / f"fuzz-{i:04d}.json"
        path.write_bytes(data)
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            code = main(["verify", "--in", str(path)])
        digests[kind].update(json.dumps([code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    return {f"fuzz/{kind}": {"sha256": digest.hexdigest()} for kind, digest in digests.items()}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("same_answers")


@cache
def oracle_width(set_name: str) -> int:
    return float_zcz_width(code_set(set_name))


@cache
def oracle_witness(set_name: str, z: int) -> list[int] | None:
    witness = first_violation(code_set(set_name), z) if oracle_width(set_name) < z else None
    return None if witness is None else list(witness)


def oracle_answer(case: str) -> dict:
    """What the float oracle says of the fields a library call returns."""
    set_name, call = case.rsplit("/", 1)
    pp = code_set(set_name).params
    width = oracle_width(set_name)
    _, *args = call.split("-")
    if not args:  # max_zcz and check_ccc
        return {"max_zcz": width, "is_ccc": pp.K == pp.M and width == pp.N}
    z = int(args[0][1:])
    return {
        "ok": width >= z,
        "witness": oracle_witness(set_name, z),
        "max_zcz": width if args[1:] == ["max"] else None,
        "is_ccc": pp.K == pp.M and width == pp.N,
    }


def test_the_expected_file_lists_every_case(expected):
    assert sorted(expected) == sorted(VERIFY_CASES + CORR_CASES + LIBRARY_CASES + FUZZ_CASES)


@pytest.mark.parametrize("case", VERIFY_CASES)
def test_verify(case, expected, workdir):
    answer, text = run_case(case, workdir)
    assert answer == expected[case], text
    set_name, command = case.rsplit("/", 1)
    cs = code_set(set_name)
    flags = VERIFY_FLAGS[command.removeprefix("verify-")]
    z = int(flags[1]) if "--zcz" in flags else cs.params.Z
    width = oracle_width(set_name)
    lines = dict(line.split(": ", 1) for line in text.splitlines())
    assert answer["exit"] == (0 if width >= z else 1)
    witness = oracle_witness(set_name, z)
    assert lines.get("witness") == (None if witness is None else "mu1={} mu2={} tau={}".format(*witness))
    assert lines.get("max_zcz") == (str(width) if "--max-zcz" in flags else None)


@pytest.mark.parametrize("case", CORR_CASES)
def test_corr(case, expected, workdir):
    assert run_case(case, workdir)[0] == expected[case]


@pytest.mark.parametrize("case", LIBRARY_CASES)
def test_library_call(case, expected):
    answer = library_answer(case)
    assert answer == expected[case]
    oracle = oracle_answer(case)
    assert answer == {field: oracle[field] for field in answer}


@pytest.fixture(scope="module")
def fuzz_answered(tmp_path_factory):
    return fuzz_answers(tmp_path_factory.mktemp("fuzz"))


@pytest.mark.parametrize("case", FUZZ_CASES)
def test_fuzz_kind(case, expected, fuzz_answered):
    assert fuzz_answered[case] == expected[case]


def test_pinned_corr_values_have_fractional_digits(workdir):
    # A column printed with fewer digits, or rounded to integers, would
    # change a digest only if some pinned value has a fraction.
    texts = [run_case(case, workdir)[1] for case in CORR_CASES if "/corrupt/" in case]
    assert any(not float(row.split(",")[1]).is_integer() for text in texts for row in text.splitlines()[1:])


def test_exact_zero_parts_print_0(workdir):
    # Eight shifts of the q = 4 CCC's shifted code correlate to +-2i, whose
    # real part used to print as +-1.22464679915e-16; no pinned field is -0.
    rows = [row.split(",") for row in run_case("ccc_q4_m4/corrupt/corr-6,6", workdir)[1].splitlines()[1:]]
    assert sum(row[1:3] in (["0", "2"], ["0", "-2"]) for row in rows) == 8
    assert not any("-0" in row.split(",") for case in CORR_CASES for row in run_case(case, workdir)[1].splitlines())


def write(directory: Path) -> None:
    """Rewrite the expected file and print the cases whose answers changed."""
    old = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    new = {case: run_case(case, directory)[0] for case in VERIFY_CASES + CORR_CASES}
    new.update({case: library_answer(case) for case in LIBRARY_CASES})
    new.update(fuzz_answers(directory))
    for case in sorted(set(old) | set(new)):
        if old.get(case) != new.get(case):
            print(f"{case}: {old.get(case)} -> {new.get(case)}")
    EXPECTED.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
