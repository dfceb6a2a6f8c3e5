"""Run the committed mutation checks: every mutant must fail its tests.

    python tests/mutants.py [NAME ...]

Each entry of ``tests/mutants.json`` names a file of the checkout, an
exact source text that occurs once in it, the text that replaces it, and
the ids of the tests the replacement must make fail.  The runner first
runs all the named tests on an unchanged copy, where each must pass.
Then, for each entry (or each NAME given), it copies ``src/``, ``tests/``
and ``pyproject.toml`` to a temporary directory, applies the replacement
there and runs only the entry's tests, in a subprocess.  It exits 1 when
a named test passes under its mutant, did not run, or failed on the
unchanged copy, or when an entry's text is not found exactly once.  It
writes no file of the checkout.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")


def outcomes(tree: Path, ids: list[str]) -> dict[str, str]:
    """``{test id: PASSED/FAILED/ERROR/...}`` of running ``ids`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids]
    run = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    found = {}
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR", "SKIPPED", "XFAIL", "XPASS"):
            found[rest.split(" - ")[0]] = word
    return found


def copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def check(entry: dict, scratch: Path) -> list[str]:
    """The problems of one mutant: its text not found once, or a named test
    that did not fail under it."""
    tree = copy_tree(scratch / "mutant")
    path = tree / entry["file"]
    source = path.read_text()
    if source.count(entry["old"]) != 1:
        return [f"{entry['file']}: the text to replace occurs {source.count(entry['old'])} times, not once"]
    path.write_text(source.replace(entry["old"], entry["new"]))
    got = outcomes(tree, entry["fail"])
    return [f"{test} {got.get(test, 'did not run')} under the mutant" for test in entry["fail"]
            if got.get(test) not in ("FAILED", "ERROR")]


def main(names: list[str]) -> int:
    entries = json.loads(MUTANTS.read_text())
    unknown = set(names) - {entry["name"] for entry in entries}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    entries = [entry for entry in entries if not names or entry["name"] in names]
    problems = []
    with tempfile.TemporaryDirectory() as scratch:
        ids = list(dict.fromkeys(test for entry in entries for test in entry["fail"]))
        got = outcomes(copy_tree(Path(scratch) / "clean"), ids)
        problems += [f"unchanged: {test} {got.get(test, 'did not run')}" for test in ids if got.get(test) != "PASSED"]
        for entry in entries:
            with tempfile.TemporaryDirectory(dir=scratch) as each:
                found = check(entry, Path(each))
            print(f"{'ok  ' if not found else 'FAIL'} {entry['name']}: {len(entry['fail'])} tests")
            problems += [f"{entry['name']}: {problem}" for problem in found]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
