"""Fuzzed code-set documents through both reader entry points and the CLI.

Every document of the seeded corpus from :mod:`docfuzz` must make
``zccs verify`` exit 0, 1 or 2 without raising, make ``read_code_set``
raise nothing but ``FileFormatError``, get the same verdict from
``read_code_set(path)`` and ``code_set_from_dict(json.loads(text))``,
and, when accepted, print the report ``verify_code_set`` gives.
"""
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest

from zccs.cli import code_set_from_dict, main, read_code_set
from zccs.errors import FileFormatError
from zccs.verify import verify_code_set

from docfuzz import KINDS, mutations

SEED, COUNT = 20211, 600


def _run_cli(path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--in", str(path)])
    return code, out.getvalue(), err.getvalue()


def _read(path):
    try:
        return read_code_set(str(path))
    except FileFormatError:
        return None


def _from_text(data):
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    try:
        return code_set_from_dict(doc)
    except FileFormatError:
        return None


def _report_text(cs):
    """What ``zccs verify`` prints for a set, from ``verify_code_set``."""
    report = verify_code_set(cs)
    lines = [
        f"is_zccs@Z={report.claimed_z}: {str(report.is_zccs_at_claimed_z).lower()}",
        f"peak: {report.peak} (expected {cs.params.M * cs.params.N})",
        f"optimal: {str(report.optimal).lower()}",
        f"is_ccc: {str(report.is_ccc).lower()}",
    ]
    if report.witness is not None:
        lines.append("witness: mu1={} mu2={} tau={}".format(*report.witness))
    return "\n".join(lines) + "\n", 0 if report.is_zccs_at_claimed_z else 1


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    # Every document gets a file of its own: rewriting one file in place
    # can cost tens of milliseconds where freeing blocks is slow.
    root = tmp_path_factory.mktemp("fuzz")
    docs = []
    for i, (kind, data) in enumerate(mutations(SEED, COUNT)):
        path = root / f"{i:04d}.{kind}.json"
        path.write_bytes(data)
        docs.append((kind, path, data))
    return docs


def test_corpus_is_deterministic(corpus):
    assert [data for _, data in mutations(SEED, COUNT)] == [data for _, _, data in corpus]


def test_fuzzed_documents(corpus):
    exits, gates = Counter(), Counter()
    for kind, path, data in corpus:
        where = f"{path.name}: {data[:200]!r}"
        code, out, err = _run_cli(path)
        assert code in (0, 1, 2), where
        exits[kind, code] += 1
        read = _read(path)  # raises anything but FileFormatError
        assert (read is None) == (code == 2), where
        from_text = _from_text(data)
        assert (read is None) == (from_text is None), where
        if read is None:
            assert err.startswith("error:") and out == "", where
            continue
        assert read == from_text, where
        assert (out, code) == _report_text(read), where
        gates[b"true" in data or b"false" in data] += 1
    # The corpus reaches every exit status, both sides of the reader's
    # true/false text test on an accepted document, and refusals of
    # every kind but the unmutated one.
    assert {code for _, code in exits} == {0, 1, 2}
    assert gates[True] and gates[False]
    assert {kind for kind, code in exits if code == 2} == set(KINDS) - {"unmutated"}
