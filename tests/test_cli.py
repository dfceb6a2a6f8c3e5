import csv
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import time
from dataclasses import replace
from itertools import product
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from zccs import cli
from zccs.algebra import MAX_DELTA, form_values
from zccs.boolfn import GeneralizedBooleanFunction, parse_gbf
from zccs.cli import build_parser, code_set_from_dict, code_set_to_dict, main, read_code_set, write_code_set
from zccs.construct import CodeLabel, CodeSet, build_ccc, build_zccs
from zccs.correlate import code_pair_reductions
from zccs.errors import FileFormatError, InvalidModulus, InvalidParams, ParseError
from zccs.reference import profile

from oracles import corrupt_seeded


@pytest.fixture()
def flagship_file(tmp_path):
    path = tmp_path / "set.json"
    rc = main([
        "generate", "--kind", "zccs", "--q", "2", "--p", "3", "--m", "3",
        "--f", "x1*x2", "--delete", "x0", "--gamma", "x2", "--out", str(path),
    ])
    assert rc == 0
    return path


class TestGenerate:
    def test_summary_line(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        rc = main([
            "generate", "--kind", "zccs", "--q", "2", "--p", "3", "--m", "3",
            "--f", "x1*x2", "--delete", "x0", "--gamma", "x2", "--out", str(path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "K=12 M=4 N=24 Z=8 delta=6" in out

    def test_round_trip_is_bit_identical(self, flagship_file):
        loaded = read_code_set(str(flagship_file))
        built = build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3)
        assert loaded == built

    def test_ccc_generation(self, tmp_path, capsys):
        path = tmp_path / "ccc.json"
        rc = main([
            "generate", "--kind", "ccc", "--q", "2", "--m", "2",
            "--f", "x0*x1", "--out", str(path),
        ])
        assert rc == 0
        assert "K=2 M=2 N=4" in capsys.readouterr().out
        assert read_code_set(str(path)) == build_ccc(parse_gbf("x0*x1", 2, 2), [])

    def test_zccs_requires_p(self, tmp_path, capsys):
        rc = main([
            "generate", "--kind", "zccs", "--q", "2", "--m", "3",
            "--f", "x1*x2", "--delete", "x0", "--out", str(tmp_path / "x.json"),
        ])
        assert rc != 0
        assert "requires --p" in capsys.readouterr().err

    def test_builder_errors_are_diagnosed(self, tmp_path, capsys):
        rc = main([
            "generate", "--kind", "zccs", "--q", "2", "--p", "3", "--m", "3",
            "--f", "x0*x1 + x1*x2 + x0*x2", "--out", str(tmp_path / "x.json"),
        ])
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--p", "3"], ["--s", "2"]])
    def test_p_or_s_with_a_ccc_exits_2(self, option, tmp_path, capsys):
        rc = main([
            "generate", "--kind", "ccc", "--q", "2", "--m", "3",
            "--f", "x0*x1 + x1*x2", *option, "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 2
        assert "error: --p/--s only apply to --kind zccs" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--gamma", "x²"], ["--delete", "x0,x²"]])
    def test_non_decimal_variable_exits_2(self, option, tmp_path, capsys):
        rc = main([
            "generate", "--kind", "ccc", "--q", "2", "--m", "3",
            "--f", "x0*x1 + x1*x2", *option, "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        ["--f", "x٠*x١ + x١*x٢ + ٣"],  # r"\d" reads x0*x1 + x1*x2 + 3
        ["--f", "x0*x1 + x1*x2", "--delete", "x٠"],  # isdecimal() passes x0
    ], ids=["function", "delete"])
    def test_digits_other_than_ascii_exit_2(self, option, tmp_path, capsys):
        rc = main(["generate", "--kind", "ccc", "--q", "2", "--m", "3", *option, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", [
        ["--f", "9" * 5000 + "*x0*x1"],
        ["--f", "x0*x1", "--delete", "x" + "1" * 5000],
    ])
    def test_an_integer_too_long_to_convert_exits_2(self, option, tmp_path, capsys):
        # int() refuses more than 4300 digits with a ValueError: not a
        # verdict, so not exit 1
        rc = main(["generate", "--kind", "ccc", "--q", "2", "--m", "2", *option, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_an_integer_too_long_for_the_function_reports_the_parse_error(self, tmp_path, capsys):
        text = "9" * 5000 + "*x0*x1"
        with pytest.raises(ParseError) as refused:
            parse_gbf(text, 2, 2)
        rc = main(["generate", "--kind", "ccc", "--q", "2", "--m", "2", "--f", text, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {refused.value}\n"


class TestVerify:
    def test_passing_file(self, flagship_file, capsys):
        rc = main(["verify", "--in", str(flagship_file), "--zcz", "8", "--max-zcz"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "is_zccs@Z=8: true" in out
        assert "peak: 96 (expected 96)" in out
        assert "optimal: true" in out
        assert "max_zcz: 8" in out

    def test_default_width_is_claimed(self, flagship_file, capsys):
        rc = main(["verify", "--in", str(flagship_file)])
        assert rc == 0
        assert "is_zccs@Z=8: true" in capsys.readouterr().out

    def test_corrupted_file_fails_with_witness(self, flagship_file, capsys):
        doc = json.loads(flagship_file.read_text())
        doc["codes"][0]["sequences"][0][0] = (doc["codes"][0]["sequences"][0][0] + 1) % 6
        flagship_file.write_text(json.dumps(doc))
        rc = main(["verify", "--in", str(flagship_file)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "is_zccs@Z=8: false" in out
        assert "witness: mu1=0 mu2=0 tau=1" in out

    def test_zero_width_rejected(self, flagship_file, capsys):
        rc = main(["verify", "--in", str(flagship_file), "--zcz", "0"])
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["verify", "--in", str(bad)])
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b'{"format_version": 1, "delta": "\xff"}',  # not UTF-8
        b"[" * 200_000 + b"]" * 200_000,  # nested beyond the decoder's recursion limit
    ], ids=["non_utf8", "deep_nesting"])
    def test_undecodable_file_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["verify", "--in", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_main_builds_one_parser_for_every_call(flagship_file, tmp_path, capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(build_parser())
        return built[-1]

    path = str(flagship_file)
    calls = [
        ["verify", "--in", path, "--max-zcz"],
        ["verify", "--in", path],
        ["corr", "--in", path, "--pair", "0,1"],
        ["verify", "--in", path, "--zcz", "4", "--max-zcz"],
        ["generate", "--kind", "ccc", "--q", "2", "--m", "2", "--f", "x0*x1", "--out", str(tmp_path / "ccc.json")],
        ["verify", "--in", path],
    ]
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        back_to_back = []
        for argv in calls:
            back_to_back.append((main(argv), capsys.readouterr()))
            with pytest.raises(SystemExit):  # a refused command line leaves no state
                main(["verify", "--zcz", "3"])
            capsys.readouterr()
        assert len(built) == 1
        assert "max_zcz: 8" in back_to_back[0][1].out and "max_zcz" not in back_to_back[1][1].out
        assert "max_zcz" not in back_to_back[5][1].out
        for argv, result in zip(calls, back_to_back):
            cli._parser.cache_clear()
            assert (main(argv), capsys.readouterr()) == result
    finally:
        cli._parser.cache_clear()


class TestCorr:
    def test_auto_pair_peak_row(self, flagship_file, capsys):
        rc = main(["corr", "--in", str(flagship_file), "--pair", "0,0"])
        assert rc == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 2 * 24 - 1
        by_tau = {int(r["tau"]): r for r in rows}
        assert by_tau[0]["re"] == "96"
        assert by_tau[0]["im"] == "0"
        assert by_tau[0]["exact_zero"] == "false"
        assert 23 in by_tau and 24 not in by_tau

    def test_cross_pair_zone_rows(self, flagship_file, tmp_path):
        out = tmp_path / "prof.csv"
        rc = main(["corr", "--in", str(flagship_file), "--pair", "0,1", "--csv", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if abs(int(row["tau"])) < 8:
                assert row["exact_zero"] == "true"
                assert abs(float(row["abs"])) < 1e-9

    def test_bytes_match_csv_writer(self, flagship_file, tmp_path, capsys):
        cs = read_code_set(str(flagship_file))
        codes, n = cs.codes, cs.params.N
        prof = profile(codes[0], codes[4])
        ref = io.StringIO()
        writer = csv.writer(ref)
        writer.writerow(["tau", "re", "im", "abs", "exact_zero"])
        for tau in range(-n + 1, n):
            value = prof.values[tau]
            z = value.to_complex()
            writer.writerow([tau, f"{z.real:.12g}", f"{z.imag:.12g}", f"{abs(z):.12g}", str(value.is_zero()).lower()])
        rows = list(csv.DictReader(io.StringIO(ref.getvalue())))
        assert any(row["exact_zero"] == "true" for row in rows)
        assert any(row["re"].startswith("-") for row in rows) and any(row["im"].startswith("-") for row in rows)
        out = tmp_path / "prof.csv"
        assert main(["corr", "--in", str(flagship_file), "--pair", "0,4", "--csv", str(out)]) == 0
        assert out.read_bytes() == ref.getvalue().encode()
        assert main(["corr", "--in", str(flagship_file), "--pair", "0,4"]) == 0
        assert capsys.readouterr().out == ref.getvalue()

    @pytest.mark.parametrize("build", [
        lambda: build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3, s=2),
        lambda: build_zccs(parse_gbf("2*x0*x1 + x1", 2, 4), [], 0, p=5),
        lambda: build_zccs(parse_gbf("2*x0*x1 + 3*x0 + 1", 2, 4), [], 0, p=7),
        lambda: build_ccc(parse_gbf("2*x0*x1 + 2*x1*x2 + 2*x2*x3", 4, 4), [0, 3]),
        lambda: corrupt_seeded(build_zccs(parse_gbf("2*x1*x2", 3, 4), [0], p=5), 2),
    ])
    def test_bytes_match_a_per_row_format(self, build, tmp_path, capsys):
        # The reference: one f-string per row over the same values.
        cs = build()
        path = tmp_path / "set.json"
        write_code_set(cs, str(path))
        n, k = cs.params.N, cs.params.K
        for mu1, mu2 in {(0, 0), (0, 1), (1, 0), (k - 1, 0), (k // 2, k - 1)}:
            c = code_pair_reductions(cs.exponents, cs.params.delta, mu1, mu2)
            rows = ["tau,re,im,abs,exact_zero"] + [
                f"{tau},{z.real:.12g},{z.imag:.12g},{abs(z):.12g},false" if form.any() else f"{tau},0,0,0,true"
                for tau, form, z in zip(range(-n + 1, n), c, form_values(c, cs.params.delta).tolist())
            ]
            assert main(["corr", "--in", str(path), "--pair", f"{mu1},{mu2}"]) == 0
            assert capsys.readouterr().out == "\r\n".join(rows) + "\r\n"

    def test_exact_zero_rows_read_zero(self, flagship_file, capsys):
        # Decided by the exact test, so no round-off and no -0.  Every row of
        # the pair (0, 1) is zero; (0, 4) has nonzero rows too.
        for pair, nonzero in (("0,1", 0), ("0,4", 4)):
            assert main(["corr", "--in", str(flagship_file), "--pair", pair]) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            zero = [line for line in lines if line.endswith(",true")]
            assert "-7,0,0,0,true" in zero and "0,0,0,0,true" in zero
            assert all(line == f"{line.split(',')[0]},0,0,0,true" for line in zero)
            assert len(lines) - len(zero) == nonzero

    @pytest.mark.parametrize("pair", ["1,2,3", "a,b", "0,1_0", "0,+1", "٠,1"])
    def test_malformed_pair_exits_2(self, pair, flagship_file, capsys):
        assert main(["corr", "--in", str(flagship_file), "--pair", pair]) == 2
        assert f"error: --pair expects 'mu1,mu2', got {pair!r}" in capsys.readouterr().err

    def test_pair_out_of_range(self, flagship_file, capsys):
        rc = main(["corr", "--in", str(flagship_file), "--pair", "0,12"])
        assert rc != 0
        assert "out of range" in capsys.readouterr().err


@pytest.fixture(params=["generate", "corr"])
def writer_argv(request, flagship_file):
    """The argv of a command that writes its output to a path appended to it."""
    if request.param == "generate":
        return [
            "generate", "--kind", "zccs", "--q", "2", "--p", "3", "--m", "3",
            "--f", "x1*x2", "--delete", "x0", "--gamma", "x2", "--out",
        ]
    return ["corr", "--in", str(flagship_file), "--pair", "0,4", "--csv"]


@pytest.fixture()
def out_dir(tmp_path):
    path = tmp_path / "out"
    path.mkdir()
    return path


class _FullDisk:
    """A file whose writes fail as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestOutputFiles:
    def test_rewrite_matches_a_fresh_write(self, writer_argv, out_dir):
        fresh, target = out_dir / "fresh", out_dir / "target"
        target.write_bytes(b"x" * 300_000)
        assert main([*writer_argv, str(fresh)]) == 0
        for _ in range(2):
            assert main([*writer_argv, str(target)]) == 0
            assert target.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(out_dir)) == ["fresh", "target"]

    @pytest.mark.parametrize("failing", ["write", "move_aside", "move_in"])
    def test_failed_write_keeps_the_old_file(self, writer_argv, failing, out_dir, monkeypatch, capsys):
        # Writing in place truncates the old file before the failing write.
        target = out_dir / "target"
        target.write_bytes(b"old bytes\n")
        if failing == "write":
            monkeypatch.setattr(cli, "open", lambda *a, **kw: _FullDisk(open(*a, **kw)), raising=False)
        else:
            # The first rename moves the old file aside, the second moves
            # the new one in, and a third would move the old one back.
            rename, calls = os.rename, []

            def failing_rename(src, dst):
                calls.append(dst)
                if len(calls) == ("move_aside", "move_in").index(failing) + 1:
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                rename(src, dst)

            monkeypatch.setattr(os, "rename", failing_rename)
        assert main([*writer_argv, str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert target.read_bytes() == b"old bytes\n"
        assert os.listdir(out_dir) == ["target"]

    def test_dev_null(self, writer_argv):
        assert main([*writer_argv, os.devnull]) == 0

    def test_symlink_stays_a_symlink(self, writer_argv, out_dir):
        fresh, real, link = out_dir / "fresh", out_dir / "real", out_dir / "link"
        real.write_bytes(b"old bytes\n")
        link.symlink_to("real")
        assert main([*writer_argv, str(fresh)]) == 0
        assert main([*writer_argv, str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == "real"
        assert real.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(out_dir)) == ["fresh", "link", "real"]

    def test_existing_file_keeps_its_mode(self, writer_argv, out_dir):
        target = out_dir / "target"
        target.write_bytes(b"old bytes\n")
        target.chmod(0o640)
        assert main([*writer_argv, str(target)]) == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_new_file_mode_follows_the_umask(self, writer_argv, out_dir):
        umask = os.umask(0o002)
        try:
            assert main([*writer_argv, str(out_dir / "new")]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE((out_dir / "new").stat().st_mode) == 0o664

    @pytest.mark.parametrize("where", ["missing/target", "."])
    def test_path_that_cannot_be_a_file_exits_2(self, writer_argv, where, out_dir, capsys):
        assert main([*writer_argv, str(out_dir / where)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(out_dir) == []

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
    def test_read_only_file_is_refused(self, writer_argv, out_dir, capsys):
        target = out_dir / "target"
        target.write_bytes(b"old bytes\n")
        target.chmod(0o444)
        assert main([*writer_argv, str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert target.read_bytes() == b"old bytes\n"
        assert os.listdir(out_dir) == ["target"]


class TestFileFormat:
    def test_document_shape(self, flagship_file):
        doc = json.loads(flagship_file.read_text())
        assert doc["format_version"] == 1
        assert doc["delta"] == 6
        assert doc["params"]["K"] == 12
        assert len(doc["codes"]) == 12
        assert doc["codes"][0]["label"] == {"family": "U", "t": 0, "lam": 0}
        assert all(len(c["sequences"]) == 4 for c in doc["codes"])
        assert all(0 <= e < 6 for c in doc["codes"] for s in c["sequences"] for e in s)

    def test_written_bytes_are_pinned(self, flagship_file):
        # sha256 of the README 12 x 4 x 24 set as json.dump wrote it.
        digest = hashlib.sha256(flagship_file.read_bytes()).hexdigest()
        assert digest == "0539c1bb681a918bf3e92d4e034a12512f4006284f9e6488b5fa421b9271cc10"

    @pytest.mark.parametrize("build", [
        lambda: build_ccc(parse_gbf("x0*x1", 2, 2), []),
        lambda: build_ccc(parse_gbf("2*x0*x1 + 2*x1*x2 + 2*x2*x3", 4, 4), [0, 3]),
        lambda: build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3),
        lambda: build_zccs(parse_gbf("2*x1*x2 + x0 + 3", 3, 4), [0], p=3),
        lambda: build_zccs(parse_gbf("2*x0*x1 + x1", 2, 4), [], 0, p=5),
        lambda: build_ccc(parse_gbf("512*x0*x1 + 1001*x0 + 7", 2, 1024), []),
        lambda: build_zccs(parse_gbf("512*x1*x2 + 1001*x1 + 999", 3, 1024), [0], p=2),
        lambda: corrupt_seeded(build_zccs(parse_gbf("2*x1*x2", 3, 4), [0], p=5), 2),
    ], ids=["ccc_d2", "ccc_d4", "zccs_d6", "zccs_d12", "zccs_d20", "ccc_d1024", "zccs_d1024", "corrupted_d20"])
    def test_written_bytes_are_json_dumps_of_the_dict(self, build, tmp_path):
        # delta 2 to 1024: exponents of one to four digits.
        cs = build()
        path = tmp_path / "set.json"
        write_code_set(cs, str(path))
        assert path.read_bytes() == (json.dumps(code_set_to_dict(cs)) + "\n").encode()

    def test_write_read_identity(self, tmp_path):
        cs = build_ccc(parse_gbf("x0*x1", 2, 2), [])
        path = tmp_path / "ccc.json"
        write_code_set(cs, str(path))
        assert read_code_set(str(path)) == cs

    @pytest.mark.parametrize("change", ["half", "swapped_labels", "bool_t", "odd_q"])
    def test_writer_refuses_what_the_reader_refuses(self, change, tmp_path):
        cs = build_ccc(parse_gbf("x1*x2", 3, 2), [0], 2)
        pp, labels = cs.params, list(cs.labels)
        if change == "half":  # as ccc_half in test_verify.py: a zone of N, K < M
            k = pp.K // 2
            cs = CodeSet(cs.exponents[:k], cs.labels[:k], replace(pp, K=k))
        elif change == "swapped_labels":
            labels[0], labels[1] = labels[1], labels[0]
            cs = CodeSet(cs.exponents, labels, pp)
        elif change == "bool_t":  # equal to CodeLabel("C", 1), written as true
            labels[1] = CodeLabel("C", True)
            cs = CodeSet(cs.exponents, labels, pp)
        else:
            cs = CodeSet(cs.exponents, labels, replace(pp, q=3))
        path = tmp_path / "out.json"
        with pytest.raises(FileFormatError):
            write_code_set(cs, str(path))
        assert list(tmp_path.iterdir()) == []


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(doc):
        node = doc
        for step in path:
            node = node[step]
        node[key] = value
    return mutate


FIRST_EXPONENT = ("codes", 0, "sequences", 0, 0)


def _set_delta(value):
    def mutate(doc):
        doc["delta"] = doc["params"]["delta"] = value
    return mutate


def _drop_code(doc):
    del doc["codes"][-1]


def _drop_member(doc):
    del doc["codes"][0]["sequences"][-1]


def _shorten_member(doc):
    doc["codes"][0]["sequences"][0].pop()


def _keep_codes(count):
    def mutate(doc):
        doc["params"]["K"] = count
        del doc["codes"][count:]
    return mutate


def _documented_mismatch(doc):
    doc["params"].update(m=9, k=5, s=-4)
    doc["codes"][0]["label"]["t"] = 99


class _Untouchable(list):
    def __iter__(self):
        raise AssertionError("the reader looked at the codes before the params")


def _label_every_code(doc):
    for code in doc["codes"]:
        code["label"] = {"family": "U", "t": 0, "lam": 0}


def _swap_labels(doc):
    codes = doc["codes"]
    codes[0]["label"], codes[1]["label"] = codes[1]["label"], codes[0]["label"]


def _claim_huge_n(doc):
    doc["params"].update(N=3 << 40, m=40)
    doc["codes"] = _Untouchable()


def _claim_blocks(p):
    """Turn the 2x2x4 CCC document into a set of p blocks whose shapes,
    labels and delta = lcm(p, q) all agree with p."""
    def mutate(doc):
        doc["delta"] = lcm(p, 2)
        doc["params"].update(K=2 * p, N=4 * p, delta=lcm(p, 2), p=p, s=(p - 1).bit_length())
        doc["codes"] = [
            {"label": {"family": family, "t": 0, "lam": lam}, "sequences": [[0] * (4 * p)] * 2}
            for family in ("U", "V") for lam in range(p)
        ]
    return mutate


def _claim_q(q):
    def mutate(doc):
        doc["delta"] = doc["params"]["delta"] = doc["params"]["q"] = q
    return mutate


def _claim_huge_prime_p(doc):
    # delta = lcm(p, q) stays consistent; a primality test of p by trial
    # division would take minutes, so the delta limit must come first
    p = (1 << 61) - 1
    doc["delta"] = doc["params"]["delta"] = 2 * p
    doc["params"]["p"] = p


# (kind of set, mutation) pairs; every mutated document must be refused
MALFORMED = {
    "float_exponent": ("zccs", _set(*FIRST_EXPONENT, 1.5)),
    "integral_float_exponent": ("zccs", _set(*FIRST_EXPONENT, 1.0)),
    "bool_exponent": ("zccs", _set(*FIRST_EXPONENT, True)),
    "string_exponent": ("zccs", _set(*FIRST_EXPONENT, "1")),
    "huge_exponent": ("zccs", _set(*FIRST_EXPONENT, 2 ** 70)),
    # at the int64 edges, and JSON values that are not numbers
    "int64_overflow_exponent": ("zccs", _set(*FIRST_EXPONENT, 2 ** 63)),
    "int64_underflow_exponent": ("zccs", _set(*FIRST_EXPONENT, -(2 ** 63) - 1)),
    "int64_max_exponent": ("zccs", _set(*FIRST_EXPONENT, 2 ** 63 - 1)),
    "null_exponent": ("zccs", _set(*FIRST_EXPONENT, None)),
    "list_exponent": ("zccs", _set(*FIRST_EXPONENT, [0])),
    "dict_exponent": ("zccs", _set(*FIRST_EXPONENT, {})),
    "negative_exponent": ("zccs", _set(*FIRST_EXPONENT, -1)),
    "float_param": ("zccs", _set("params", "K", 12.0)),
    "bool_param": ("zccs", _set("params", "k", True)),
    "string_p": ("zccs", _set("params", "p", "3")),
    "unknown_family": ("zccs", _set("codes", 0, "label", "family", "W")),
    "extended_family_without_lam": ("zccs", _set("codes", 0, "label", "lam", None)),
    "lam_equal_to_p": ("zccs", _set("codes", 0, "label", "lam", 3)),
    "float_lam": ("zccs", _set("codes", 0, "label", "lam", 0.0)),
    "float_t": ("zccs", _set("codes", 0, "label", "t", 0.5)),
    "base_family_with_lam": ("ccc", _set("codes", 0, "label", "lam", 0)),
    "extended_family_without_p": ("ccc", _set("codes", 0, "label", "family", "U")),
    "delta_not_lcm": ("zccs", _set_delta(12)),
    "delta_not_q": ("ccc", _set_delta(4)),
    "top_level_delta_differs": ("zccs", _set("delta", 12)),
    # values that compare equal to the integer they stand for
    "integral_float_delta": ("zccs", _set("delta", 6.0)),
    "bool_format_version": ("zccs", _set("format_version", True)),
    "float_format_version": ("zccs", _set("format_version", 1.0)),
    "zero_z": ("zccs", _set("params", "Z", 0)),
    "z_above_n": ("zccs", _set("params", "Z", 25)),
    "code_count": ("zccs", _drop_code),
    "member_count": ("zccs", _drop_member),
    "member_length": ("zccs", _shorten_member),
    "zero_m": ("zccs", _set("params", "M", 0)),
    "missing_params": ("zccs", _set("params", {})),
    "codes_not_a_list": ("zccs", _set("codes", 7)),
    # params that disagree with the shape they describe
    "n_not_p_times_2_to_m": ("zccs", _set("params", "m", 2)),
    "n_not_2_to_m": ("ccc", _set("params", "m", 3)),
    "negative_m": ("zccs", _set("params", "m", -1)),
    "huge_m": ("zccs", _set("params", "m", 10 ** 12)),
    "m_not_2_to_k_plus_1": ("zccs", _set("params", "k", 2)),
    "negative_k": ("ccc", _set("params", "k", -1)),
    "huge_k": ("zccs", _set("params", "k", 10 ** 12)),
    "k_not_p_times_m": ("zccs", _keep_codes(8)),
    "k_not_m": ("ccc", _keep_codes(1)),
    "s_null_with_p": ("zccs", _set("params", "s", None)),
    "s_with_p_null": ("ccc", _set("params", "s", 1)),
    "s_too_small_for_p": ("zccs", _set("params", "s", 1)),
    "negative_s": ("zccs", _set("params", "s", -4)),
    "t_equal_to_2_to_k": ("zccs", _set("codes", 0, "label", "t", 2)),
    "negative_t": ("ccc", _set("codes", 0, "label", "t", -1)),
    # well-formed labels that are not the builders' own at their position
    "every_label_u_0_0": ("zccs", _label_every_code),
    "base_label_in_zccs": ("zccs", _set("codes", 0, "label", {"family": "C", "t": 0, "lam": None})),
    "swapped_labels": ("zccs", _swap_labels),
    "bool_t": ("zccs", _set("codes", 1, "label", "t", True)),
    "documented_mismatch": ("zccs", _documented_mismatch),
    "m_n_above_limit": ("zccs", _claim_huge_n),
    # q must be even and >= 2, p prime, delta at most MAX_DELTA
    "p_one": ("ccc", _claim_blocks(1)),
    "p_four": ("ccc", _claim_blocks(4)),
    "p_nine": ("ccc", _claim_blocks(9)),
    "negative_q": ("zccs", _set("params", "q", -6)),
    "delta_above_limit": ("ccc", _claim_q(2310)),
    "huge_prime_p": ("zccs", _claim_huge_prime_p),
}


@pytest.fixture(scope="module")
def documents():
    return {
        "zccs": code_set_to_dict(build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3)),
        "ccc": code_set_to_dict(build_ccc(parse_gbf("x0*x1", 2, 2), [])),
    }


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_reader_refuses_malformed_document(case, documents):
    kind, mutate = MALFORMED[case]
    doc = json.loads(json.dumps(documents[kind]))
    code_set_from_dict(doc)  # the unmutated copy reads back
    mutate(doc)
    with pytest.raises(FileFormatError):
        code_set_from_dict(doc)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_file_reader_refuses_malformed_document(case, documents, tmp_path):
    kind, mutate = MALFORMED[case]
    doc = json.loads(json.dumps(documents[kind]))
    mutate(doc)
    if isinstance(doc["codes"], _Untouchable):
        doc["codes"] = []  # a file holds only its params' claim
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError):
        read_code_set(str(path))


def _claimed_document(q, m, k, p, s):
    """A document claiming the set of (q, m, k, p, s) with Z = 2**m: the
    params and, for a small claim, codes of the claimed shape and labels
    with every exponent 0; a large claim gets codes the reader must not
    look at."""
    blocks = 1 if p is None else p
    params = dict(
        K=blocks * (2 << k), M=2 << k, N=blocks << m, Z=1 << m, q=q, m=m, k=k,
        delta=q if p is None else lcm(p, q), p=p, s=s,
    )
    if params["K"] * params["M"] * params["N"] > 1 << 16:
        codes = _Untouchable()
    else:
        families = [("C", None), ("Cbar", None)] if p is None else [(fam, lam) for fam in ("U", "V") for lam in range(p)]
        codes = [
            {"label": {"family": fam, "t": t, "lam": lam}, "sequences": [[0] * params["N"]] * params["M"]}
            for fam, lam in families for t in range(1 << k)
        ]
    return {"format_version": 1, "delta": params["delta"], "params": params, "codes": codes}


def test_reader_and_builders_agree_on_the_family_params():
    # Boundary and hostile (q, m, k, p, s): what the builders refuse the
    # reader refuses, at once; what they make round-trips; and a claimed
    # document that both accept has the built set's params.
    agreed = 0
    for q, m, k, p, s in product((2, 3, 4), (2, 3, 10**5), (0, 1, 10**5), (None, 1, 2, 3, 4, 7, 2**61 - 1), (None, 0, 1, 10**9)):
        try:
            # a weight-q/2 path over the kept vertices; no terms for a huge m
            f = GeneralizedBooleanFunction(m, q, {(i, i + 1): q // 2 for i in range(k, m - 1)} if m < 64 else {})
            if p is None:
                built = build_ccc(f, range(k)) if s is None else None  # no builder takes s without p
            else:
                built = build_zccs(f, range(k), p=p, s=s)
        except (InvalidModulus, InvalidParams):
            built = None
        start = time.perf_counter()
        try:
            read = code_set_from_dict(_claimed_document(q, m, k, p, s))
        except FileFormatError:
            read = None
        assert time.perf_counter() - start < 0.5, (q, m, k, p, s)
        if built is None:
            assert read is None, (q, m, k, p, s)
            continue
        assert code_set_from_dict(code_set_to_dict(built)) == built
        if read is not None:
            assert read.params == built.params, (q, m, k, p, s)
            agreed += 1
    assert agreed > 0


def test_bool_exponent_in_a_file_exits_2(documents, tmp_path, capsys):
    doc = json.loads(json.dumps(documents["zccs"]))
    _set(*FIRST_EXPONENT, True)(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert '[true, ' in path.read_text()
    assert main(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("where", ["top", "label"])
def test_true_inside_a_string_reads_the_same_set(where, documents, tmp_path):
    doc = json.loads(json.dumps(documents["zccs"]))
    (doc if where == "top" else doc["codes"][0]["label"])["note"] = "true"
    path = tmp_path / "note.json"
    path.write_text(json.dumps(doc))
    assert read_code_set(str(path)) == code_set_from_dict(documents["zccs"])


class _IntSubclass(int):
    pass


@pytest.mark.parametrize("value", [np.int64(1), _IntSubclass(1), True], ids=["numpy_int", "int_subclass", "bool"])
def test_dict_reader_refuses_exponents_that_are_not_exactly_int(value, documents):
    doc = json.loads(json.dumps(documents["zccs"]))
    _set(*FIRST_EXPONENT, value)(doc)
    with pytest.raises(FileFormatError, match="exponents must be integers"):
        code_set_from_dict(doc)


@pytest.mark.parametrize("container", [bytes, tuple, lambda seq: seq, dict.fromkeys], ids=["bytes", "tuple", "range", "dict"])
def test_dict_reader_refuses_sequences_that_are_not_lists(container):
    # Each holds the exponents 0..N-1, with which a list reads as a set; the
    # file reader refuses a slot that holds no integer array.
    doc = code_set_to_dict(build_zccs(parse_gbf("2*x0*x1 + x1", 2, 4), [], 0, p=5))
    n = doc["params"]["N"]
    assert n == doc["delta"] == 20
    doc["codes"][0]["sequences"][0] = list(range(n))
    code_set_from_dict(doc)
    doc["codes"][0]["sequences"][0] = container(range(n))
    with pytest.raises(FileFormatError, match="^exponents must be integers$"):
        code_set_from_dict(doc)


@pytest.mark.parametrize("value", [2 ** 63, -(2 ** 63) - 1])
def test_dict_reader_refuses_exponents_outside_int64(value, documents):
    doc = json.loads(json.dumps(documents["zccs"]))
    _set(*FIRST_EXPONENT, value)(doc)
    with pytest.raises(FileFormatError, match="exponents must be integers in int64"):
        code_set_from_dict(doc)


@pytest.mark.parametrize("case", ["integral_float_delta", "bool_format_version", "float_format_version"])
def test_top_level_field_of_another_type_exits_2(case, documents, tmp_path, capsys):
    kind, mutate = MALFORMED[case]
    doc = json.loads(json.dumps(documents[kind]))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("case", ["every_label_u_0_0", "base_label_in_zccs", "swapped_labels", "bool_t"])
def test_label_other_than_the_builders_exits_2(case, documents, tmp_path, capsys):
    kind, mutate = MALFORMED[case]
    doc = json.loads(json.dumps(documents[kind]))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", [2 ** 63, -(2 ** 63) - 1])
def test_exponent_outside_int64_exits_2(value, documents, tmp_path, capsys):
    doc = json.loads(json.dumps(documents["zccs"]))
    _set(*FIRST_EXPONENT, value)(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: exponents must be integers")


def test_root_order_above_limit_exits_at_once(tmp_path, capsys):
    doc = code_set_to_dict(build_ccc(parse_gbf("x0*x1", 2, 2), []))
    _claim_q(2310)(doc)
    path = tmp_path / "q2310.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["verify", "--in", str(path)]) == 2
    assert time.perf_counter() - start < 5
    assert "delta" in capsys.readouterr().err


def test_set_at_the_root_order_limit_verifies(tmp_path, capsys):
    path = tmp_path / "ccc.json"
    rc = main([
        "generate", "--kind", "ccc", "--q", str(MAX_DELTA), "--m", "2",
        "--f", f"{MAX_DELTA // 2}*x0*x1", "--out", str(path),
    ])
    assert rc == 0
    assert main(["verify", "--in", str(path), "--max-zcz"]) == 0
    out = capsys.readouterr().out
    assert f"delta={MAX_DELTA}" in out and "is_ccc: true" in out and "max_zcz: 4" in out


def test_the_module_entry_point_exits_with_each_status(tmp_path):
    # python -m zccs, as a user runs it: the wiring that in-process calls to
    # main skip.
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        cmd = [sys.executable, "-m", "zccs", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tmp_path)

    path = str(tmp_path / "set.json")
    done = run("generate", "--kind", "zccs", "--q", "2", "--p", "3", "--m", "3", "--f", "x1*x2",
               "--delete", "x0", "--gamma", "x2", "--out", path)
    assert done.returncode == 0 and "Z=8" in done.stdout
    assert run("verify", "--in", path).returncode == 0
    done = run("verify", "--in", path, "--zcz", "9")
    assert done.returncode == 1 and "\nwitness: mu1=" in done.stdout
    doc = code_set_to_dict(read_code_set(path))
    doc["codes"][0]["sequences"][0][0] = 1.0
    (tmp_path / "float.json").write_text(json.dumps(doc))
    done = run("verify", "--in", str(tmp_path / "float.json"))
    assert done.returncode == 2 and done.stderr.startswith("error: ")


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 8.00 GiB for an array")


@pytest.mark.parametrize("command, target", [
    (["verify"], "verify_code_set"),
    (["verify", "--max-zcz"], "verify_code_set"),
    (["corr", "--pair", "0,1"], "code_pair_reductions"),
])
def test_out_of_memory_exits_2(command, target, flagship_file, monkeypatch, capsys):
    # Exit 1 is the verdict "fails the zone"; running out of memory is not one.
    monkeypatch.setattr(cli, target, _out_of_memory)
    assert main([command[0], "--in", str(flagship_file), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 8.00 GiB for an array\n"


def test_any_other_failure_exits_2_with_one_line(flagship_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(cli, "verify_code_set", broken)
    assert main(["verify", "--in", str(flagship_file)]) == 2
    assert capsys.readouterr().err == "error: broken\n"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the address-space size from /proc")
def test_verify_past_its_address_space_exits_2(tmp_path):
    # The 2x2x16384 delta = 1024 CCC needs about 160 MB to verify.  The
    # child caps its address space 100 MB above what it maps once imported,
    # then runs verify, which must report the failed allocation with exit 2.
    cs = build_ccc(parse_gbf(" + ".join(f"512*x{i}*x{i + 1}" for i in range(13)), 14, 1024), [])
    assert (cs.params.K, cs.params.N, cs.params.delta) == (2, 16384, 1024)
    path = tmp_path / "big.json"
    write_code_set(cs, str(path))
    child = (
        "import re, resource, sys\n"
        "from zccs.cli import main\n"
        "size = int(re.search(r'VmSize:\\s*(\\d+) kB', open('/proc/self/status').read())[1]) << 10\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + (100 << 20),) * 2)\n"
        "sys.exit(main(['verify', '--in', sys.argv[1]]))\n"
    )
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", child, str(path)], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and done.stderr.startswith("error: out of memory")
