import csv
import json

import pytest

from zccs.boolfn import parse_gbf
from zccs.cli import code_set_from_dict, code_set_to_dict, main, read_code_set, write_code_set
from zccs.construct import build_ccc, build_zccs
from zccs.errors import FileFormatError


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

    def test_pair_out_of_range(self, flagship_file, capsys):
        rc = main(["corr", "--in", str(flagship_file), "--pair", "0,12"])
        assert rc != 0
        assert "out of range" in capsys.readouterr().err


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

    def test_write_read_identity(self, tmp_path):
        cs = build_ccc(parse_gbf("x0*x1", 2, 2), [])
        path = tmp_path / "ccc.json"
        write_code_set(cs, str(path))
        assert read_code_set(str(path)) == cs


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


# (kind of set, mutation) pairs; every mutated document must be refused
MALFORMED = {
    "float_exponent": ("zccs", _set(*FIRST_EXPONENT, 1.5)),
    "integral_float_exponent": ("zccs", _set(*FIRST_EXPONENT, 1.0)),
    "bool_exponent": ("zccs", _set(*FIRST_EXPONENT, True)),
    "string_exponent": ("zccs", _set(*FIRST_EXPONENT, "1")),
    "huge_exponent": ("zccs", _set(*FIRST_EXPONENT, 2 ** 70)),
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
    "zero_z": ("zccs", _set("params", "Z", 0)),
    "z_above_n": ("zccs", _set("params", "Z", 25)),
    "code_count": ("zccs", _drop_code),
    "member_count": ("zccs", _drop_member),
    "member_length": ("zccs", _shorten_member),
    "zero_m": ("zccs", _set("params", "M", 0)),
    "missing_params": ("zccs", _set("params", {})),
    "codes_not_a_list": ("zccs", _set("codes", 7)),
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
