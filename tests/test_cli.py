"""End-to-end command-line behaviour (in-process)."""

from __future__ import annotations

import json

import pytest

from knotslope.cli import main

from helpers import two_bridge_file

jsonschema = pytest.importorskip("jsonschema")

PAIR = {"type": "array", "items": {"type": "number"},
        "minItems": 2, "maxItems": 2}

RECORD_SCHEMA = {
    "type": "object",
    "required": ["M", "x", "t", "root_index", "L", "slope", "verdict",
                 "residuals", "error"],
    "properties": {
        "M": PAIR,
        "x": PAIR,
        "t": {"anyOf": [PAIR, {"type": "null"}]},
        "root_index": {"anyOf": [{"type": "integer"}, {"type": "null"}]},
        "L": {"anyOf": [PAIR, {"type": "null"}]},
        "slope": {"anyOf": [PAIR, {"const": "inf"}, {"type": "null"}]},
        "verdict": {"enum": ["admissible", "parabolic", "not-admissible",
                             "degenerate", "error"]},
        "residuals": {"type": "object"},
        "error": {"anyOf": [{"type": "string"}, {"type": "null"}]},
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    recs = json.loads(out)
    for rec in recs:
        jsonschema.validate(rec, RECORD_SCHEMA)
    return recs


# ---------------------------------------------------------------------------
# slope

def test_slope_trefoil(capsys):
    code, out, _ = run(capsys, "slope", "trefoil", "--M", "2")
    assert code == 0
    (rec,) = records(out)
    assert rec["verdict"] == "admissible"
    assert abs(rec["slope"][0] - (-6.0)) < 1e-8
    assert abs(rec["slope"][1]) < 1e-8
    assert abs(rec["t"][0] - (-3.25)) < 1e-10
    assert abs(rec["L"][0] - (-1.0 / 64.0)) < 1e-10


def test_slope_complex_meridian_forms_agree(capsys):
    code1, out1, _ = run(capsys, "slope", "figure8", "--M", "0.9+0.3j")
    code2, out2, _ = run(capsys, "slope", "figure8", "--M", "0.9,0.3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(records(out1)) == 2


def test_slope_parabolic_point(capsys):
    code, out, _ = run(capsys, "slope", "figure8", "--M", "1")
    assert code == 0
    recs = records(out)
    assert [r["verdict"] for r in recs] == ["parabolic", "parabolic"]
    moduli = sorted(r["slope"][1] for r in recs)
    root12 = 12.0 ** 0.5
    assert abs(moduli[0] + root12) < 1e-8
    assert abs(moduli[1] - root12) < 1e-8


def test_slope_from_presentation_file(tmp_path, capsys):
    text = ("gens: a b ;\nrel: a b a = b a b ;\nmeridian: a ;\n"
            "longitude: b a b^-1 a b a^-3\n")
    path = tmp_path / "my_knot.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "slope", str(path), "--M", "1.5")
    assert code == 0
    (rec,) = records(out)
    assert abs(rec["slope"][0] - (-6.0)) < 1e-8


# ---------------------------------------------------------------------------
# scan

def test_scan_deterministic_and_constant_on_trefoil(capsys):
    args = ("scan", "trefoil", "--samples", "6", "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    recs = records(out1)
    assert len(recs) == 6
    for rec in recs:
        assert rec["verdict"] == "admissible"
        assert abs(rec["slope"][0] - (-6.0)) < 1e-6
    _, out3, _ = run(capsys, "scan", "trefoil", "--samples", "6", "--seed", "6")
    assert out3 != out1


def test_scan_csv_output(capsys):
    code, out, _ = run(capsys, "scan", "figure8", "--samples", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "M_re"
    assert "slope_is_inf" in header
    assert "verdict" in header
    assert len(lines) == 1 + 2 * 3  # two branches per sample


def test_scan_custom_arc(capsys):
    code, out, _ = run(capsys, "scan", "trefoil", "--samples", "2",
                       "--arc", "1.5,1.6,0.2,0.3")
    assert code == 0
    for rec in records(out):
        r = (rec["M"][0] ** 2 + rec["M"][1] ** 2) ** 0.5
        assert 1.5 <= r <= 1.6


# ---------------------------------------------------------------------------
# apoly

def test_apoly_trefoil(capsys):
    code, out, _ = run(capsys, "apoly", "trefoil")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == "L*M^6 + 1"
    assert payload["ideal_slopes"]["values"] == ["-6"]
    assert payload["multiplicity_removed"] == 0
    assert payload["includes_reducible"] is False


def test_apoly_figure8_with_reducible(capsys):
    code, out, _ = run(capsys, "apoly", "figure8", "--with-reducible")
    assert code == 0
    payload = json.loads(out)
    assert payload["includes_reducible"] is True
    assert set(payload["ideal_slopes"]["values"]) >= {"-4", "4"}


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_for_builtin_knots(capsys):
    for name in ("trefoil", "figure8"):
        code, out, err = run(capsys, "verify", name, "--samples", "4")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "PASS"
        assert report["comparable_count"] > 0
        assert report["max_relative_deviation"] < 1e-6
        assert "PASS" in err


def test_verify_detects_corrupted_apoly(capsys):
    code, out, _ = run(capsys, "verify", "figure8", "--samples", "3",
                       "--apoly", "L*M^6 + 1")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    assert report["apoly_source"] == "supplied"


def test_verify_accepts_apoly_from_file(tmp_path, capsys):
    path = tmp_path / "apoly.txt"
    path.write_text("L*M^6 + 1\n")
    code, out, _ = run(capsys, "verify", "trefoil", "--samples", "3",
                       "--apoly", f"@{path}")
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_verify_long_products_are_not_revalidated(tmp_path, capsys):
    # on one branch here the long prefix products drift from det = 1 by
    # 1.2e-9 of their squared scale; they are products of validated
    # generators and must not be rejected
    arc = ("1.9932890709584585,1.9932890709584585,"
           "0.873951875915761,0.873951875915761")
    code, out, err = run(capsys, "verify", two_bridge_file(tmp_path, "b9_7"),
                         "--arc", arc, "--samples", "1")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    assert report["max_relative_deviation"] < 1e-6
    assert "PASS" in err


def test_scan_long_relator_knot_gives_every_record_a_verdict(tmp_path, capsys):
    path = two_bridge_file(tmp_path, "b15_11")
    for seed in range(6):
        code, out, _ = run(capsys, "scan", path, "--samples", "20",
                           "--seed", str(seed))
        assert code == 0
        recs = json.loads(out)
        assert len(recs) == 20 * 7  # (p - 1) / 2 Riley branches per sample
        # a few land on the F1 cut and read not-admissible
        assert all(r["verdict"] not in (None, "error") for r in recs)


# ---------------------------------------------------------------------------
# presentation check

def test_presentation_check(tmp_path, capsys):
    path = tmp_path / "knot.txt"
    path.write_text("gens: u v ;\nrel: u v u = v u v ;\nmeridian: u ;\n"
                    "longitude: v u v^-1 u v u^-3\n")
    code, out, _ = run(capsys, "presentation", "check", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["generators"] == ["u", "v"]
    assert payload["abelianization"] == {"u": 1, "v": 1}


def test_presentation_check_reports_errors(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("gens: u ;\nmeridian: w ;\nlongitude: 1\n")
    code, _, err = run(capsys, "presentation", "check", str(path))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# failure modes

def test_unknown_presentation_is_usage_error(capsys):
    code, _, err = run(capsys, "slope", "granny", "--M", "2")
    assert code == 2
    assert "neither a bundled presentation" in err


def test_bad_meridian_value(capsys):
    code, _, err = run(capsys, "slope", "trefoil", "--M", "two")
    assert code == 2
    assert "cannot parse" in err
    code, _, err = run(capsys, "slope", "trefoil", "--M", "0")
    assert code == 2


def test_bad_arc_and_samples(capsys):
    code, _, err = run(capsys, "scan", "trefoil", "--arc", "1,2")
    assert code == 2
    code, _, err = run(capsys, "scan", "trefoil", "--samples", "0")
    assert code == 2
    code, _, err = run(capsys, "scan", "trefoil", "--arc", "0,2,0,1")
    assert code == 2


def test_missing_apoly_file(capsys):
    code, _, err = run(capsys, "verify", "trefoil", "--apoly", "@/does/not/exist")
    assert code == 2
    assert "not found" in err


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
