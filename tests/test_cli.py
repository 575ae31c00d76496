"""End-to-end command-line behaviour (in-process)."""

from __future__ import annotations

import cmath
import json
from math import gcd

import pytest

from knotslope.cli import main
from knotslope.data import load_builtin
from knotslope.representations import riley_family
from knotslope.slope import Route1Plan

from helpers import two_bridge_file, two_bridge_text

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


@pytest.mark.parametrize("M", [0.7, 0.6 + 0.3j, 0.8 - 0.5j, cmath.exp(-0.5j),
                               cmath.exp(0.5j), 1.3 + 0.4j, 2.0 - 0.1j])
def test_record_L_is_paired_with_its_own_M(M, capsys):
    """A record's L belongs to the record's M: -M^-6 on the trefoil, also
    inside the unit circle and on it below the real axis, where route 1
    reads L on the eigenvector of 1/M."""
    code, out, _ = run(capsys, "slope", "trefoil", "--M",
                       f"{M.real!r},{M.imag!r}")
    assert code == 0
    (rec,) = records(out)
    assert complex(*rec["M"]) == M
    assert abs(complex(*rec["L"]) + M ** -6) <= 1e-12 * abs(M) ** -6


def test_records_outside_the_unit_circle_keep_the_route1_L(capsys):
    pres = load_builtin("figure8")
    for M in (1.3 + 0.4j, 1.1 - 0.2j, 2.0):
        code, out, _ = run(capsys, "slope", "figure8", "--M",
                           f"{M.real!r},{M.imag!r}")
        results = Route1Plan(pres).evaluate(riley_family(pres, M))
        assert [complex(*r["L"]) for r in records(out)] == \
            [res.L for res in results]
        assert all(res.M == pytest.approx(M, rel=1e-12) for res in results)


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


@pytest.mark.parametrize("name", ["trefoil", "figure8", "b7_3", "b9_5"])
@pytest.mark.parametrize("arc", ["0.6,0.9,0.1,1.0", "1,1,-1.0,-0.1"],
                         ids=["inside", "unit-circle-below"])
def test_verify_passes_where_route1_reads_L_on_1_over_M(name, arc, tmp_path,
                                                         capsys):
    if name.startswith("b"):
        p, q = map(int, name[1:].split("_"))
        path = tmp_path / f"{name}.txt"
        path.write_text(two_bridge_text(p, q), encoding="utf-8")
        name = str(path)
    code, out, _ = run(capsys, "verify", name, "--arc", arc)
    report = json.loads(out)
    assert (code, report["verdict"]) == (0, "PASS")
    assert report["max_relative_deviation"] < 1e-10
    assert report["max_apoly_residual"] < 1e-12


@pytest.mark.parametrize("apoly", [
    "1" + "0" * 400 + "*L + 1",  # a coefficient beyond float range
    "L*M^6 + 1 + M^100000000000000000000",  # a power beyond float range
], ids=["coefficient", "exponent"])
def test_verify_apoly_overflow_fails_the_sample(apoly, capsys):
    code, out, err = run(capsys, "verify", "trefoil", "--samples", "2",
                         "--apoly", apoly)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    assert all("overflows floating point" in s["error"]
               for s in report["samples"])
    assert err == "verify: FAIL\n"


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
        assert all(r["verdict"] == "admissible" for r in recs)


#: every odd-q two-bridge knot b(p, q) with p <= 13 at seed 0, and seeds 1
#: and 2 of the five among them whose long words once broke route 1
FAMILY_RUNS = [(p, q, 0) for p in range(3, 14, 2) for q in range(1, p, 2)
               if gcd(p, q) == 1] + [
    (p, q, seed) for p, q in ((9, 1), (11, 1), (11, 9), (13, 1), (13, 11))
    for seed in (1, 2)]


@pytest.mark.parametrize("p, q, seed", FAMILY_RUNS,
                         ids=[f"b{p}_{q}-seed{s}" for p, q, s in FAMILY_RUNS])
def test_verify_passes_on_the_two_bridge_family(p, q, seed, tmp_path, capsys):
    path = tmp_path / f"b{p}_{q}.txt"
    path.write_text(two_bridge_text(p, q), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path), "--samples", "20",
                       "--seed", str(seed))
    report = json.loads(out)
    assert code == 0, next((s["error"] for s in report["samples"]
                            if s["error"]), report["max_relative_deviation"])
    assert report["verdict"] == "PASS"
    assert report["sample_count"] == 20 * (p - 1) // 2


def test_riley_polynomial_is_computed_once_per_command(monkeypatch, capsys,
                                                      tmp_path):
    import knotslope.apoly as apoly_mod
    import knotslope.cli as cli_mod
    import knotslope.representations as reps_mod

    calls = []
    original = apoly_mod.riley_polynomial

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    # a bundled presentation is checked, with its own phi, on its first
    # load in the process only: load both before counting
    for name in ("trefoil", "figure8"):
        load_builtin(name)
    for mod in (apoly_mod, cli_mod, reps_mod):
        monkeypatch.setattr(mod, "riley_polynomial", counted)
    # a file-loaded presentation is checked with the command's phi too
    path = two_bridge_file(tmp_path, "b9_7")
    for argv in (["scan", "figure8", "--samples", "5"],
                 ["verify", "figure8", "--samples", "3"],
                 ["verify", "trefoil", "--samples", "3",
                  "--apoly", "L*M^6 + 1"],
                 ["apoly", "figure8"],
                 ["scan", path, "--samples", "3"],
                 ["verify", path, "--samples", "3"],
                 ["apoly", path]):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(calls) == 1, argv


def test_route1_is_planned_once_per_command(monkeypatch, capsys):
    import knotslope.representations as reps_mod
    import knotslope.slope as slope_mod

    calls: dict[str, int] = {}

    def count(mod, name):
        original = getattr(mod, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)

    # route 1's own calls; route 2 derives the Riley generators separately
    count(slope_mod, "augment")
    count(slope_mod, "_fox_coefficients")
    count(reps_mod, "_riley_generators")
    for argv in (["scan", "figure8", "--samples", "40"],
                 ["verify", "figure8", "--samples", "40"]):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert calls == {"augment": 1, "_fox_coefficients": 1,
                         "_riley_generators": 1}, argv


def test_riley_words_are_built_once_per_command(monkeypatch, capsys):
    import knotslope.apoly as apoly_mod

    calls = []
    original = apoly_mod._riley_word

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(apoly_mod, "_riley_word", counted)
    for name in ("trefoil", "figure8"):
        # both sides of the one relator, and the longitude for route 2
        assert len(load_builtin(name).relators) == 1
        for argv, expected in ((["scan", name, "--samples", "5"], 2),
                               (["verify", name, "--samples", "3"], 3),
                               (["apoly", name], 3)):
            calls.clear()
            code, _, _ = run(capsys, *argv)
            assert code == 0
            assert len(calls) == expected, argv


def _agree(a, b, rel: float = 1e-12) -> bool:
    """Equal, or within ``rel`` of the larger modulus; pairs are complex."""
    if a is None or b is None or isinstance(a, str) or isinstance(b, str):
        return a == b
    za = complex(*a) if isinstance(a, list) else a
    zb = complex(*b) if isinstance(b, list) else b
    return abs(za - zb) <= rel * max(abs(za), abs(zb))


@pytest.mark.parametrize("name", ["trefoil", "figure8", "b13_5", "b15_11"])
def test_scan_records_equal_slope_records(name, tmp_path, capsys):
    knot = name if name in ("trefoil", "figure8") else two_bridge_file(tmp_path, name)
    code, out, _ = run(capsys, "scan", knot, "--samples", "5", "--seed", "3")
    assert code == 0
    scanned = records(out)
    by_M: dict[tuple, list] = {}
    for rec in scanned:
        by_M.setdefault(tuple(rec["M"]), []).append(rec)
    assert len(by_M) == 5
    for (re, im), recs in by_M.items():
        code, out, _ = run(capsys, "slope", knot, "--M", f"{re!r},{im!r}")
        assert code == 0
        single = records(out)
        assert len(single) == len(recs)
        for a, b in zip(recs, single):
            for key in ("M", "x", "t", "root_index", "verdict", "error"):
                assert a[key] == b[key], key
            assert _agree(a["L"], b["L"]) and _agree(a["slope"], b["slope"])
            assert a["residuals"].keys() == b["residuals"].keys()
            # residuals are rounding-level differences of O(1) entries
            for key, value in a["residuals"].items():
                assert (_agree(value, b["residuals"][key])
                        or abs(value - b["residuals"][key]) <= 1e-15), key


def test_scan_chunks_give_the_same_records(monkeypatch, tmp_path, capsys):
    import knotslope.cli as cli_mod

    path = two_bridge_file(tmp_path, "b13_5")
    argv = ("scan", path, "--samples", "8", "--seed", "2")
    _, whole, _ = run(capsys, *argv)
    assert cli_mod.CHUNK_SAMPLES >= 8
    monkeypatch.setattr(cli_mod, "CHUNK_SAMPLES", 3)
    _, chunked, _ = run(capsys, *argv)
    a, b = records(whole), records(chunked)
    assert len(a) == len(b) == 8 * 6
    for x, y in zip(a, b):
        for key in ("M", "t", "root_index", "verdict", "error"):
            assert x[key] == y[key], key
        assert _agree(x["L"], y["L"]) and _agree(x["slope"], y["slope"])


def test_scan_outside_riley_form_gives_error_records(tmp_path, capsys):
    path = tmp_path / "three.txt"
    path.write_text("gens: a b c ;\nrel: a = b ;\nrel: b = c ;\n"
                    "meridian: a ;\nlongitude: a c^-1\n")
    code, out, _ = run(capsys, "scan", str(path), "--samples", "3")
    assert code == 0
    recs = records(out)
    assert len(recs) == 3
    assert all(r["verdict"] == "error" and "2 generators" in r["error"]
               for r in recs)


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


def test_presentation_check_rejects_conjugated_longitude(tmp_path, capsys):
    # the figure-eight longitude conjugated by v: homologically trivial and
    # well formed, but it no longer commutes with the meridian
    path = tmp_path / "conjugated.txt"
    path.write_text("gens: u v ;\nrel: u v u^-1 v^-1 u = v u^-1 v^-1 u v ;\n"
                    "meridian: u ;\n"
                    "longitude: v v u^-1 v^-1 u^2 v^-1 u^-1 v v^-1\n")
    for argv in (["presentation", "check", str(path)],
                 ["scan", str(path), "--samples", "2"],
                 ["verify", str(path), "--samples", "2"],
                 ["apoly", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "longitude does not commute" in err, argv


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


@pytest.mark.parametrize("argv", [
    ["slope", "trefoil", "--M", "2", "--tol", "nan"],
    ["scan", "trefoil", "--tol", "nan"],
    ["scan", "trefoil", "--tol", "0"],
    ["scan", "trefoil", "--tol", "-1"],
    ["scan", "trefoil", "--tol", "inf"],
    ["verify", "trefoil", "--tol", "nan"],
    ["verify", "trefoil", "--tol", "-1"],
    ["scan", "trefoil", "--arc", "nan,1.5,0.1,1.0"],
    ["scan", "trefoil", "--arc", "1.1,inf,0.1,1.0"],
    ["scan", "trefoil", "--arc", "1.1,1.5,nan,1.0"],
    ["verify", "trefoil", "--arc", "nan,1.5,0.1,1.0"],
    ["verify", "trefoil", "--arc", "1.1,inf,0.1,1.0"],
    ["verify", "trefoil", "--arc", "1.1,1.5,nan,1.0"],
    # the words overflow floating point at these meridians
    ["slope", "trefoil", "--M", "1e200"],
    ["slope", "trefoil", "--M", "1e-200"],
    ["slope", "figure8", "--M", "1e60"],
    ["slope", "figure8", "--M", "1e80"],
    # supplied A-polynomials with no L in them
    ["verify", "trefoil", "--samples", "2", "--apoly", "0"],
    ["verify", "trefoil", "--samples", "2", "--apoly", "3"],
    ["verify", "trefoil", "--samples", "2", "--apoly", "M^2"],
])
def test_bad_input_exits_2_with_a_message(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["scan", "{file}"],
    ["apoly", "{file}"],
    ["presentation", "check", "{file}"],
    ["verify", "trefoil", "--apoly", "@{file}"],
], ids=["scan", "apoly", "presentation-check", "verify-apoly"])
def test_non_utf8_file_exits_2_with_one_error_line(argv, tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"gens: a b ;\n\xff\n")
    code, out, err = run(capsys, *(a.format(file=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err and "not UTF-8" in err


def test_missing_apoly_file(capsys):
    code, _, err = run(capsys, "verify", "trefoil", "--apoly", "@/does/not/exist")
    assert code == 2
    assert "not found" in err


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
