"""End-to-end command-line behaviour (in-process)."""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
from math import gcd

import pytest

from knotslope.cli import main
from knotslope.data import load_builtin
from knotslope.presentation import parse_presentation
from knotslope.representations import (Representation, RepresentationError,
                                       riley_family)

from helpers import route1_results, two_bridge_file, two_bridge_text

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
        results = route1_results(pres, riley_family(pres, M))
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


@pytest.mark.parametrize("argv", [
    # parabolic rows: a complex slope, slope_is_inf 0, no peripheral fit
    ["slope", "figure8", "--M", "1"],
    # one meridian-level error row
    ["scan", "trefoil", "--samples", "1", "--arc", "1e-200,1e-200,0,0"],
], ids=["parabolic", "meridian-error"])
def test_csv_rows_match_json_records(argv, capsys):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    recs = records(out)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(recs)

    def cells(value):
        return ["", ""] if value is None else [str(x) for x in value]

    for rec, row in zip(recs, rows):
        slope = rec["slope"]
        if slope == "inf":
            slope_cells = ["", "", "1"]
        elif slope is None:
            slope_cells = ["", "", ""]
        else:
            slope_cells = [*cells(slope), "0"]
        res = rec["residuals"]
        want = [*cells(rec["M"]), *cells(rec["x"]), *cells(rec["t"]),
                "" if rec["root_index"] is None else str(rec["root_index"]),
                *cells(rec["L"]), *slope_cells, rec["verdict"],
                *(str(res[k]) if k in res else ""
                  for k in ("relator", "commutation", "peripheral_fit")),
                rec["error"] or ""]
        assert list(row.values()) == want
        assert list(row) == [
            "M_re", "M_im", "x_re", "x_im", "t_re", "t_im", "root_index",
            "L_re", "L_im", "slope_re", "slope_im", "slope_is_inf", "verdict",
            "residual_relator", "residual_commutation", "residual_fit",
            "error"]


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


#: SHA-256 of ``apoly``'s stdout on two-bridge knots beyond the family,
#: recorded from the PRS-gcd elimination in ``M``; multiplicities 7 and 8
#: are removed on b(17,1) and b(19,1)
APOLY_GOLDEN = {
    (17, 1): "0b610d6142e81931993a52a3957a9c8dbc2cac933285b90c27eca68786f4e406",
    (19, 1): "08461cb51183dbdb79e920a58c58e61474b35d8d65bf773d416585f3761cb013",
    (19, 7): "50539d354e6faf991282d7a10d32a43ba915298837dbf9c0e48a27471ad41818",
    (21, 5): "098be8e88bbb2e099343ddd709320b267d97b381951afcbd9e756e8e758df59f",
    (23, 5): "d8f0d1f8e4463a0faeb5b5eebe46c69a0976753b3834fe8405104fa037a576f9",
}


@pytest.mark.parametrize("p, q", APOLY_GOLDEN,
                         ids=[f"b{p}_{q}" for p, q in APOLY_GOLDEN])
def test_apoly_output_is_golden_beyond_the_family(p, q, tmp_path, capsys):
    path = tmp_path / f"b{p}_{q}.txt"
    path.write_text(two_bridge_text(p, q), encoding="utf-8")
    code, out, err = run(capsys, "apoly", str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == APOLY_GOLDEN[p, q]


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


@pytest.mark.parametrize("name", ["figure8", "b7_3", "b13_5"])
def test_verify_given_apolys_own_polynomial_reproduces_verify(name, tmp_path,
                                                             capsys):
    """``A`` is summed in one order however its terms were listed, so
    ``verify --apoly`` given the text ``apoly`` prints for the same
    presentation prints what ``verify`` prints, sample for sample; only
    the source of ``A`` differs."""
    if name.startswith("b"):
        path = tmp_path / f"{name}.txt"
        path.write_text(two_bridge_text(*map(int, name[1:].split("_"))),
                        encoding="utf-8")
        name = str(path)
    code, out, _ = run(capsys, "apoly", name)
    assert code == 0
    polynomial = json.loads(out)["polynomial"]
    argv = ["verify", name, "--samples", "12", "--seed", "4"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    computed = json.loads(out)
    code, out, _ = run(capsys, *argv, "--apoly", polynomial)
    assert code == 0
    supplied = json.loads(out)
    assert (computed.pop("apoly_source"), supplied.pop("apoly_source")) == \
        ("computed", "supplied")
    assert supplied == computed


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


def test_verify_differentiates_nothing_per_sample(monkeypatch, capsys):
    from knotslope.apoly import BiLaurent

    calls = []
    derivative = BiLaurent.derivative
    monkeypatch.setattr(BiLaurent, "derivative",
                        lambda p, var: calls.append(var) or derivative(p, var))
    counts = []
    for samples in ("1", "8"):
        calls.clear()
        code, _, _ = run(capsys, "verify", "figure8", "--samples", samples)
        assert code == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_verify_fails_at_a_parabolic_meridian(capsys):
    # route 1 gives a cusp modulus, not a pairing slope, on the parabolic
    # locus, so there is nothing to compare with the log-Gauss map
    code, out, _ = run(capsys, "verify", "figure8", "--samples", "1",
                       "--arc", "1,1,0,0")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    assert report["samples"]
    assert all(s["error"] == "parabolic sample; no pairing slope"
               for s in report["samples"])


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


def test_far_arc_overflow_gives_typed_verdicts_without_warnings(tmp_path,
                                                                capsys):
    """At ``|M| = 1e6`` the adjoint Fox blocks of b(11,3) overflow, and at
    ``1e77`` figure8's relators.  With warnings as errors, each record
    still gets its typed verdict, and stderr holds no more than
    ``verify``'s verdict line."""
    path = tmp_path / "b11_3.txt"
    path.write_text(two_bridge_text(11, 3), encoding="utf-8")
    arc = ("--arc", "1e6,1e6,0.3,0.3")
    code, out, err = run(capsys, "scan", str(path), *arc)
    assert (code, err) == (0, "")
    recs = records(out)
    assert any("overflow" in r["error"] for r in recs if r["error"])
    code, out, err = run(capsys, "verify", str(path), *arc)
    assert (code, err) == (1, "verify: FAIL\n")
    samples = json.loads(out)["samples"]
    assert samples and all(s["ok"] is False and isinstance(s["error"], str)
                           for s in samples)
    code, out, err = run(capsys, "scan", "figure8", "--arc", "1e77,1e77,0,1")
    assert (code, err) == (0, "")
    assert any("overflow" in r["error"] for r in records(out) if r["error"])


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


def count_calls(monkeypatch, calls: dict, modules, name: str) -> None:
    """Count the calls of ``name`` in ``calls``, through every module of
    ``modules`` that holds a reference to it."""
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)


def count_riley_locus(monkeypatch, calls: dict) -> None:
    """Count ``riley_locus`` and the Riley generators it derives."""
    import knotslope.apoly as apoly_mod
    import knotslope.data as data_mod
    import knotslope.representations as reps_mod
    import knotslope.slope as slope_mod

    count_calls(monkeypatch, calls, (apoly_mod, data_mod, reps_mod, slope_mod),
                "riley_locus")
    count_calls(monkeypatch, calls, (apoly_mod,), "_riley_generators")


def test_riley_polynomial_is_computed_once_per_command(monkeypatch, capsys,
                                                      tmp_path):
    """Each command builds one Riley locus, and derives the Riley
    generators once: both routes and the file check read it."""
    # a bundled presentation is checked, with its own locus, on its first
    # load in the process only: load both before counting
    for name in ("trefoil", "figure8"):
        load_builtin(name)
    calls: dict[str, int] = {}
    count_riley_locus(monkeypatch, calls)
    path = two_bridge_file(tmp_path, "b9_7")
    for pres in ("trefoil", "figure8", path):
        calls.clear()
        code, out, _ = run(capsys, "apoly", pres)
        assert code == 0
        assert calls == {"riley_locus": 1, "_riley_generators": 1}, pres
        # a supplied A is the presentation's own, so verify passes
        apoly = json.loads(out)["polynomial"]
        for argv in (["scan", pres, "--samples", "5"],
                     ["verify", pres, "--samples", "3"],
                     ["verify", pres, "--samples", "3", "--apoly", apoly],
                     ["slope", pres, "--M", "1.3"]):
            calls.clear()
            code, _, _ = run(capsys, *argv)
            assert code == 0, argv
            assert calls == {"riley_locus": 1, "_riley_generators": 1}, argv


def test_route1_is_planned_once_per_command(monkeypatch, capsys, tmp_path):
    import knotslope.slope as slope_mod

    load_builtin("figure8")
    calls: dict[str, int] = {}
    count_calls(monkeypatch, calls, (slope_mod,), "augment")
    count_calls(monkeypatch, calls, (slope_mod,), "_fox_coefficients")
    count_riley_locus(monkeypatch, calls)
    path = two_bridge_file(tmp_path, "b9_7")
    for pres in ("figure8", path):
        for argv in (["scan", pres, "--samples", "40"],
                     ["verify", pres, "--samples", "40"]):
            calls.clear()
            code, _, _ = run(capsys, *argv)
            assert code == 0
            assert calls == {"augment": 1, "_fox_coefficients": 1,
                             "riley_locus": 1, "_riley_generators": 1}, argv


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


def test_longitude_word_is_built_once_per_file_command(monkeypatch, tmp_path,
                                                      capsys):
    """On a file, ``apoly`` and ``verify`` run the elimination and the
    exact presentation check on one Riley word of the longitude; ``scan``
    has no elimination and builds it for the check alone."""
    import knotslope.apoly as apoly_mod

    text = two_bridge_text(9, 5)
    path = tmp_path / "b9_5.txt"
    path.write_text(text, encoding="utf-8")
    path, longitude = str(path), parse_presentation(text).longitude
    words = []
    original = apoly_mod._riley_word

    def counted(*args, **kwargs):
        words.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(apoly_mod, "_riley_word", counted)
    for argv in (["apoly", path], ["verify", path, "--samples", "3"],
                 ["scan", path, "--samples", "3"]):
        words.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert words.count(longitude) == 1, argv
        # the rest are the relator's two sides, for the Riley polynomial
        assert len(words) == 3, argv


#: the trefoil as the torus knot T(2,3), with text to pad its longitude
TORUS = ("gens: a b ; rel: a b a = b a b ; meridian: a ; "
         "longitude: b a^2 b a^-4{}")


def test_cancelling_letters_are_reduced_where_words_are_compiled(
        monkeypatch, tmp_path, capsys):
    """A longitude padded with ``a^50 a^-50`` is the same element: its
    records equal the reduced file's, where in floats ``M^50·M^-50`` lost
    the digits that the commutation test needs (``not-admissible`` at ``M
    = 1.3``, and ``verify`` failed), and no Riley word is built longer than
    the reduced longitude."""
    import knotslope.apoly as apoly_mod

    paths = []
    for pad in ("", " a^50 a^-50"):
        paths.append(tmp_path / f"torus{len(paths)}.txt")
        paths[-1].write_text(TORUS.format(pad), encoding="utf-8")
    reduced, padded = map(str, paths)
    lengths = []
    original = apoly_mod._riley_word

    def counted(word, *args):
        lengths.append(len(word.letters))
        return original(word, *args)

    monkeypatch.setattr(apoly_mod, "_riley_word", counted)
    for argv in (["scan", "--samples", "16"], ["slope", "--M", "1.3"],
                 ["apoly"], ["verify", "--samples", "4"]):
        want = run(capsys, argv[0], reduced, *argv[1:])
        lengths.clear()
        assert run(capsys, argv[0], padded, *argv[1:]) == want, argv
        assert max(lengths) == 8, argv  # b a a b a^-1 a^-1 a^-1 a^-1
        assert want[0] == 0, argv
    (record,) = records(run(capsys, "slope", padded, "--M", "1.3")[1])
    assert record["verdict"] == "admissible"
    assert abs(record["slope"][0] + 6) < 1e-12


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


#: one chunk of figure8 meridians: the parabolic M = 1 and M = -1, 1e80
#: (the peripheral images overflow) and 1e200 (phi's coefficients do),
#: 0.9+0.3j inside the unit circle, the golden ratio (a merged double
#: root) and ordinary meridians
MIXED_CHUNK = [1.3 + 0.2j, 1.0, 1e80, -1.0, 0.9 + 0.3j,
               (1.0 + 5.0 ** 0.5) / 2.0, 1e200, 1.7 - 0.4j]


def test_a_mixed_chunk_gives_every_meridian_its_own_records(monkeypatch,
                                                            capsys):
    import knotslope.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_sample_meridians",
                        lambda n, seed, arc: MIXED_CHUNK[:n])
    argv = ("scan", "figure8", "--samples", str(len(MIXED_CHUNK)))
    _, whole, _ = run(capsys, *argv)
    monkeypatch.setattr(cli_mod, "CHUNK_SAMPLES", 1)
    _, alone, _ = run(capsys, *argv)
    # no meridian's values or errors depend on its neighbours
    assert whole == alone
    recs = records(whole)
    pres = load_builtin("figure8")
    for M in MIXED_CHUNK:
        mine = [r for r in recs if complex(*r["M"]) == M]
        try:
            family = riley_family(pres, M)
        except RepresentationError as exc:
            assert [(r["verdict"], r["error"]) for r in mine] == \
                [("error", str(exc))]
            continue
        assert [complex(*r["t"]) for r in mine] == \
            [rep.riley_t for rep in family]
    verdicts = [r["verdict"] for r in recs]
    assert verdicts == ["admissible"] * 2 + ["parabolic"] * 2 + \
        ["error"] * 2 + ["parabolic"] * 2 + ["admissible"] * 2 + \
        ["degenerate", "error"] + ["admissible"] * 2
    assert "overflow" in recs[-3]["error"]


def test_file_commands_construct_no_representation(monkeypatch, tmp_path,
                                                   capsys):
    built = []
    original = Representation.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Representation, "__post_init__", counted)
    riley_family(load_builtin("figure8"), 1.3)
    assert len(built) == 2  # the count sees riley_family's
    built.clear()
    path = two_bridge_file(tmp_path, "b9_7")
    for argv in (["scan", path, "--samples", "5"],
                 ["verify", path, "--samples", "3"],
                 ["slope", path, "--M", "1.3"]):
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert built == [], argv


def test_python_m_knotslope_runs_the_cli(monkeypatch, capsys):
    import runpy
    import sys

    for argv, status in ((["scan", "trefoil", "--samples", "2"], 0),
                         (["scan", "granny"], 2)):
        monkeypatch.setattr(sys, "argv", ["knotslope", *argv])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("knotslope", run_name="__main__")
        assert exc.value.code == status
        out = capsys.readouterr().out
        if status == 0:
            assert len(records(out)) == 2


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
                 ["slope", str(path), "--M", "1.3"],
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
    # a constant Riley polynomial: no Riley representation to check
    path.write_text("gens: u v ;\nrel: u = v ;\nmeridian: u ;\n"
                    "longitude: u v^-1\n")
    code, _, err = run(capsys, "presentation", "check", str(path))
    assert code == 2
    assert "no Riley representations" in err


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys, monkeypatch):
    """``main`` builds its parser once per process; a sequence of calls
    with a usage error among them prints what fresh parsers print."""
    from knotslope import cli
    path = two_bridge_file(tmp_path, "b9_7")
    sequence = [["scan", "trefoil", "--samples", "3"],
                ["scan", "trefoil", "--no-such-option"],
                ["apoly", path],
                ["verify", "figure8", "--samples", "2"],
                ["presentation", "check", path],
                ["scan", "trefoil", "--samples", "3"]]

    def outputs():
        got = []
        for argv in sequence:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            got.append((code, *capsys.readouterr()))
        return got

    shared = outputs()
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outputs() == shared
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0, 0]
    assert "usage:" in shared[1][2] and shared[0] == shared[-1]


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
    # a supplied A-polynomial with a zero denominator
    ["verify", "trefoil", "--apoly", "2/0*L + 1"],
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


@pytest.mark.parametrize("argv, named", [
    (["scan", "{dir}"], "{dir}"),
    (["apoly", "{dir}"], "{dir}"),
    (["presentation", "check", "{dir}"], "{dir}"),
    (["verify", "trefoil", "--apoly", "@{dir}"], "{dir}"),
    (["verify", "trefoil", "--apoly", "@"], "."),
], ids=["scan", "apoly", "presentation-check", "verify-apoly", "verify-apoly-@"])
def test_directory_argument_exits_2_naming_it(argv, named, tmp_path, capsys):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"error: {named.format(dir=tmp_path)!r} is a directory, " \
                  "not a file\n"


def test_missing_apoly_file(capsys):
    code, _, err = run(capsys, "verify", "trefoil", "--apoly", "@/does/not/exist")
    assert code == 2
    assert "not found" in err


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
