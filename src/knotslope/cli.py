"""Command-line interface.

Subcommands::

    knotslope slope PRES --M 1.3            slope of every Riley branch at M
    knotslope scan PRES --samples 25        slopes over a sampled arc of M
    knotslope apoly PRES                    A-polynomial, Newton polygon,
                                            ideal-point slopes
    knotslope verify PRES                   cross-validate pairing slopes
                                            against the log-Gauss map
    knotslope presentation check FILE       parse and validate a presentation,
                                            then check its Riley representations

``PRES`` is a bundled name (``trefoil``, ``figure8``) or a file path.
Results are JSON on stdout (``--format csv`` for tabular records).  Exit
codes: 0 success / verification PASS, 1 verification FAIL, 2 bad usage,
unreadable input (a missing file, a directory, or a file that is not
UTF-8), or computation errors.  A record's ``L`` is the longitude
eigenvalue paired with its own sampled ``M``.

Each command builds one Riley locus (``apoly.RileyLocus``): ``apoly`` and
``verify`` in the elimination, ``slope`` and ``scan`` in the plan.  Route
1 runs on one ``Route1Plan`` per command, given route 2's locus where the
command has computed it, ``CHUNK_SAMPLES`` meridians per stacked pass; no
``Representation`` is built.  A file's exact check reads the same locus
(``_check_presentation_file``).  ``verify`` evaluates
route 2 on each chunk's compared branches with one ``log_gauss_stack``.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path
from random import Random

import numpy as np

from . import data as data_mod
from .apoly import (ApolyError, RileyLocus, compute_apoly_twobridge_detailed,
                    format_bilaurent, bilaurent_to_json, ideal_point_slopes,
                    ideal_report_to_json, log_gauss_stack, newton_polygon,
                    parse_bilaurent, polygon_to_json)
from .presentation import (KnotPresentation, PresentationError,
                           format_presentation, parse_presentation)
from .representations import NonFiniteError, RepresentationError
from .slope import Route1Plan, SlopeError


class CLIError(ValueError):
    """Bad command-line input that argparse cannot catch."""


#: meridian samples that route 1 evaluates together; a fixed number keeps
#: its stacks at a few MB however many samples a command asks for
CHUNK_SAMPLES = 32


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _parse_complex(text: str) -> complex:
    text = text.strip().replace(" ", "")
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            z = complex(float(re_s), float(im_s))
        else:
            z = complex(text)
    except ValueError as exc:
        raise CLIError(f"cannot parse complex number {text!r}; "
                       f"use forms like 1.3, 0.9+0.3j, or 0.9,0.3") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise CLIError(f"complex number {text!r} is not finite")
    return z


def _read_text(path: Path, missing: str) -> str:
    """The text of the UTF-8 file at ``path``; a ``CLIError`` otherwise, with
    the message ``missing`` when there is nothing at ``path``."""
    if not path.exists():
        raise CLIError(missing)
    if path.is_dir():
        raise CLIError(f"{str(path)!r} is a directory, not a file")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CLIError(f"{str(path)!r} is not UTF-8 text: byte "
                       f"{exc.object[exc.start]:#04x} at offset "
                       f"{exc.start}") from exc


def _load_presentation(name_or_path: str) -> KnotPresentation:
    if data_mod.resolve_builtin(name_or_path) is not None:
        return data_mod.load_builtin(name_or_path)
    return parse_presentation(_read_text(
        Path(name_or_path), f"{name_or_path!r} is neither a bundled "
        f"presentation ({', '.join(data_mod.builtin_names())}) nor a file"))


def _check_presentation_file(name_or_path: str, locus: RileyLocus) -> None:
    """``data.check_presentation`` on the command's Riley locus when the
    presentation came from a file: bundled presentations are checked when
    loaded."""
    if data_mod.resolve_builtin(name_or_path) is None:
        data_mod.check_presentation(locus, name_or_path)


def _check_planned_file(name_or_path: str, plan: Route1Plan) -> None:
    """``_check_presentation_file`` on the plan's Riley locus; outside
    Riley form there is none, and route 1 reports the error at every
    sample."""
    try:
        locus = plan.locus
    except RepresentationError:
        return
    _check_presentation_file(name_or_path, locus)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise CLIError(f"--tol must be a finite number > 0, got {tol}")


def _parse_arc(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise CLIError(f"--arc expects r0,r1,theta0,theta1; got {text!r}")
    try:
        r0, r1, t0, t1 = (float(p) for p in parts)
    except ValueError as exc:
        raise CLIError(f"--arc values must be numbers: {text!r}") from exc
    if not all(math.isfinite(x) for x in (r0, r1, t0, t1)):
        raise CLIError(f"--arc values must be finite: {text!r}")
    if r0 <= 0 or r1 < r0:
        raise CLIError("--arc radii must satisfy 0 < r0 <= r1")
    return r0, r1, t0, t1


def _sample_meridians(n: int, seed: int,
                      arc: tuple[float, float, float, float]) -> list[complex]:
    r0, r1, t0, t1 = arc
    rng = Random(seed)
    return [rng.uniform(r0, r1) * cmath.exp(1j * rng.uniform(t0, t1))
            for _ in range(n)]


# ---------------------------------------------------------------------------
# record construction shared by slope/scan

def _base_record(M: complex) -> dict:
    return {"M": _pair(M), "x": _pair(M + 1.0 / M)}


def _error_record(M: complex, exc: Exception) -> dict:
    return dict(_base_record(M), t=None, root_index=None, L=None, slope=None,
                verdict="error", residuals={}, error=str(exc))


def _chunks(meridians: list[complex]) -> list[list[complex]]:
    """``meridians`` in runs of ``CHUNK_SAMPLES``, each one stacked pass of
    ``Route1Plan.evaluate_meridians`` (and in ``verify`` of route 2)."""
    return [meridians[k:k + CHUNK_SAMPLES]
            for k in range(0, len(meridians), CHUNK_SAMPLES)]


def _paired_L(M: complex, res) -> complex | None:
    """``res.L`` paired with the sampled ``M``.  Route 1 reads ``L`` on the
    eigenvector of ``res.M``, the eigenvalue of modulus >= 1, which is
    ``1/M`` inside the unit circle (and on it below the real axis); the
    pair ``(1/M, L)`` lies on the curve with ``(M, 1/L)``."""
    if res.L is None or abs(res.M - M) <= abs(res.M - 1.0 / M):
        return res.L
    return 1.0 / res.L


def _records(M: complex, family) -> list[dict]:
    if isinstance(family, Exception):
        return [_error_record(M, family)]
    records = []
    for k, (t, res) in enumerate(family):
        L = _paired_L(M, res)
        rec = dict(_base_record(M), t=_pair(t), root_index=k,
                   L=None if L is None else _pair(L), slope=None,
                   verdict=res.verdict, residuals={},
                   error=None if res.error is None else str(res.error))
        records.append(rec)
        if res.finite:
            rec["residuals"] = {"relator": res.relator_residual,
                                "commutation": res.commutation_residual}
        if res.verdict == "parabolic":
            rec["slope"] = _pair(res.slope)
        elif res.verdict == "admissible":
            rec["slope"] = res.slope.as_json_value()
            rec["residuals"]["peripheral_fit"] = res.slope.residual
    return records


_CSV_COLUMNS = ["M_re", "M_im", "x_re", "x_im", "t_re", "t_im", "root_index",
                "L_re", "L_im", "slope_re", "slope_im", "slope_is_inf",
                "verdict", "residual_relator", "residual_commutation",
                "residual_fit", "error"]


def _records_to_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_COLUMNS)
    for r in records:
        slope = r.get("slope")
        if slope == "inf":
            s_re, s_im, s_inf = "", "", 1
        elif slope is None:
            s_re, s_im, s_inf = "", "", ""
        else:
            s_re, s_im, s_inf = slope[0], slope[1], 0
        res = r.get("residuals", {})
        row = [
            *(r["M"] if r.get("M") else ["", ""]),
            *(r["x"] if r.get("x") else ["", ""]),
            *(r["t"] if r.get("t") else ["", ""]),
            r.get("root_index", ""),
            *(r["L"] if r.get("L") else ["", ""]),
            s_re, s_im, s_inf,
            r.get("verdict", ""),
            res.get("relator", ""),
            res.get("commutation", ""),
            res.get("peripheral_fit", ""),
            r.get("error") or "",
        ]
        writer.writerow(row)
    return buf.getvalue()


def _emit_records(records: list[dict], fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(_records_to_csv(records))
    else:
        print(json.dumps(records, indent=2))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_slope(args) -> int:
    _check_tol(args.tol)
    pres = _load_presentation(args.pres)
    M = _parse_complex(args.M)
    if M == 0:
        raise CLIError("meridian eigenvalue must be nonzero")
    plan = Route1Plan(pres)
    _check_planned_file(args.pres, plan)
    (family,) = plan.evaluate_meridians([M], args.tol)
    # no record can be computed where the words overflow: at the one
    # meridian asked for, that is an error
    if isinstance(family, NonFiniteError):
        raise family
    if isinstance(family, list):
        for _, res in family:
            if not res.finite:
                raise res.error
    _emit_records(_records(M, family), args.format)
    return 0


def _cmd_scan(args) -> int:
    if args.samples < 1:
        raise CLIError("--samples must be at least 1")
    _check_tol(args.tol)
    plan = Route1Plan(_load_presentation(args.pres))
    arc = _parse_arc(args.arc)
    meridians = _sample_meridians(args.samples, args.seed, arc)
    _check_planned_file(args.pres, plan)
    records = [rec for chunk in _chunks(meridians) for M, family in
               zip(chunk, plan.evaluate_meridians(chunk, args.tol))
               for rec in _records(M, family)]
    _emit_records(records, args.format)
    return 0


def _cmd_apoly(args) -> int:
    pres = _load_presentation(args.pres)
    result = compute_apoly_twobridge_detailed(
        pres, with_reducible=args.with_reducible)
    _check_presentation_file(args.pres, result.locus)
    polygon = newton_polygon(result.apoly)
    report = ideal_point_slopes(polygon)
    payload = {
        "polynomial": format_bilaurent(result.apoly),
        "terms": bilaurent_to_json(result.apoly)["terms"],
        "newton_polygon": polygon_to_json(polygon),
        "ideal_slopes": ideal_report_to_json(report),
        "multiplicity_removed": result.multiplicity_removed,
        "includes_reducible": result.includes_reducible,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _read_apoly_arg(text: str):
    if text.startswith("@"):
        path = Path(text[1:])
        text = _read_text(path, f"A-polynomial file {str(path)!r} not found")
    return parse_bilaurent(text)


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise CLIError("--samples must be at least 1")
    _check_tol(args.tol)
    pres = _load_presentation(args.pres)
    if args.apoly is not None:
        A = _read_apoly_arg(args.apoly).canonical()
        if A.is_zero or A.degree_in("L") == 0:
            raise ApolyError("supplied A-polynomial has no L-dependence")
        plan = Route1Plan(pres)
        apoly_source = "supplied"
    else:
        result = compute_apoly_twobridge_detailed(pres)
        A, plan = result.apoly, Route1Plan(pres, result.locus)
        apoly_source = "computed"
    _check_planned_file(args.pres, plan)
    arc = _parse_arc(args.arc)
    meridians = _sample_meridians(args.samples, args.seed, arc)

    samples = []
    for chunk in _chunks(meridians):
        compared = []
        for M, family in zip(chunk, plan.evaluate_meridians(chunk, 1e-8)):
            if isinstance(family, Exception):
                raise family
            for k, (t, res) in enumerate(family):
                entry = {"M": _pair(M), "root_index": k, "t": _pair(t),
                         "ok": False, "error": None, "slope": None,
                         "log_gauss": None, "apoly_residual": None,
                         "relative_deviation": None}
                samples.append(entry)
                if res.parabolic:
                    entry["error"] = "parabolic sample; no pairing slope"
                elif res.error is not None:
                    entry["error"] = str(res.error)
                else:
                    compared.append((entry, res.slope, _paired_L(M, res), M))
        resids, maps, errors = log_gauss_stack(
            A, [c[2] for c in compared], [c[3] for c in compared])
        for (entry, sv, _, _), a_resid, lg, err in zip(
                compared, resids.tolist(), maps.tolist(), errors):
            entry["apoly_residual"] = None if math.isnan(a_resid) else a_resid
            if err is not None:
                entry["error"] = str(err)
                continue
            entry["log_gauss"] = "inf" if lg == math.inf else _pair(lg)
            entry["slope"] = sv.as_json_value()
            if sv.is_infinite or lg == math.inf:
                dev = 0.0 if (sv.is_infinite and lg == math.inf) else math.inf
            else:
                dev = abs(complex(sv.reading) - lg) / max(1.0, abs(lg))
            entry["relative_deviation"] = None if dev == math.inf else dev
            entry["ok"] = (dev <= args.tol and a_resid <= args.tol)
    comparable = [s for s in samples if s["relative_deviation"] is not None]
    max_dev = max((s["relative_deviation"] for s in comparable), default=None)
    max_resid = max((s["apoly_residual"] for s in samples
                     if s["apoly_residual"] is not None), default=None)
    passed = bool(comparable) and all(s["ok"] for s in samples
                                      if s["error"] is None) \
        and all(s["error"] is None for s in samples)
    report = {
        "apoly": format_bilaurent(A),
        "apoly_source": apoly_source,
        "sample_count": len(samples),
        "comparable_count": len(comparable),
        "max_relative_deviation": max_dev,
        "max_apoly_residual": max_resid,
        "tolerance": args.tol,
        "samples": samples,
        "verdict": "PASS" if passed else "FAIL",
    }
    print(json.dumps(report, indent=2))
    print(f"verify: {report['verdict']}", file=sys.stderr)
    return 0 if passed else 1


def _cmd_presentation_check(args) -> int:
    path = Path(args.path)
    pres = parse_presentation(_read_text(path, f"file {str(path)!r} not found"))
    weights = pres.validate()
    data_mod.check_parsed(pres, str(path))
    payload = {
        "ok": True,
        "generators": list(pres.generators),
        "relator_count": len(pres.relators),
        "abelianization": weights,
        "normalized": format_presentation(pres),
    }
    print(json.dumps(payload, indent=2))
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every ``main`` call shares it, and no caller may change it."""
    parser = argparse.ArgumentParser(
        prog="knotslope",
        description="Boundary slopes of SL(2,C) knot group representations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("pres", help="bundled presentation name "
                       f"({', '.join(data_mod.builtin_names())}) or a file path")
        p.add_argument("--tol", type=float, default=1e-8,
                       help="verdict tolerance: the pairing margin is held "
                            "to it, the rank gap to its root (default 1e-8)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")

    p_slope = sub.add_parser("slope", help="slope of each Riley branch at one M")
    add_common(p_slope)
    p_slope.add_argument("--M", required=True,
                         help="meridian eigenvalue, e.g. 1.3 or 0.9+0.3j")
    p_slope.set_defaults(func=_cmd_slope)

    p_scan = sub.add_parser("scan", help="slopes over a sampled arc of M values")
    add_common(p_scan)
    p_scan.add_argument("--samples", type=int, default=25,
                        help="number of meridian samples (default 25)")
    p_scan.add_argument("--seed", type=int, default=0,
                        help="sampling seed (default 0)")
    p_scan.add_argument("--arc", default="1.1,2.0,0.1,1.0",
                        help="sampling region r0,r1,theta0,theta1 for "
                             "M = r*exp(i*theta) (default 1.1,2.0,0.1,1.0)")
    p_scan.set_defaults(func=_cmd_scan)

    p_apoly = sub.add_parser("apoly",
                             help="A-polynomial, Newton polygon, ideal slopes")
    p_apoly.add_argument("pres", help="bundled presentation name or file path")
    p_apoly.add_argument("--with-reducible", action="store_true",
                         help="adjoin the reducible-locus factor L - 1")
    p_apoly.set_defaults(func=_cmd_apoly)

    p_verify = sub.add_parser(
        "verify", help="cross-validate pairing slopes against the log-Gauss "
                       "map of the A-polynomial")
    p_verify.add_argument("pres", help="bundled presentation name or file path")
    p_verify.add_argument("--samples", type=int, default=20,
                          help="number of meridian samples (default 20)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="sampling seed (default 0)")
    p_verify.add_argument("--arc", default="1.1,2.0,0.1,1.0",
                          help="sampling region r0,r1,theta0,theta1 "
                               "(default 1.1,2.0,0.1,1.0)")
    p_verify.add_argument("--tol", type=float, default=1e-6,
                          help="acceptance tolerance for relative deviation "
                               "and on-curve residual (default 1e-6)")
    p_verify.add_argument("--apoly", default=None,
                          help="use this A-polynomial instead of computing "
                               "one: a term expression, or @FILE")
    p_verify.set_defaults(func=_cmd_verify)

    p_pres = sub.add_parser("presentation", help="presentation utilities")
    pres_sub = p_pres.add_subparsers(dest="presentation_command", required=True)
    p_check = pres_sub.add_parser(
        "check", help="parse and validate a file, then check its Riley "
                      "representations")
    p_check.add_argument("path", help="presentation file")
    p_check.set_defaults(func=_cmd_presentation_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CLIError, PresentationError, RepresentationError, SlopeError,
            ApolyError, data_mod.DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
