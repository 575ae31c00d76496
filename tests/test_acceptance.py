"""Acceptance suite.

Each test exercises one headline capability end to end, prints a single
PASS/FAIL line with its key measurements, and enforces a wall-clock budget.
Run with ``pytest tests/test_acceptance.py -v``.
"""

from __future__ import annotations

import cmath
import json
import time
from fractions import Fraction
from random import Random

import numpy as np

from knotslope.apoly import (compute_apoly_twobridge, ideal_point_slopes,
                             newton_polygon, parse_bilaurent, resultant_t,
                             side_slopes)
from knotslope.cli import main as cli_main
from knotslope.data import load_builtin
from knotslope.linalg import KILLING_GRAM, adjoint_of
from knotslope.presentation import (GroupRingElement, Word, fox_derivative)
from knotslope.representations import (Representation,
                                       abelian_representation, riley_family)
from knotslope.slope import compute_slope, parabolic_modulus

from helpers import random_sl2, random_word
from test_apoly import random_tpoly


def report(capsys, number, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def sample_meridians(n, seed=0, r=(1.1, 2.0), theta=(0.1, 1.0)):
    rng = Random(seed)
    return [rng.uniform(*r) * cmath.exp(1j * rng.uniform(*theta))
            for _ in range(n)]


def test_criterion_1_trefoil_slope_constant(capsys):
    start = time.perf_counter()
    pres = load_builtin("trefoil")
    readings = []
    for M in sample_meridians(25, seed=101):
        for rep in riley_family(pres, M):
            readings.append(complex(compute_slope(rep).reading))
    elapsed = time.perf_counter() - start
    dev = max(abs(s - (-6.0)) for s in readings)
    var = float(np.var(np.array(readings)))
    ok = (len(readings) >= 25 and dev <= 1e-8 and var <= 1e-14
          and elapsed < 5.0)
    report(capsys, 1, ok,
           f"trefoil slope -6 across {len(readings)} samples "
           f"(max dev {dev:.2e}, variance {var:.2e}, {elapsed:.2f}s)")


def test_criterion_2_trefoil_apoly(capsys):
    start = time.perf_counter()
    A = compute_apoly_twobridge(load_builtin("trefoil"))
    elapsed = time.perf_counter() - start
    expected = parse_bilaurent("L*M^6 + 1")
    slopes = side_slopes(A)
    ideal = ideal_point_slopes(newton_polygon(A)).values()
    ok = (A == expected and slopes == [Fraction(6)]
          and ideal == [Fraction(-6)] and elapsed < 5.0)
    report(capsys, 2, ok,
           f"trefoil A-polynomial is L*M^6 + 1 with side slope 6 and ideal "
           f"slope -6 ({elapsed:.2f}s)")


def test_criterion_3_figure8_closed_form(capsys):
    start = time.perf_counter()
    pres = load_builtin("figure8")
    UV = Word([("u", 1), ("v", 1)])
    worst_sq = 0.0
    worst_signed = 0.0
    count = 0
    for M in sample_meridians(20, seed=303):
        x = M + 1.0 / M
        sq = 4.0 * (2 * x * x - 5) ** 2 / ((x * x - 5) * (x * x - 1))
        for rep in riley_family(pres, M):
            s = complex(compute_slope(rep).reading)
            worst_sq = max(worst_sq, abs(s * s - sq) / max(1.0, abs(sq)))
            img = rep.image(UV)
            y = img[0, 0] + img[1, 1]
            signed = 2 * (2 * x * x - 5) * (y - 2) / ((y - 1) * (y - 3))
            worst_signed = max(worst_signed,
                               abs(s - signed) / max(1.0, abs(signed)))
            count += 1
    elapsed = time.perf_counter() - start
    ok = (count >= 40 and worst_sq <= 1e-6 and worst_signed <= 1e-6
          and elapsed < 10.0)
    report(capsys, 3, ok,
           f"figure-eight slope matches the closed form on {count} branch "
           f"samples (squared rel err {worst_sq:.2e}, signed rel err "
           f"{worst_signed:.2e}, sign +1 throughout, {elapsed:.2f}s)")


def test_criterion_4_cross_route_verification(capsys):
    start = time.perf_counter()
    code = cli_main(["verify", "figure8", "--samples", "20", "--seed", "7",
                     "--tol", "1e-6"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    rpt = json.loads(out)
    ok = (code == 0 and rpt["verdict"] == "PASS"
          and rpt["comparable_count"] >= 20
          and rpt["max_relative_deviation"] <= 1e-6
          and elapsed < 30.0)
    report(capsys, 4, ok,
           f"figure-eight pairing slopes agree with the log-Gauss map at "
           f"{rpt['comparable_count']} samples (max rel dev "
           f"{rpt['max_relative_deviation']:.2e}, {elapsed:.2f}s)")


def test_criterion_5_abelian_slope_zero(capsys):
    worst = 0.0
    for name in ("trefoil", "figure8"):
        pres = load_builtin(name)
        for lam in (2.0, 3.0, 1.0 + 1.0j):
            sv = compute_slope(abelian_representation(pres, lam))
            worst = max(worst, abs(complex(sv.reading)))
    ok = worst <= 1e-10
    report(capsys, 5, ok,
           f"abelian representations have slope 0 (worst |slope| {worst:.2e})")


def test_criterion_6_parabolic_limit(capsys):
    pres = load_builtin("figure8")
    parabolic = riley_family(pres, 1.0)
    nearby = riley_family(pres, 1.0 + 1e-3)
    worst = 0.0
    for rep in parabolic:
        tau = parabolic_modulus(rep)
        closest = min(nearby, key=lambda r: abs(r.riley_t - rep.riley_t))
        s = complex(compute_slope(closest).reading)
        worst = max(worst, abs(tau - s))
    ok = len(parabolic) == 2 and worst <= 1e-2
    report(capsys, 6, ok,
           f"parabolic modulus at M=1 continues the slope branch at "
           f"M=1.001 (max gap {worst:.2e})")


def test_criterion_7_property_suites(capsys):
    start = time.perf_counter()
    rng = Random(707)
    gens = ("a", "b", "c")

    # Fox product rule, exact group-ring arithmetic
    fox_ok = True
    for _ in range(500):
        u = random_word(rng, gens, max_len=6)
        v = random_word(rng, gens, max_len=6)
        g = rng.choice(gens)
        lhs = fox_derivative(u * v, g)
        rhs = fox_derivative(u, g) + \
            GroupRingElement.from_word(u) * fox_derivative(v, g)
        fox_ok = fox_ok and lhs == rhs

    # adjoint functoriality and Killing-form invariance
    G = np.array(KILLING_GRAM, dtype=complex)
    hom_dev = 0.0
    killing_dev = 0.0
    for _ in range(500):
        A, B = random_sl2(rng), random_sl2(rng)
        AdA, AdB = adjoint_of(A), adjoint_of(B)
        prod = AdA @ AdB
        hom_dev = max(hom_dev, float(np.abs(adjoint_of(A @ B) - prod).max())
                      / (1.0 + float(np.abs(prod).max())))
        killing_dev = max(killing_dev,
                          float(np.abs(AdA @ G @ AdA.T - G).max())
                          / (1.0 + float(np.abs(AdA).max()) ** 2))

    # slope is a character invariant: conjugation leaves it unchanged
    conj_dev = 0.0
    (tref,) = riley_family(load_builtin("trefoil"), 1.7 - 0.2j)
    fig8 = riley_family(load_builtin("figure8"), 1.4 + 0.1j)
    base = [(r, complex(compute_slope(r).reading)) for r in [tref, *fig8]]
    for _ in range(50):
        rep, s0 = base[rng.randrange(len(base))]
        P = random_sl2(rng)
        conj = Representation(rep.presentation, {
            g: P @ m @ np.linalg.inv(P) for g, m in rep.images.items()})
        s1 = complex(compute_slope(conj).reading)
        conj_dev = max(conj_dev, abs(s1 - s0) / max(1.0, abs(s0)))

    # resultants are multiplicative, exactly
    res_ok = True
    for _ in range(100):
        P, Q, R = (random_tpoly(rng) for _ in range(3))
        res_ok = res_ok and \
            resultant_t(P * Q, R) == resultant_t(P, R) * resultant_t(Q, R)

    elapsed = time.perf_counter() - start
    ok = (fox_ok and hom_dev <= 1e-10 and killing_dev <= 1e-9
          and conj_dev <= 1e-7 and res_ok and elapsed < 60.0)
    report(capsys, 7, ok,
           f"property suites hold (Fox exact x500, adjoint hom dev "
           f"{hom_dev:.2e} x500, Killing dev {killing_dev:.2e}, conjugation "
           f"dev {conj_dev:.2e} x50, resultant multiplicative x100, "
           f"{elapsed:.2f}s)")


def test_criterion_8_figure8_ideal_slopes(capsys):
    A = compute_apoly_twobridge(load_builtin("figure8"))
    values = ideal_point_slopes(newton_polygon(A)).values()
    ok = (Fraction(-4) in values and Fraction(4) in values
          and all(isinstance(v, Fraction) for v in values))
    report(capsys, 8, ok,
           f"figure-eight ideal-point slopes are exactly {{-4, 4}} "
           f"(got {sorted(map(str, values))})")
