"""Exact bivariate Laurent algebra, elimination, and Newton polygon data."""

from __future__ import annotations

import cmath
import itertools
import json
import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from helpers import TWO_BRIDGE, two_bridge_text
from knotslope import apoly
from knotslope.apoly import (ApolyError, BiLaurent, TPoly, bilaurent_from_json,
                             bilaurent_gcd, bilaurent_to_json,
                             compute_apoly_twobridge,
                             compute_apoly_twobridge_detailed, format_bilaurent,
                             ideal_point_slopes, log_gauss, log_gauss_stack,
                             newton_polygon, parse_bilaurent, resultant_t,
                             riley_polynomial, side_slopes, squarefree_part,
                             tpoly_gcd)
from knotslope.cli import main
from knotslope.data import DataError, check_presentation, load_builtin
from knotslope.presentation import (KnotPresentation, Word, parse_presentation,
                                    parse_word)
from knotslope.representations import (prefix_images, riley_family,
                                       word_letters)
from knotslope.slope import Route1Plan, boundary_data

sympy = pytest.importorskip("sympy")

L_FIG8 = "L^2*M^4 - L*M^8 + L*M^6 + 2*L*M^4 + L*M^2 - L + M^4"
L_TREFOIL = "L*M^6 + 1"


def random_bilaurent(rng: Random, nterms: int = 4, span: int = 3) -> BiLaurent:
    terms = []
    for _ in range(rng.randrange(1, nterms + 1)):
        terms.append(((rng.randrange(-span, span + 1),
                       rng.randrange(-span, span + 1)),
                      Fraction(rng.randrange(-5, 6))))
    return BiLaurent(terms)


def to_sympy(p: BiLaurent):
    L, M = sympy.symbols("L M")
    expr = sympy.Integer(0)
    for (i, j), c in p.terms.items():
        expr += sympy.Rational(c) * L ** i * M ** j
    return sympy.expand(expr)


# ---------------------------------------------------------------------------
# ring operations

def test_bilaurent_arithmetic_matches_sympy():
    rng = Random(31)
    for _ in range(40):
        a = random_bilaurent(rng)
        b = random_bilaurent(rng)
        assert to_sympy(a + b) == sympy.expand(to_sympy(a) + to_sympy(b))
        assert to_sympy(a - b) == sympy.expand(to_sympy(a) - to_sympy(b))
        assert to_sympy(a * b) == sympy.expand(to_sympy(a) * to_sympy(b))


def test_bilaurent_power_and_scalars():
    p = parse_bilaurent("L + M")
    assert p ** 3 == p * p * p
    assert p ** 0 == BiLaurent.one()
    with pytest.raises(ValueError):
        p ** -1
    assert 2 * p - p == p
    assert p * Fraction(1, 2) + p * Fraction(1, 2) == p


def test_bilaurent_derivative_is_laurent_rule():
    p = parse_bilaurent("3*L^2*M^-1 - M^4 + 7")
    dL = p.derivative("L")
    dM = p.derivative("M")
    assert dL == parse_bilaurent("6*L*M^-1")
    assert dM == parse_bilaurent("-3*L^2*M^-2 - 4*M^3")


def test_bilaurent_evaluate():
    p = parse_bilaurent(L_TREFOIL)
    assert abs(p.evaluate(-2.0 ** -6, 2.0)) < 1e-14
    assert p.evaluate(1.0, 1.0) == pytest.approx(2.0)


def test_abs_evaluate_takes_each_coefficient_as_one_float():
    # numerator and denominator alone are beyond floating point
    p = BiLaurent({(1, 0): Fraction(10 ** 400 + 1, 10 ** 399), (0, 0): 1})
    (residual,), _, (error,) = log_gauss_stack(p, [1.0], [1.0])
    assert (residual, error) == (11 / 12, None)


def test_canonical_normalizes_laurent_shifts_and_content():
    p = parse_bilaurent("M^-1 + L^-2")
    assert p.canonical() == parse_bilaurent("L^2 + M")
    q = BiLaurent([((1, 0), Fraction(-2)), ((0, 0), Fraction(-4))])
    # content 2 removed, leading (lex-largest) term made positive
    assert q.canonical() == parse_bilaurent("L + 2")
    assert BiLaurent.zero().canonical() == BiLaurent.zero()


def test_exact_div_inverts_multiplication():
    rng = Random(37)
    checked = 0
    while checked < 40:
        a = random_bilaurent(rng)
        b = random_bilaurent(rng)
        if a.is_zero or b.is_zero:
            continue
        prod = a * b
        assert prod.exact_div(b) == a
        assert prod.exact_div(a) == b
        checked += 1
    # an inexact integer quotient stays exact over Q
    half = parse_bilaurent("L + 1").exact_div(BiLaurent.constant(2))
    assert half == parse_bilaurent("1/2*L + 1/2")
    assert all(type(c) is Fraction for c in half.terms.values())


def test_exact_div_rejects_non_multiples():
    with pytest.raises(ApolyError):
        parse_bilaurent("L^2 + M").exact_div(parse_bilaurent("L + 1"))


# ---------------------------------------------------------------------------
# text and JSON forms

def test_parse_format_roundtrip():
    rng = Random(41)
    for _ in range(40):
        p = random_bilaurent(rng)
        assert parse_bilaurent(format_bilaurent(p)) == p
    assert format_bilaurent(BiLaurent.zero()) == "0"
    assert parse_bilaurent("0") == BiLaurent.zero()


def test_parse_accepts_rational_and_signed_forms():
    p = parse_bilaurent("-L + 1/2*M^-2 - 3")
    assert p.coefficient(1, 0) == -1
    assert p.coefficient(0, -2) == Fraction(1, 2)
    assert p.coefficient(0, 0) == -3
    # integral coefficients are stored as int, the others as Fraction
    q = parse_bilaurent("3/2*L^-1 - M^2 L")
    assert type(q.coefficient(-1, 0)) is Fraction
    assert type(q.coefficient(1, 2)) is int


def test_parse_errors_carry_position():
    with pytest.raises(ApolyError) as info:
        parse_bilaurent("L + QQ")
    assert "column" in str(info.value)
    with pytest.raises(ApolyError):
        parse_bilaurent("L^")
    with pytest.raises(ApolyError):
        parse_bilaurent("")
    with pytest.raises(ApolyError, match="column 5: zero denominator"):
        parse_bilaurent("L + 2/0*M")


def test_json_roundtrip():
    p = parse_bilaurent(L_FIG8)
    blob = bilaurent_to_json(p)
    assert bilaurent_from_json(blob) == p
    # coefficients serialize as exact fraction strings
    q = parse_bilaurent("1/3*L - 2")
    assert sorted(c for _, _, c in bilaurent_to_json(q)["terms"]) == ["-2", "1/3"]
    r = parse_bilaurent("3/2*L^-1 - M^2 L")
    assert bilaurent_to_json(r) == {"terms": [[1, 2, "-1"], [-1, 0, "3/2"]]}
    assert bilaurent_from_json(bilaurent_to_json(r)) == r


# ---------------------------------------------------------------------------
# Newton polygon and ideal points

def test_figure8_newton_polygon_frozen():
    poly = newton_polygon(parse_bilaurent(L_FIG8))
    assert poly.vertices == ((0, 4), (1, 0), (2, 4), (1, 8))
    assert side_slopes(parse_bilaurent(L_FIG8)) == \
        [Fraction(-4), Fraction(4)]


def test_trefoil_newton_polygon_single_side():
    poly = newton_polygon(parse_bilaurent(L_TREFOIL))
    assert poly.vertices == ((0, 0), (1, 6))
    assert len(poly.sides) == 1
    assert poly.sides[0].slope == Fraction(6)


def test_collinear_interior_points_dropped():
    p = parse_bilaurent("1 + L*M + L^2*M^2")
    poly = newton_polygon(p)
    assert poly.vertices == ((0, 0), (2, 2))


def test_single_point_polygon_has_no_slopes():
    with pytest.raises(ApolyError):
        side_slopes(parse_bilaurent("L*M^2"))


def test_vertical_side_gives_infinite_slope():
    p = parse_bilaurent("1 + M^2 + L*M")
    poly = newton_polygon(p)
    slopes = [s.slope for s in poly.sides]
    assert math.inf in slopes


def test_figure8_ideal_slopes_frozen():
    report = ideal_point_slopes(newton_polygon(parse_bilaurent(L_FIG8)))
    assert report.values() == [Fraction(-4), Fraction(4)]
    vals = {(e.valuation, e.ideal_slope) for e in report.entries}
    assert ((4, 1), Fraction(4)) in vals
    assert ((-4, 1), Fraction(-4)) in vals


def test_trefoil_ideal_slope_frozen():
    report = ideal_point_slopes(newton_polygon(parse_bilaurent(L_TREFOIL)))
    assert report.values() == [Fraction(-6)]
    (entry,) = report.entries
    assert entry.valuation == (-6, 1)


# ---------------------------------------------------------------------------
# logarithmic Gauss map

def test_log_gauss_constant_on_trefoil_curve():
    A = parse_bilaurent(L_TREFOIL)
    rng = Random(43)
    for _ in range(20):
        M = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        L = -M ** -6.0
        (residual,), _, _ = log_gauss_stack(A, [L], [M])
        assert residual < 1e-9
        assert abs(log_gauss(A, L, M) - (-6.0)) < 1e-10


def test_log_gauss_vertical_tangent_is_infinite():
    A = parse_bilaurent("L^2 - 2*L + M - 1")
    # on the curve at (L, M) = (1, 2) the L-partial vanishes
    assert A.evaluate(1.0, 2.0) == 0
    assert log_gauss(A, 1.0, 2.0) == math.inf


def test_log_gauss_singular_point_rejected():
    A = parse_bilaurent("L^2 - 2*L + M^2 - 2*M + 2")
    with pytest.raises(ApolyError):
        log_gauss(A, 1.0, 1.0)  # both partials vanish
    with pytest.raises(ApolyError):
        log_gauss(A, 0.0, 1.0)  # coordinates must be nonzero


@pytest.mark.parametrize("text, bad, message", [
    (L_TREFOIL, (0.0, 2.0), "nonzero L and M"),
    (L_TREFOIL, (1.0, 0.0), "nonzero L and M"),
    # a coefficient whose term passes float range at this point only
    ("1" + "0" * 300 + "*L*M^6 + 1", (1e10, 2.0), "overflows floating point"),
    # a power beyond float range at |M| > 1, zero at |M| < 1
    ("L*M^6 + 1 + M^100000000000000000000", (-2.0 ** -6, 2.0),
     "overflows floating point"),
    ("L^2 - 2*L*M + M^2", (1.0, 1.0), "singular point"),
], ids=["L-zero", "M-zero", "coefficient", "exponent", "singular"])
def test_log_gauss_stack_gives_only_the_bad_point_its_error(text, bad,
                                                            message):
    L, M = zip((-64.0, 0.5), bad, (2.0, 0.5 + 0.25j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual, _, errors = log_gauss_stack(parse_bilaurent(text), L, M)
    assert errors[0] is None and errors[2] is None
    assert message in str(errors[1])
    # an overflowing point has no residual; a singular or zero one keeps it
    assert np.isnan(residual[1]) == (message == "overflows floating point")
    assert np.isfinite(residual[[0, 2]]).all()


def test_log_gauss_stack_without_a_float_coefficient_errs_everywhere():
    A = parse_bilaurent("1" + "0" * 400 + "*L + 1")
    residual, _, errors = log_gauss_stack(A, [1.0, 0.5, -2.0], 1.5)
    assert np.isnan(residual).all()
    assert all("overflows floating point" in str(e) for e in errors)


# ---------------------------------------------------------------------------
# resultants and gcd

def LM(i, j, c=1):
    return BiLaurent.monomial(i, j, c)


def test_resultant_frozen_examples():
    # Res_t(t - L, t - M) = L - M
    P = TPoly([LM(1, 0) * Fraction(-1), BiLaurent.one()])
    Q = TPoly([LM(0, 1) * Fraction(-1), BiLaurent.one()])
    assert resultant_t(P, Q) == LM(1, 0) - LM(0, 1)
    # Res_t(t^2 - LM, t - 1) = 1 - LM
    P2 = TPoly([LM(1, 1) * Fraction(-1), BiLaurent.zero(), BiLaurent.one()])
    Q1 = TPoly([BiLaurent.constant(-1), BiLaurent.one()])
    assert resultant_t(P2, Q1) == BiLaurent.one() - LM(1, 1)


def random_tpoly(rng: Random, max_deg: int = 2) -> TPoly:
    deg = rng.randrange(1, max_deg + 1)
    coeffs = [random_bilaurent(rng, nterms=2, span=1) for _ in range(deg)]
    lead = BiLaurent.zero()
    while lead.is_zero:
        lead = random_bilaurent(rng, nterms=2, span=1)
    return TPoly(coeffs + [lead])


def assert_pseudo_remainder(P: TPoly, Q: TPoly) -> None:
    """``prem = tpoly_prem(P, Q)`` has ``deg prem < deg Q``, and
    ``lc(Q)^(deg P - deg Q + 1)·P - prem`` is exactly divisible by ``Q``."""
    prem = apoly.tpoly_prem(P, Q)
    assert prem.is_zero or prem.degree < Q.degree
    R = P.scale(Q.leading ** (P.degree - Q.degree + 1)) - prem
    while not R.is_zero:  # long division by Q; exact_div raises if inexact
        assert R.degree >= Q.degree
        q = R.leading.exact_div(Q.leading)
        R = R - Q.shift_t(R.degree - Q.degree).scale(q)


def test_resultant_is_multiplicative():
    rng = Random(47)
    for _ in range(30):
        P = random_tpoly(rng)
        Q = random_tpoly(rng)
        R = random_tpoly(rng)
        assert resultant_t(P * Q, R) == resultant_t(P, R) * resultant_t(Q, R)
        for A, B in ((P * Q, R), (P, Q), (Q, P)):
            if A.degree >= B.degree:
                assert_pseudo_remainder(A, B)


def random_elimination_pair(rng: Random, n: int, m: int) -> tuple[TPoly, TPoly]:
    """``(P, lam)``: ``P`` monic of degree ``n`` in t, ``lam`` of degree
    ``m``, every coefficient an integer Laurent polynomial in M alone."""
    def coeff() -> BiLaurent:
        return BiLaurent([((0, rng.randrange(-2, 3)), rng.randrange(-4, 5))
                          for _ in range(rng.randrange(1, 3))])

    lam = [coeff() for _ in range(m + 1)]
    while lam[-1].is_zero:
        lam[-1] = coeff()
    return TPoly([coeff() for _ in range(n)] + [BiLaurent.one()]), TPoly(lam)


def test_dense_remainder_is_the_pseudo_remainder():
    """``_monic_rem`` is ``tpoly_prem`` by a monic divisor: with small
    coefficients, ones that outgrow ``int64`` on the way, ones beyond it
    from the start, and a zero remainder."""
    rng = Random(61)
    dtypes = set()
    for scale in (1, 2**57, 2**70):
        for n, m in ((1, 3), (2, 5), (3, 7), (2, 2)):
            P, lam = random_elimination_pair(rng, n, m)
            lam = lam.scale(BiLaurent.constant(scale))
            for A in (lam, lam * P):
                got, lo = apoly._monic_rem(*apoly._dense(A), *apoly._dense(P))
                want = apoly.tpoly_prem(A, P)
                if want.is_zero:
                    assert got.size == 0
                    continue
                dtypes.add((apoly._dense(A)[0].dtype, got.dtype))
                want, want_lo = apoly._dense(want)
                assert lo == want_lo and np.array_equal(got, want)
    assert (np.dtype(np.int64), np.dtype(object)) in dtypes


def l_minus(lam: TPoly) -> TPoly:
    """``L - lam(t)``."""
    return TPoly.constant(LM(1, 0)) - lam


def test_resultant_matches_sympy():
    L, M, t = sympy.symbols("L M t")
    rng = Random(53)
    # (P, Q, lam where Q = L - lam has the elimination's shape, else None)
    cases = [(random_tpoly(rng), random_tpoly(rng), None) for _ in range(10)]
    # the elimination's shape, P monic, where the modular method applies:
    # deg lam >= deg P and < deg P, negative M-exponents
    for n, m in ((2, 1), (2, 4), (3, 2), (3, 5), (1, 2)):
        P, lam = random_elimination_pair(rng, n, m)
        cases.append((P, l_minus(lam), lam))
    # lam = P*S + 5/M reduces to a constant modulo P
    P, S = random_elimination_pair(rng, 3, 2)
    lam = P * S + TPoly.constant(LM(0, -1, 5))
    cases.append((P, l_minus(lam), lam))
    # a coefficient -3 (2^50 + 1)^2, near -2^101: several primes and a
    # negative symmetric residue
    P = TPoly([LM(0, 2, -3), BiLaurent.zero(), BiLaurent.one()])
    lam = TPoly([LM(0, -1), BiLaurent.constant(2**50 + 1)])
    cases.append((P, l_minus(lam), lam))
    # a leading coefficient that is not 1, which only Bareiss takes
    for lead in (BiLaurent.constant(2), parse_bilaurent("M + 1")):
        P, lam = random_elimination_pair(rng, 2, 3)
        cases.append((TPoly([*P.coeffs[:-1], lead]), l_minus(lam), None))

    for P, Q, lam in cases:
        got = resultant_t(P, Q)
        if lam is not None:
            assert apoly._resultant_modular(*apoly._dense(P),
                                            *apoly._dense(lam)) == got
        sp = sum(to_sympy(c) * t ** k for k, c in enumerate(P.coeffs))
        sq = sum(to_sympy(c) * t ** k for k, c in enumerate(Q.coeffs))
        # sympy.resultant is the Sylvester determinant of (f, g) only when
        # deg f >= deg g; Res(P, Q) = (-1)^(deg P deg Q) Res(Q, P)
        if P.degree >= Q.degree:
            expected = sympy.resultant(sp, sq, t)
        else:
            expected = (-1) ** (P.degree * Q.degree) * sympy.resultant(sq, sp, t)
        assert to_sympy(got) == sympy.expand(expected)


def test_resultant_requires_positive_degree():
    with pytest.raises(ApolyError):
        resultant_t(TPoly.constant(BiLaurent.one()),
                    TPoly([BiLaurent.one(), BiLaurent.one()]))


def test_gcd_divides_common_multiples():
    rng = Random(59)
    checked = 0
    while checked < 15:
        f = random_bilaurent(rng, nterms=2, span=1)
        g = random_bilaurent(rng, nterms=2, span=1)
        h = random_bilaurent(rng, nterms=2, span=1)
        if f.is_zero or g.is_zero or h.is_zero:
            continue
        d = bilaurent_gcd(f * h, g * h)
        # h divides the gcd of (fh, gh)
        d.exact_div(h.canonical())
        checked += 1


def test_gcd_simple_cases():
    p = parse_bilaurent("L^2 - M^2")
    q = parse_bilaurent("L - M") * parse_bilaurent("L + 2*M")
    g = bilaurent_gcd(p, q)
    assert g == parse_bilaurent("L - M")
    assert bilaurent_gcd(p, BiLaurent.zero()) == p.canonical()
    one = bilaurent_gcd(parse_bilaurent("L + 1"), parse_bilaurent("M + 1"))
    assert one == BiLaurent.one()
    # univariate Euclid over Q: the quotients 2/3, ... must stay exact
    assert bilaurent_gcd(parse_bilaurent("2*L^2 + 3*L + 1"),
                         parse_bilaurent("3*L^2 + 4*L + 1")) == parse_bilaurent("L + 1")
    # rational coefficients: (t + 1)(t/2 + 1/3) and (t + 1)(t - 1/5)
    g = apoly._q_gcd([Fraction(1, 3), Fraction(5, 6), Fraction(1, 2)],
                     [Fraction(-1, 5), Fraction(4, 5), 1])
    assert len(g) == 2 and g[0] == g[1]


def test_squarefree_part_removes_multiplicity():
    base = parse_bilaurent("L*M + 1") ** 2 * parse_bilaurent("L + M")
    part, removed = squarefree_part(base)
    assert part == (parse_bilaurent("L*M + 1") * parse_bilaurent("L + M")).canonical()
    assert removed == 1
    already, removed0 = squarefree_part(parse_bilaurent(L_FIG8))
    assert removed0 == 0
    assert already == parse_bilaurent(L_FIG8)


def assert_in_exponent_range(phi: TPoly, lam: TPoly, resultant: BiLaurent):
    """The M-exponent range read off ``phi``'s Newton polygon holds every
    M-exponent of ``resultant``."""
    r = apoly.tpoly_prem(lam, phi) if lam.degree >= phi.degree else lam
    if lam.degree >= phi.degree:
        assert_pseudo_remainder(lam, phi)
        # the dense remainder of the modular path is the reference's
        R, r_lo = apoly._monic_rem(*apoly._dense(lam), *apoly._dense(phi))
        want, want_lo = apoly._dense(r)
        assert r_lo == want_lo and np.array_equal(R, want)
    lo, hi = apoly._exponent_range(*apoly._dense(phi), *apoly._dense(r))
    js = [j for _, j in resultant.terms]
    assert lo <= min(js) and max(js) <= hi


#: every two-bridge knot b(p, q) with odd q and p <= 15
ODD_Q_FAMILY = [(p, q) for p in range(3, 16, 2) for q in range(1, p, 2)
                if math.gcd(p, q) == 1]


@pytest.mark.parametrize(
    "p, q", [*ODD_Q_FAMILY, (17, 5)],
    ids=[f"b{p}_{q}" for p, q in [*ODD_Q_FAMILY, (17, 5)]])
def test_log_gauss_stack_is_the_derivative_quotient_at_route1_points(p, q):
    """On the family's A at route 1's points, the stack's map is
    ``-(M A_M) / (L A_L)`` from the derivative polynomials, and a point
    gives the same bits alone as in its meridian's stack."""
    pres = parse_presentation(two_bridge_text(p, q))
    res = compute_apoly_twobridge_detailed(pres)
    A, plan = res.apoly, Route1Plan(pres, res.riley_polynomial)
    dL, dM = A.derivative("L"), A.derivative("M")
    meridians = [1.3 + 0.2j, 1.8 + 0.9j, 0.7 + 0.4j, -1.2 + 0.1j]
    for family in plan.evaluate_meridians(meridians):
        points = [(r.L, r.M) for _, r in family if r.L is not None]
        L, M = zip(*points)
        residual, gauss, errors = log_gauss_stack(A, L, M)
        assert errors == [None] * len(points)
        for k, (Lk, Mk) in enumerate(points):
            want = -(Mk * dM.evaluate(Lk, Mk)) / (Lk * dL.evaluate(Lk, Mk))
            assert abs(gauss[k] - want) <= 1e-10 * abs(want)
            alone = log_gauss_stack(A, [Lk], [Mk])
            assert (alone[0][0], alone[1][0]) == (residual[k], gauss[k])


@pytest.mark.parametrize("p, q", ODD_Q_FAMILY,
                         ids=[f"b{p}_{q}" for p, q in ODD_Q_FAMILY])
def test_family_resultant_equals_bareiss(p, q):
    """The elimination's resultant, by the modular method, is the raw
    Bareiss determinant of the same Sylvester matrix, and its M-exponents
    lie in the range read off phi's Newton polygon."""
    res = compute_apoly_twobridge_detailed(parse_presentation(two_bridge_text(p, q)))
    phi, lam = res.riley_polynomial, res.longitude_eigenvalue
    got = apoly._resultant_modular(*apoly._dense(phi), *apoly._dense(lam))
    assert got == resultant_t(phi, l_minus(lam))
    assert_in_exponent_range(phi, lam, got)


#: monic ``phi`` whose Newton polygon is one segment, and ``lam``, both
#: ascending in t
SEGMENT_CASES = {
    "t^2-M^4": (["-M^4", "0", "1"], ["M", "M^-2"]),
    "t+M^3": (["M^3", "1"], ["M^-1", "M^2"]),
    "(t+M^2)^2": (["M^4", "2*M^2", "1"], ["M", "M^-2"]),
    # the roots 0 and -M, where r = M^5 + t is M^5 and M^5 - M
    "t^2+M*t": (["0", "M", "1"], ["M^5", "1"]),
}


@pytest.mark.parametrize("phi, lam", SEGMENT_CASES.values(), ids=SEGMENT_CASES)
def test_segment_polygon_resultant_equals_bareiss(phi, lam):
    phi = TPoly([parse_bilaurent(c) for c in phi])
    lam = TPoly([parse_bilaurent(c) for c in lam])
    expected = resultant_t(phi, l_minus(lam))
    assert apoly._resultant_modular(*apoly._dense(phi),
                                    *apoly._dense(lam)) == expected
    assert_in_exponent_range(phi, lam, expected)


#: monic ``phi`` and ``lam``, both ascending in t, and ``d``, the gcd of
#: the M-exponents of ``phi`` and ``r = lam mod phi``; the point count ``K``
#: is prime, 12, a power of two and 1
X_CASES = {
    "odd-exponent": (["-1", "M", "1"], ["M^2", "M^-1"], 1),  # K = 7
    # lam of degree 4 is reduced modulo phi first; K = 12
    "M^3": (["M^-3", "-M^3", "0", "1"], ["M^6", "0", "M^-3 + 2", "0", "1"], 3),
    # the resultant spans x^-2 .. x^5, all K = 8 points
    "K=8": (["M^2", "1", "1"], ["M^-2", "M^4"], 2),
    # no M at all: one point, x = 1
    "K=1": (["-2", "0", "1"], ["1", "1"], 1),
}


@pytest.mark.parametrize("phi, lam, d", X_CASES.values(), ids=X_CASES)
def test_resultant_in_x_equals_bareiss(monkeypatch, phi, lam, d):
    """The modular resultant runs in ``x = M^d``: on one point per
    exponent of ``x``, and equal to the Bareiss determinant."""
    phi = TPoly([parse_bilaurent(c) for c in phi])
    lam = TPoly([parse_bilaurent(c) for c in lam])
    expected = resultant_t(phi, l_minus(lam))
    points = []
    charpoly = apoly._charpoly_at
    monkeypatch.setattr(apoly, "_charpoly_at", lambda a, r, primes:
                        points.append(a.shape[-1]) or charpoly(a, r, primes))
    assert apoly._resultant_modular(*apoly._dense(phi),
                                    *apoly._dense(lam)) == expected
    monkeypatch.undo()
    assert_in_exponent_range(phi, lam, expected)
    r = apoly.tpoly_prem(lam, phi) if lam.degree >= phi.degree else lam
    lo, hi = apoly._exponent_range(*apoly._dense(phi), *apoly._dense(r))
    assert points == [(hi - lo) // d + 1]


def test_modular_product_is_exact_at_its_bound():
    """``_mulmod`` against Python ints at the widest primes (``n = 1``) and
    the largest ``K`` that two limbs allow, on all-``(q - 1)`` residues and
    on random ones; one point more takes a third limb."""
    bits = next(apoly._descending_primes(1, 1)).bit_length()
    K = max(k for k in range(1, 1024) if apoly._limb_split(k, bits)[0] == 2)
    assert K == 256 and apoly._limb_split(K + 1, bits)[0] == 3
    primes = list(itertools.islice(apoly._descending_primes(1, K), 2))
    assert all(q.bit_length() == bits and q % K == 1 for q in primes)
    rng = np.random.default_rng(0)
    q = np.array(primes, dtype=np.int64)[:, None, None]
    top = q - 1 + np.zeros((2, K, K), dtype=np.int64)
    for a, b in [(top[:, :3], top), (rng.integers(0, q, (2, 3, K)),
                                     rng.integers(0, q, (2, K, K)))]:
        got = apoly._mulmod(a, b.astype(np.float64), q,
                            *apoly._limb_split(K, bits))
        want = [np.array(x.tolist(), dtype=object)
                @ np.array(y.tolist(), dtype=object) % p
                for x, y, p in zip(a, b, primes)]
        assert [g.tolist() for g in got] == [w.tolist() for w in want]


def test_unit_roots_evaluate_and_interpolate():
    """Evaluation on a coset ``c·ω^i`` agrees with Python ints at every
    point, for Laurent exponents folded modulo ``K``, and interpolation
    undoes it, for ``K`` prime, a power of two and 1."""
    rng = np.random.default_rng(1)
    for K in (1, 8, 61):
        primes = list(itertools.islice(apoly._descending_primes(4, K), 3))
        roots = apoly._UnitRoots(K, primes)
        coeffs = rng.integers(-10**6, 10**6, (2, K))
        for lo, c in [(0, 1), (-(K // 2), 5), (3, 2)]:
            values = roots.evaluate(coeffs, lo, c)
            for i, q in enumerate(primes):
                omega = int(roots.table[i, 1 % K, 1 % K])
                assert pow(omega, K, q) == 1
                assert len({pow(omega, m, q) for m in range(K)}) == K
                for m in range(K):
                    x = c * pow(omega, m, q) % q
                    want = [sum(int(v) * pow(x, lo + j, q)
                                for j, v in enumerate(row)) % q
                            for row in coeffs]
                    assert values[i, :, m].tolist() == want
            back = roots.interpolate(values, lo, c)
            assert (back == coeffs[None] % roots.q).all()


def two_bridge_resultant(name: str) -> BiLaurent:
    pres = parse_presentation(TWO_BRIDGE[name])
    return compute_apoly_twobridge_detailed(pres).resultant


def prs_squarefree_part(p: BiLaurent) -> tuple[BiLaurent, int]:
    """``squarefree_part(p)`` computed from the PRS gcd alone."""
    p = p.canonical()
    g = bilaurent_gcd(p, p.derivative("L"))
    exps = [i for i, _ in g.terms]
    return p.exact_div(g).canonical(), max(exps) - min(exps)


@pytest.mark.parametrize("make, skips_prs, removed", [
    pytest.param(lambda: two_bridge_resultant("b13_5"), True, 0, id="b13_5"),
    # not certified, but monic in L: the modular path proves its answer
    pytest.param(lambda: two_bridge_resultant("b15_11"), True, 2,
                 id="b15_11"),
    # lc_L = (M-2)(M-3) vanishes at 2 and 3; p(L, 4) = 2L^2 + L + 1
    pytest.param(lambda: parse_bilaurent("M^2 - 5*M + 6") * LM(2, 0)
                 + parse_bilaurent("L + 1"), True, 0, id="lc-vanishes-at-2-3"),
    # lc_L = (M-2)^2; p(L, 3) = (L+1)^2 (L+3) has a repeated factor
    pytest.param(lambda: parse_bilaurent("L*M - 2*L + 1") ** 2
                 * parse_bilaurent("L + M"), False, 1, id="lc-vanishes-at-2"),
    # squarefree, but p(L, 2) = L^2 gains a repeated factor; the modular
    # path finds S = p, which the certificate cannot prove
    pytest.param(lambda: parse_bilaurent("L^2 - M + 2"), False, 0,
                 id="specialisation-gains-a-square"),
    # squarefree in L, but the content M + 1 is part of the gcd
    pytest.param(lambda: parse_bilaurent("M + 1") * parse_bilaurent("L^2 + L + 1"),
                 False, 0, id="content-in-M"),
])
def test_squarefree_certificate_agrees_with_prs(monkeypatch, make, skips_prs,
                                                removed):
    p = make()
    gcd_calls = []

    def counting_gcd(a, b):
        gcd_calls.append(1)
        return bilaurent_gcd(a, b)

    monkeypatch.setattr(apoly, "bilaurent_gcd", counting_gcd)
    got = squarefree_part(p)
    monkeypatch.undo()
    assert (not gcd_calls) == skips_prs
    assert got == prs_squarefree_part(p)
    assert got[1] == removed


def fail(*args):
    raise AssertionError("the PRS gcd ran")


UNLUCKY_X_1 = {
    "b15_11": lambda: two_bridge_resultant("b15_11"),
    # in x = M^2, the factors L - x and L - 1 meet at x = 1
    "(L-M^2)^2(L-1)": lambda: (parse_bilaurent("L - M^2") ** 2
                               * parse_bilaurent("L - 1")),
}


def spy_on_cosets(monkeypatch) -> list[tuple[int, int, int, int]]:
    """Record ``(q, K, c, ω)`` of every coset ``_UnitRoots.interpolate``
    reads images from."""
    cosets = []
    interpolate = apoly._UnitRoots.interpolate

    def spy(roots, values, lo, c=1):
        ((q,), K) = roots.primes, roots.K
        cosets.append((q, K, c, int(roots.table[0, 1 % K, 1 % K])))
        return interpolate(roots, values, lo, c)

    monkeypatch.setattr(apoly._UnitRoots, "interpolate", spy)
    return cosets


@pytest.mark.parametrize("make", UNLUCKY_X_1.values(), ids=UNLUCKY_X_1)
def test_modular_squarefree_skips_the_unlucky_point_x_1(monkeypatch, make):
    """Every point of the coset the images come from has the true gcd
    degree, and the coset does not hold ``x = 1``, where the degree is
    higher; the PRS does not run."""
    p = make().canonical()
    cosets = spy_on_cosets(monkeypatch)
    monkeypatch.setattr(apoly, "bilaurent_gcd", fail)
    got = squarefree_part(p)
    monkeypatch.undo()
    assert got == prs_squarefree_part(p)
    d = math.gcd(*(j for _, j in p.terms))
    n = max(i for i, _ in p.terms)

    def gcd_degree(x: int, q: int) -> int:
        chi = [sum(c * pow(x, j // d, q) for (i, j), c in p.terms.items()
                   if i == k) % q for k in range(n + 1)]
        inv = pow(chi[-1], -1, q)
        return apoly._squarefree_mod([c * inv % q for c in chi], q)[1]

    assert cosets
    for q, K, c, omega in cosets:
        assert pow(c, K, q) != 1
        assert gcd_degree(1, q) > got[1]
        assert [gcd_degree(c * pow(omega, m, q) % q, q) for m in range(K)] \
            == [got[1]] * K


#: primes ascending from 5; each case takes those 1 mod its ``K``
SMALL_PRIMES = [q for q in range(5, 256) if all(q % k for k in range(2, q))]


@pytest.mark.parametrize("make, skips", [
    # K = 16: 17 holds no coset but the subgroup, and 113 none of three
    # tried without an unlucky point
    (UNLUCKY_X_1["b15_11"], True),
    (UNLUCKY_X_1["(L-M^2)^2(L-1)"], False),
], ids=UNLUCKY_X_1)
def test_modular_squarefree_with_small_primes(monkeypatch, make, skips):
    """Modulo primes this small the CRT needs several primes, and some
    primes are skipped; the exact checks still give the PRS's answer."""
    p = make()
    offered = []

    def small_primes(n, K):
        for q in SMALL_PRIMES:
            if q % K == 1:
                offered.append(q)
                yield q

    monkeypatch.setattr(apoly, "_descending_primes", small_primes)
    cosets = spy_on_cosets(monkeypatch)
    monkeypatch.setattr(apoly, "bilaurent_gcd", fail)
    got = squarefree_part(p)
    monkeypatch.undo()
    assert got == prs_squarefree_part(p)
    used = {q for q, *_ in cosets}
    assert len(used) >= 2
    assert bool(set(offered) - used) == skips


FAMILY_AND_B17_5 = [*ODD_Q_FAMILY, (17, 5)]


@pytest.mark.parametrize("p, q", FAMILY_AND_B17_5,
                         ids=[f"b{p}_{q}" for p, q in FAMILY_AND_B17_5])
def test_elimination_takes_no_prs_gcd(monkeypatch, p, q):
    """``riley_polynomial`` takes an entry that divides the others, and the
    M-content and the squarefree part need no gcd; the Riley polynomial
    is the one the gcd of the entries gives, term order included."""
    pres = parse_presentation(two_bridge_text(p, q))
    monkeypatch.setattr(apoly, "bilaurent_gcd", fail)
    monkeypatch.setattr(apoly, "tpoly_gcd", fail)
    compute_apoly_twobridge_detailed(pres)
    monkeypatch.undo()
    phi = riley_polynomial(pres)
    monkeypatch.setattr(apoly, "_divides_all", lambda g, entries: False)
    reference = riley_polynomial(pres)
    assert [list(c.terms.items()) for c in phi.coeffs] == \
        [list(c.terms.items()) for c in reference.coeffs]


@pytest.mark.parametrize("p, q", FAMILY_AND_B17_5,
                         ids=[f"b{p}_{q}" for p, q in FAMILY_AND_B17_5])
def test_elimination_lists_its_terms_in_a_fixed_order(p, q):
    """``log_gauss_stack`` sums ``A``'s terms in dict order, so the order
    is part of ``verify``'s last bits: the resultant lists them by (L
    ascending, M descending), and so does ``A`` when nothing was removed;
    a part with a factor removed lists them by (L, M) descending."""
    res = compute_apoly_twobridge_detailed(
        parse_presentation(two_bridge_text(p, q)))
    keys = list(res.resultant.terms)
    assert keys == sorted(keys, key=lambda e: (e[0], -e[1]))
    keys = list(res.apoly.terms)
    if res.multiplicity_removed:
        assert keys == sorted(keys, reverse=True)
    else:
        assert keys == sorted(keys, key=lambda e: (e[0], -e[1]))


SQUAREFREE_KNOTS = [*ODD_Q_FAMILY, (17, 1), (19, 1)]


@pytest.mark.parametrize("p, q", SQUAREFREE_KNOTS,
                         ids=[f"b{p}_{q}" for p, q in SQUAREFREE_KNOTS])
def test_squarefree_part_equals_prs_on_the_family(p, q):
    """Multiplicities 0 to 8 removed, and a part with a factor removed
    lists its terms in the PRS quotient's order."""
    res = compute_apoly_twobridge_detailed(
        parse_presentation(two_bridge_text(p, q)))
    got, want = squarefree_part(res.resultant), prs_squarefree_part(res.resultant)
    assert got == want
    if got[1]:
        assert list(got[0].terms.items()) == list(want[0].terms.items())


def test_elimination_stores_integer_coefficients(monkeypatch):
    """A numpy integer leaking out of the Riley words or the modular
    resultant would compare equal to its ``int``, but it would wrap around
    in ``BiLaurent`` arithmetic; the resultant is the modular one."""
    monkeypatch.setattr(apoly, "resultant_t", None)  # must not run
    for p, q in ODD_Q_FAMILY:
        res = compute_apoly_twobridge_detailed(
            parse_presentation(two_bridge_text(p, q)))
        phi, lam = res.riley_polynomial, res.longitude_eigenvalue
        polys = [*phi.coeffs, *lam.coeffs, res.resultant, res.apoly]
        assert all(type(c) is int for f in polys for c in f.terms.values())
        assert all(type(e) is int for f in polys for k in f.terms for e in k)


def shifted(word: Word, k: int) -> Word:
    """``word`` cyclically shifted left by ``k`` letters."""
    return Word(word.letters[k:] + word.letters[:k])


#: relators of b(p, q) not written ``a w = w b``, from ``a``, ``b`` and ``w``
REWRITES = {
    "a-w-b^-1-w^-1=1": lambda a, b, w: (a * w * b.inverse() * w.inverse(),
                                        Word.identity()),
    "w^-1-a-w=b": lambda a, b, w: (w.inverse() * a * w, b),
    "conjugated-by-a-b": lambda a, b, w: (
        a * b * a * w * b.inverse() * w.inverse() * b.inverse() * a.inverse(),
        Word.identity()),
    "shifted-by-1": lambda a, b, w: (
        shifted(a * w * b.inverse() * w.inverse(), 1), Word.identity()),
    "shifted-by-3": lambda a, b, w: (
        shifted(a * w * b.inverse() * w.inverse(), 3), Word.identity()),
    "inverted": lambda a, b, w: ((a * w * b.inverse() * w.inverse()).inverse(),
                                 Word.identity()),
}


@pytest.mark.parametrize("rewrite", REWRITES)
@pytest.mark.parametrize("p, q", [(7, 3), (11, 3), (13, 5)],
                         ids=["b7_3", "b11_3", "b13_5"])
def test_rewritten_relator_gives_the_monic_riley_polynomial(monkeypatch, p, q,
                                                            rewrite):
    """These relators leave a unit ``±M^k`` on the leading coefficient of
    the gcd (``-M^-55`` on b(13,5) conjugated by ``a b``); dividing it out
    gives the Schubert text's ``phi``, and the elimination stays modular."""
    pres = parse_presentation(two_bridge_text(p, q))
    ref = compute_apoly_twobridge_detailed(pres)
    ((aw, _),) = pres.relators
    w = Word(aw.letters[1:])
    relator = REWRITES[rewrite](Word([("a", 1)]), Word([("b", 1)]), w)
    monkeypatch.setattr(apoly, "resultant_t", None)  # must not run
    res = compute_apoly_twobridge_detailed(replace(pres, relators=(relator,)))
    assert res.riley_polynomial == ref.riley_polynomial
    assert res.apoly == ref.apoly


def substituted(word: Word, images: dict[str, Word]) -> Word:
    """``word`` with each generator replaced by its image."""
    out = Word.identity()
    for g, e in word.letters:
        out = out * (images[g] if e > 0 else images[g].inverse())
    return out


def repaired(pres: KnotPresentation, pairing: str) -> KnotPresentation:
    """b(p, q)'s presentation ``a w = w b`` on another pair of meridians:
    meridian ``b``, whose longitude is ``w^-1 l w`` as ``b = w^-1 a w``;
    ``b -> a^-k b a^k``, keeping the meridian ``a``; or ``a -> b^-k a
    b^k``, whose meridian ``a`` has the longitude ``b^k l b^-k``."""
    a, b, l = Word([("a", 1)]), Word([("b", 1)]), pres.longitude
    if pairing == "meridian-b":
        w = Word(pres.relators[0][0].letters[1:])
        return replace(pres, meridian=b, longitude=w.inverse() * l * w)
    gen, k = pairing.split("->")
    k = int(k)
    images = ({"a": a, "b": a ** -k * b * a ** k} if gen == "b"
              else {"a": b ** -k * a * b ** k, "b": b})
    relators = tuple((substituted(x, images), substituted(y, images))
                     for x, y in pres.relators)
    longitude = substituted(l, images)
    if gen == "a":
        longitude = b ** k * longitude * b ** -k
    return replace(pres, relators=relators, longitude=longitude)


REPAIRINGS = ["meridian-b", *(f"{g}->{k}" for g in "ba" for k in (1, 2, -1))]


@pytest.mark.parametrize("pairing", REPAIRINGS)
def test_repaired_meridians_give_the_monic_riley_polynomial(pairing):
    """On another pair of meridian generators every family knot has the
    Schubert text's ``phi``, and b(7,3), b(11,3) and b(13,5) its ``A``."""
    for p, q in ODD_Q_FAMILY:
        pres = parse_presentation(two_bridge_text(p, q))
        other = repaired(pres, pairing)
        assert riley_polynomial(other) == riley_polynomial(pres), (p, q)
        if (p, q) in ((7, 3), (11, 3), (13, 5)):
            assert (compute_apoly_twobridge(other)
                    == compute_apoly_twobridge(pres)), (p, q)


#: a presentation whose relator entries have a gcd with the leading
#: coefficient ``NON_MONIC_LEAD``, with the longitude to fill in
NON_MONIC = ("gens: a b ; rel: b^-1 a^-1 b a^2 = b^2 a b^-1 a^-1 ; "
             "meridian: a ; longitude: {}")
NON_MONIC_LEAD = "-M^2 - 1 - M^-2"


def relator_gcd(pres: KnotPresentation) -> TPoly:
    """The gcd of the relator entries by ``tpoly_gcd``, with no unit
    divided out and no check that it is monic."""
    generators = apoly._riley_generators(pres)
    g = TPoly()
    for lhs, rhs in pres.relators:
        n = max(len(lhs.letters), len(rhs.letters))
        D = (apoly._riley_word(lhs, generators, n)
             - apoly._riley_word(rhs, generators, n))
        for entry in D.reshape(4, n + 1, -1):
            g = tpoly_gcd(g, apoly._riley_entry(entry))
    return g


@pytest.mark.parametrize("longitude", ["b a b^-1 a^-1", "b a^-1"],
                         ids=["commutator", "constant-lam"])
def test_non_monic_riley_polynomial_is_refused(monkeypatch, tmp_path, capsys,
                                               longitude):
    """A ``phi`` whose leading coefficient is not a unit ``±M^k`` is no
    two-bridge knot's: the library call, ``apoly`` and the file check
    refuse it with an error that names the coefficient, and ``scan``
    reports that error at every sample.  ``check_presentation`` refuses
    such a ``phi`` from a caller before any remainder is taken."""
    text = NON_MONIC.format(longitude)
    pres = parse_presentation(text)
    with pytest.raises(ApolyError, match=re.escape(NON_MONIC_LEAD)):
        riley_polynomial(pres)
    path = tmp_path / "non_monic.txt"
    path.write_text(text, encoding="utf-8")
    for argv in (["apoly", str(path)], ["presentation", "check", str(path)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out and NON_MONIC_LEAD in err
    assert main(["scan", str(path), "--samples", "3"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["verdict"] for r in records] == ["error"] * 3
    assert all(NON_MONIC_LEAD in r["error"] for r in records)
    phi = relator_gcd(pres)
    assert phi.leading == parse_bilaurent(NON_MONIC_LEAD)
    monkeypatch.setattr(apoly, "_monic_rem", None)  # must not run
    with pytest.raises(DataError, match=re.escape(NON_MONIC_LEAD)):
        check_presentation(pres, str(path), phi)


def test_resultant_t_matches_sympy_on_a_non_monic_phi():
    """The Sylvester determinant for a ``phi`` that is not monic: the
    refused presentation's relator gcd and longitude eigenvalue give
    sympy's resultant exactly."""
    pres = parse_presentation(NON_MONIC.format("b a b^-1 a^-1"))
    phi = relator_gcd(pres)
    lam = apoly._riley_entry(apoly._riley_word(
        pres.longitude, apoly._riley_generators(pres))[0, 0])
    assert phi.leading == parse_bilaurent(NON_MONIC_LEAD)
    L, M, t = sympy.symbols("L M t")
    expected = sympy.resultant(
        sum(to_sympy(c) * t ** k for k, c in enumerate(phi.coeffs)),
        L - sum(to_sympy(c) * t ** k for k, c in enumerate(lam.coeffs)), t)
    # M^16 clears the negative powers of M
    poly = sympy.Poly(sympy.expand(expected * M ** 16), L, M)
    assert BiLaurent(poly.terms()) == resultant_t(phi, l_minus(lam)).shift(0, 16)


#: b(17,5), and the knots past it whose file check once failed in floats
THEOREM_KNOTS = [(17, 5), (23, 1), (25, 1), (25, 3), (27, 1), (27, 5)]


@pytest.mark.parametrize("p, q", THEOREM_KNOTS,
                         ids=[f"b{p}_{q}" for p, q in THEOREM_KNOTS])
def test_apoly_meets_the_theorems(p, q, tmp_path, capsys):
    """Oracles that do not reuse the elimination code, on ``apoly``'s
    output for a file."""
    path = tmp_path / f"b{p}_{q}.txt"
    path.write_text(two_bridge_text(p, q), encoding="utf-8")
    assert main(["apoly", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    A = parse_bilaurent(report["polynomial"])
    # b(p,1)'s resultant is A^((p-1)/2), the torus knot's one factor
    assert report["multiplicity_removed"] == (0 if q > 1 else (p - 3) // 2)
    assert all(j % 2 == 0 for _, j in A.terms)
    # A(1/L, 1/M) is a unit multiple of A (Cooper-Culler-Gillet-Long-Shalen)
    assert BiLaurent({(-i, -j): c for (i, j), c in A.terms.items()}).canonical() == A
    # boundary slopes of two-bridge knots are even integers (Hatcher-Thurston)
    slopes = ideal_point_slopes(newton_polygon(A)).values()
    assert slopes
    assert all(s != math.inf and s.denominator == 1 and s % 2 == 0 for s in slopes)
    if q == 1:  # the torus knot T(2, p): one side, of slope 2p up to sign
        assert slopes == [-2 * p]


# ---------------------------------------------------------------------------
# Riley words, Riley polynomial and the A-polynomial

def check_riley_word(word: Word, generators: tuple[str, str], rng: Random,
                     points: int = 3) -> list[list[TPoly]]:
    """The entries of ``word``'s exact Riley image, after checking that
    they hold ``int`` coefficients and that, at random ``(t, M)``, they
    match the numeric product of the Riley matrices along the word."""
    X = apoly._riley_word(word, generators)
    entries = [[apoly._riley_entry(X[r, c]) for c in range(2)] for r in range(2)]
    assert all(type(v) is int for row in entries for p in row
               for c in p.coeffs for v in c.terms.values())
    letters = word_letters(word, generators)
    for _ in range(points):
        t = cmath.rect(rng.uniform(0.3, 1.0), rng.uniform(-math.pi, math.pi))
        M = cmath.rect(rng.uniform(0.8, 1.25), rng.uniform(-math.pi, math.pi))
        images = np.array([[[[M, 1], [0, 1 / M]], [[M, 0], [t, 1 / M]]]])
        want = prefix_images(images, letters)[0, -1]
        got = np.array([[p.evaluate(t, 1.0, M) for p in row] for row in entries])
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), (word, t, M)
    return entries


RILEY_WORD_KNOTS = [*(f"b{p}_{q}" for p, q in ODD_Q_FAMILY), "trefoil", "figure8"]


@pytest.mark.parametrize("name", RILEY_WORD_KNOTS)
def test_riley_words_match_numeric_products(name):
    """Every relator side and the longitude, against ``prefix_images``."""
    if name.startswith("b"):
        pres = parse_presentation(two_bridge_text(*map(int, name[1:].split("_"))))
    else:
        pres = load_builtin(name)
    generators = apoly._riley_generators(pres)
    rng = Random(RILEY_WORD_KNOTS.index(name))
    for word in (*itertools.chain(*pres.relators), pres.longitude):
        check_riley_word(word, generators, rng)


def test_riley_word_edge_cases():
    rng = Random(7)
    uv = ("u", "v")
    pres = parse_presentation(
        "gens: u v ;\nrel: u = v ;\nmeridian: u ;\nlongitude: u v^-1")
    for word in (*pres.relators[0], pres.longitude):
        check_riley_word(word, uv, rng)
    # the identity side of a relation "w = 1"
    assert check_riley_word(Word.identity(), uv, rng) == [
        [TPoly.constant(BiLaurent.one()), TPoly()],
        [TPoly(), TPoly.constant(BiLaurent.one())]]
    # an unreduced word has the image of its reduced form
    assert (check_riley_word(parse_word("u u^-1 v", uv), uv, rng)
            == check_riley_word(parse_word("v", uv), uv, rng))
    # the array holds Python ints once the word's column bound reaches
    # 2^61, as on b(5,3)'s longitude^12 (96 letters), and int64 below it,
    # as on b(27,1)'s longitude (104 letters); either way the image of a
    # word is the product of the images of its halves, multiplied as
    # polynomials (exactly: evaluated in floats, these words lose digits)
    ab = ("a", "b")
    long_words = [(parse_presentation(two_bridge_text(5, 3)).longitude ** 12,
                   object),
                  (parse_presentation(two_bridge_text(27, 1)).longitude,
                   np.int64)]
    for word, dtype in long_words:
        assert apoly._riley_word(word, ab).dtype == dtype
        k = len(word.letters) // 2
        A, B, AB = (check_riley_word(w, ab, rng, points=0) for w in
                    (Word(word.letters[:k]), Word(word.letters[k:]), word))
        assert AB == [[A[r][0] * B[0][c] + A[r][1] * B[1][c]
                       for c in range(2)] for r in range(2)]


def test_riley_polynomial_matches_numeric_roots():
    fig8 = load_builtin("figure8")
    phi = riley_polynomial(fig8)
    assert phi.degree == 2
    for M in (1.3, 0.9 + 0.3j):
        for rep in riley_family(fig8, M):
            val = phi.evaluate(rep.riley_t, 1.0, M)  # L plays no role in phi
            scale = sum(abs(c.evaluate(1.0, M)) for c in phi.coeffs) + 1.0
            assert abs(val) < 1e-8 * scale
    trefoil = load_builtin("trefoil")
    assert riley_polynomial(trefoil).degree == 1


def test_riley_polynomial_requires_irreducible_locus():
    pres = parse_presentation(
        "gens: u v ;\nrel: u = v ;\nmeridian: u ;\nlongitude: u v^-1")
    with pytest.raises(ApolyError):
        riley_polynomial(pres)


def test_trefoil_apoly_exact():
    A = compute_apoly_twobridge(load_builtin("trefoil"))
    assert A == parse_bilaurent(L_TREFOIL)


def test_figure8_apoly_exact():
    A = compute_apoly_twobridge(load_builtin("figure8"))
    assert A == parse_bilaurent(L_FIG8)


def test_apoly_detailed_metadata():
    res = compute_apoly_twobridge_detailed(load_builtin("figure8"))
    assert res.multiplicity_removed == 0
    assert not res.includes_reducible
    assert res.riley_polynomial.degree == 2
    assert not res.resultant.is_zero


def test_apoly_vanishes_on_boundary_eigenvalues():
    rng = Random(61)
    for name in ("trefoil", "figure8"):
        pres = load_builtin(name)
        A = compute_apoly_twobridge(pres)
        for _ in range(6):
            M = complex(rng.uniform(1.1, 1.9), rng.uniform(0.1, 0.6))
            for rep in riley_family(pres, M):
                bd = boundary_data(rep)
                (residual,), _, _ = log_gauss_stack(A, [bd.L], [M])
                assert residual < 1e-7


def test_apoly_with_reducible_factor():
    res = compute_apoly_twobridge_detailed(load_builtin("trefoil"),
                                           with_reducible=True)
    assert res.includes_reducible
    expected = (parse_bilaurent(L_TREFOIL) * parse_bilaurent("L - 1")).canonical()
    assert res.apoly == expected
    res8 = compute_apoly_twobridge_detailed(load_builtin("figure8"),
                                            with_reducible=True)
    expected8 = (parse_bilaurent(L_FIG8) * parse_bilaurent("L - 1")).canonical()
    assert res8.apoly == expected8


def test_apoly_rejects_degenerate_presentations():
    pres = parse_presentation(
        "gens: u v ;\nrel: u = v ;\nmeridian: u ;\nlongitude: u v^-1")
    with pytest.raises(ApolyError):
        compute_apoly_twobridge(pres)
    three = parse_presentation("gens: a b c ;\nrel: a = b ;\nrel: b = c ;\n"
                               "meridian: a ;\nlongitude: a c^-1")
    with pytest.raises(ApolyError):
        compute_apoly_twobridge(three)
