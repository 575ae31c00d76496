"""Exact bivariate Laurent algebra, elimination, and Newton polygon data."""

from __future__ import annotations

import cmath
import itertools
import math
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
                             ideal_point_slopes, log_gauss, newton_polygon,
                             parse_bilaurent, resultant_t, riley_polynomial,
                             side_slopes, squarefree_part)
from knotslope.data import load_builtin
from knotslope.presentation import Word, parse_presentation, parse_word
from knotslope.representations import (boundary_data, prefix_images,
                                       riley_family, word_letters)

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
    assert p.abs_evaluate(2.0, 2.0) == pytest.approx(129.0)


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
        assert abs(A.evaluate(L, M)) < 1e-9 * A.abs_evaluate(abs(L), abs(M))
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


def test_resultant_is_multiplicative():
    rng = Random(47)
    for _ in range(30):
        P = random_tpoly(rng)
        Q = random_tpoly(rng)
        R = random_tpoly(rng)
        assert resultant_t(P * Q, R) == resultant_t(P, R) * resultant_t(Q, R)


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


def l_minus(lam: TPoly) -> TPoly:
    """``L - lam(t)``."""
    return TPoly.constant(LM(1, 0)) - lam


def test_resultant_matches_sympy(monkeypatch):
    L, M, t = sympy.symbols("L M t")
    rng = Random(53)
    # (P, Q, whether Bareiss must run; None where either may)
    cases = [(random_tpoly(rng), random_tpoly(rng), None) for _ in range(10)]
    # the elimination's shape, P monic and Q = L - lam, takes the modular
    # method: deg lam >= deg P and < deg P, negative M-exponents
    for n, m in ((2, 1), (2, 4), (3, 2), (3, 5), (1, 2)):
        P, lam = random_elimination_pair(rng, n, m)
        cases.append((P, l_minus(lam), False))
    # lam = P*S + 5/M reduces to a constant modulo P
    P, S = random_elimination_pair(rng, 3, 2)
    cases.append((P, l_minus(P * S + TPoly.constant(LM(0, -1, 5))), False))
    # a coefficient -3 (2^50 + 1)^2, near -2^101: several primes and a
    # negative symmetric residue
    P = TPoly([LM(0, 2, -3), BiLaurent.zero(), BiLaurent.one()])
    cases.append((P, l_minus(TPoly([LM(0, -1), BiLaurent.constant(2**50 + 1)])),
                  False))
    # a leading coefficient that is not 1 takes Bareiss
    for lead in (BiLaurent.constant(2), parse_bilaurent("M + 1")):
        P, lam = random_elimination_pair(rng, 2, 3)
        cases.append((TPoly([*P.coeffs[:-1], lead]), l_minus(lam), True))

    bareiss_calls = []
    bareiss = apoly._resultant_bareiss

    def counting_bareiss(P, Q):
        bareiss_calls.append(1)
        return bareiss(P, Q)

    monkeypatch.setattr(apoly, "_resultant_bareiss", counting_bareiss)
    for P, Q, by_bareiss in cases:
        bareiss_calls.clear()
        got = resultant_t(P, Q)
        if by_bareiss is not None:
            assert len(bareiss_calls) == by_bareiss
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
    lo, hi = apoly._exponent_range(phi, r)
    js = [j for _, j in resultant.terms]
    assert lo <= min(js) and max(js) <= hi


#: every two-bridge knot b(p, q) with odd q and p <= 15
ODD_Q_FAMILY = [(p, q) for p in range(3, 16, 2) for q in range(1, p, 2)
                if math.gcd(p, q) == 1]


@pytest.mark.parametrize("p, q", ODD_Q_FAMILY,
                         ids=[f"b{p}_{q}" for p, q in ODD_Q_FAMILY])
def test_family_resultant_equals_bareiss(monkeypatch, p, q):
    """The elimination's resultant, by the modular method, is the raw
    Bareiss determinant of the same Sylvester matrix, and its M-exponents
    lie in the range read off phi's Newton polygon."""
    res = compute_apoly_twobridge_detailed(parse_presentation(two_bridge_text(p, q)))
    phi, G = res.riley_polynomial, l_minus(res.longitude_eigenvalue)
    bareiss = apoly._resultant_bareiss
    monkeypatch.setattr(apoly, "_resultant_bareiss", None)  # must not run
    got = resultant_t(phi, G)
    monkeypatch.undo()
    assert got == bareiss(phi, G)
    assert_in_exponent_range(phi, res.longitude_eigenvalue, got)


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
def test_segment_polygon_resultant_equals_bareiss(monkeypatch, phi, lam):
    phi = TPoly([parse_bilaurent(c) for c in phi])
    lam = TPoly([parse_bilaurent(c) for c in lam])
    expected = apoly._resultant_bareiss(phi, l_minus(lam))
    monkeypatch.setattr(apoly, "_resultant_bareiss", None)  # must not run
    assert resultant_t(phi, l_minus(lam)) == expected
    assert_in_exponent_range(phi, lam, expected)


def two_bridge_resultant(name: str) -> BiLaurent:
    pres = parse_presentation(TWO_BRIDGE[name])
    return compute_apoly_twobridge_detailed(pres).resultant


def prs_squarefree_part(p: BiLaurent) -> tuple[BiLaurent, int]:
    """``squarefree_part(p)`` computed from the PRS gcd alone."""
    p = p.canonical()
    g = bilaurent_gcd(p, p.derivative("L"))
    exps = [i for i, _ in g.terms]
    return p.exact_div(g).canonical(), max(exps) - min(exps)


@pytest.mark.parametrize("make, certified, removed", [
    pytest.param(lambda: two_bridge_resultant("b13_5"), True, 0, id="b13_5"),
    pytest.param(lambda: two_bridge_resultant("b15_11"), False, 2,
                 id="b15_11"),
    # lc_L = (M-2)(M-3) vanishes at 2 and 3; p(L, 4) = 2L^2 + L + 1
    pytest.param(lambda: parse_bilaurent("M^2 - 5*M + 6") * LM(2, 0)
                 + parse_bilaurent("L + 1"), True, 0, id="lc-vanishes-at-2-3"),
    # lc_L = (M-2)^2; p(L, 3) = (L+1)^2 (L+3) has a repeated factor
    pytest.param(lambda: parse_bilaurent("L*M - 2*L + 1") ** 2
                 * parse_bilaurent("L + M"), False, 1, id="lc-vanishes-at-2"),
    # squarefree, but p(L, 2) = L^2 gains a repeated factor
    pytest.param(lambda: parse_bilaurent("L^2 - M + 2"), False, 0,
                 id="specialisation-gains-a-square"),
    # squarefree in L, but the content M + 1 is part of the gcd
    pytest.param(lambda: parse_bilaurent("M + 1") * parse_bilaurent("L^2 + L + 1"),
                 False, 0, id="content-in-M"),
])
def test_squarefree_certificate_agrees_with_prs(monkeypatch, make, certified,
                                                removed):
    p = make()
    gcd_calls = []

    def counting_gcd(a, b):
        gcd_calls.append(1)
        return bilaurent_gcd(a, b)

    monkeypatch.setattr(apoly, "bilaurent_gcd", counting_gcd)
    got = squarefree_part(p)
    monkeypatch.undo()
    assert (not gcd_calls) == certified
    assert got == prs_squarefree_part(p)
    assert got[1] == removed


def test_elimination_stores_integer_coefficients():
    """A numpy integer leaking out of the Riley words would compare equal
    to its ``int``, but it would send ``resultant_t`` to Bareiss."""
    for p, q in ODD_Q_FAMILY:
        res = compute_apoly_twobridge_detailed(
            parse_presentation(two_bridge_text(p, q)))
        phi, lam = res.riley_polynomial, res.longitude_eigenvalue
        polys = [*phi.coeffs, *lam.coeffs, res.resultant, res.apoly]
        assert all(type(c) is int for f in polys for c in f.terms.values())
        assert apoly._eigenvalue_of_elimination(phi, l_minus(lam)) is not None


#: relators of b(p, q) not written ``a w = w b``, from ``a``, ``b`` and ``w``
REWRITES = {
    "a-w-b^-1-w^-1=1": lambda a, b, w: (a * w * b.inverse() * w.inverse(),
                                        Word.identity()),
    "w^-1-a-w=b": lambda a, b, w: (w.inverse() * a * w, b),
    "conjugated-by-a-b": lambda a, b, w: (
        a * b * a * w * b.inverse() * w.inverse() * b.inverse() * a.inverse(),
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
    monkeypatch.setattr(apoly, "_resultant_bareiss", None)  # must not run
    res = compute_apoly_twobridge_detailed(replace(pres, relators=(relator,)))
    assert res.riley_polynomial == ref.riley_polynomial
    assert res.apoly == ref.apoly


def test_b17_5_apoly_meets_the_theorems():
    """Oracles that do not reuse the elimination code."""
    res = compute_apoly_twobridge_detailed(parse_presentation(TWO_BRIDGE["b17_5"]))
    A = res.apoly
    assert res.multiplicity_removed == 0
    assert all(j % 2 == 0 for _, j in A.terms)
    # A(1/L, 1/M) is a unit multiple of A (Cooper-Culler-Gillet-Long-Shalen)
    assert BiLaurent({(-i, -j): c for (i, j), c in A.terms.items()}).canonical() == A
    # boundary slopes of two-bridge knots are even integers (Hatcher-Thurston)
    slopes = ideal_point_slopes(newton_polygon(A)).values()
    assert slopes
    assert all(s != math.inf and s.denominator == 1 and s % 2 == 0 for s in slopes)


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
    # past 61 letters the array holds Python ints; the image of the word is
    # the product of the images of its halves, multiplied as polynomials
    half = parse_presentation(two_bridge_text(5, 3)).longitude ** 4
    ab = ("a", "b")
    assert len((half * half).letters) > 61 >= len(half.letters)
    assert apoly._riley_word(half * half, ab).dtype == object
    A = check_riley_word(half, ab, rng)
    AA = check_riley_word(half * half, ab, rng)
    assert AA == [[A[r][0] * A[0][c] + A[r][1] * A[1][c] for c in range(2)]
                  for r in range(2)]


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
                scale = A.abs_evaluate(abs(bd.L), abs(M)) + 1.0
                assert abs(A.evaluate(bd.L, M)) < 1e-7 * scale


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
