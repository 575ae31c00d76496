"""Exact bivariate Laurent polynomials in (L, M) over Q, Newton polygons,
the logarithmic Gauss map, and A-polynomial computation by elimination.

Text format: terms joined by ``+``/``-``; each term is an optional rational
coefficient and powers of ``L`` and ``M``, with ``*`` optional between
factors, e.g. ``"1 + L*M^6"`` or ``"3/2*L^-1 - M^2 L"``.  The JSON form is
``{"terms": [[i, j, "num/den"], ...]}`` with ``i`` the L-exponent and ``j``
the M-exponent.

Coefficients are exact rationals, stored as Python ``int`` when integral
and as ``Fraction`` otherwise.  Every polynomial of the elimination lies in
``Z[L^±, M^±]``, so it runs on ``int`` arithmetic; ``Fraction`` appears
only for parsed text such as ``3/2*L``, a caller's ``Fraction`` scalar, or
a quotient that is not integral.

The canonical form of a nonzero polynomial shifts the minimal L- and
M-exponents to 0, clears rational content (integer, coprime coefficients),
and fixes the sign so the lexicographically largest term is positive —
i.e. a distinguished associate under Laurent units.

``compute_apoly_twobridge`` eliminates the Riley parameter ``t``: the
relator entries of a 2-generator meridional presentation generate a
polynomial ``phi(t)`` (their gcd), the longitude image has upper-left
entry ``lam(t)``, and the resultant ``Res_t(phi, L - lam)``, with
M-content removed and repeated factors collapsed, is the defining
polynomial of the eigenvalue variety's closure.

``phi`` is monic in ``t`` on the two-bridge knots, and ``resultant_t``
then takes a modular route: reduce ``lam`` modulo ``phi``, evaluate the
characteristic polynomial of ``lam(C)``, ``C`` the companion matrix of
``phi``, at ``M = 1, ..., K`` modulo word-size primes, interpolate in
``M`` and rebuild each coefficient by the Chinese remainder theorem, on
as many points as ``phi``'s Newton polygon bounds the resultant's M-span
and as many primes as a Hadamard bound asks (see ``_resultant_modular``),
so the result is the exact determinant.  Any other input, such as a
``phi`` that is not monic, takes the fraction-free (Bareiss) elimination
of the Sylvester matrix.

Collapsing repeated factors needs ``gcd(A, dA/dL)``, a primitive
pseudo-remainder sequence whose univariate steps run over ``Z``.
``squarefree_part`` skips that gcd when one integer specialisation
``M = m`` certifies it trivial: some L-coefficient of ``A`` is a single
term, so ``A`` has no content in ``M``, and ``A(L, m)`` is coprime to its
derivative at an ``m`` where the leading L-coefficient does not vanish.
Specialising can only raise the degree of the gcd there, so a gcd of
degree 0 proves ``A`` squarefree.

This module is the only place that builds the Riley matrices as
polynomials in ``(t, M)``.  ``_riley_word`` holds a word's image as a dense
integer array over (row, column, t-exponent, M-exponent) and applies each
letter as a column operation, a slice shift and an add.  A coefficient at
most doubles per letter, so it is at most ``2^n`` after ``n`` letters and
the difference of two relator sides at most ``2^(n+1)``: the array is
``int64`` up to 61 letters and Python ints beyond.  Both routes share
``riley_polynomial``: ``representations.riley_family`` roots the same
``phi`` with its coefficients evaluated at each meridian eigenvalue.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .presentation import KnotPresentation, Word


class ApolyError(ValueError):
    """Exact polynomial computation cannot proceed."""


Exponents = tuple[int, int]  # (L-exponent, M-exponent)


def _integral_values(terms: dict) -> dict:
    """Store every integral ``Fraction`` value of ``terms`` as an ``int``,
    in place and keeping the key order; returns ``terms``."""
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


class BiLaurent:
    """An exact Laurent polynomial in L and M with rational coefficients.

    ``terms`` maps ``(L-exponent, M-exponent)`` to a nonzero coefficient,
    stored as an ``int`` when it is integral and as a ``Fraction`` only
    otherwise (parsed text such as ``3/2*L``, a caller's ``Fraction``
    scalar, an inexact quotient), so the integer polynomials of the
    elimination run on Python ``int`` arithmetic.  Both kinds compare and
    hash equal to the ``Fraction`` of the same value.  ``BiLaurent(terms)``
    is the checking constructor for input from outside: it converts and
    accumulates every coefficient.  The ring operations build their
    results through ``_normalised``, which wraps such a dict as it is.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponents, Fraction]
                 | Iterable[tuple[Exponents, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exponents, Fraction | int] = {}
        for (i, j), c in items:
            c = Fraction(c)
            key = (int(i), int(j))
            c = acc.get(key, 0) + c
            if c:
                acc[key] = c
            elif key in acc:
                del acc[key]
        self.terms = _integral_values(acc)

    @classmethod
    def _normalised(cls, terms: dict) -> "BiLaurent":
        """Wrap ``terms`` without copying or checking it: no coefficient
        may be zero, and every integral one must be an ``int``."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls) -> "BiLaurent":
        return cls()

    @classmethod
    def one(cls) -> "BiLaurent":
        return cls.monomial(0, 0)

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1) -> "BiLaurent":
        return cls([((i, j), Fraction(coeff))])

    @classmethod
    def constant(cls, coeff) -> "BiLaurent":
        return cls.monomial(0, 0, coeff)

    # -- structure ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Exponents]:
        return sorted(self.terms)

    def coefficient(self, i: int, j: int) -> Fraction | int:
        return self.terms.get((i, j), 0)

    def degree_in(self, var: str) -> int:
        """The largest exponent of ``var`` ('L' or 'M') in a nonzero
        polynomial (not the span between the largest and the smallest)."""
        if self.is_zero:
            raise ApolyError("zero polynomial has no degree")
        k = 0 if var == "L" else 1
        return max(e[k] for e in self.terms)

    def min_exponents(self) -> Exponents:
        if self.is_zero:
            raise ApolyError("zero polynomial has no exponents")
        return (min(i for i, _ in self.terms), min(j for _, j in self.terms))

    def leading_exponents(self) -> Exponents:
        """Lexicographically largest (i, j) in the support."""
        if self.is_zero:
            raise ApolyError("zero polynomial has no leading term")
        return max(self.terms)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "BiLaurent") -> "BiLaurent":
        if not isinstance(other, BiLaurent):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            c = out.get(e, 0) + c
            if not c:
                del out[e]
            elif type(c) is int or c.denominator != 1:
                out[e] = c
            else:
                out[e] = c.numerator
        return BiLaurent._normalised(out)

    def __neg__(self) -> "BiLaurent":
        return BiLaurent._normalised({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "BiLaurent") -> "BiLaurent":
        if not isinstance(other, BiLaurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "BiLaurent":
        if isinstance(other, (int, Fraction)):
            other = BiLaurent.constant(other)
        if not isinstance(other, BiLaurent):
            return NotImplemented
        out: dict[Exponents, Fraction | int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    del out[e]
        return BiLaurent._normalised(_integral_values(out))

    def __rmul__(self, other) -> "BiLaurent":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "BiLaurent":
        if n < 0:
            raise ApolyError("negative powers are only defined for monomials")
        out = BiLaurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, di: int, dj: int) -> "BiLaurent":
        return BiLaurent._normalised({(i + di, j + dj): c
                                      for (i, j), c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"BiLaurent({format_bilaurent(self)!r})"

    # -- content and canonical form ------------------------------------------
    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators over lcm of
        denominators (zero polynomial has content 0)."""
        if self.is_zero:
            return Fraction(0)
        values = self.terms.values()
        return Fraction(math.gcd(*(c.numerator for c in values)),
                        math.lcm(*(c.denominator for c in values)))

    def canonical(self) -> "BiLaurent":
        """Distinguished associate: minimal exponents at 0, integer coprime
        coefficients, lexicographically largest term positive."""
        if self.is_zero:
            return self
        i0, j0 = self.min_exponents()
        cont = self.content()
        if cont.denominator == 1:  # every coefficient is an int
            k = cont.numerator
            out = {(i - i0, j - j0): c // k for (i, j), c in self.terms.items()}
        else:
            out = {(i - i0, j - j0): (c / cont).numerator
                   for (i, j), c in self.terms.items()}
        if out[max(out)] < 0:
            out = {e: -c for e, c in out.items()}
        return BiLaurent._normalised(out)

    def exact_div(self, other: "BiLaurent") -> "BiLaurent":
        """Exact quotient self / other over Q; raises ``ApolyError`` when
        ``other`` does not divide ``self`` (in the Laurent ring).  A
        quotient coefficient is an integer division when that is exact and
        a ``Fraction`` otherwise."""
        if other.is_zero:
            raise ApolyError("division by the zero polynomial")
        if self.is_zero:
            return BiLaurent.zero()
        si, sj = self.min_exponents()
        oi, oj = other.min_exponents()
        rem = {(i - si, j - sj): c for (i, j), c in self.terms.items()}
        div = {(i - oi, j - oj): c for (i, j), c in other.terms.items()}
        lt_d = max(div)
        lc_d = div[lt_d]
        quot: dict[Exponents, Fraction | int] = {}
        while rem:
            lt_r = max(rem)
            qi, qj = lt_r[0] - lt_d[0], lt_r[1] - lt_d[1]
            if qi < 0 or qj < 0:
                raise ApolyError("polynomials do not divide exactly")
            a = rem[lt_r]
            if type(a) is int and type(lc_d) is int and not a % lc_d:
                qc = a // lc_d
            else:
                qc = Fraction(a) / lc_d
                if qc.denominator == 1:
                    qc = qc.numerator
            # the leading term of rem falls strictly, so (qi, qj) is new
            quot[(qi + si - oi, qj + sj - oj)] = qc
            for (i, j), c in div.items():
                e = (i + qi, j + qj)
                nc = rem.get(e, 0) - qc * c
                if nc:
                    rem[e] = nc
                else:
                    del rem[e]
        return BiLaurent._normalised(quot)

    # -- calculus and evaluation ----------------------------------------------
    def derivative(self, var: str) -> "BiLaurent":
        """Partial derivative with respect to 'L' or 'M' (Laurent rule)."""
        k = {"L": 0, "M": 1}.get(var)
        if k is None:
            raise ApolyError(f"unknown variable {var!r}")
        out: dict[Exponents, Fraction | int] = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[k]
            if e:  # distinct terms have distinct derivative terms
                out[(i - 1, j) if k == 0 else (i, j - 1)] = e * c
        return BiLaurent._normalised(_integral_values(out))

    def evaluate(self, L: complex, M: complex) -> complex:
        out = 0j
        for (i, j), c in self.terms.items():
            out += complex(c) * (L ** i) * (M ** j)
        return out

    def abs_evaluate(self, absL: float, absM: float) -> float:
        """Sum of |coefficient| * |L|^i * |M|^j — a conditioning scale."""
        out = 0.0
        for (i, j), c in self.terms.items():
            out += abs(float(c.numerator) / float(c.denominator)) \
                * (absL ** i) * (absM ** j)
        return out


# ---------------------------------------------------------------------------
# text and JSON forms

_APOLY_TOKEN = re.compile(r"\s+|(?P<num>[0-9]+(/[0-9]+)?)|(?P<var>[LM])"
                          r"|(?P<op>[-+*^])")


def parse_bilaurent(text: str) -> BiLaurent:
    """Parse the textual term format (see module docstring)."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _APOLY_TOKEN.match(text, pos)
        if m is None:
            raise ApolyError(f"column {pos + 1}: unexpected character {text[pos]!r}")
        if m.lastgroup == "num":
            tokens.append(("num", m.group(), pos))
        elif m.lastgroup == "var":
            tokens.append(("var", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))

    idx = 0

    def peek():
        return tokens[idx]

    def advance():
        nonlocal idx
        tok = tokens[idx]
        if tok[0] != "end":
            idx += 1
        return tok

    def parse_term() -> BiLaurent:
        term = BiLaurent.one()
        saw_factor = False
        while True:
            kind, text_, p = peek()
            if kind == "num":
                advance()
                term = term * BiLaurent.constant(Fraction(text_))
                saw_factor = True
            elif kind == "var":
                advance()
                exp = 1
                if peek()[0] == "^":
                    advance()
                    sign = 1
                    if peek()[0] == "-":
                        advance()
                        sign = -1
                    k, t2, p2 = peek()
                    if k != "num" or "/" in t2:
                        raise ApolyError(f"column {p2 + 1}: expected an integer exponent")
                    advance()
                    exp = sign * int(t2)
                term = term * _var_power(text_, exp)
                saw_factor = True
            elif kind == "*":
                advance()
                if peek()[0] not in ("num", "var"):
                    k, t2, p2 = peek()
                    raise ApolyError(f"column {p2 + 1}: expected a factor after '*'")
            else:
                break
        if not saw_factor:
            k, t2, p2 = peek()
            raise ApolyError(f"column {p2 + 1}: expected a term")
        return term

    result = BiLaurent.zero()
    sign = 1
    kind, _, _ = peek()
    if kind in ("+", "-"):
        if kind == "-":
            sign = -1
        advance()
    while True:
        result = result + parse_term() * sign
        kind, t2, p2 = peek()
        if kind == "end":
            return result
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            raise ApolyError(f"column {p2 + 1}: expected '+' or '-', got {t2!r}")
        advance()


def _var_power(name: str, exp: int) -> BiLaurent:
    return BiLaurent.monomial(exp, 0) if name == "L" else BiLaurent.monomial(0, exp)


def format_bilaurent(p: BiLaurent) -> str:
    """Render with terms in decreasing lexicographic (L, M) order."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for n, (i, j) in enumerate(sorted(p.terms, reverse=True)):
        c = p.terms[(i, j)]
        mono = []
        if i != 0:
            mono.append("L" if i == 1 else f"L^{i}")
        if j != 0:
            mono.append("M" if j == 1 else f"M^{j}")
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = "*".join(mono)
        else:
            body = "*".join([str(mag)] + mono)
        if n == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def bilaurent_to_json(p: BiLaurent) -> dict:
    return {"terms": [[i, j, str(p.terms[(i, j)])]
                      for i, j in sorted(p.terms, reverse=True)]}


def bilaurent_from_json(data: dict) -> BiLaurent:
    return BiLaurent([((int(i), int(j)), Fraction(c))
                      for i, j, c in data["terms"]])


# ---------------------------------------------------------------------------
# Newton polygon and ideal points

@dataclass(frozen=True)
class Side:
    """A directed side of the Newton polygon; ``slope`` is dj/di in the
    (L-exponent, M-exponent) plane, ``math.inf`` for a vertical side."""

    start: Exponents
    end: Exponents

    @property
    def di(self) -> int:
        return self.end[0] - self.start[0]

    @property
    def dj(self) -> int:
        return self.end[1] - self.start[1]

    @property
    def slope(self):
        if self.di == 0:
            return math.inf
        return Fraction(self.dj, self.di)


@dataclass(frozen=True)
class NewtonPolygon:
    """Convex hull of the support, vertices counterclockwise starting at
    the lexicographically smallest vertex.  A one-point support has no
    sides; a collinear support has exactly one."""

    vertices: tuple[Exponents, ...]
    sides: tuple[Side, ...]


def _cross(o: Exponents, a: Exponents, b: Exponents) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_polygon(p: BiLaurent) -> NewtonPolygon:
    """The Newton polygon of a nonzero polynomial."""
    if p.is_zero:
        raise ApolyError("zero polynomial has no Newton polygon")
    pts = sorted(set(p.terms))
    if len(pts) == 1:
        return NewtonPolygon((pts[0],), ())
    lower: list[Exponents] = []
    for q in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(q)
    upper: list[Exponents] = []
    for q in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(q)
    hull = tuple(lower[:-1] + upper[:-1])
    if len(hull) == 2:
        sides: tuple[Side, ...] = (Side(hull[0], hull[1]),)
    else:
        sides = tuple(Side(hull[k], hull[(k + 1) % len(hull)])
                      for k in range(len(hull)))
    return NewtonPolygon(hull, sides)


def side_slopes(p_or_polygon) -> list:
    """Distinct side slopes, finite ones ascending, ``inf`` last.

    Raises ``ApolyError`` for a single-monomial polygon (no sides)."""
    polygon = (p_or_polygon if isinstance(p_or_polygon, NewtonPolygon)
               else newton_polygon(p_or_polygon))
    if not polygon.sides:
        raise ApolyError("Newton polygon is a single point; no side slopes")
    return sorted({s.slope for s in polygon.sides})


@dataclass(frozen=True)
class IdealPointEntry:
    """One polygon side with its ideal-point data: ``ideal_slope`` is the
    negated side slope, ``valuation`` a primitive integer (v_L, v_M) pair
    normal to the side with ``v_M >= 0`` (and ``v_L > 0`` when v_M = 0)."""

    side: Side
    ideal_slope: object  # Fraction | math.inf
    valuation: tuple[int, int]


@dataclass(frozen=True)
class IdealSlopeReport:
    entries: tuple[IdealPointEntry, ...]

    def values(self) -> list:
        """Distinct ideal slopes, finite ones ascending, ``inf`` last."""
        return sorted({e.ideal_slope for e in self.entries})


def ideal_point_slopes(p_or_polygon) -> IdealSlopeReport:
    """Ideal-point slopes attached to the Newton polygon sides."""
    polygon = (p_or_polygon if isinstance(p_or_polygon, NewtonPolygon)
               else newton_polygon(p_or_polygon))
    if not polygon.sides:
        raise ApolyError("Newton polygon is a single point; no ideal points")
    entries = []
    for side in polygon.sides:
        g = math.gcd(abs(side.dj), abs(side.di))
        vl, vm = side.dj // g, -side.di // g
        if vm < 0 or (vm == 0 and vl < 0):
            vl, vm = -vl, -vm
        s = side.slope
        ideal = math.inf if s is math.inf else -s
        entries.append(IdealPointEntry(side=side, ideal_slope=ideal,
                                       valuation=(vl, vm)))
    return IdealSlopeReport(tuple(entries))


def log_gauss(p: BiLaurent, L: complex, M: complex,
              tol: float = 1e-8) -> complex | float:
    """The logarithmic Gauss map ``-(M dA/dM) / (L dA/dL)`` at ``(L, M)``.

    Returns ``math.inf`` when the L-partial vanishes (relative to its
    coefficient scale); raises ``ApolyError`` at singular points where both
    partials vanish, and for ``L = 0`` or ``M = 0``.
    """
    L, M = complex(L), complex(M)
    if L == 0 or M == 0:
        raise ApolyError("log-Gauss map requires nonzero L and M")
    dL = p.derivative("L")
    dM = p.derivative("M")
    vL = dL.evaluate(L, M)
    vM = dM.evaluate(L, M)
    sL = dL.abs_evaluate(abs(L), abs(M)) if not dL.is_zero else 0.0
    sM = dM.abs_evaluate(abs(L), abs(M)) if not dM.is_zero else 0.0
    zero_L = abs(vL) <= tol * (1.0 + sL)
    zero_M = abs(vM) <= tol * (1.0 + sM)
    if zero_L and zero_M:
        raise ApolyError("both partial derivatives vanish: singular point")
    if zero_L:
        return math.inf
    return complex(-(M * vM) / (L * vL))


def polygon_to_json(polygon: NewtonPolygon) -> dict:
    return {
        "vertices": [list(v) for v in polygon.vertices],
        "sides": [{"start": list(s.start), "end": list(s.end),
                   "slope": _rational_str(s.slope)} for s in polygon.sides],
    }


def ideal_report_to_json(report: IdealSlopeReport) -> dict:
    return {
        "entries": [{"side": {"start": list(e.side.start),
                              "end": list(e.side.end)},
                     "ideal_slope": _rational_str(e.ideal_slope),
                     "valuation": list(e.valuation)} for e in report.entries],
        "values": [_rational_str(v) for v in report.values()],
    }


def _rational_str(x) -> str:
    return "inf" if x is math.inf else str(x)


# ---------------------------------------------------------------------------
# univariate polynomials in t over the Laurent ring

class TPoly:
    """A polynomial in an eliminated variable t with BiLaurent coefficients,
    stored ascending with trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[BiLaurent] = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, c: BiLaurent) -> "TPoly":
        return cls((c,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> BiLaurent:
        if self.is_zero:
            raise ApolyError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        z = BiLaurent.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return TPoly([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "TPoly":
        return TPoly([-c for c in self.coeffs])

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __mul__(self, other: "TPoly") -> "TPoly":
        out = [BiLaurent.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return TPoly(out)

    def scale(self, c: BiLaurent) -> "TPoly":
        return TPoly([x * c for x in self.coeffs])

    def shift_t(self, k: int) -> "TPoly":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return TPoly([BiLaurent.zero()] * k + list(self.coeffs))

    def evaluate(self, t: complex, L: complex, M: complex) -> complex:
        out = 0j
        for k in range(len(self.coeffs) - 1, -1, -1):
            out = out * t + self.coeffs[k].evaluate(L, M)
        return out

    def content(self) -> BiLaurent:
        """Gcd of the coefficients (canonical); zero for the zero poly."""
        g = BiLaurent.zero()
        for c in self.coeffs:
            g = bilaurent_gcd(g, c)
            if not g.is_zero and g.leading_exponents() == (0, 0) and len(g.terms) == 1:
                break  # unit content; no smaller gcd possible
        return g

    def primitive_part(self) -> "TPoly":
        if self.is_zero:
            return self
        g = self.content()
        return TPoly([c.exact_div(g) for c in self.coeffs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if self.is_zero:
            return "TPoly(0)"
        parts = [f"({format_bilaurent(c)})*t^{k}" for k, c in enumerate(self.coeffs)
                 if not c.is_zero]
        return f"TPoly({' + '.join(parts)})"


def tpoly_prem(P: TPoly, Q: TPoly) -> TPoly:
    """Pseudo-remainder of P by Q (deg P >= deg Q >= 0, Q nonzero):
    the remainder of ``lc(Q)^(deg P - deg Q + 1) * P`` under exact division."""
    if Q.is_zero:
        raise ApolyError("pseudo-remainder by the zero polynomial")
    if P.is_zero:
        return P
    d = P.degree - Q.degree
    if d < 0:
        raise ApolyError("pseudo-remainder requires deg P >= deg Q")
    lcq = Q.leading
    R = P.scale(lcq ** (d + 1))
    while not R.is_zero and R.degree >= Q.degree:
        q = R.leading.exact_div(lcq)
        R = R - Q.shift_t(R.degree - Q.degree).scale(q)
    return R


def tpoly_gcd(A: TPoly, B: TPoly) -> TPoly:
    """Primitive gcd (up to Laurent units) by the primitive PRS; the common
    content of the inputs is deliberately ignored."""
    A = A.primitive_part()
    B = B.primitive_part()
    if A.is_zero:
        return B
    if B.is_zero:
        return A
    if A.degree < B.degree:
        A, B = B, A
    while not B.is_zero:
        if B.degree == 0:
            return TPoly.constant(BiLaurent.one())
        R = tpoly_prem(A, B).primitive_part()
        A, B = B, R
    return A


def resultant_t(P: TPoly, Q: TPoly) -> BiLaurent:
    """The resultant in t: the determinant of the Sylvester matrix of
    ``P`` and ``Q``.  Requires both degrees >= 1.  The raw determinant is
    returned, so ``resultant_t(P1*P2, Q) = resultant_t(P1, Q) *
    resultant_t(P2, Q)`` holds exactly.

    The elimination's inputs have a shape that admits a faster method:
    when ``P`` is monic in t and ``Q = L - lam(t)``, with every coefficient
    of ``P`` and ``lam`` an integer Laurent polynomial free of ``L``,
    ``_resultant_modular`` computes the same determinant by evaluation and
    interpolation in ``M`` modulo word-size primes.  Every other input
    takes the fraction-free (Bareiss) elimination of ``_resultant_bareiss``.
    """
    if P.is_zero or Q.is_zero:
        raise ApolyError("resultant of the zero polynomial")
    if P.degree < 1 or Q.degree < 1:
        raise ApolyError("resultant requires degree >= 1 in t for both inputs")
    lam = _eigenvalue_of_elimination(P, Q)
    if lam is None:
        return _resultant_bareiss(P, Q)
    return _resultant_modular(P, lam)


def _sylvester(P: TPoly, Q: TPoly) -> list[list[BiLaurent]]:
    """The Sylvester matrix: ``deg Q`` rows of ``P``'s coefficients, then
    ``deg P`` rows of ``Q``'s, each shifted one column right of the last."""
    n, m = P.degree, Q.degree
    S = [[BiLaurent.zero()] * (n + m) for _ in range(n + m)]
    for k in range(m):
        S[k][k:k + n + 1] = P.coeffs[::-1]
    for k in range(n):
        S[m + k][k:k + m + 1] = Q.coeffs[::-1]
    return S


def _resultant_bareiss(P: TPoly, Q: TPoly) -> BiLaurent:
    """The Sylvester determinant by fraction-free (Bareiss) elimination,
    for any inputs of degree >= 1; the reference of the modular method."""
    S = _sylvester(P, Q)
    N = len(S)
    zero = BiLaurent.zero()
    sign = 1
    prev = BiLaurent.one()
    for k in range(N - 1):
        if S[k][k].is_zero:
            pivot = next((r for r in range(k + 1, N) if not S[r][k].is_zero), None)
            if pivot is None:
                return BiLaurent.zero()
            S[k], S[pivot] = S[pivot], S[k]
            sign = -sign
        for i in range(k + 1, N):
            for j in range(k + 1, N):
                S[i][j] = (S[i][j] * S[k][k] - S[i][k] * S[k][j]).exact_div(prev)
            S[i][k] = zero
        prev = S[k][k]
    det = S[N - 1][N - 1]
    return det if sign == 1 else -det


def _eigenvalue_of_elimination(P: TPoly, Q: TPoly) -> TPoly | None:
    """``lam`` with ``Q = L - lam(t)`` when the pair has the shape of the
    elimination: ``P`` monic in t, and every coefficient of ``P`` and of
    ``lam`` an integer Laurent polynomial in ``M`` alone.  ``None``
    otherwise."""
    if P.leading != BiLaurent.one():
        return None
    head = dict(Q.coeffs[0].terms)
    if head.pop((1, 0), None) != 1:
        return None
    lam = TPoly([BiLaurent._normalised({e: -c for e, c in head.items()}),
                 *(-c for c in Q.coeffs[1:])])
    for c in (*P.coeffs, *lam.coeffs):
        if any(i or type(v) is not int for (i, _), v in c.terms.items()):
            return None
    return lam


def _resultant_modular(P: TPoly, lam: TPoly) -> BiLaurent:
    """``Res_t(P, L - lam)`` for a monic ``P``, by evaluation and
    interpolation in ``M`` modulo word-size primes.

    Reduction: the resultant is ``prod (L - lam(a))`` over the roots ``a``
    of the monic ``P``, and ``lam(a) = r(a)`` for ``r = lam mod P``, so it
    equals ``Res_t(P, L - r)``, exactly; a constant ``r = c`` gives
    ``(L - c)^deg P``.  Otherwise it is ``det(L·I - r(C))`` for the
    companion matrix ``C`` of ``P``, whose eigenvalues are the roots ``a``:
    the characteristic polynomial of ``r(C)``.

    Bounds, both proven:

    - M-exponents: ``_exponent_range`` fixes ``K``, the number of points.
    - Coefficients (Goldstein–Graham, 1974): on the torus
      ``|L| = |M| = 1`` each Sylvester entry is at most its coefficient
      1-norm, and each row holds the coefficients of ``P`` or of
      ``Q = L - r`` once, so by Hadamard the determinant is at most ``B``,
      ``B^2 = (sum_k |P_k|_1^2)^deg Q · (sum_k |Q_k|_1^2)^deg P``.  A
      coefficient is the mean of ``det · L^-a M^-b`` over the torus, so
      it is at most ``B`` in absolute value.  Primes whose product
      exceeds ``2B`` fix it as a symmetric residue (CRT).
    """
    n = P.degree
    r = tpoly_prem(lam, P) if lam.degree >= n else lam
    Q = TPoly.constant(BiLaurent.monomial(1, 0)) - r
    if Q.degree < 1:
        return Q.coeffs[0] ** n
    lo, hi = _exponent_range(P, r)
    bound_sq = math.prod(
        sum(sum(map(abs, c.terms.values())) ** 2 for c in T.coeffs) ** e
        for T, e in ((P, Q.degree), (Q, n)))
    primes = _word_primes(n, 4 * bound_sq)
    x = np.arange(1, hi - lo + 2, dtype=np.int64)
    values = _charpoly_at(P, r, x, primes) \
        * _powers(x, -lo, primes)[:, None, :] % np.array(primes)[:, None, None]
    coeffs = _interpolate(values, primes)

    mods = [math.prod(primes[:i]) for i in range(len(primes))]
    invs = [pow(mod, -1, q) for mod, q in zip(mods, primes)]
    modulus = mods[-1] * primes[-1]
    terms: dict[Exponents, int] = {}
    k_idx, j_idx = np.nonzero(coeffs.any(axis=0))
    for k, j, residues in zip(k_idx.tolist(), j_idx.tolist(),
                              coeffs[:, k_idx, j_idx].T.tolist()):
        v = 0
        for res, q, mod, inv in zip(residues, primes, mods, invs):
            v += mod * ((res - v) * inv % q)
        terms[(k, j + lo)] = v - modulus if 2 * v > modulus else v
    return BiLaurent._normalised(terms)


def _exponent_range(P: TPoly, r: TPoly) -> tuple[int, int]:
    """``lo <= 0 <= hi`` bounding the M-exponents of ``Res_t(P, L - r) =
    prod (L - r(a))`` over the roots ``a`` of a monic ``P``, from the sides
    of ``P``'s Newton polygon in the (t-exponent, M-exponent) plane.  A
    side with ``di`` roots and slope ``s = dj/di`` gives them the valuation
    ``-s``: at ``M = 0`` on a lower side (``di > 0``), at ``M = ∞`` on an
    upper one, where ``r(a)`` is bounded by its smallest or largest term.
    ``lo`` sums the negative parts, ``hi`` the positive ones, each an
    integer ``|di|·(j - k·s)`` for a term ``M^j t^k`` of ``r``; a collinear
    support's one side bounds both ways."""
    polygon = newton_polygon(_from_L_tpoly(P))  # t-exponents in the L slot
    sides = polygon.sides
    if len(sides) == 1:
        sides += (Side(sides[0].end, sides[0].start),)
    r_exps = [(k, [j for _, j in c.terms]) for k, c in enumerate(r.coeffs)
              if not c.is_zero]
    lo = hi = 0
    for side in sides:
        di, dj = side.di, side.dj
        if di > 0:
            lo += min(0, *(di * min(js) - k * dj for k, js in r_exps))
        elif di < 0:
            hi += max(0, *(k * dj - di * max(js) for k, js in r_exps))
    k, js = r_exps[0]
    if k == 0:  # the roots a = 0 of P's factor t^z, where r(a) = r_0
        z = polygon.vertices[0][0]
        lo, hi = lo + z * min(0, *js), hi + z * max(0, *js)
    return lo, hi


def _word_primes(n: int, bound_sq: int) -> list[int]:
    """Descending primes, as many as make their product's square exceed
    ``bound_sq``, below ``2^b`` for the largest ``b`` with
    ``(n + 1)·2^(2b) <= 2^63``: a product of two ``n × n`` matrices of
    residues, plus a residue, then stays below ``2^63``."""
    bits = (63 - (n + 1).bit_length()) // 2
    primes: list[int] = []
    product, q = 1, (1 << bits) - 1
    while product * product <= bound_sq:
        if _is_prime(q):
            primes.append(q)
            product *= q
        q -= 2
    return primes


def _is_prime(q: int) -> bool:
    """Miller–Rabin with bases 2, 7 and 61, which is exact for every
    ``q < 4759123141`` (Jaeschke, 1993)."""
    if q < 2:
        return False
    for a in (2, 7, 61):
        if q % a == 0:
            return q == a
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        y = pow(a, d, q)
        if y in (1, q - 1):
            continue
        for _ in range(s - 1):
            y = y * y % q
            if y == q - 1:
                break
        else:
            return False
    return True


def _powers(x: np.ndarray, e: int, primes: list[int]) -> np.ndarray:
    """``x^e`` modulo each prime, shape ``(#primes, len(x))``; ``e`` may
    be negative, as every point is a unit."""
    return np.array([[pow(v, e, q) for v in x.tolist()] for q in primes],
                    dtype=np.int64)


def _charpoly_at(P: TPoly, r: TPoly, x: np.ndarray,
                 primes: list[int]) -> np.ndarray:
    """The coefficients of ``det(L·I - r(C))``, ``C`` the companion matrix
    of the monic ``P``, at ``M = x`` modulo each prime: shape
    ``(#primes, deg P + 1, len(x))``, ascending in ``L``."""
    n = P.degree
    polys = [*P.coeffs[:n], *r.coeffs]
    emin = min(j for c in polys for _, j in c.terms)
    emax = max(j for c in polys for _, j in c.terms)
    dense = np.zeros((len(polys), emax - emin + 1), dtype=object)
    for row, c in zip(dense, polys):
        for (_, j), v in c.terms.items():
            row[j - emin] = v
    q = np.array(primes, dtype=np.int64)[:, None, None]
    digits = (dense[None] % np.array(primes, dtype=object)[:, None, None]
              ).astype(np.int64)
    vals = np.zeros((len(primes), len(polys), len(x)), dtype=np.int64)
    for e in range(emax - emin, -1, -1):  # Horner in M
        vals = (vals * x + digits[:, :, e, None]) % q
    vals = np.moveaxis(vals * _powers(x, emin, primes)[:, None, :] % q, 1, 2)

    # C acts on coefficient vectors as multiplication by t modulo P, so the
    # column j of r(C) is t^j·r mod P
    a = vals[..., :n]
    col = np.zeros_like(a)
    col[..., :r.degree + 1] = vals[..., n:]
    X = np.empty(col.shape + (n,), dtype=np.int64)
    for j in range(n):
        X[..., j] = col
        top = col[..., n - 1:]
        col = np.concatenate([np.zeros_like(top), col[..., :-1]], axis=-1)
        col = (col - top * a) % q

    # Faddeev–LeVerrier: c_(n-k) = -tr(X·M_k)/k, M_(k+1) = X·M_k + c_(n-k)·I
    eye = np.eye(n, dtype=np.int64)
    char = np.zeros((len(primes), n + 1, len(x)), dtype=np.int64)
    char[:, n] = 1
    Mk = np.broadcast_to(eye, X.shape)
    for k in range(1, n + 1):
        XM = X @ Mk % q[..., None]
        inv_k = np.array([pow(k, -1, p) for p in primes])[:, None]
        ck = -np.trace(XM, axis1=2, axis2=3) % q[:, 0] * inv_k % q[:, 0]
        char[:, n - k] = ck
        Mk = (XM + ck[..., None, None] * eye) % q[..., None]
    return char


def _interpolate(values: np.ndarray, primes: list[int]) -> np.ndarray:
    """Ascending coefficients of the polynomials of degree ``< K`` that
    take ``values[..., i]`` at ``x = i + 1`` (``K`` points), modulo the
    prime indexed by the first axis, by Newton's forward differences:
    ``f(x) = sum_k (Δ^k f)(1) / k! · (x - 1)···(x - k)``."""
    K = values.shape[-1]
    q = np.array(primes, dtype=np.int64)[:, None, None]
    d = values.copy()
    for k in range(1, K):
        d[..., k:] = (d[..., k:] - d[..., k - 1:-1]) % q
    inv_fact = np.empty((len(primes), K), dtype=np.int64)
    for i, p in enumerate(primes):
        f = 1
        for k in range(K):
            f = f * max(k, 1) % p
            inv_fact[i, k] = pow(f, -1, p)
    d = d * inv_fact[:, None, :] % q
    c = np.zeros_like(d)
    c[..., 0] = d[..., K - 1]
    for j in range(K - 2, -1, -1):  # c <- c·(x - (j + 1)) + d_j
        c0 = (d[..., j] - (j + 1) * c[..., 0]) % q[..., 0]
        c[..., 1:] = (c[..., :-1] - (j + 1) * c[..., 1:]) % q
        c[..., 0] = c0
    return c


# ---------------------------------------------------------------------------
# gcd over the bivariate ring

def _is_univariate(p: BiLaurent, k: int) -> bool:
    lo = min(e[k] for e in p.terms)
    return all(e[k] == lo for e in p.terms)


def _q_gcd(x: Sequence, y: Sequence) -> list[int]:
    """Gcd over Q of two polynomials given as ascending coefficient lists,
    up to a rational factor; ``[]`` when both are zero.  Denominators are
    cleared first, and the Euclid runs as a primitive pseudo-remainder
    sequence over Z, so every coefficient stays an ``int``."""
    def primitive(u: Sequence) -> list[int]:
        den = math.lcm(*(c.denominator for c in u))
        u = [int(c * den) for c in u]
        while u and not u[-1]:
            u.pop()
        g = math.gcd(*u)
        return [c // g for c in u]

    def prem(u: list[int], v: list[int]) -> list[int]:
        lc = v[-1]
        while len(u) >= len(v):
            f, off = u[-1], len(u) - len(v)
            u = [c * lc for c in u]
            for i, cv in enumerate(v):
                u[off + i] -= f * cv
            u.pop()
            while u and not u[-1]:
                u.pop()
        return u

    x, y = primitive(x), primitive(y)
    while y:
        x, y = y, primitive(prem(x, y))
    return x


def _univariate_gcd(a: BiLaurent, b: BiLaurent, k: int) -> BiLaurent:
    """Gcd of two Laurent polynomials in the single variable indexed by
    ``k`` (0 = L, 1 = M), returned canonical."""
    def coeff_list(p: BiLaurent) -> list:
        exps = [e[k] for e in p.terms]
        base = min(exps)
        out = [0] * (max(exps) - base + 1)
        for e, c in p.terms.items():
            out[e[k] - base] = c
        return out

    x = _q_gcd(coeff_list(a), coeff_list(b))
    mono = {0: lambda e: (e, 0), 1: lambda e: (0, e)}[k]
    return BiLaurent([(mono(e), c) for e, c in enumerate(x) if c]).canonical()


def _as_L_tpoly(p: BiLaurent) -> TPoly:
    """View a polynomial (shifted to nonnegative exponents) as a polynomial
    in L with pure-M coefficients, reusing the TPoly machinery with t = L."""
    i0, j0 = p.min_exponents()
    top = max(i for i, _ in p.terms)
    coeffs: list[dict] = [{} for _ in range(top - i0 + 1)]
    for (i, j), c in p.terms.items():
        coeffs[i - i0][(0, j - j0)] = c
    return TPoly([BiLaurent._normalised(c) for c in coeffs])


def _from_L_tpoly(t: TPoly) -> BiLaurent:
    """The inverse of ``_as_L_tpoly``: coefficients pure in M."""
    return BiLaurent._normalised({(a + i, b): c
                                  for i, coeff in enumerate(t.coeffs)
                                  for (a, b), c in coeff.terms.items()})


def bilaurent_gcd(a: BiLaurent, b: BiLaurent) -> BiLaurent:
    """Gcd in the Laurent ring, returned in canonical form."""
    if a.is_zero:
        return b.canonical()
    if b.is_zero:
        return a.canonical()
    a = a.canonical()
    b = b.canonical()
    if _is_univariate(a, 0) and _is_univariate(b, 0):  # neither uses L
        return _univariate_gcd(a, b, 1)
    if _is_univariate(a, 1) and _is_univariate(b, 1):  # neither uses M
        return _univariate_gcd(a, b, 0)
    ta, tb = _as_L_tpoly(a), _as_L_tpoly(b)
    ca, cb = ta.content(), tb.content()
    cont = bilaurent_gcd(ca, cb)
    pa, pb = ta.primitive_part(), tb.primitive_part()
    g = tpoly_gcd(pa, pb)
    if g.degree <= 0:
        pp = BiLaurent.one()
    else:
        pp = _from_L_tpoly(g)
    return (cont * pp).canonical()


def _certified_squarefree_in_L(p: BiLaurent) -> bool:
    """A cheap proof that a canonical ``p`` has no repeated factor and no
    content in ``Q[M]`` when viewed as a polynomial in ``L``.

    Some L-coefficient must be a single term, so ``p`` is primitive in
    ``L``.  At the first integer ``m >= 2`` where ``lc_L(p)`` does not
    vanish, ``p(L, m)`` must be coprime to its derivative in ``Q[L]``.
    That suffices: a repeated factor ``h`` of positive L-degree would give
    ``h(L, m)``, of the same degree because ``lc_L(h)`` divides
    ``lc_L(p)``, as a common factor of the two.  ``False`` proves nothing.
    """
    coeffs = _as_L_tpoly(p).coeffs
    if all(len(c.terms) > 1 for c in coeffs):
        return False
    lead = coeffs[-1].terms.items()
    m = 2
    while not sum(c * m ** j for (_, j), c in lead):
        m += 1
    spec = [sum(c * m ** j for (_, j), c in coeff.terms.items())
            for coeff in coeffs]
    return len(_q_gcd(spec, [i * c for i, c in enumerate(spec)][1:])) == 1


def squarefree_part(p: BiLaurent) -> tuple[BiLaurent, int]:
    """Collapse repeated factors in ``L``: returns ``(p / gcd(p, dp/dL),
    d)`` in canonical form, where ``d`` is the ``L``-degree of the removed
    gcd.

    The gcd, a primitive PRS over ``Z[M]``, is skipped when
    ``_certified_squarefree_in_L`` proves it trivial, and ``(p, 0)`` is
    returned; the result is the same either way."""
    p = p.canonical()
    dp = p.derivative("L")
    if dp.is_zero or _certified_squarefree_in_L(p):
        return p, 0
    g = bilaurent_gcd(p, dp)
    if len(g.terms) == 1 and g.leading_exponents() == (0, 0):
        return p, 0
    part = p.exact_div(g)
    removed = max(e[0] for e in g.terms) - min(e[0] for e in g.terms)
    return part.canonical(), removed


# ---------------------------------------------------------------------------
# A-polynomial of a 2-generator meridional presentation

@dataclass(frozen=True)
class ApolyResult:
    """Full elimination data: the A-polynomial, the primitive resultant it
    was distilled from, the Riley polynomial ``phi(t)``, the longitude
    eigenvalue ``lam(t)``, the L-degree removed as repeated factors, and
    whether the reducible-locus factor ``L - 1`` was adjoined."""

    apoly: BiLaurent
    resultant: BiLaurent
    riley_polynomial: TPoly
    longitude_eigenvalue: TPoly
    multiplicity_removed: int
    includes_reducible: bool


def _riley_generators(pres: KnotPresentation) -> tuple[str, str]:
    """The (meridian generator, partner generator) pair, checked."""
    if len(pres.generators) != 2:
        raise ApolyError(
            f"need exactly 2 generators, got {len(pres.generators)}")
    mer = pres.meridian.reduced()
    if len(mer.letters) != 1 or mer.letters[0][1] != 1:
        raise ApolyError("meridian must be a single generator")
    mgen = mer.letters[0][0]
    other = next(g for g in pres.generators if g != mgen)
    weights = pres.abelianization()
    if weights[mgen] != 1 or weights[other] != 1:
        raise ApolyError(
            f"generators must both be conjugate meridians "
            f"(abelianized weights {weights})")
    return mgen, other


def _riley_word(word: Word, generators: tuple[str, str],
                n: int | None = None) -> np.ndarray:
    """``word``'s image under ``u -> [[M, 1], [0, 1/M]]``, ``v -> [[M, 0],
    [t, 1/M]]``, ``(u, v) = generators``: ``X[r, c, i, j + n]`` is the
    coefficient of ``t^i M^j`` in entry ``(r, c)``, ``n`` the letter count or
    a larger one given.  After ``k < n`` letters the t-degree is at most
    ``k`` and the M-exponents lie in ``[-k, k]``: no shift loses a term."""
    n = len(word.letters) if n is None else n
    X = np.zeros((2, 2, n + 1, 2 * n + 1), dtype=np.int64 if n <= 61 else object)
    X[0, 0, 0, n] = X[1, 1, 0, n] = 1
    c0, c1 = X[:, 0], X[:, 1]
    # c[up] = c[down] multiplies c by M, and c[down] = c[up] by M^-1
    up, down = (..., slice(1, None)), (..., slice(None, -1))
    for g, e in word.letters:
        add = np.add if e > 0 else np.subtract
        (d0, s0), (d1, s1) = ((up, down), (down, up))[::e]  # c0·M^e, c1·M^-e
        if g == generators[0]:  # c1 <- c1·M^-e ± c0, c0 <- c0·M^e
            c1[d1] = c1[s1]
            add(c1, c0, out=c1)
            c0[d0] = c0[s0]
        else:  # c0 <- c0·M^e ± c1·t, c1 <- c1·M^-e
            c0[d0] = c0[s0]
            add(c0[:, 1:], c1[:, :-1], out=c0[:, 1:])
            c1[d1] = c1[s1]
    return X


def _riley_entry(entry: np.ndarray) -> TPoly:
    """The ``TPoly``, with ``int`` coefficients, of ``_riley_word`` entries."""
    n = entry.shape[1] // 2
    return TPoly([BiLaurent._normalised({(0, j - n): c
                                         for j, c in enumerate(row) if c})
                  for row in entry.tolist()])


def riley_polynomial(pres: KnotPresentation, allow_constant: bool = False,
                     *, generators: tuple[str, str] | None = None) -> TPoly:
    """The gcd of all relator entry polynomials in t (primitive in M),
    monic when its leading coefficient is a unit ``±M^k``.

    Raises ``ApolyError`` when the presentation is not in Riley form, when the
    relators impose no polynomial condition, or when the gcd is constant (no
    irreducible Riley locus) unless ``allow_constant``.  ``generators`` is the
    ``_riley_generators`` pair, computed if not given.
    """
    generators = generators or _riley_generators(pres)
    entries: list[TPoly] = []
    for lhs, rhs in pres.relators:
        n = max(len(lhs.letters), len(rhs.letters))
        D = _riley_word(lhs, generators, n) - _riley_word(rhs, generators, n)
        entries += [d for d in map(_riley_entry, D.reshape(4, n + 1, -1))
                    if not d.is_zero]
    if not entries:
        raise ApolyError("relators are identically satisfied; "
                         "no Riley polynomial")
    g = entries[0]
    for e in entries[1:]:
        g = tpoly_gcd(g, e)
        if g.degree == 0:
            break
    g = g.primitive_part()
    # the gcd is defined up to a Laurent unit; a leading ±M^k is divided
    # out, so that resultant_t can take its modular path
    (((i, k), c), *rest) = g.leading.terms.items()
    if not rest and abs(c) == 1:
        g = TPoly([x.shift(-i, -k) if c == 1 else -x.shift(-i, -k)
                   for x in g.coeffs])
    if g.degree < 1 and not allow_constant:
        raise ApolyError("Riley polynomial is constant: the presentation "
                         "has no irreducible Riley locus")
    return g


def compute_apoly_twobridge_detailed(pres: KnotPresentation,
                                     with_reducible: bool = False) -> ApolyResult:
    """Eliminate t between the Riley polynomial and the longitude
    eigenvalue; see the module docstring for the pipeline."""
    generators = _riley_generators(pres)
    phi = riley_polynomial(pres, generators=generators)
    lam = _riley_entry(_riley_word(pres.longitude, generators)[0, 0])
    if lam.is_zero:
        raise ApolyError("longitude eigenvalue polynomial is zero")

    G = TPoly.constant(BiLaurent.monomial(1, 0)) - lam

    if G.degree < 1:
        # eigenvalue independent of t: the resultant degenerates to a power
        raw = G.coeffs[0] ** phi.degree
    else:
        raw = resultant_t(phi, G)
    if raw.is_zero:
        raise ApolyError("resultant vanishes identically")

    # remove M-content (gcd of the L-coefficients)
    as_l = _as_L_tpoly(raw)
    primitive = _from_L_tpoly(as_l.primitive_part()).canonical()

    if primitive.is_zero or _is_univariate(primitive, 0):
        raise ApolyError("eliminated polynomial has no L-dependence")
    apoly, removed = squarefree_part(primitive)

    includes = False
    if with_reducible:
        l_minus_1 = BiLaurent([((1, 0), Fraction(1)), ((0, 0), Fraction(-1))])
        try:
            apoly.exact_div(l_minus_1)
        except ApolyError:
            apoly = (apoly * l_minus_1).canonical()
        includes = True

    return ApolyResult(apoly=apoly.canonical(), resultant=primitive,
                       riley_polynomial=phi, longitude_eigenvalue=lam,
                       multiplicity_removed=removed,
                       includes_reducible=includes)


def compute_apoly_twobridge(pres: KnotPresentation,
                            with_reducible: bool = False) -> BiLaurent:
    """The A-polynomial of a 2-generator meridional presentation, in
    canonical form; ``with_reducible`` adjoins the factor ``L - 1`` when
    it is not already present."""
    return compute_apoly_twobridge_detailed(pres, with_reducible).apoly
