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
repeated factors collapsed, is the defining polynomial of the eigenvalue
variety's closure.  Both routes and the exact presentation check read
one ``RileyLocus`` per command: the Riley generators, ``phi`` and the
longitude's Riley word.  ``riley_locus`` takes the entry of least degree
as the gcd when, divided by a unit leading coefficient, its remainder on
every other one is zero (on the dense arrays of the Riley words), and
the pseudo-remainder gcd otherwise.

``phi`` is monic in ``t`` up to a unit ``±M^k`` on a two-bridge knot
(Riley, 1984), and a knot group generated by two meridians is a
two-bridge knot group (Boileau–Zimmermann, 1989): ``riley_locus``
divides out the unit, and ``RileyLocus`` refuses any other leading
coefficient with an ``ApolyError`` that names it.  The elimination
(``_resultant_modular``) reduces ``lam``, the dense integer array of the
longitude's Riley word, modulo ``phi`` to ``r``, and evaluates the
characteristic polynomial of ``r(C)``, ``C`` the companion matrix of
``phi``, from power sums and Newton's identities in ``O(n^3)`` for ``n =
deg phi`` (``_charpoly_at``).
It does so in ``x = M^d``, ``d`` the gcd of the M-exponents of ``phi``
and ``r`` (at least 2 on every two-bridge knot tried), at the ``K``-th
roots of unity modulo word-size primes ``q ≡ 1 (mod K)``
(``_UnitRoots``); then it interpolates in ``x``
and rebuilds each coefficient by the Chinese remainder theorem, on as
many points as ``phi``'s Newton polygon bounds the resultant's span in
``x`` and as many primes as a Hadamard bound asks, so the result is the
exact determinant.  ``resultant_t``, the fraction-free (Bareiss)
elimination of the Sylvester matrix, is its reference.

Collapsing repeated factors is ``A / gcd(A, dA/dL)``.  ``squarefree_part``
first tries a certificate that the gcd is trivial: some L-coefficient of
``A`` is a single term, so ``A`` has no content in ``M``, and ``A(L, m)``
is coprime to its derivative at an integer ``m`` where the leading
L-coefficient does not vanish; specialising can only raise the degree of
the gcd there, so a gcd of degree 0 proves ``A`` squarefree.  When that
fails and the leading L-coefficient is a unit ``±M^e``, as the
elimination's always is, ``_squarefree_modular`` takes ``chi / gcd(chi,
chi')`` of ``chi = A(L, x)``, ``x = M^d``, modulo primes on a coset of the
same transform's points, one where no point has a gcd of degree above
the least one seen, interpolates and rebuilds by CRT, and proves the
result ``S`` exactly: ``A = S·G``, ``G`` divides ``dA/dL``, and ``S``
passes the certificate give ``G = gcd(A, dA/dL)`` up to a unit.  The
primitive pseudo-remainder sequence over ``Z[M]`` (``bilaurent_gcd``) is
the reference of both, and the path only for a caller's input that is not
monic in ``L`` or that the modular path cannot prove.

``log_gauss_stack`` gives ``verify`` route 2's numbers at a stack of
points ``(L, M)``.  In log coordinates ``v = log L``, ``u = log M`` the
partials multiply a term ``t = c L^i M^j`` by ``i`` and ``j``, so the
log-Gauss map ``-(Σ j·t) / (Σ i·t)`` and the on-curve residual come from
one pass over ``A``'s terms, with no derivative polynomial.  These sums,
and ``phi``'s coefficients at each meridian (``sum_terms``), which
``representations.riley_stack`` roots, add the terms in
``summation_order``, so their bits do not depend on the order in which a
producer or the parser listed them.

This module is the only place that builds the Riley matrices as
polynomials in ``(t, M)``.  ``_riley_word`` holds a word's image as a dense
integer array over (row, column, t-exponent, M-exponent) and applies each
letter as a column operation, a slice shift and an add, which adds one
column to the other: so the word bounds each column's coefficients, and
the array is ``int64`` while that bound leaves room for the sums that
callers form, Python ints beyond.  Its size and each letter's work grow
with the word, so the locus reads freely reduced words.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

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


def summation_order(p: "BiLaurent") -> list[tuple[Exponents, Fraction | int]]:
    """``p``'s terms in the order of every float sum over them, L-exponent
    ascending, then M-exponent descending (as the elimination emits them)."""
    return sorted(p.terms.items(), key=lambda kv: (kv[0][0], -kv[0][1]))


def sum_terms(terms: list, L: complex, M: complex) -> complex:
    """``Σ c L^i M^j`` over ``summation_order``'s ``terms``, in that order."""
    out = 0j
    for (i, j), c in terms:
        out += complex(c) * (L ** i) * (M ** j)
    return out


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
        """The value at ``(L, M)``, summed in ``summation_order``."""
        return sum_terms(summation_order(self), L, M)


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
                _, slash, den = text_.partition("/")
                if slash and int(den) == 0:
                    raise ApolyError(f"column {p + 1}: zero denominator in "
                                     f"{text_!r}")
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


def log_gauss_stack(p: BiLaurent, L, M) -> tuple[np.ndarray, np.ndarray, list]:
    """At the points ``(L, M)``, broadcast to one axis, from one pass over the
    terms ``t = c L^i M^j``: the residual ``|Σt| / (1 + Σ|t|)``, NaN where a
    term overflows; the log-Gauss map ``-(Σ j·t) / (Σ i·t)``, ``inf`` where
    ``|Σ i·t| <= 1e-8 (|L| + Σ|i·t|)``; an ``ApolyError`` (a zero coordinate,
    a term beyond floating point, a singular point) or ``None``.  A point's
    sums run over its own terms, in ``summation_order``: it gives the same
    bits alone as in a stack, and for any dict order of the same terms."""
    L, M = np.asarray(L, complex), np.asarray(M, complex)
    try:
        i, j, c = np.array([(*e, c) for e, c in summation_order(p)],
                           dtype=float).reshape(-1, 3).T
    except OverflowError:
        i = j = c = np.full(len(p.terms), np.inf)
    with np.errstate(all="ignore"):
        t = c * L[..., None] ** i * M[..., None] ** j
        size, size_i, size_j = (abs(x).sum(axis=1) for x in (t, i * t, j * t))
        di, dj = (i * t).sum(axis=1), (j * t).sum(axis=1)
        flat_L = np.abs(di) <= 1e-8 * (np.abs(L) + size_i)
        flat_M = np.abs(dj) <= 1e-8 * (np.abs(M) + size_j)
        finite = np.isfinite(size + size_i + size_j)
        residual = np.where(finite, abs(t.sum(axis=1)) / (1 + size), np.nan)
        gauss = np.where(flat_L, np.inf, -dj / di)
    messages = np.select([(L == 0) | (M == 0), ~finite, flat_L & flat_M], [
        "log-Gauss map requires nonzero L and M",
        "A-polynomial evaluation overflows floating point at this sample",
        "both partial derivatives vanish: singular point"], "")
    return residual, gauss, [ApolyError(m) if m else None for m in messages]


def log_gauss(p: BiLaurent, L: complex, M: complex) -> complex | float:
    """``log_gauss_stack``'s map at one point; raises its ``ApolyError``."""
    _, (value,), (error,) = log_gauss_stack(p, [L], [M])
    if error is not None:
        raise error
    return math.inf if value == math.inf else complex(value)


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
        if any(len(c.terms) == 1 for c in self.coeffs):
            return BiLaurent.one()  # a monomial is a unit up to a rational
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
        return self if g == BiLaurent.one() else TPoly(
            [c.exact_div(g) for c in self.coeffs])

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
    """Pseudo-remainder of P by Q (Q nonzero): the remainder of
    ``lc(Q)^(deg P - deg Q + 1) * P`` under exact division, and ``P``
    itself when ``deg P < deg Q``."""
    if Q.is_zero:
        raise ApolyError("pseudo-remainder by the zero polynomial")
    d = P.degree - Q.degree
    if d < 0:  # P = 0 too, of degree -1
        return P
    # a factor lc(Q) per step and the rest at the end keeps R small
    R, lcq, e = P, Q.leading, d + 1
    monic = lcq == BiLaurent.one()
    while not R.is_zero and R.degree >= Q.degree:
        R = (R if monic else R.scale(lcq)) \
            - Q.shift_t(R.degree - Q.degree).scale(R.leading)
        e -= 1
    return R.scale(lcq ** e) if e and not monic else R


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
    ``P`` and ``Q``, by fraction-free (Bareiss) elimination.  Requires both
    degrees >= 1.  The raw determinant is returned, so ``resultant_t(P1*P2,
    Q) = resultant_t(P1, Q) * resultant_t(P2, Q)`` holds exactly.  It takes
    a ``P`` that is not monic, and is the reference of
    ``_resultant_modular``, the elimination's one route."""
    if P.is_zero or Q.is_zero:
        raise ApolyError("resultant of the zero polynomial")
    if P.degree < 1 or Q.degree < 1:
        raise ApolyError("resultant requires degree >= 1 in t for both inputs")
    # deg Q rows of P's coefficients, then deg P rows of Q's, each shifted
    # one column right of the last
    n, m = P.degree, Q.degree
    N, zero = n + m, BiLaurent.zero()
    S = [[zero] * N for _ in range(N)]
    for k in range(m):
        S[k][k:k + n + 1] = P.coeffs[::-1]
    for k in range(n):
        S[m + k][k:k + m + 1] = Q.coeffs[::-1]
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


def _resultant_modular(P: np.ndarray, p_lo: int, lam: np.ndarray,
                       lam_lo: int) -> BiLaurent:
    """``Res_t(P, L - lam)`` for a monic ``P``, both laid out as by
    ``_dense`` (``lam`` may keep zero rows and columns, as a ``_riley_word``
    entry does), by evaluation and interpolation in ``x = M^d`` modulo
    word-size primes; equal to ``resultant_t``'s Sylvester determinant.

    Reduction: the resultant is ``prod (L - lam(a))`` over the roots ``a``
    of the monic ``P``, and ``lam(a) = r(a)`` for ``r = lam mod P``, so it
    equals ``Res_t(P, L - r)``, exactly; a constant ``r = c`` gives
    ``(L - c)^deg P``.  Otherwise it is ``det(L·I - r(C))`` for the
    companion matrix ``C`` of ``P``, whose eigenvalues are the roots ``a``:
    the characteristic polynomial of ``r(C)``.  ``r`` is reduced on the
    arrays by ``_monic_rem``, and the determinant is the only polynomial
    built.

    ``d`` is the gcd of the M-exponents of ``P`` and ``r`` (1 when they
    have none but 0).  Both are polynomials in ``x = M^d``, so the
    determinant is too, and the points, the interpolation and the
    exponent range below all run in ``x``; the coefficients, and so the
    prime count, are those of the same determinant.  The points are the
    ``K``-th roots of unity modulo primes ``q ≡ 1 (mod K)`` (``_UnitRoots``).

    Bounds, both proven:

    - exponents: ``_exponent_range`` fixes ``K``, the number of points.
    - Coefficients (Goldstein–Graham, 1974): on the torus
      ``|L| = |M| = 1`` each Sylvester entry is at most its coefficient
      1-norm, and each row holds the coefficients of ``P`` or of
      ``Q = L - r`` once, so by Hadamard the determinant is at most ``B``,
      ``B^2 = (sum_k |P_k|_1^2)^deg Q · (sum_k |Q_k|_1^2)^deg P``.  A
      coefficient is the mean of ``det · L^-a M^-b`` over the torus, so
      it is at most ``B`` in absolute value.  Primes whose product
      exceeds ``2B`` fix it as a symmetric residue (CRT).
    """
    n = len(P) - 1
    r, r_lo = _monic_rem(lam, lam_lo, P, p_lo)
    if len(r) < 2:  # r is a constant r_0, possibly zero
        r_0 = r[0].tolist() if len(r) else []
        return BiLaurent._normalised(
            {(1, 0): 1, **{(0, r_lo + j): -v for j, v in enumerate(r_0) if v}}
        ) ** n
    norms = [[sum(map(abs, row)) for row in T.tolist()] for T in (P, r)]
    norms[1][0] += 1  # Q_0 = L - r_0
    bound_sq = math.prod(sum(v * v for v in row) ** e
                         for row, e in zip(norms, (len(r) - 1, n)))
    d = math.gcd(*(lo + j for T, lo in ((P, p_lo), (r, r_lo))
                   for j in np.flatnonzero((T != 0).any(axis=0)).tolist())) or 1
    lo, hi = (v // d for v in _exponent_range(P, p_lo, r, r_lo))
    K = hi - lo + 1
    roots = _UnitRoots(K, _word_primes(n, K, 4 * bound_sq))
    char = _charpoly_at(roots.evaluate(P[:n, ::d], p_lo // d),
                        roots.evaluate(r[:, ::d], r_lo // d), roots.primes)
    return _crt(roots.interpolate(char, lo), roots.primes, lo, d)


def _dense(T: TPoly) -> tuple[np.ndarray, int]:
    """The integer coefficients of ``T`` as an array ``C[k, j - lo]`` of
    ``t^k M^j``, and ``lo``, the least M-exponent: ``int64`` when every
    coefficient is below ``2^62`` in absolute value, Python ints otherwise."""
    terms = [(k, j, v) for k, c in enumerate(T.coeffs)
             for (_, j), v in c.terms.items()]
    lo = min(j for _, j, _ in terms)
    big = max(abs(v) for _, _, v in terms) >> 62
    C = np.zeros((len(T.coeffs), max(j for _, j, _ in terms) - lo + 1),
                 dtype=object if big else np.int64)
    for k, j, v in terms:
        C[k, j - lo] = v
    return C, lo


def _monic_rem(A: np.ndarray, a_lo: int, P: np.ndarray, p_lo: int
               ) -> tuple[np.ndarray, int]:
    """``A mod P`` for arrays of ``_dense``, ``P`` monic in t (its last row
    is ``M^0``): the remainder, its zero rows and columns trimmed, and its
    least M-exponent.  The rows of ``A`` are cancelled from the top, each by
    one convolution with ``P``'s other rows laid end to end.  A step adds
    at most ``max|R|·sum_k |P_k|_1`` to an entry, so the array turns to
    Python ints before ``int64`` could overflow."""
    n, width = len(P) - 1, P.shape[1]
    if not n:  # P = 1
        return A[:0, :0], 0
    A = A[:max(np.flatnonzero((A != 0).any(axis=1)), default=-1) + 1]
    steps = max(len(A) - n, 0)
    low = P[:n]
    grow = 1 + sum(abs(v) for v in low.ravel().tolist())
    # a step widens the M-range by P's, and p_lo <= 0 <= p_lo + width - 1
    off = -steps * p_lo
    R = np.zeros((len(A), A.shape[1] + steps * (width - 1)),
                 dtype=object if object in (A.dtype, P.dtype) else np.int64)
    R[:, off:off + A.shape[1]] = A
    for k in range(len(A) - 1, n - 1, -1):
        nz = np.flatnonzero(R[k])
        if not len(nz):
            continue
        if R.dtype != object and int(np.abs(R).max()) * grow >> 63:
            R = R.astype(object)
        a0, a1 = nz[0], nz[-1] + 1
        # P's rows, each padded by a1 - a0 - 1 zeros, make one 1-D product
        stride = width + a1 - a0 - 1
        padded = np.zeros((n, stride), dtype=R.dtype)
        padded[:, :width] = low.astype(R.dtype)
        prod = np.convolve(R[k, a0:a1], padded.ravel())[:n * stride]
        R[k - n:k, a0 + p_lo:a0 + p_lo + stride] -= prod.reshape(n, stride)
        R[k] = 0
    rows = np.flatnonzero((R != 0).any(axis=1))
    if not len(rows):
        return R[:0, :0], 0
    cols = np.flatnonzero((R != 0).any(axis=0))
    return R[:rows[-1] + 1, cols[0]:cols[-1] + 1], a_lo - off + int(cols[0])


def _crt(coeffs: np.ndarray, primes: list[int], lo: int, d: int) -> BiLaurent:
    """The integer polynomial whose coefficient of ``L^k x^(j + lo)``,
    ``x = M^d``, has the residue ``coeffs[i, k, j]`` modulo ``primes[i]``,
    each the symmetric residue modulo the product of the primes."""
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
        terms[(k, (j + lo) * d)] = v - modulus if 2 * v > modulus else v
    return BiLaurent._normalised(terms)


def _exponent_range(P: np.ndarray, p_lo: int, r: np.ndarray, r_lo: int
                    ) -> tuple[int, int]:
    """``lo <= 0 <= hi`` bounding the M-exponents of ``Res_t(P, L - r) =
    prod (L - r(a))`` over the roots ``a`` of a monic ``P``, both given as
    by ``_dense``, from the sides of ``P``'s Newton polygon in the
    (t-exponent, M-exponent) plane.  A side with ``di`` roots and slope
    ``s = dj/di`` gives them the valuation ``-s``: at ``M = 0`` on a lower
    side (``di > 0``), at ``M = ∞`` on an upper one, where ``r(a)`` is
    bounded by its smallest or largest term.  ``lo`` sums the negative
    parts, ``hi`` the positive ones, each an integer ``|di|·(j - k·s)`` for
    a term ``M^j t^k`` of ``r``; a collinear support's one side bounds both
    ways."""
    polygon = newton_polygon(BiLaurent._normalised(  # t-exponents in L's slot
        {(k, p_lo + j): 1 for k, j in np.argwhere(P).tolist()}))
    sides = polygon.sides
    if len(sides) == 1:
        sides += (Side(sides[0].end, sides[0].start),)
    r_exps = [(k, r_lo + js[0], r_lo + js[-1])
              for k, js in enumerate(np.flatnonzero(row).tolist() for row in r)
              if js]
    lo = hi = 0
    for side in sides:
        di, dj = side.di, side.dj
        if di > 0:
            lo += min(0, *(di * j0 - k * dj for k, j0, _ in r_exps))
        elif di < 0:
            hi += max(0, *(k * dj - di * j1 for k, _, j1 in r_exps))
    k, j0, j1 = r_exps[0]
    if k == 0:  # the roots a = 0 of P's factor t^z, where r(a) = r_0
        z = polygon.vertices[0][0]
        lo, hi = lo + z * min(0, j0), hi + z * max(0, j1)
    return lo, hi


def _word_primes(n: int, K: int, bound_sq: int) -> list[int]:
    """The first primes of ``_descending_primes(n, K)``, as many as make
    their product's square exceed ``bound_sq``."""
    primes: list[int] = []
    product = 1
    for q in _descending_primes(n, K):
        if product * product > bound_sq:
            return primes
        primes.append(q)
        product *= q
    raise ApolyError(f"too few primes 1 mod {K} for the coefficient bound")


def _descending_primes(n: int, K: int) -> Iterator[int]:
    """The primes ``q ≡ 1 (mod K)`` below ``2^b``, descending, for the
    largest ``b`` with ``(n + 1)·2^(2b) <= 2^63``: a product of two
    ``n × n`` matrices of residues, plus a residue, then stays below
    ``2^63``."""
    step = K if K % 2 == 0 else 2 * K  # q is odd
    q = ((1 << (63 - (n + 1).bit_length()) // 2) - 2) // step * step + 1
    while q > 2:
        if _is_prime(q):
            yield q
        q -= step


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


def _geometric(first: Iterable[int], ratio: Iterable[int], count: int,
               primes: list[int]) -> np.ndarray:
    """``first·ratio^m`` modulo each prime, ``m < count``: shape
    ``(#primes, count)``."""
    rows = []
    for a, r, q in zip(first, ratio, primes):
        row = [a % q]
        for _ in range(count - 1):
            row.append(row[-1] * r % q)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def _limb_split(K: int, bits: int) -> tuple[int, int]:
    """``(limbs, width)``: the fewest limbs of ``width`` bits each that
    cover a residue of ``bits`` bits, such that ``K`` products of a limb
    and a residue sum below ``2^53``: ``K·(2^width - 1)·(2^bits - 1) <
    2^53``."""
    for limbs in range(1, bits + 1):
        width = -(-bits // limbs)
        if K * ((1 << width) - 1) * ((1 << bits) - 1) < 1 << 53:
            return limbs, width
    raise ApolyError(f"{K} points are too many for exact float64 products")


def _mulmod(a: np.ndarray, b: np.ndarray, q: np.ndarray, limbs: int,
            width: int) -> np.ndarray:
    """``a @ b`` modulo ``q``, exactly, for ``int64`` residues ``a`` and
    ``float64`` residues ``b`` in ``[0, q)``, stacked over the primes on
    the first axis; ``(limbs, width)`` is ``_limb_split(K, bits)`` for the
    inner dimension ``K`` and ``q < 2^bits``.  ``a`` is split into limbs of
    ``width`` bits, and each float64 product ``limb @ b`` is a sum of ``K``
    integer terms below ``(2^width - 1)·(2^bits - 1)``: every partial sum,
    in whatever order BLAS adds them, is an integer below ``2^53``, so
    exact.  The limbs are joined modulo ``q`` in ``int64`` below
    ``2^(bits + width + 1)``."""
    rows = a.shape[-2]
    parts = np.concatenate([(a >> width * i) & ((1 << width) - 1)
                            for i in range(limbs)], axis=-2)
    prod = (parts.astype(np.float64) @ b).astype(np.int64) % q
    prod = prod.reshape(*prod.shape[:-2], limbs, rows, b.shape[-1])
    out = prod[..., -1, :, :]
    for i in range(limbs - 2, -1, -1):
        out = ((out << width) + prod[..., i, :, :]) % q
    return out


class _UnitRoots:
    """The ``K`` points ``x = c·ω^i``, ``i < K``, of a coset of the ``K``-th
    roots of unity modulo each prime ``q ≡ 1 (mod K)``, ``ω`` a primitive
    one (Pollard, 1971).  With exponents folded modulo ``K``, a Laurent
    polynomial ``f = sum_j f_j x^j`` takes the value ``f(c ω^i) = sum_k (
    sum_(j ≡ k) f_j c^j) ω^(ik)`` there: evaluation is one product with the
    table ``W[k, i] = ω^(ik mod K)``.  Conversely, for ``f`` with exponents
    in ``[lo, lo + K)``, ``f_j = K^-1 c^-j sum_i f(c ω^i) ω^(-ij)``:
    interpolation is the same product, read at ``-j mod K``, and scaled.
    Both products run in ``_mulmod``.  Any ``c`` gives ``K`` distinct
    nonzero points; cosets differ exactly when their ``c^K`` differ."""

    def __init__(self, K: int, primes: list[int]):
        self.K, self.primes = K, primes
        self.q = np.array(primes, dtype=np.int64)[:, None, None]
        factors = [f for f in range(2, K + 1) if K % f == 0 and _is_prime(f)]
        omega = [next(w for w in (pow(g, (q - 1) // K, q) for g in range(2, q))
                      if all(pow(w, K // f, q) != 1 for f in factors))
                 for q in primes]
        i = np.arange(K)
        self.table = _geometric([1] * len(primes), omega, K, primes
                                )[:, np.outer(i, i) % K].astype(np.float64)
        self.split = _limb_split(K, max(primes).bit_length())

    def evaluate(self, coeffs: np.ndarray, lo: int, c: int = 1) -> np.ndarray:
        """The Laurent polynomials whose coefficient of ``x^(lo + j)`` in row
        ``k`` is the integer ``coeffs[k, j]`` at the points, modulo each
        prime: shape ``(#primes, rows, K)``."""
        rows, span = coeffs.shape
        res = (coeffs[None] % self.q).astype(np.int64)
        powers = _geometric([pow(c, lo, q) for q in self.primes],
                            [c] * len(self.primes), span, self.primes)
        res = res * powers[:, None, :] % self.q
        start = lo % self.K
        folds = -(-(start + span) // self.K)
        bins = np.zeros((len(self.primes), rows, folds * self.K), np.int64)
        bins[..., start:start + span] = res
        bins = bins.reshape(len(self.primes), rows, folds, self.K).sum(axis=2)
        return _mulmod(bins % self.q, self.table, self.q, *self.split)

    def interpolate(self, values: np.ndarray, lo: int, c: int = 1
                    ) -> np.ndarray:
        """The coefficients of ``x^lo, ..., x^(lo + K - 1)``, modulo each
        prime, of the Laurent polynomials that take ``values[i, k, m]`` at
        the ``m``-th point modulo ``primes[i]``: the same shape."""
        K = self.K
        sums = _mulmod(values, self.table, self.q, *self.split)
        scale = _geometric(
            [pow(K, -1, q) * pow(c, -lo, q) for q in self.primes],
            [pow(c, -1, q) for q in self.primes], K, self.primes)
        return sums[..., (-lo - np.arange(K)) % K] * scale[:, None, :] % self.q


def _charpoly_at(a: np.ndarray, r: np.ndarray, primes: list[int]
                 ) -> np.ndarray:
    """The coefficients of ``det(L·I - r(C))``, ``C`` the companion matrix
    of the monic ``P``, modulo ``primes[i]``, from the values ``a[i, k, m]``
    of ``P``'s coefficients below the leading one and ``r[i, k, m]`` of
    ``r``'s at the same points: shape ``(#primes, deg P + 1, #points)``,
    ascending in ``L``.

    Power sums, in ``O(n^3)`` for ``n = deg P``: Newton's identities on
    ``a`` give ``s_j = tr(C^j)``, the power sums of ``P``'s roots; ``p_k =
    tr(X^k) = s · (X^k e_0)`` for ``X = r(C)`` takes ``n`` matrix–vector
    products; Newton's identities again give the characteristic polynomial
    from ``p_1 … p_n``, dividing by ``k <= n`` modulo primes far above
    ``n``.  Every sum is of at most ``n`` products of two residues plus a
    residue, below ``2^63`` for the primes of ``_descending_primes``."""
    count, n, points = a.shape
    q = np.array(primes, dtype=np.int64)[:, None]
    dot = functools.partial(np.einsum, "pim,pim->pm")

    # C acts on coefficient vectors as multiplication by t modulo P, so the
    # column j of X is t^j·r mod P
    X = np.zeros((count, n, n, points), dtype=np.int64)
    X[:, :r.shape[1], 0] = r
    for j in range(1, n):
        X[:, 1:, j] = X[:, :-1, j - 1]
        X[:, :, j] = (X[:, :, j] - X[:, n - 1, j - 1, None] * a) % q[:, None]

    # s_j = -(j·a_(n-j) + sum_(i<j) a_(n-i)·s_(j-i))
    s = np.empty((count, n, points), dtype=np.int64)
    s[:, 0] = n
    for j in range(1, n):
        s[:, j] = -(j * a[:, n - j] + dot(a[:, n - 1:n - j:-1],
                                          s[:, j - 1:0:-1])) % q
    p = np.empty((count, n + 1, points), dtype=np.int64)
    vec = X[:, :, 0]
    p[:, 1] = dot(s, vec) % q
    for k in range(2, n + 1):
        vec = np.einsum("prcm,pcm->prm", X, vec) % q[:, None]
        p[:, k] = dot(s, vec) % q

    # c_(n-j) = -(p_j + sum_(i<j) c_(n-i)·p_(j-i)) / j
    char = np.empty((count, n + 1, points), dtype=np.int64)
    char[:, n] = 1
    for j in range(1, n + 1):
        inv_j = np.array([pow(j, -1, x) for x in primes])[:, None]
        acc = p[:, j] + dot(char[:, n - 1:n - j:-1], p[:, j - 1:0:-1])
        char[:, n - j] = -(acc % q) * inv_j % q
    return char


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


def _divmod_mod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ascending coefficient lists modulo the
    prime ``q``; ``b`` has a nonzero last coefficient, and the remainder's
    trailing zeros are trimmed."""
    inv = pow(b[-1], -1, q)
    rem, quot = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        f = quot[k] = rem[k + len(b) - 1] * inv % q
        for i, c in enumerate(b):
            rem[k + i] = (rem[k + i] - f * c) % q
    del rem[len(b) - 1:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _squarefree_mod(chi: list[int], q: int) -> tuple[list[int], int]:
    """``chi / gcd(chi, chi')`` for a monic ``chi`` modulo a prime ``q`` above
    its degree, monic, and the degree of the gcd."""
    a, b = chi, [i * c % q for i, c in enumerate(chi)][1:]
    while b and not b[-1]:
        b.pop()
    while b:
        a, b = b, _divmod_mod(a, b, q)[1]
    quot = _divmod_mod(chi, a, q)[0]
    return [c * a[-1] % q for c in quot], len(a) - 1


def _squarefree_images(coeffs: np.ndarray, lo: int, q: int, least: int
                       ) -> tuple[int, np.ndarray] | None:
    """The coefficients modulo ``q`` of ``S̃``, the monic squarefree part of
    ``p̃ = sum_k L^k sum_j coeffs[k, j] x^(lo + j)``, from its values on a
    coset of the ``K = coeffs.shape[1]`` points of ``_UnitRoots``.

    At each point of a coset it takes ``chi = p̃(L, x)`` and ``chi /
    gcd(chi, chi')``; a gcd of degree above the least one seen, here or in
    ``least`` from earlier primes, marks the point unlucky, and its coset
    with it.  It tries up to three cosets, none of them the subgroup of
    the ``K``-th roots of unity itself, which holds ``x = 1`` and every
    root of unity of order dividing ``K``, where factors of an A-polynomial
    meet (``x = 1`` is unlucky on b(15,11)).  It returns ``(least degree,
    coefficients)``, the coefficient of ``L^k x^(lo + j)`` at ``[k, j]``,
    or ``None`` when every coset tried holds an unlucky point.  ``q`` must
    exceed the degree of ``p̃``.
    """
    K = coeffs.shape[1]
    roots = _UnitRoots(K, [q])
    seen = {1}  # c^K of the subgroup and of the cosets tried
    c = 1
    while len(seen) < min((q - 1) // K, 4):
        c += 1
        if pow(c, K, q) in seen:
            continue
        seen.add(pow(c, K, q))
        images = []
        for chi in roots.evaluate(coeffs, lo, c)[0].T.tolist():
            s, degree = _squarefree_mod(chi, q)
            if degree > least or degree < least and images:
                least = min(least, degree)
                break
            least = degree
            images.append(s)
        else:
            values = np.array(images, dtype=np.int64).T
            return least, roots.interpolate(values[None], lo, c)[0]
    return None


def _squarefree_modular(p: BiLaurent, dp: BiLaurent
                        ) -> tuple[BiLaurent, int] | None:
    """``squarefree_part`` of a canonical ``p``, ``dp`` its L-derivative,
    whose leading L-coefficient is ``M^e``, rebuilt from its images modulo
    primes at points ``x = M^d``, ``d`` the gcd of ``p``'s M-exponents;
    ``None`` when no proof is found.

    Write ``p̃ = p / M^e``, monic in ``L``, and ``S̃ = S / M^e'`` for its
    squarefree part ``S``.  A specialisation ``x -> m`` keeps the leading
    coefficient, so ``gcd(p̃, p̃')`` maps into a common factor of ``p̃(L,
    m)`` and its derivative: modulo a prime the gcd's degree there is at
    least the true one, and where it is equal, ``chi / gcd(chi, chi')`` is
    ``S̃(L, m)``.  ``S̃``'s Newton polygon, plus the point of the monic
    ``G̃ = p̃ / S̃`` at ``(deg_L G, 0)``, lies inside ``p̃``'s (the polygon
    of a product is the Minkowski sum), so ``S̃``'s M-exponents lie in
    ``p̃``'s span ``[lo, hi]``, and the ``K = hi - lo + 1`` points of a coset
    fix each L-coefficient (``_squarefree_images``).  The residues are
    rebuilt by CRT, starting from as many primes as ``p``'s largest
    coefficient would ask of ``S`` and adding one at a time.

    Whatever the images, the result ``S`` is proven by three exact checks:
    ``p = S·G``; ``G`` divides ``dp/dL``; ``S`` passes
    ``_certified_squarefree_in_L``.  Over ``Q(M)``, ``G`` divides ``p`` and
    ``p'``, so it divides ``H = gcd(p, p')``.  An irreducible factor of
    multiplicity ``k`` in ``p`` has multiplicity ``k - 1`` in ``H`` and at
    most 1 in the squarefree ``S``, so at least ``k - 1`` in ``G``.  Hence
    ``G = H`` up to a unit, ``S = p / H``, and the canonical ``S`` is the
    PRS's answer; ``deg_L G`` is the multiplicity removed.

    The primes are capped by Mignotte's bound: under ``L -> y^E``,
    ``x -> y``, ``E`` above ``p``'s x-span, a factor keeps its
    coefficients, and a factor of a polynomial ``f`` of degree ``N`` has
    coefficients at most ``2^N |f|_2``.  Beyond it more primes cannot mend
    the images; the primes tried, unlucky ones included, stop at its
    square.
    """
    n = max(i for i, _ in p.terms)
    d = math.gcd(*(j for _, j in p.terms)) or 1
    span = max(j for _, j in p.terms) // d
    coeffs = np.zeros((n + 1, span + 1), dtype=object)
    for (i, j), v in p.terms.items():
        coeffs[i, j // d] = v
    (e,) = np.flatnonzero(coeffs[n]).tolist()
    lo = -e
    start_bits = max(map(abs, p.terms.values())).bit_length() + 2
    cap_bits = (n * (span + 1) + span
                + sum(c * c for c in p.terms.values()).bit_length() // 2 + 3)
    least, images, primes, tried = n, [], [], 1
    for q in _descending_primes(n, span + 1):
        if (math.prod(primes).bit_length() > cap_bits
                or tried.bit_length() > 2 * cap_bits):
            return None
        tried *= q
        found = _squarefree_images(coeffs, lo, q, least)
        if found is None:
            continue
        degree, image = found
        if degree < least:
            least, images, primes = degree, [], []
        images.append(image)
        primes.append(q)
        if math.prod(primes).bit_length() < start_bits:
            continue
        S = _crt(np.array(images), primes, lo, d).canonical()
        try:
            G = p.exact_div(S)
            dp.exact_div(G)
        except ApolyError:
            continue
        return ((S, n - max(i for i, _ in S.terms))
                if _certified_squarefree_in_L(S) else None)
    return None


def squarefree_part(p: BiLaurent) -> tuple[BiLaurent, int]:
    """Collapse repeated factors in ``L``: returns ``(p / gcd(p, dp/dL),
    d)`` in canonical form, where ``d`` is the ``L``-degree of the removed
    gcd.

    ``(p, 0)`` is returned when ``_certified_squarefree_in_L`` proves ``p``
    squarefree.  Otherwise a ``p`` whose leading L-coefficient is a unit
    ``±M^e``, as the elimination's, takes ``_squarefree_modular``; other
    input, and any that the modular path cannot prove, takes the gcd by
    the primitive PRS over ``Z[M]``, the reference of both."""
    p = p.canonical()
    dp = p.derivative("L")
    if dp.is_zero or _certified_squarefree_in_L(p):
        return p, 0
    top = max(i for i, _ in p.terms)
    lead = [c for (i, _), c in p.terms.items() if i == top]
    if lead == [1]:
        found = _squarefree_modular(p, dp)
        if found is not None:
            return found
    g = bilaurent_gcd(p, dp)
    if len(g.terms) == 1 and g.leading_exponents() == (0, 0):
        return p, 0
    part = p.exact_div(g)
    removed = max(e[0] for e in g.terms) - min(e[0] for e in g.terms)
    return part.canonical(), removed


# ---------------------------------------------------------------------------
# A-polynomial of a 2-generator meridional presentation

@dataclass(frozen=True)
class RileyLocus:
    """A presentation's (meridian generator, partner) pair and its Riley
    polynomial ``phi`` (``riley_locus``), monic in ``t`` or constant; any
    other ``phi`` is refused with an ``ApolyError`` naming its leading
    coefficient, as no two-bridge knot has one.  Built once per command,
    it is read by both routes and by the exact presentation check."""

    presentation: KnotPresentation
    generators: tuple[str, str]
    phi: TPoly

    def __post_init__(self):
        if self.phi.degree >= 1 and self.phi.leading != BiLaurent.one():
            raise ApolyError(
                f"Riley polynomial is not monic: its leading coefficient in "
                f"t is {format_bilaurent(self.phi.leading)}, not M^k up to "
                f"sign as on a two-bridge knot")

    @functools.cached_property
    def longitude(self) -> np.ndarray:
        """The reduced longitude's ``_riley_word`` with one spare letter,
        so that ``np.roll`` in ``commutes`` wraps zeros."""
        word = self.presentation.longitude.reduced()
        return _riley_word(word, self.generators, len(word.letters) + 1)

    def commutes(self) -> bool:
        """Whether the longitude commutes with the meridian on every Riley
        representation: ``[[a, b], [c, d]]`` commutes with ``[[M, 1], [0,
        1/M]]`` when ``phi`` (of degree >= 1) divides ``c`` and ``(M -
        1/M)·b - a + d`` (``_divides_all``)."""
        (a, b), (c, d) = self.longitude
        e = np.roll(b, 1, axis=1) - np.roll(b, -1, axis=1) - a + d
        return _divides_all(self.phi, [c, e])


@dataclass(frozen=True)
class ApolyResult:
    """Full elimination data: the A-polynomial, the resultant it was
    distilled from, the Riley locus, which the same command's route 1 and
    check read, the L-degree removed as repeated factors, and whether the
    factor ``L - 1`` was adjoined.  ``longitude_eigenvalue`` is ``lam(t)``,
    built when read."""

    apoly: BiLaurent
    resultant: BiLaurent
    locus: RileyLocus = field(repr=False)
    multiplicity_removed: int
    includes_reducible: bool

    @property
    def riley_polynomial(self) -> TPoly:
        return self.locus.phi

    @property
    def longitude_eigenvalue(self) -> TPoly:
        return _riley_entry(self.locus.longitude[0, 0])


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
    ``k`` and the M-exponents lie in ``[-k, k]``: no shift loses a term.
    ``bound`` bounds each column's coefficients in absolute value; below
    ``2^61`` a sum of four entries, as in ``RileyLocus.commutes``, fits
    ``int64``."""
    n = len(word.letters) if n is None else n
    bound = [1, 1]  # a u-letter adds column 0 to column 1, a v-letter 1 to 0
    for g, _ in word.letters:
        bound[g == generators[0]] += bound[g != generators[0]]
    X = np.zeros((2, 2, n + 1, 2 * n + 1),
                 dtype=object if max(bound) >> 61 else np.int64)
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


def _divides_all(g: TPoly, entries: list[np.ndarray]) -> bool:
    """Whether the monic ``g`` divides every ``_riley_word`` entry in the
    Laurent ring: whether each remainder by ``_monic_rem`` is zero."""
    G, g_lo = _dense(g)
    return not any(_monic_rem(e, -(e.shape[1] // 2), G, g_lo)[0].size
                   for e in entries)


def _unit_divided(g: TPoly) -> TPoly:
    """``g`` divided by its leading coefficient when that is a unit
    ``±M^k``, and ``g`` itself otherwise."""
    (((i, k), c), *rest) = g.leading.terms.items()
    if rest or abs(c) != 1:
        return g
    return TPoly([x.shift(-i, -k) if c == 1 else -x.shift(-i, -k)
                  for x in g.coeffs])


def riley_locus(pres: KnotPresentation) -> RileyLocus:
    """The Riley locus of ``pres``, ``phi`` the gcd of its reduced relator
    sides' entry polynomials in t (primitive in M), divided by a unit
    leading coefficient ``±M^k``.  ``ApolyError`` outside Riley form, when
    the relators impose no condition, or for a ``phi`` not monic."""
    generators = _riley_generators(pres)
    entries: list[np.ndarray] = []
    for lhs, rhs in pres.relators:
        lhs, rhs = lhs.reduced(), rhs.reduced()
        n = max(len(lhs.letters), len(rhs.letters))
        D = _riley_word(lhs, generators, n) - _riley_word(rhs, generators, n)
        entries += [d for d in D.reshape(4, n + 1, -1) if d.any()]
    if not entries:
        raise ApolyError("relators are identically satisfied; "
                         "no Riley polynomial")
    # the entry of least t-degree, divided by a unit leading coefficient,
    # is the gcd when it has no factor t and divides every other entry; the
    # gcd is defined up to a Laurent unit
    source = min(range(len(entries)),
                 key=lambda i: np.flatnonzero(entries[i].any(axis=1))[-1])
    g = _unit_divided(_riley_entry(entries[source]).primitive_part())
    if not (g.leading == BiLaurent.one() and not g.coeffs[0].is_zero
            and _divides_all(g, entries[:source] + entries[source + 1:])):
        polys = [_riley_entry(e) for e in entries]
        g = polys[0]
        for e in polys[1:]:
            g = tpoly_gcd(g, e)
            if g.degree == 0:
                break
        g = _unit_divided(g.primitive_part())
    return RileyLocus(pres, generators, g)


def _irreducible(locus: RileyLocus) -> RileyLocus:
    """``locus``, or an ``ApolyError`` when its ``phi`` is constant."""
    if locus.phi.degree < 1:
        raise ApolyError("Riley polynomial is constant: the presentation "
                         "has no irreducible Riley locus")
    return locus


def riley_polynomial(pres: KnotPresentation) -> TPoly:
    """``riley_locus(pres).phi``, refused also when constant."""
    return _irreducible(riley_locus(pres)).phi


def compute_apoly_twobridge_detailed(pres: KnotPresentation,
                                     with_reducible: bool = False) -> ApolyResult:
    """Eliminate t between the monic Riley polynomial and the longitude
    eigenvalue by ``_resultant_modular``; see the module docstring."""
    locus = _irreducible(riley_locus(pres))
    entry = locus.longitude[0, 0]
    # prod (L - r(a)) over phi's roots, monic in L
    raw = _resultant_modular(*_dense(locus.phi), entry, -(entry.shape[1] // 2))
    primitive = raw.canonical()

    if _is_univariate(primitive, 0):
        raise ApolyError("eliminated polynomial has no L-dependence")
    apoly, removed = squarefree_part(primitive)

    if with_reducible:
        l_minus_1 = BiLaurent([((1, 0), Fraction(1)), ((0, 0), Fraction(-1))])
        try:
            apoly.exact_div(l_minus_1)
        except ApolyError:
            apoly = (apoly * l_minus_1).canonical()

    return ApolyResult(apoly=apoly, resultant=primitive,
                       locus=locus, multiplicity_removed=removed,
                       includes_reducible=with_reducible)


def compute_apoly_twobridge(pres: KnotPresentation,
                            with_reducible: bool = False) -> BiLaurent:
    """The A-polynomial of a 2-generator meridional presentation, in
    canonical form; ``with_reducible`` adjoins the factor ``L - 1`` when
    it is not already present."""
    return compute_apoly_twobridge_detailed(pres, with_reducible).apoly
