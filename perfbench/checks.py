"""Checks of knotslope's CLI output against the sympy oracle and against
properties every A-polynomial and every slope must have.

Nothing here calls knotslope: outputs are read as parsed JSON, the oracle
as integer term lists.  Every check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from oracle import read_presentation

#: relative agreement asked of floating-point outputs: the same bound the
#: CLI's own ``verify`` applies by default
NUMERIC_TOL = 1e-6
#: roots of the Riley polynomial closer than this (relative) are the same
#: branch; it is the root-merge tolerance of ``riley_family``
ROOT_MERGE_TOL = 1e-6


# ---------------------------------------------------------------------------
# exact polynomials as {(i, j): int}

def integer_terms(terms) -> dict[tuple[int, int], int]:
    """Terms ``[[i, j, coeff], ...]`` (coeff an int or a fraction string)
    scaled to coprime integers."""
    fr = {(int(i), int(j)): Fraction(c) for i, j, c in terms if Fraction(c)}
    den = math.lcm(*(c.denominator for c in fr.values()))
    ints = {e: int(c * den) for e, c in fr.items()}
    g = math.gcd(*ints.values())
    return {e: c // g for e, c in ints.items()}


def normalize(terms: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The representative of ``terms`` up to units ``c L^a M^b``: smallest
    exponents zero, coprime integer coefficients, the coefficient of the
    lexicographically largest exponent positive."""
    i0 = min(i for i, _ in terms)
    j0 = min(j for _, j in terms)
    g = math.gcd(*terms.values())
    sign = 1 if terms[max(terms)] > 0 else -1
    return {(i - i0, j - j0): sign * c // g for (i, j), c in terms.items()}


def ideal_slopes(terms) -> set:
    """Negated side slopes ``-dj/di`` of the Newton polygon (convex hull of
    the exponents ``(i, j)``); ``math.inf`` for a vertical side."""
    pts = sorted(set(terms))
    if len(pts) < 2:
        return set()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    for seq in (pts, pts[::-1]):
        chain = []
        for q in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], q) <= 0:
                chain.pop()
            chain.append(q)
        hull += chain[:-1]
    out = set()
    for a, b in zip(hull, hull[1:] + hull[:1]):
        di, dj = b[0] - a[0], b[1] - a[1]
        out.add(math.inf if di == 0 else -Fraction(dj, di))
    return out


def check_apoly(payload: dict, oracle: dict) -> list[str]:
    """An ``apoly`` result against the oracle and the known properties."""
    problems = []
    got = integer_terms(payload["terms"])
    want = integer_terms(oracle["apoly"])
    if normalize(got) != normalize(want):
        problems.append("A-polynomial differs from the sympy oracle "
                        "beyond a unit")
    if any(j % 2 for _, j in got):
        problems.append("odd power of M")
    flipped = {(-i, -j): c for (i, j), c in got.items()}
    if normalize(flipped) != normalize(got):
        problems.append("A(1/L, 1/M) is not a unit multiple of A")
    reported = {math.inf if v == "inf" else Fraction(v)
                for v in payload["ideal_slopes"]["values"]}
    if reported != ideal_slopes(want):
        problems.append(f"ideal slopes {sorted(map(str, reported))} differ "
                        f"from the oracle's Newton polygon")
    if any(v is math.inf or v.denominator != 1 or v.numerator % 2
           for v in reported):
        problems.append("an ideal slope is not an even integer")
    if payload["multiplicity_removed"] != oracle["multiplicity_removed"]:
        problems.append("removed multiplicity differs from the oracle")
    return problems


# ---------------------------------------------------------------------------
# numeric evaluation of the oracle

class NumericOracle:
    """Floating-point views of one knot's oracle entry."""

    def __init__(self, entry: dict):
        self.riley = [(i, j, float(c)) for i, j, c in entry["riley"]]
        self.lam = [(i, j, float(c)) for i, j, c in entry["longitude_eigenvalue"]]
        self.apoly = [(i, j, float(c))
                      for (i, j), c in integer_terms(entry["apoly"]).items()]
        self.degree = max(i for i, _, _ in self.riley)

    def riley_roots(self, M: complex) -> np.ndarray:
        coeffs = np.zeros(self.degree + 1, dtype=complex)
        for i, j, c in self.riley:
            coeffs[self.degree - i] += c * M ** j
        return np.roots(coeffs)

    def longitude_eigenvalue(self, t: complex, M: complex) -> complex:
        return sum(c * t ** i * M ** j for i, j, c in self.lam)

    def on_curve_residual(self, L: complex, M: complex) -> float:
        val = sum(c * L ** i * M ** j for i, j, c in self.apoly)
        scale = sum(abs(c) * abs(L) ** i * abs(M) ** j
                    for i, j, c in self.apoly)
        return abs(val) / (scale + 1.0)

    def log_gauss(self, L: complex, M: complex) -> complex:
        """``-(M dA/dM) / (L dA/dL)`` at ``(L, M)``."""
        m_part = sum(j * c * L ** i * M ** j for i, j, c in self.apoly)
        l_part = sum(i * c * L ** i * M ** j for i, j, c in self.apoly)
        return -m_part / l_part


def match_branches(ts: list[complex], roots: np.ndarray) -> list[str]:
    """Pair each reported ``t`` with a distinct oracle root by value, never
    by the reported root order, which depends on the BLAS."""
    free = [complex(r) for r in roots]
    for t in ts:
        k = min(range(len(free)), key=lambda n: abs(free[n] - t), default=None)
        if k is None or abs(free[k] - t) > ROOT_MERGE_TOL * max(1.0, abs(t)):
            return [f"t = {t:.6g} matches no Riley root of the oracle"]
        free.pop(k)
    return []


def rel_dev(a: complex, b: complex) -> float:
    return abs(a - b) / max(1.0, abs(b))


def check_branch(oracle: NumericOracle, M: complex, t: complex,
                 slope: complex, L: complex | None, knot: str) -> tuple[list[str], float]:
    """One branch record; returns the problems and the slope's relative
    deviation from the oracle's log-Gauss map."""
    problems = []
    L_ref = oracle.longitude_eigenvalue(t, M)
    if L is not None and rel_dev(L, L_ref) > NUMERIC_TOL:
        problems.append(f"L at M = {M:.6g} differs from lambda(t)")
    L = L_ref if L is None else L
    if oracle.on_curve_residual(L, M) > NUMERIC_TOL:
        problems.append(f"(L, M) at M = {M:.6g} is off the A-polynomial curve")
    dev = rel_dev(slope, oracle.log_gauss(L, M))
    if dev > NUMERIC_TOL:
        problems.append(f"slope at M = {M:.6g} differs from the log-Gauss "
                        f"map by {dev:.2e}")
    if knot == "trefoil" and rel_dev(slope, -6.0) > NUMERIC_TOL:
        problems.append("trefoil slope is not -6")
    if knot == "figure8":
        x = M + 1.0 / M
        sq = 4.0 * (2 * x * x - 5) ** 2 / ((x * x - 5) * (x * x - 1))
        if rel_dev(slope * slope, sq) > NUMERIC_TOL:
            problems.append("figure-eight slope misses the closed form")
    return problems, dev


def check_records(records: list[dict], oracle: NumericOracle, branches: int,
                  knot: str, L_key: str | None) -> tuple[list[str], float]:
    """Branch records of ``scan`` (``L_key="L"``) or sample entries of
    ``verify`` (no ``L``; ``L_key=None``); returns the problems and the
    largest slope deviation from the oracle's log-Gauss map."""
    problems = []
    worst = 0.0
    by_M: dict[tuple[float, float], list[dict]] = {}
    for rec in records:
        by_M.setdefault(tuple(rec["M"]), []).append(rec)
    for (mre, mim), recs in by_M.items():
        M = complex(mre, mim)
        if len(recs) != branches:
            problems.append(f"{len(recs)} branches at M = {M:.6g}, "
                            f"expected {branches}")
        problems += match_branches([complex(*r["t"]) for r in recs],
                                   oracle.riley_roots(M))
        for rec in recs:
            s = rec["slope"]
            if not isinstance(s, list):
                problems.append(f"no finite slope at M = {M:.6g}")
                continue
            L = complex(*rec[L_key]) if L_key else None
            p, dev = check_branch(oracle, M, complex(*rec["t"]), complex(*s),
                                  L, knot)
            problems += p
            worst = max(worst, dev)
    return problems, worst


# ---------------------------------------------------------------------------
# generated inputs

#: meridian eigenvalue and tolerance of ``load_builtin``'s consistency check
CHECK_M = 1.3
CHECK_TOL = 1e-7


def check_presentation(entry: dict) -> list[str]:
    """The check ``load_builtin`` makes of the bundled presentations, done
    independently: at every oracle Riley root for ``M = 1.3`` the relations
    hold and the meridian and longitude images commute."""
    pres = read_presentation(entry["text"])
    M = CHECK_M
    (mgen, _), = pres["meridian"]
    roots = NumericOracle(entry).riley_roots(M)
    if len(roots) == 0:
        return [f"no Riley root at M = {M}"]
    problems = []
    for t in roots:
        gens = {mgen: np.array([[M, 1.0], [0.0, 1.0 / M]], dtype=complex)}
        other = next(g for g in pres["gens"] if g != mgen)
        gens[other] = np.array([[M, 0.0], [t, 1.0 / M]], dtype=complex)

        def image(letters):
            out = np.eye(2, dtype=complex)
            for g, e in letters:
                out = out @ np.linalg.matrix_power(gens[g], e)
            return out

        for lhs, rhs in pres["relations"]:
            resid = float(np.abs(image(lhs) - image(rhs)).max())
            if resid > CHECK_TOL:
                problems.append(f"relator residual {resid:.2e} at t = {t:.6g}")
        m, l = image(pres["meridian"]), image(pres["longitude"])
        comm = float(np.abs(m @ l - l @ m).max())
        if comm > CHECK_TOL:
            problems.append(f"peripheral images do not commute "
                            f"({comm:.2e}) at t = {t:.6g}")
    return problems
