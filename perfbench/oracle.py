"""Reference data computed with sympy, independently of knotslope.

For each benchmark knot the oracle holds the Riley polynomial ``phi(t, M)``
(gcd of the relator entry polynomials, primitive in ``t``), the longitude
eigenvalue ``lambda(t, M)`` (upper-left entry of the longitude image) and
the A-polynomial: the resultant in ``t`` of ``phi`` and
``L*den(lambda) - num(lambda)``, with its pure-``M`` content removed and
repeated factors collapsed.  Nothing here imports knotslope; presentations
are parsed by the small reader below.

The results are cached in ``oracle_cache.json`` next to this file, keyed by
presentation text.  Rebuild the cache with::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
from functools import reduce
from pathlib import Path

from twobridge import twobridge_text

HERE = Path(__file__).resolve().parent
CACHE = HERE / "oracle_cache.json"

#: knot name -> (p, q) for generated knots, or the bundled file name.
KNOTS = {
    "trefoil": "trefoil.txt",
    "figure8": "figure8.txt",
    "b7_3": (7, 3),
    "b9_1": (9, 1),
    "b9_5": (9, 5),
    "b9_7": (9, 7),
    "b11_3": (11, 3),
    "b13_5": (13, 5),
    "b15_11": (15, 11),
}


def presentation_text(root: Path, name: str) -> str:
    """The presentation text of a benchmark knot; bundled knots are read
    from the checkout's package data."""
    spec = KNOTS[name]
    if isinstance(spec, tuple):
        return twobridge_text(*spec)
    return (root / "src" / "knotslope" / "_data" / spec).read_text(
        encoding="utf-8")


# ---------------------------------------------------------------------------
# a minimal reader for the presentation text format

def parse_letters(text: str) -> list[tuple[str, int]]:
    text = text.strip()
    if text == "1":
        return []
    out = []
    for tok in text.split():
        g, _, e = tok.partition("^")
        out.append((g, int(e) if e else 1))
    return out


def read_presentation(text: str) -> dict:
    """``{"gens", "relations": [(lhs, rhs)], "meridian", "longitude"}``."""
    pres: dict = {"relations": []}
    for clause in text.split(";"):
        key, _, body = clause.partition(":")
        key = key.strip()
        if key == "gens":
            pres["gens"] = body.split()
        elif key == "rel":
            lhs, _, rhs = body.partition("=")
            pres["relations"].append((parse_letters(lhs),
                                      parse_letters(rhs or "1")))
        elif key in ("meridian", "longitude"):
            pres[key] = parse_letters(body)
    return pres


# ---------------------------------------------------------------------------
# sympy elimination

def compute_entry(text: str) -> dict:
    import sympy as sp

    t, M, L = sp.symbols("t M L")
    pres = read_presentation(text)
    (mgen, mexp), = pres["meridian"]
    if mexp != 1 or len(pres["gens"]) != 2:
        raise ValueError("oracle needs a 2-generator meridional presentation")
    other = next(g for g in pres["gens"] if g != mgen)
    step = {mgen: (sp.Matrix([[M, 1], [0, 1 / M]]),
                   sp.Matrix([[1 / M, -1], [0, M]])),
            other: (sp.Matrix([[M, 0], [t, 1 / M]]),
                    sp.Matrix([[1 / M, 0], [-t, M]]))}

    def image(letters):
        out = sp.eye(2)
        for g, e in letters:
            mat = step[g][0 if e > 0 else 1]
            for _ in range(abs(e)):
                out = (out * mat).applyfunc(sp.expand)
        return out

    entries = []
    for lhs, rhs in pres["relations"]:
        diff = image(lhs) - image(rhs)
        for z in diff:
            num, _ = sp.fraction(sp.cancel(sp.expand(z)))
            if num != 0:
                entries.append(num)
    g = reduce(sp.gcd, entries)
    phi = sp.cancel(g / sp.gcd_list(sp.Poly(g, t).all_coeffs()))
    phi = sp.Poly(phi, t, M)

    lam = sp.expand(image(pres["longitude"])[0, 0])
    num, den = sp.fraction(sp.together(lam))
    res = sp.resultant(sp.Poly(phi.as_expr(), t, M, L),
                       sp.Poly(L * den - num, t, M, L), t)
    res = sp.cancel(res / sp.gcd_list(sp.Poly(res, L).all_coeffs()))
    apoly = sp.Poly(sp.sqf_part(res), L, M)
    removed = sp.Poly(res, L).degree() - sp.Poly(apoly.as_expr(), L).degree()

    lam_terms = []
    for term in sp.Add.make_args(lam):
        coeff, rest = term.as_coeff_Mul()
        powers = rest.as_powers_dict()
        lam_terms.append([int(powers.get(t, 0)), int(powers.get(M, 0)),
                          int(coeff)])
    return {
        "text": text,
        "meridian": mgen,
        "riley": [[i, j, int(c)] for (i, j), c in phi.terms()],
        "longitude_eigenvalue": sorted(lam_terms),
        "apoly": [[i, j, int(c)] for (i, j), c in apoly.terms()],
        "multiplicity_removed": int(removed),
    }


def build(root: Path, names) -> dict:
    return {name: compute_entry(presentation_text(root, name))
            for name in names}


def load(root: Path, names) -> dict:
    """Cached oracle entries for ``names``; an entry whose presentation text
    differs from the current one is recomputed and the cache rewritten."""
    cache = json.loads(CACHE.read_text()) if CACHE.exists() else {}
    stale = [n for n in names
             if cache.get(n, {}).get("text") != presentation_text(root, n)]
    if stale:
        cache.update(build(root, stale))
        CACHE.write_text(json.dumps(cache, indent=1, sort_keys=True) + "\n")
    return {n: cache[n] for n in names}


if __name__ == "__main__":
    root = HERE.parent
    data = build(root, KNOTS)
    CACHE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CACHE.relative_to(root)} ({len(data)} knots)")
