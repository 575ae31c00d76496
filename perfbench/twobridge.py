"""Two-bridge knot presentations in Schubert normal form.

``b(p, q)`` (``p`` odd, ``0 < q < p``, ``gcd(p, q) = 1``) has generators
``a`` (the meridian) and ``b``, signs ``eps_i = (-1)^floor(i*q/p)`` for
``i = 1 .. p-1``, the word ``w = b^eps_1 a^eps_2 b^eps_3 ...``, the single
relation ``a w = w b`` and the longitude ``w w* a^(-2 sigma)``, where ``w*``
is ``w`` reversed and ``sigma = sum eps_i``.  The text uses the knotslope
presentation format, so the program under test only ever sees text.
"""

from __future__ import annotations

from math import gcd


def schubert_signs(p: int, q: int) -> list[int]:
    if p < 3 or p % 2 == 0 or not 0 < q < p or gcd(p, q) != 1:
        raise ValueError(f"b({p},{q}) is not a two-bridge knot")
    return [(-1) ** ((i * q) // p) for i in range(1, p)]


def schubert_word(p: int, q: int) -> list[tuple[str, int]]:
    return [("b" if i % 2 else "a", e)
            for i, e in enumerate(schubert_signs(p, q), start=1)]


def longitude_word(p: int, q: int) -> list[tuple[str, int]]:
    w = schubert_word(p, q)
    sigma = sum(schubert_signs(p, q))
    return w + w[::-1] + ([("a", -2 * sigma)] if sigma else [])


def format_letters(letters: list[tuple[str, int]]) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in letters) or "1"


def twobridge_text(p: int, q: int) -> str:
    """The presentation of ``b(p, q)`` in the knotslope text format."""
    w = format_letters(schubert_word(p, q))
    return (f"gens: a b ;\n"
            f"rel: a {w} = {w} b ;\n"
            f"meridian: a ;\n"
            f"longitude: {format_letters(longitude_word(p, q))}\n")


def branch_count(p: int) -> int:
    """Riley branches at a generic meridian eigenvalue: ``(p - 1) / 2``."""
    return (p - 1) // 2
