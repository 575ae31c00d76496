"""Shared randomized generators for the test suite."""

from __future__ import annotations

import cmath
import math
from random import Random

import numpy as np

from knotslope.presentation import Word
from knotslope.slope import Route1Plan


def random_word(rng: Random, gens, max_len: int = 8,
                allow_empty: bool = True) -> Word:
    lo = 0 if allow_empty else 1
    n = rng.randrange(lo, max_len + 1)
    return Word([(rng.choice(gens), rng.choice((1, -1))) for _ in range(n)])


def random_complex(rng: Random, scale: float = 1.0) -> complex:
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def random_sl2(rng: Random, scale: float = 1.0) -> np.ndarray:
    """Random well-conditioned determinant-one matrix."""
    while True:
        A = np.array([[random_complex(rng, scale), random_complex(rng, scale)],
                      [random_complex(rng, scale), random_complex(rng, scale)]])
        d = complex(np.linalg.det(A))
        if abs(d) > 1e-2:
            return A / cmath.sqrt(d)


def random_images(rng: Random, gens, scale: float = 1.0) -> dict:
    return {g: random_sl2(rng, scale) for g in gens}


def route1_results(pres, reps, tol: float = 1e-8) -> list:
    """``Route1Plan.evaluate`` on representations of ``pres``, as one
    stack of their generator images."""
    plan = Route1Plan(pres)
    return plan.evaluate(plan.words.stack(reps), tol)


def two_bridge_text(p: int, q: int) -> str:
    """The two-bridge knot ``b(p, q)`` in Schubert normal form, in the
    presentation text format.

    With signs ``e_i = (-1)^floor(i q / p)`` for ``i = 1 .. p-1``, the
    Schubert word is ``w = b^e_1 a^e_2 b^e_3 ...``, the relation is
    ``a w = w b`` and the longitude is ``w w* a^(-2 sigma)``, where ``w*``
    is ``w`` reversed and ``sigma = sum e_i``.  These signs give the knot
    only for odd ``p`` and odd ``q``, so an even ``p`` or ``q``, a ``q``
    outside ``0 < q < p`` or ``gcd(p, q) != 1`` raises ``ValueError``.
    """
    if p % 2 == 0 or q % 2 == 0 or not 0 < q < p or math.gcd(p, q) != 1:
        raise ValueError(f"b({p},{q}) is not an odd-q two-bridge knot")
    signs = [(-1) ** ((i * q) // p) for i in range(1, p)]
    w = [("b" if i % 2 else "a", e) for i, e in enumerate(signs, start=1)]
    sigma = sum(signs)
    longitude = w + w[::-1] + ([("a", -2 * sigma)] if sigma else [])

    def text(letters):
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in letters)

    return (f"gens: a b ;\nrel: a {text(w)} = {text(w)} b ;\n"
            f"meridian: a ;\nlongitude: {text(longitude)}\n")


#: two-bridge knots named ``b<p>_<q>``
TWO_BRIDGE = {f"b{p}_{q}": two_bridge_text(p, q)
              for p, q in ((9, 7), (13, 5), (15, 11), (17, 5))}


def two_bridge_file(tmp_path, name: str) -> str:
    """Write ``TWO_BRIDGE[name]`` to a file and return its path."""
    path = tmp_path / f"{name}.txt"
    path.write_text(TWO_BRIDGE[name], encoding="utf-8")
    return str(path)
