"""Shared randomized generators for the test suite."""

from __future__ import annotations

import cmath
from random import Random

import numpy as np

from knotslope.presentation import Word


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


#: two-bridge knots ``b(p, q)`` in Schubert normal form: relation
#: ``a w = w b`` and longitude ``w w* a^(-2 sigma)`` for the Schubert word
#: ``w`` and its reverse ``w*``
TWO_BRIDGE = {
    "b9_7": """gens: a b ;
rel: a b a^-1 b a^-1 b^-1 a b^-1 a = b a^-1 b a^-1 b^-1 a b^-1 a b ;
meridian: a ;
longitude: b a^-1 b a^-1 b^-1 a b^-1 a a b^-1 a b^-1 a^-1 b a^-1 b
""",
    "b13_5": """gens: a b ;
rel: a b a b^-1 a^-1 b^-1 a b a^-1 b^-1 a^-1 b a = b a b^-1 a^-1 b^-1 a
    b a^-1 b^-1 a^-1 b a b ;
meridian: a ;
longitude: b a b^-1 a^-1 b^-1 a b a^-1 b^-1 a^-1 b a a b a^-1 b^-1 a^-1
    b a b^-1 a^-1 b^-1 a b
""",
    "b15_11": """gens: a b ;
rel: a b a^-1 b a b^-1 a b^-1 a^-1 b a^-1 b a b^-1 a = b a^-1 b a b^-1 a
    b^-1 a^-1 b a^-1 b a b^-1 a b ;
meridian: a ;
longitude: b a^-1 b a b^-1 a b^-1 a^-1 b a^-1 b a b^-1 a a b^-1 a b a^-1
    b a^-1 b^-1 a b^-1 a b a^-1 b a^-4
""",
}


def two_bridge_file(tmp_path, name: str) -> str:
    """Write ``TWO_BRIDGE[name]`` to a file and return its path."""
    path = tmp_path / f"{name}.txt"
    path.write_text(TWO_BRIDGE[name], encoding="utf-8")
    return str(path)
