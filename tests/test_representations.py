"""Riley families, peripheral data, and representation-level invariants."""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from random import Random

import numpy as np
import pytest

from knotslope.apoly import BiLaurent, TPoly, riley_locus
from knotslope.data import load_builtin
from knotslope.presentation import KnotPresentation, Word, parse_presentation
from knotslope.representations import (NonFiniteError, Representation,
                                       RepresentationError,
                                       abelian_representation, evaluate_word,
                                       is_unitarizable, riley_family,
                                       riley_stack)
from knotslope.slope import (Route1Plan, boundary_data, is_boundary_parabolic,
                             parabolic_modulus)

from helpers import TWO_BRIDGE, random_sl2, two_bridge_text

GOLDEN = (1.0 + 5.0 ** 0.5) / 2.0


# ---------------------------------------------------------------------------
# Riley families

def test_trefoil_riley_root_at_two():
    pres = load_builtin("trefoil")
    reps = riley_family(pres, 2.0)
    assert len(reps) == 1
    t = reps[0].riley_t
    # closed form for this presentation: t = -(M^2 + M^-2 - 1)
    assert abs(t - (-3.25)) < 1e-12
    assert reps[0].reducible is False
    assert reps[0].relator_residual() < 1e-12


def test_trefoil_riley_closed_form_complex():
    pres = load_builtin("trefoil")
    rng = Random(42)
    for _ in range(10):
        M = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        if abs(M) < 0.3:
            continue
        reps = riley_family(pres, M)
        expected = -(M ** 2 + M ** -2 - 1.0)
        assert len(reps) == 1
        assert abs(reps[0].riley_t - expected) < 1e-9 * (1 + abs(expected))


def test_figure8_riley_roots_at_1p3():
    pres = load_builtin("figure8")
    reps = riley_family(pres, 1.3)
    assert len(reps) == 2
    ts = [r.riley_t for r in reps]
    assert abs(ts[0] - (0.35914201 - 0.76765945j)) < 1e-7
    assert abs(ts[1] - (0.35914201 + 0.76765945j)) < 1e-7
    # both roots satisfy t^2 + (x^2-5)(t-1) = 0 with x = M + 1/M
    x = 1.3 + 1.0 / 1.3
    for t in ts:
        assert abs(t * t + (x * x - 5.0) * (t - 1.0)) < 1e-10


def test_figure8_longitude_trace_identity():
    # tr rho(longitude) = x^4 - 5x^2 + 2 on the irreducible family
    pres = load_builtin("figure8")
    for M in (1.3, 2.0, 0.9 + 0.3j):
        x = M + 1.0 / M
        expected = x ** 4 - 5.0 * x ** 2 + 2.0
        for rep in riley_family(pres, M):
            lam = rep.longitude_image()
            tr = complex(lam[0, 0] + lam[1, 1])
            assert abs(tr - expected) < 1e-8 * (1.0 + abs(expected))


def test_figure8_golden_ratio_roots_merge_to_reducible():
    # at M^2 + M^-2 = 3 the two branches collide at t = 0 and the
    # representation degenerates to a reducible one
    pres = load_builtin("figure8")
    reps = riley_family(pres, GOLDEN)
    assert len(reps) == 1
    assert abs(reps[0].riley_t) < 1e-6
    assert reps[0].reducible is True


def test_riley_family_zero_meridian_eigenvalue_rejected():
    pres = load_builtin("trefoil")
    with pytest.raises(RepresentationError):
        riley_family(pres, 0.0)


def test_riley_family_degenerate_relator_has_no_roots():
    text = "gens: u v ;\nrel: u = v ;\nmeridian: u ;\nlongitude: u v^-1"
    pres = parse_presentation(text)
    assert riley_family(pres, 1.7) == []


def test_riley_family_requires_two_bridge_shape():
    text = ("gens: a b c ;\nrel: a = b ;\nrel: b = c ;\n"
            "meridian: a ;\nlongitude: a c^-1")
    pres = parse_presentation(text)
    with pytest.raises(RepresentationError):
        riley_family(pres, 1.5)
    torus = parse_presentation("gens: a b ;\nrel: a^2 = b^3 ;\n"
                               "meridian: a b^-1 ;\nlongitude: a^2 b^-3")
    with pytest.raises(RepresentationError):
        riley_family(torus, 1.5)


def test_riley_stack_keeps_each_meridian_to_itself():
    locus = riley_locus(load_builtin("figure8"))
    meridians = [1.3, 0.0, 1e200, GOLDEN, 0.9 + 0.3j, 1.0, -1.0]
    roots, images, reducible = riley_stack(locus, meridians)
    assert type(roots[1]) is RepresentationError
    assert type(roots[2]) is NonFiniteError
    start = 0
    for M, ts in zip(meridians, roots):
        (alone,), alone_images, alone_reducible = riley_stack(locus, [M])
        if isinstance(ts, RepresentationError):
            assert type(alone) is type(ts) and str(alone) == str(ts)
            continue
        assert ts == alone
        end = start + len(ts)
        assert np.array_equal(images[start:end], alone_images)
        assert np.array_equal(reducible[start:end], alone_reducible)
        start = end
    assert start == len(images) == len(reducible)


def test_no_meridians_give_no_representations():
    locus = riley_locus(load_builtin("figure8"))
    roots, images, reducible = riley_stack(locus, [])
    assert roots == [] and images.shape == (0, 2, 2, 2) and len(reducible) == 0
    assert Route1Plan(load_builtin("figure8")).evaluate_meridians([]) == []


def _mp_roots(phi, M: complex, dps: int = 50) -> list[complex]:
    """Roots of ``phi(t, M)`` to ``dps`` digits, from its exact coefficients."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        Mm = mpmath.mpc(M.real, M.imag)
        coeffs = [sum(mpmath.mpf(c.numerator) / c.denominator * Mm ** j
                      for (_, j), c in b.terms.items()) for b in phi.coeffs]
        return [complex(r) for r in
                mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)]


@pytest.mark.parametrize("name", ["b13_5", "b15_11"])
def test_riley_roots_match_high_precision_roots_of_phi(name):
    pres = parse_presentation(TWO_BRIDGE[name])
    locus = riley_locus(pres)
    phi = locus.phi
    rng = Random(0)
    for _ in range(6):
        M = rng.uniform(1.1, 2.0) * cmath.exp(1j * rng.uniform(0.1, 1.0))
        exact = _mp_roots(phi, M)
        reps = riley_family(pres, M)
        assert len(reps) == phi.degree == len(exact)
        for rep in reps:
            r = min(exact, key=lambda r: abs(r - rep.riley_t))
            assert abs(rep.riley_t - r) <= 3e-13 * abs(r)
            assert rep.relator_residual() <= 1e-9
        (given,) = Route1Plan(pres, locus).evaluate_meridians([M])
        assert [t for t, _ in given] == [r.riley_t for r in reps]


#: trefoil, figure8 and every b(p, q) with odd q and p <= 15, and b(17, 5)
TERM_ORDER_KNOTS = ["trefoil", "figure8", *(
    f"b{p}_{q}" for p in range(3, 16, 2) for q in range(1, p, 2)
    if math.gcd(p, q) == 1), "b17_5"]


@pytest.mark.parametrize("name", TERM_ORDER_KNOTS)
def test_riley_polynomial_terms_descend_in_M(name):
    """``riley_stack`` sums each coefficient of ``phi`` in
    ``apoly.summation_order`` (descending M-exponent, since ``phi`` has no
    L), whatever the order of its dict: a copy of ``phi`` whose coefficient
    dicts list the same terms reversed gives bit-identical roots, images
    and commutator flags."""
    if name.startswith("b"):
        pres = parse_presentation(two_bridge_text(*map(int, name[1:].split("_"))))
    else:
        pres = load_builtin(name)
    locus = riley_locus(pres)
    phi = TPoly([BiLaurent._normalised(dict(reversed(c.terms.items())))
                 for c in locus.phi.coeffs])
    assert phi == locus.phi
    meridians = [1.3 + 0.2j, GOLDEN, 1.8 + 0.9j, 0.7 + 0.4j, -1.2 + 0.1j]
    got = riley_stack(replace(locus, phi=phi), meridians)
    want = riley_stack(locus, meridians)
    assert got[0] == want[0]
    for x, y in zip(got[1:], want[1:]):
        assert x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# representation data type

def test_representation_checks_images():
    pres = load_builtin("trefoil")
    with pytest.raises(RepresentationError):
        Representation(pres, {"u": np.eye(2)})  # missing v
    with pytest.raises(RepresentationError):
        Representation(pres, {"u": np.eye(2), "v": 2 * np.eye(2)})  # det 4


def test_evaluate_word_and_inverse_caching():
    rng = Random(3)
    pres = load_builtin("trefoil")
    images = {"u": random_sl2(rng), "v": random_sl2(rng)}
    rep = Representation(pres, images)
    w = Word([("u", 1), ("v", -1), ("u", -1), ("v", 1)])
    direct = (images["u"] @ np.linalg.inv(images["v"])
              @ np.linalg.inv(images["u"]) @ images["v"])
    assert np.allclose(rep.image(w), direct, atol=1e-10)
    assert np.allclose(evaluate_word(images, w), direct, atol=1e-10)
    assert np.allclose(rep.image(Word.identity()), np.eye(2))


def test_abelian_representation_images():
    pres = load_builtin("trefoil")
    rep = abelian_representation(pres, 2.0)
    assert np.allclose(rep.image(Word([("u", 1)])), np.diag([2.0, 0.5]))
    assert np.allclose(rep.image(Word([("v", 1)])), np.diag([2.0, 0.5]))
    assert rep.relator_residual() < 1e-15
    # longitude is null-homologous, so it maps to the identity
    assert np.allclose(rep.longitude_image(), np.eye(2))


# ---------------------------------------------------------------------------
# peripheral structure

def test_trefoil_boundary_eigenvalues():
    pres = load_builtin("trefoil")
    (rep,) = riley_family(pres, 2.0)
    bd = boundary_data(rep)
    assert not bd.parabolic
    assert abs(bd.M - 2.0) < 1e-12
    assert abs(bd.L - (-1.0 / 64.0)) < 1e-12
    # shared eigenvector: both peripheral images act by scalars on the
    # kernel of m - M I
    m, l = rep.meridian_image(), rep.longitude_image()
    v = np.linalg.svd(m - bd.M * np.eye(2))[2][-1].conj()
    assert np.allclose(m @ v, bd.M * v, atol=1e-10)
    assert np.allclose(l @ v, bd.L * v, atol=1e-10)


def test_commutation_residual_small_on_family():
    (family,) = Route1Plan(load_builtin("figure8")).evaluate_meridians([1.3])
    assert len(family) == 2
    for _, res in family:
        assert res.commutation_residual < 1e-12


def test_boundary_data_rejects_central_meridian():
    pres = load_builtin("trefoil")
    rep = abelian_representation(pres, 1.0)  # trivial representation
    with pytest.raises(RepresentationError):
        boundary_data(rep)


# ---------------------------------------------------------------------------
# parabolic branch

def test_figure8_is_parabolic_only_at_unit_corner():
    pres = load_builtin("figure8")
    for rep in riley_family(pres, 1.0):
        assert is_boundary_parabolic(rep)
    for rep in riley_family(pres, 1.3):
        assert not is_boundary_parabolic(rep)
    assert not is_boundary_parabolic(abelian_representation(pres, 2.0))
    assert not is_boundary_parabolic(abelian_representation(pres, 1.0))


def test_figure8_parabolic_modulus_frozen():
    pres = load_builtin("figure8")
    reps = riley_family(pres, 1.0)
    taus = sorted((parabolic_modulus(r) for r in reps), key=lambda z: z.imag)
    root3 = 3.0 ** 0.5
    assert abs(taus[0] - (-2j * root3)) < 1e-8
    assert abs(taus[1] - (+2j * root3)) < 1e-8


def test_parabolic_modulus_is_conjugation_invariant():
    pres = load_builtin("figure8")
    rng = Random(17)
    for rep in riley_family(pres, 1.0):
        tau = parabolic_modulus(rep)
        for _ in range(5):
            P = random_sl2(rng)
            conj = Representation(pres, {g: P @ m @ np.linalg.inv(P)
                                         for g, m in rep.images.items()})
            assert abs(parabolic_modulus(conj) - tau) < 1e-7 * (1 + abs(tau))


def test_parabolic_modulus_reads_translation_length():
    # crafted commuting parabolics: meridian translates by 1, longitude by w,
    # so the modulus is w regardless of the sign of the longitude's trace
    pres = KnotPresentation(("u", "v"), (), Word([("u", 1)]), Word([("v", 1)]))
    w = 3.0 + 4.0j
    for sign in (1.0, -1.0):
        images = {"u": np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
                  "v": sign * np.array([[1.0, w], [0.0, 1.0]], dtype=complex)}
        rep = Representation(pres, images)
        assert is_boundary_parabolic(rep)
        assert abs(parabolic_modulus(rep) - w) < 1e-12


def test_parabolic_modulus_requires_parabolic_meridian():
    pres = load_builtin("trefoil")
    (rep,) = riley_family(pres, 2.0)
    with pytest.raises(RepresentationError):
        parabolic_modulus(rep)


# ---------------------------------------------------------------------------
# unitarizability

def test_unitarizable_window_on_unit_circle():
    pres = load_builtin("figure8")
    M = cmath.exp(0.4j * cmath.pi)  # x = 2 cos(0.4 pi) ~ 0.618
    assert all(is_unitarizable(r) for r in riley_family(pres, M))
    M = cmath.exp(0.22j * cmath.pi)  # x ~ 1.54: outside the window
    assert not any(is_unitarizable(r) for r in riley_family(pres, M))
    assert not any(is_unitarizable(r) for r in riley_family(pres, 2.0))
