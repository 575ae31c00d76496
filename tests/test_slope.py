"""Pairing slope from the adjoint twisted Alexander matrix."""

from __future__ import annotations

import math
from random import Random

import numpy as np
import pytest

from knotslope.data import load_builtin
from knotslope.linalg import adjoint_of
from knotslope.presentation import (KnotPresentation, Word, fox_derivative,
                                    parse_presentation)
from knotslope.representations import (Representation,
                                       abelian_representation, evaluate_word,
                                       invariant_vector, riley_family)
from knotslope.slope import (NotAdmissibleError, SlopeError, SlopeValue,
                             admissibility, augment, build_twisted_alexander,
                             compute_slope, slope_from_invariant_vector,
                             slope_of_character)

from helpers import TWO_BRIDGE, random_complex


# ---------------------------------------------------------------------------
# augmentation

def test_augment_structure():
    pres = load_builtin("trefoil")
    aug = augment(pres)
    assert aug.generators == ("ell", "u", "v")
    assert aug.longitude_name == "ell"
    assert len(aug.relators) == 3
    ell = Word([("ell", 1)])
    m = Word([("u", 1)])
    assert aug.relators[1] == ell * pres.longitude.inverse()
    assert aug.relators[2] == m * ell * m.inverse() * ell.inverse()
    assert aug.base is pres


def test_augment_avoids_name_collision():
    text = "gens: ell b ;\nrel: ell b ell = b ell b ;\nmeridian: ell ;\nlongitude: b ell b^-1 ell b ell^-3"
    pres = parse_presentation(text)
    aug = augment(pres)
    assert aug.longitude_name == "ell_"
    assert aug.generators[0] == "ell_"


def test_augment_requires_single_letter_meridian():
    torus = parse_presentation("gens: a b ;\nrel: a^2 = b^3 ;\n"
                               "meridian: a b^-1 ;\nlongitude: a^2 b^-3")
    with pytest.raises(SlopeError):
        augment(torus)


# ---------------------------------------------------------------------------
# the block matrix

def test_twisted_matrix_shape_and_identity_block():
    pres = load_builtin("trefoil")
    (rep,) = riley_family(pres, 2.0)
    aug = augment(pres)
    tam = build_twisted_alexander(aug, rep)
    assert tam.matrix.shape == (9, 9)
    # derivative of ell * longitude^-1 with respect to ell is 1, so that
    # block is exactly the 3x3 identity
    assert np.array_equal(tam.block(1, "ell"), np.eye(3, dtype=complex))


def test_twisted_matrix_commutator_block():
    pres = load_builtin("trefoil")
    (rep,) = riley_family(pres, 2.0)
    aug = augment(pres)
    tam = build_twisted_alexander(aug, rep)
    # d(m ell m^-1 ell^-1)/d ell evaluates to Ad(rho(m)) - I on the relation
    expected = adjoint_of(rep.meridian_image()) - np.eye(3)
    assert np.allclose(tam.block(2, "ell"), expected, atol=1e-12)


def _fox_reference_matrix(aug, rep) -> np.ndarray:
    """The matrix built term by term from the symbolic Fox derivatives."""
    images = dict(rep.images)
    images[aug.longitude_name] = evaluate_word(images, aug.base.longitude)
    blocks = [[sum((c * adjoint_of(evaluate_word(images, w))
                    for w, c in fox_derivative(r, g).terms.items()),
                   np.zeros((3, 3), dtype=complex))
               for g in aug.generators]
              for r in aug.relators]
    return np.block(blocks)


@pytest.mark.parametrize("name", ["trefoil", "figure8", "b13_5"])
def test_prefix_pass_matches_fox_derivative_reference(name):
    pres = (parse_presentation(TWO_BRIDGE[name]) if name in TWO_BRIDGE
            else load_builtin(name))
    aug = augment(pres)
    branches = 0
    for M in (1.3, 1.6 * np.exp(0.4j), 1.9 * np.exp(0.9j), 0.8 - 0.5j):
        for rep in riley_family(pres, M):
            built = build_twisted_alexander(aug, rep).matrix
            ref = _fox_reference_matrix(aug, rep)
            assert built.shape == ref.shape
            assert np.abs(built - ref).max() <= 1e-12 * np.abs(ref).max()
            branches += 1
    assert branches == 4 * len(riley_family(pres, 1.3))


# ---------------------------------------------------------------------------
# slope values

def test_slope_value_reading_and_infinity():
    finite = SlopeValue(a=1.0, b=6.0, residual=0.0)
    assert not finite.is_infinite
    assert abs(finite.reading - (-6.0)) < 1e-15
    assert finite.as_json_value() == [-6.0, 0.0]
    vertical = SlopeValue(a=0.0, b=1.0, residual=0.0)
    assert vertical.is_infinite
    assert vertical.reading == math.inf
    assert vertical.as_json_value() == "inf"


def test_trefoil_slope_is_minus_six():
    pres = load_builtin("trefoil")
    for M in (2.0, 1.7 - 0.4j):
        (rep,) = riley_family(pres, M)
        sv = compute_slope(rep)
        assert abs(sv.reading - (-6.0)) < 1e-8
        assert sv.residual < 1e-7
        assert max(abs(sv.a), abs(sv.b)) == pytest.approx(1.0)


def test_slope_ignores_invariant_vector_scaling():
    pres = load_builtin("trefoil")
    (rep,) = riley_family(pres, 2.0)
    v = invariant_vector(rep).vector
    base = slope_from_invariant_vector(rep, v)
    rng = Random(23)
    for _ in range(5):
        c = random_complex(rng, 3.0) + 0.5
        scaled = slope_from_invariant_vector(rep, c * v)
        assert abs(scaled.reading - base.reading) < 1e-9


def test_power_longitude_slope_is_the_exponent():
    for k in (1, 2, -3):
        pres = KnotPresentation(("u",), (), Word([("u", 1)]),
                                Word.from_syllables([("u", k)]))
        rep = Representation(pres, {"u": np.diag([2.0, 0.5]).astype(complex)})
        sv = compute_slope(rep)
        assert abs(sv.reading - k) < 1e-10


def test_abelian_slope_is_zero():
    pres = load_builtin("trefoil")
    for lam in (2.0, 3.0, 1.0 + 1.0j):
        rep = abelian_representation(pres, lam)
        sv = compute_slope(rep)
        assert not sv.is_infinite
        assert abs(sv.reading) <= 1e-10


def test_trivial_representation_not_admissible():
    pres = load_builtin("trefoil")
    rep = abelian_representation(pres, 1.0)
    with pytest.raises(NotAdmissibleError):
        compute_slope(rep)


def test_parabolic_point_directs_to_modulus():
    pres = load_builtin("figure8")
    (rep, _) = riley_family(pres, 1.0)
    with pytest.raises(SlopeError):
        compute_slope(rep)


def test_slope_of_character_dispatch():
    trefoil = load_builtin("trefoil")
    (rep,) = riley_family(trefoil, 2.0)
    assert abs(slope_of_character(rep) - (-6.0)) < 1e-8
    fig8 = load_builtin("figure8")
    for rep in riley_family(fig8, 1.0):
        tau = slope_of_character(rep)
        assert abs(abs(tau.imag) - 2.0 * 3.0 ** 0.5) < 1e-8


# ---------------------------------------------------------------------------
# admissibility report

def test_admissibility_verdicts():
    trefoil = load_builtin("trefoil")
    (rep,) = riley_family(trefoil, 2.0)
    rpt = admissibility(rep)
    assert rpt.verdict == "admissible"
    assert rpt.invariant_dimension == 1
    assert rpt.intersection_dimension == 1
    assert rpt.commutation_residual < 1e-10
    assert not rpt.parabolic
    assert rpt.peripheral_fit < 1e-7

    trivial = abelian_representation(trefoil, 1.0)
    assert admissibility(trivial).verdict == "not-admissible"
    assert admissibility(trivial).invariant_dimension == 3

    fig8 = load_builtin("figure8")
    (par, _) = riley_family(fig8, 1.0)
    rpt = admissibility(par)
    assert rpt.verdict == "parabolic"
    assert rpt.parabolic
