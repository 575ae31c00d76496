"""Pairing slope from the adjoint twisted Alexander matrix."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from knotslope.data import load_builtin
from knotslope.linalg import adjoint_of
from knotslope.presentation import (KnotPresentation, Word, fox_derivative,
                                    parse_presentation)
from knotslope.cli import _records
from knotslope.representations import (NonFiniteError, Representation,
                                       RepresentationError,
                                       abelian_representation, evaluate_word,
                                       riley_family)
from knotslope.slope import (NotAdmissibleError, Route1Plan, SlopeError,
                             SlopeValue, augment, build_twisted_alexander,
                             compute_slope, slope_of_character)

from helpers import TWO_BRIDGE, two_bridge_text


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
    reps = [rep for M in (1.3, 1.6 * np.exp(0.4j), 1.9 * np.exp(0.9j), 0.8 - 0.5j)
            for rep in riley_family(pres, M)]
    # every branch at every meridian as one stack of augmented images
    stack = np.array([[{**rep.images,
                        aug.longitude_name: rep.longitude_image()}[g]
                       for g in aug.generators] for rep in reps])
    stacked = build_twisted_alexander(aug, stack).matrix
    assert stacked.shape[0] == len(reps)
    for rep, from_stack in zip(reps, stacked):
        ref = _fox_reference_matrix(aug, rep)
        for built in (build_twisted_alexander(aug, rep).matrix, from_stack):
            assert built.shape == ref.shape
            assert np.abs(built - ref).max() <= 1e-12 * np.abs(ref).max()
    assert len(reps) == 4 * len(riley_family(pres, 1.3))


def test_overflowing_slices_do_not_abort_the_stack():
    pres = load_builtin("figure8")
    near = riley_family(pres, 1.3)
    far = riley_family(pres, 1e80)  # the longitude overflows here
    results = Route1Plan(pres).evaluate(far[:1] + near + far[1:])
    assert [r.finite for r in results] == [False, True, True, False]
    for res in results[:1] + results[3:]:
        assert isinstance(res.error, NonFiniteError)
        assert res.slope is None and res.L is None
    for rep, res in zip(near, results[1:3]):
        assert res.slope == compute_slope(rep)
    with pytest.raises(NonFiniteError):
        compute_slope(far[0])


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


def test_power_longitude_slope_is_the_exponent():
    for k in (1, 2, -3):
        pres = KnotPresentation(("u",), (), Word([("u", 1)]),
                                Word.from_syllables([("u", k)]))
        rep = Representation(pres, {"u": np.diag([2.0, 0.5]).astype(complex)})
        sv = compute_slope(rep)
        assert abs(sv.reading - k) < 1e-10


def test_abelian_slope_is_zero():
    pres = load_builtin("trefoil")
    reps = []
    for lam in (2.0, 3.0, 1.0 + 1.0j):
        rep = abelian_representation(pres, lam)
        sv = compute_slope(rep)
        assert not sv.is_infinite
        assert abs(sv.reading) <= 1e-10
        reps += [rep] + riley_family(pres, lam)
    # abelian matrices have rank 6 and irreducible ones rank 5: one stack
    # of both gives each its own intersection
    for rep, res in zip(reps, Route1Plan(pres).evaluate(reps)):
        assert abs(res.slope.reading - compute_slope(rep).reading) <= 1e-12


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
# verdicts

def test_admissibility_verdicts():
    trefoil = load_builtin("trefoil")
    (rep,) = riley_family(trefoil, 2.0)
    (res,) = Route1Plan(trefoil).evaluate([rep])
    assert res.verdict == "admissible" and res.error is None
    assert res.invariant_dimension == 1
    assert res.commutation_residual < 1e-10
    assert not res.parabolic
    assert res.slope.residual < 1e-7

    (trivial,) = Route1Plan(trefoil).evaluate(
        [abelian_representation(trefoil, 1.0)])
    assert trivial.verdict == "not-admissible"
    assert trivial.invariant_dimension == 3

    fig8 = load_builtin("figure8")
    (par, _) = Route1Plan(fig8).evaluate(riley_family(fig8, 1.0))
    assert par.verdict == "parabolic"
    assert par.parabolic


def test_mixed_stack_is_classified_once():
    fig8 = load_builtin("figure8")
    reps = [riley_family(fig8, 1.3)[0], riley_family(fig8, 1.0)[0],
            riley_family(fig8, 1e80)[0], abelian_representation(fig8, 1.0),
            abelian_representation(fig8, 2.0)]
    results = Route1Plan(fig8).evaluate(reps)
    # peripheral pairs alone: a diagonal meridian and a parabolic longitude
    # that does not commute with it; the same swapped; and a parabolic
    # meridian near I with a longitude that commutes with it to 3e-10 but
    # does not preserve its fixed line (residual 1e-3)
    pair = KnotPresentation(("u", "v"), (), Word([("u", 1)]), Word([("v", 1)]))
    diagonal = np.diag([2.0, 0.5]).astype(complex)
    parabolic = np.array([[1.0, 1.0], [0.0, 1.0]])
    pairs = [Representation(pair, {"u": diagonal, "v": parabolic}),
             Representation(pair, {"u": parabolic, "v": diagonal}),
             Representation(pair, {
                 "u": np.array([[1.0, 1e-6], [0.0, 1.0]]),
                 "v": np.array([[1.0, 2.0], [1e-3, 1.0]]) / np.sqrt(0.998)})]
    reps += pairs
    results += Route1Plan(pair).evaluate(pairs)
    expected = [
        ("admissible", None, ""),
        ("parabolic", None, ""),
        ("error", NonFiniteError, "overflow floating point"),
        ("not-admissible", NotAdmissibleError,
         "peripheral invariant subspace has dimension 3, expected 1"),
        ("admissible", None, ""),
        ("not-admissible", NotAdmissibleError,
         "peripheral images do not commute; no common invariant vector "
         "(commutation residual 5.00e-01)"),
        ("error", RepresentationError,
         "peripheral images do not commute; modulus undefined"),
        ("error", RepresentationError,
         "longitude image does not preserve the meridian eigenvector "
         "(residual 1.00e-03)"),
    ]
    assert len(results) == len(expected)
    for rep, res, (verdict, error, text) in zip(reps, results, expected):
        assert res.verdict == verdict
        assert type(res.error) is error if error else res.error is None
        assert text in str(res.error or "")
        # a slope or an error, never both
        assert res.slope is None or res.error is None
        # records carry a Riley parameter, which abelian ones lack
        (rec,) = _records(1.3, [(replace(rep, riley_t=0j), res)])
        assert rec["verdict"] == res.verdict
        assert rec["error"] == (None if error is None else str(res.error))
        assert rec["slope"] is None or rec["error"] is None
    assert [r.finite for r in results] == [True, True, False, True, True,
                                           True, True, True]
    assert results[-1].slope is None and results[-1].L is None
    assert abs(results[4].slope.reading) <= 1e-10
    assert abs(abs(results[1].slope.imag) - 2.0 * 3.0 ** 0.5) < 1e-8


#: trefoil, figure8 and every two-bridge knot b(p, q) with odd q and p <= 13
PARABOLIC_FAMILY = ["trefoil", "figure8"] + [
    f"b{p}_{q}" for p in range(3, 14, 2) for q in range(1, p, 2)
    if math.gcd(p, q) == 1]


@pytest.mark.parametrize("name", PARABOLIC_FAMILY)
def test_riley_branches_at_M_plus_minus_1_are_parabolic(name):
    """Every Riley branch at M = ±1 reads a cusp modulus and no error.  The
    twist ``g -> (-1)^w(g) rho(g)`` maps the branches at M = 1 to those at
    M = -1; it leaves ``m/s`` unchanged and fixes the longitude, of weight
    0, so both sets of moduli are equal.  Measured: equal bit for bit, and
    the closed forms hold within 4.1e-14 relative (b(13,1))."""
    if name.startswith("b"):
        p, q = map(int, name[1:].split("_"))
        pres = parse_presentation(two_bridge_text(p, q))
    else:
        pres = load_builtin(name)
    plan = Route1Plan(pres)
    moduli = {}
    for M in (1.0, -1.0):
        results = plan.evaluate(riley_family(pres, M))
        assert results
        assert all(r.verdict == "parabolic" and r.error is None
                   for r in results)
        moduli[M] = [r.slope for r in results]
    # equal as multisets: each modulus at M = 1 takes its nearest at M = -1
    rest = list(moduli[-1.0])
    assert len(rest) == len(moduli[1.0])
    for tau in moduli[1.0]:
        nearest = min(rest, key=lambda z: abs(z - tau))
        assert abs(nearest - tau) <= 1e-12 * abs(tau)
        rest.remove(nearest)
    closed = {"trefoil": [-6.0], "figure8": [-2j * 3 ** 0.5, 2j * 3 ** 0.5]}
    if name.endswith("_1"):
        closed[name] = [-2.0 * p] * len(moduli[1.0])
    for tau, want in zip(sorted(moduli[1.0], key=lambda z: z.imag),
                         closed.get(name, [])):
        assert abs(tau - want) <= 1e-12 * abs(want)
