"""Boundary slopes of representations from the twisted Alexander pairing.

Given a knot group presentation with meridian ``m`` and longitude word
``l``, the presentation is augmented by a fresh generator ``ell`` with
relators ``ell * l^-1`` and ``m ell m^-1 ell^-1``.  Fox derivatives of all
relators, evaluated in the adjoint representation, give a block matrix
with one 3-column block per generator, blocks ordered ``(ell, m, rest)``.

Each Fox term of a relator ``x_1 ... x_n`` is a signed prefix product
(``P_0 = I``, ``P_i = P_{i-1} rho(x_i)``): a letter ``g`` at position ``i``
adds ``+Ad(P_{i-1})`` to the block of ``g``, a letter ``g^-1`` adds
``-Ad(P_i)``.  One pass of prefix products fills a relator's row block;
the products of the (once validated) generator images are not re-checked.

For an admissible representation the row space of that matrix meets the
six-dimensional peripheral space ``span{v⊗d_ell, v⊗d_m}`` (``v`` the
common adjoint-invariant vector of the peripheral images) in a line
``a·(v⊗d_ell) + b·(v⊗d_m)``; the slope of the representation is ``-b/a``,
with ``a = 0`` read as infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import adjoint_of, orthonormal_row_basis, subspace_intersection
from .presentation import KnotPresentation, Word
from .representations import (Representation, RepresentationError,
                              commutation_residual, evaluate_word,
                              invariant_vector, is_boundary_parabolic,
                              parabolic_modulus, peripheral_fixed_space,
                              prefix_images)


class SlopeError(ValueError):
    """The slope computation cannot proceed."""


class NotAdmissibleError(SlopeError):
    """The peripheral line does not meet the matrix row space as required."""


class DegenerateIntersectionError(SlopeError):
    """The intersection with the peripheral space is not a single line."""


#: acceptance bound for the least-squares fit of the intersection vector
#: against the peripheral pair
PERIPHERAL_FIT_TOL = 1e-7


@dataclass(frozen=True)
class AugmentedPresentation:
    """A presentation extended by a longitude generator.

    ``generators`` starts with the fresh longitude name, then the meridian
    generator, then the remaining generators in presentation order.
    ``relators`` holds single relator words: the base relators, then
    ``ell * longitude^-1``, then the commutator ``m ell m^-1 ell^-1``.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    longitude_name: str
    base: KnotPresentation


def augment(pres: KnotPresentation) -> AugmentedPresentation:
    """Adjoin a generator for the longitude with its defining relators."""
    mer = pres.meridian.reduced()
    if len(mer.letters) != 1 or mer.letters[0][1] != 1:
        raise SlopeError("meridian must be a single generator; "
                         "rewrite the presentation accordingly")
    mgen = mer.letters[0][0]
    fresh = "ell"
    while fresh in pres.generators:
        fresh += "_"
    ell = Word([(fresh, 1)])
    m = Word([(mgen, 1)])
    relators = pres.relator_words() + (
        ell * pres.longitude.inverse(),
        m * ell * m.inverse() * ell.inverse(),
    )
    gens = (fresh, mgen) + tuple(g for g in pres.generators if g != mgen)
    return AugmentedPresentation(gens, relators, fresh, pres)


@dataclass(frozen=True)
class TwistedAlexanderMatrix:
    """Adjoint Fox-derivative block matrix of an augmented presentation.

    Row block ``i`` is relator ``i``; column block ``j`` is the derivative
    with respect to ``generators[j]``, a 3x3 block per pair.
    """

    matrix: np.ndarray
    augmented: AugmentedPresentation

    def column_slice(self, gen: str) -> slice:
        j = self.augmented.generators.index(gen)
        return slice(3 * j, 3 * j + 3)

    def block(self, relator_index: int, gen: str) -> np.ndarray:
        return self.matrix[3 * relator_index: 3 * relator_index + 3,
                           self.column_slice(gen)]


def _fox_coefficients(relator: Word, generators: tuple[str, ...]) -> np.ndarray:
    """Integer ``C`` with ``d relator / d generators[j] = sum_i C[i, j] P_i``
    for the prefixes ``P_0 .. P_n`` of ``relator``."""
    C = np.zeros((len(relator) + 1, len(generators)), dtype=int)
    for i, (g, e) in enumerate(relator.letters):
        # g at position i + 1 adds +P_i; g^-1 there adds -P_{i+1}
        C[i + (e < 0), generators.index(g)] += e
    return C


def build_twisted_alexander(aug: AugmentedPresentation,
                            rep: Representation) -> TwistedAlexanderMatrix:
    """Evaluate all Fox derivative blocks in the adjoint representation,
    one pass of prefix products per relator."""
    images = dict(rep.images)
    images[aug.longitude_name] = evaluate_word(images, aug.base.longitude)
    rows = []
    for r in aug.relators:
        Ad = adjoint_of(prefix_images(images, r))
        C = _fox_coefficients(r, aug.generators)
        rows.append(np.einsum("ij,ikl->kjl", C, Ad).reshape(3, -1))
    return TwistedAlexanderMatrix(np.vstack(rows), aug)


@dataclass(frozen=True)
class SlopeValue:
    """A peripheral pairing line ``a·(v⊗d_ell) + b·(v⊗d_m)``.

    ``(a, b)`` is normalized so ``max(|a|, |b|) = 1``.  ``reading`` is the
    slope ``-b/a``, or ``math.inf`` when ``|a| <= tol``.  ``residual`` is
    the least-squares misfit of the intersection vector against the
    peripheral pair.
    """

    a: complex
    b: complex
    residual: float
    tol: float = 1e-8

    @property
    def is_infinite(self) -> bool:
        return abs(self.a) <= self.tol

    @property
    def reading(self) -> complex | float:
        if self.is_infinite:
            return math.inf
        return complex(-self.b / self.a)

    def as_json_value(self):
        if self.is_infinite:
            return "inf"
        r = self.reading
        return [r.real, r.imag]


def slope_from_invariant_vector(rep: Representation, v: np.ndarray,
                                tol: float = 1e-8) -> SlopeValue:
    """Slope of ``rep`` given a peripheral-invariant row vector ``v``.

    The result does not depend on the scaling of ``v``.
    """
    aug = augment(rep.presentation)
    ta = build_twisted_alexander(aug, rep)
    n = ta.matrix.shape[1]
    v = np.asarray(v, dtype=complex)
    w_ell = np.zeros(n, dtype=complex)
    w_m = np.zeros(n, dtype=complex)
    w_ell[ta.column_slice(aug.longitude_name)] = v
    w_m[ta.column_slice(aug.generators[1])] = v

    rows = orthonormal_row_basis(ta.matrix, tol)
    peripheral = orthonormal_row_basis(np.vstack([w_ell, w_m]), tol)
    inter = subspace_intersection(rows, peripheral, tol)
    if inter.shape[0] == 0:
        raise NotAdmissibleError(
            "matrix row space does not meet the peripheral space")
    if inter.shape[0] > 1:
        raise DegenerateIntersectionError(
            f"peripheral intersection has dimension {inter.shape[0]}, "
            f"expected 1")
    z = inter[0]
    basis = np.vstack([w_ell, w_m]).T
    coef, *_ = np.linalg.lstsq(basis, z, rcond=None)
    fit = float(np.abs(basis @ coef - z).max())
    if fit > PERIPHERAL_FIT_TOL:
        raise DegenerateIntersectionError(
            f"intersection vector is not a combination of the peripheral "
            f"pair (residual {fit:.2e})")
    a, b = complex(coef[0]), complex(coef[1])
    scale = max(abs(a), abs(b))
    return SlopeValue(a=a / scale, b=b / scale, residual=fit, tol=tol)


def compute_slope(rep: Representation, tol: float = 1e-8) -> SlopeValue:
    """The boundary slope of a non-parabolic admissible representation."""
    if is_boundary_parabolic(rep, tol):
        raise SlopeError(
            "representation is boundary-parabolic; use parabolic_modulus "
            "or slope_of_character")
    try:
        iv = invariant_vector(rep, tol)
    except RepresentationError as exc:
        raise NotAdmissibleError(str(exc)) from exc
    return slope_from_invariant_vector(rep, iv.vector, tol)


def slope_of_character(rep: Representation, tol: float = 1e-8) -> complex | float:
    """Slope as a number: the pairing slope away from the parabolic locus,
    the cusp translation ratio on it.  Returns ``math.inf`` for a vertical
    pairing line."""
    if is_boundary_parabolic(rep, tol):
        return parabolic_modulus(rep, tol)
    return compute_slope(rep, tol).reading


@dataclass(frozen=True)
class AdmissibilityReport:
    """Diagnostics for the slope pipeline on one representation."""

    invariant_dimension: int
    commutation_residual: float
    parabolic: bool
    intersection_dimension: int | None
    peripheral_fit: float | None
    verdict: str  # "admissible" | "parabolic" | "not-admissible" | "degenerate"


def admissibility(rep: Representation, tol: float = 1e-8) -> AdmissibilityReport:
    """Run the slope pipeline's checks without computing the slope."""
    comm = commutation_residual(rep)
    dim = peripheral_fixed_space(rep, tol)[2].shape[0]

    if is_boundary_parabolic(rep, tol):
        return AdmissibilityReport(dim, comm, True, None, None, "parabolic")
    if dim != 1:
        return AdmissibilityReport(dim, comm, False, None, None, "not-admissible")
    try:
        value = compute_slope(rep, tol)
    except NotAdmissibleError:
        return AdmissibilityReport(dim, comm, False, 0, None, "not-admissible")
    except DegenerateIntersectionError:
        return AdmissibilityReport(dim, comm, False, None, None, "degenerate")
    return AdmissibilityReport(dim, comm, False, 1, value.residual, "admissible")
