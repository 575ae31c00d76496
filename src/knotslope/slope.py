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

What depends only on the presentation is compiled once, in a
``Route1Plan``: its words as generator-index and sign arrays, and the
augmented relators with their Fox coefficients (``augment``).
``Route1Plan.evaluate`` then runs route 1 on ``N`` representations
together, as ``(N, ...)`` stacks: the meridian and longitude images are
evaluated once and feed the commutation residual, the parabolic test,
``L``, the invariant vector and the matrix; the matrices are built
``(N, 9, 9)`` for a two-generator knot, and each SVD runs on a whole
stack, the intersection SVDs grouped by the shape that each slice's
ranks give.  The singular-value cuts at ``tol`` times the largest value
and the verdicts are those of one representation, taken slice by slice.
``compute_slope``, ``slope_from_invariant_vector`` and ``admissibility``
are its ``N = 1`` case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import adjoint_of, rank_cut, row_space_intersections, svd_stack
from .presentation import KnotPresentation, Word
from .representations import (BoundaryData, Letters, NonFiniteError,
                              Representation, RepresentationError, WordPlan,
                              peripheral_stack, prefix_images,
                              riley_generators, word_letters)


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
    ``letters`` and ``fox`` hold, per relator, its letters compiled
    against ``generators`` and its Fox coefficients (``_fox_coefficients``).
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    longitude_name: str
    base: KnotPresentation
    letters: tuple[Letters, ...] = field(default=(), compare=False, repr=False)
    fox: tuple[np.ndarray, ...] = field(default=(), compare=False, repr=False)


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
    return AugmentedPresentation(
        gens, relators, fresh, pres,
        letters=tuple(word_letters(r, gens) for r in relators),
        fox=_fox_coefficients(relators, gens))


@dataclass(frozen=True)
class TwistedAlexanderMatrix:
    """Adjoint Fox-derivative block matrix of an augmented presentation.

    Row block ``i`` is relator ``i``; column block ``j`` is the derivative
    with respect to ``generators[j]``, a 3x3 block per pair.  ``matrix``
    is one matrix, or a stack ``(N, rows, columns)`` of them.
    """

    matrix: np.ndarray
    augmented: AugmentedPresentation

    def column_slice(self, gen: str) -> slice:
        j = self.augmented.generators.index(gen)
        return slice(3 * j, 3 * j + 3)

    def block(self, relator_index: int, gen: str) -> np.ndarray:
        return self.matrix[..., 3 * relator_index: 3 * relator_index + 3,
                           self.column_slice(gen)]


def _fox_coefficients(relators: Sequence[Word],
                      generators: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """Per relator ``r``, the ``C`` with ``d r / d generators[j] =
    sum_i C[i, j] P_i`` for the prefixes ``P_0 .. P_n`` of ``r``."""
    out = []
    for r in relators:
        C = np.zeros((len(r) + 1, len(generators)))
        for i, (g, e) in enumerate(r.letters):
            # g at position i + 1 adds +P_i; g^-1 there adds -P_{i+1}
            C[i + (e < 0), generators.index(g)] += e
        out.append(C)
    return tuple(out)


def build_twisted_alexander(aug: AugmentedPresentation,
                            rep: Representation | np.ndarray
                            ) -> TwistedAlexanderMatrix:
    """Evaluate all Fox derivative blocks in the adjoint representation,
    one pass of prefix products per relator.

    ``rep`` is a representation of ``aug.base``, or the images of the
    augmented generators of ``N`` representations, stacked ``(N,
    #generators, 2, 2)`` in ``aug.generators`` order (the longitude image
    first); the matrices are then stacked ``(N, rows, columns)``.
    """
    if isinstance(rep, Representation):
        images = {**rep.images, aug.longitude_name: rep.longitude_image()}
        stack = np.array([[images[g] for g in aug.generators]], dtype=complex)
        return TwistedAlexanderMatrix(
            build_twisted_alexander(aug, stack).matrix[0], aug)
    N, G = rep.shape[:2]
    rows = []
    for letters, C in zip(aug.letters, aug.fox):
        Ad = adjoint_of(prefix_images(rep, letters)).reshape(N, -1, 9)
        # block (k, j, l) of the row block is sum_i C[i, j] Ad[i, k, l]
        rows.append((C.T @ Ad).reshape(N, G, 3, 3).transpose(0, 2, 1, 3)
                    .reshape(N, 3, 3 * G))
    return TwistedAlexanderMatrix(np.concatenate(rows, axis=1), aug)


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


def _slopes(aug: AugmentedPresentation, images: np.ndarray, v: np.ndarray,
            tol: float) -> list[SlopeValue | SlopeError | RepresentationError]:
    """``slope_from_invariant_vector`` for a stack: augmented generator
    images ``(N, #generators, 2, 2)`` and invariant vectors ``(N, 3)``."""
    ta = build_twisted_alexander(aug, images)
    T = ta.matrix
    N, _, n = T.shape
    v = np.asarray(v, dtype=complex)
    W = np.zeros((N, 2, n), dtype=complex)
    W[:, 0, ta.column_slice(aug.longitude_name)] = v
    W[:, 1, ta.column_slice(aug.generators[1])] = v
    # the two rows of W are orthogonal and of length |v|, so W / |v| is an
    # orthonormal basis of the peripheral space: the one an SVD gives, up
    # to a unitary; its two singular values are equal, so a cut at tol < 1
    # keeps both (at tol >= 1 the invariant space has dimension 3 already)
    norm2 = np.sum(np.abs(v) ** 2, axis=1)
    with np.errstate(all="ignore"):
        Wn = W / np.sqrt(norm2)[:, None, None]
    s, vh = svd_stack(T)
    ranks = rank_cut(s, tol)
    inter = [np.zeros((0, n), dtype=complex)] * N
    for r in np.unique(ranks[ranks > 0]):
        idx = np.flatnonzero(ranks == r)
        for i, basis in zip(idx, row_space_intersections(vh[idx, :r], Wn[idx],
                                                         tol)):
            inter[i] = basis
    # least squares of the intersection vector on the orthogonal pair
    z = np.array([b[0] if len(b) == 1 else np.zeros(n) for b in inter],
                 dtype=complex).reshape(N, n)
    with np.errstate(all="ignore"):
        coef = np.einsum("kpn,kn->kp", W.conj(), z) / norm2[:, None]
        fit = np.abs(np.einsum("kp,kpn->kn", coef, W) - z).max(axis=1,
                                                                initial=0.0)
    finite = np.isfinite(T).all(axis=(1, 2))
    out: list[SlopeValue | SlopeError | RepresentationError] = []
    for i in range(N):
        dim = inter[i].shape[0]
        if not finite[i]:
            out.append(NonFiniteError("values overflow floating point in the "
                                      "twisted-Alexander matrix"))
        elif dim == 0:
            out.append(NotAdmissibleError(
                "matrix row space does not meet the peripheral space"))
        elif dim > 1:
            out.append(DegenerateIntersectionError(
                f"peripheral intersection has dimension {dim}, expected 1"))
        elif fit[i] > PERIPHERAL_FIT_TOL:
            out.append(DegenerateIntersectionError(
                f"intersection vector is not a combination of the peripheral "
                f"pair (residual {fit[i]:.2e})"))
        else:
            a, b = complex(coef[i, 0]), complex(coef[i, 1])
            scale = max(abs(a), abs(b))
            out.append(SlopeValue(a=a / scale, b=b / scale,
                                  residual=float(fit[i]), tol=tol))
    return out


@dataclass(frozen=True)
class Route1Result:
    """Route 1 on one representation.

    ``boundary`` is what ``boundary_data`` returns or raises.  ``slope`` is
    the ``SlopeValue`` of an admissible representation, the cusp modulus
    of a parabolic one, or the error that ``compute_slope`` (on a parabolic
    one, ``parabolic_modulus``) raises.  ``finite`` is false when the words
    overflow floating point; ``boundary`` and ``slope`` then hold a
    ``NonFiniteError``.
    """

    relator_residual: float
    commutation_residual: float
    parabolic: bool
    boundary: BoundaryData | RepresentationError
    invariant_dimension: int
    slope: SlopeValue | complex | SlopeError | RepresentationError
    finite: bool


class Route1Plan:
    """Route 1's presentation-only data, compiled once per presentation.

    ``words`` holds its words as letter arrays.  ``augmented`` (the
    augmented relators' letters and Fox coefficients) and
    ``riley_generators`` are compiled on first use, as ``augment`` and
    ``riley_generators`` raise for presentations that lack them.
    """

    def __init__(self, pres: KnotPresentation):
        self.words = WordPlan.compile(pres)

    @cached_property
    def augmented(self) -> AugmentedPresentation:
        return augment(self.words.presentation)

    @cached_property
    def riley_generators(self) -> tuple[str, str]:
        return riley_generators(self.words.presentation)

    def _augmented_images(self, images: np.ndarray,
                          longitude: np.ndarray) -> np.ndarray:
        """Images of the augmented generators: the longitude image, then
        the generator images in ``augmented.generators`` order."""
        gens = self.words.presentation.generators
        order = [gens.index(g) for g in self.augmented.generators[1:]]
        return np.concatenate([longitude[:, None], images[:, order]], axis=1)

    def evaluate(self, reps: Sequence[Representation],
                 tol: float = 1e-8) -> list[Route1Result]:
        """Route 1 on representations of the presentation, as stacks."""
        N = len(reps)
        images = self.words.stack(reps)
        m, l = self.words.peripheral(images)
        relator = self.words.relator_residuals(images)
        per = peripheral_stack(m, l, tol)
        finite = per.finite & np.isfinite(relator)
        slopes: list = [None] * N
        ready = []
        for i in range(N):
            iv = per.invariant[i]
            if not per.finite[i]:
                slopes[i] = iv
            elif not finite[i]:
                slopes[i] = NonFiniteError(
                    "values overflow floating point in the relators")
            elif per.parabolic[i]:
                slopes[i] = per.modulus[i]
            elif isinstance(iv, RepresentationError):
                slopes[i] = NotAdmissibleError(str(iv))
            else:
                ready.append(i)
        if ready:
            try:
                aug = self.augmented
            except SlopeError as exc:
                for i in ready:
                    slopes[i] = exc
            else:
                v = np.array([per.invariant[i].vector for i in ready])
                stack = self._augmented_images(images[ready], l[ready])
                for i, sv in zip(ready, _slopes(aug, stack, v, tol)):
                    slopes[i] = sv
        return [Route1Result(
            relator_residual=float(relator[i]),
            commutation_residual=float(per.commutation[i]),
            parabolic=bool(finite[i] and per.parabolic[i]),
            boundary=per.boundary[i] if finite[i] else slopes[i],
            invariant_dimension=int(per.invariant_dimension[i]),
            slope=slopes[i], finite=bool(finite[i])) for i in range(N)]


def _route1(rep: Representation, tol: float) -> Route1Result:
    return Route1Plan(rep.presentation).evaluate([rep], tol)[0]


def slope_from_invariant_vector(rep: Representation, v: np.ndarray,
                                tol: float = 1e-8) -> SlopeValue:
    """Slope of ``rep`` given a peripheral-invariant row vector ``v``.

    The result does not depend on the scaling of ``v``.
    """
    plan = Route1Plan(rep.presentation)
    aug = plan.augmented
    images = plan.words.stack([rep])
    _, l = plan.words.peripheral(images)
    (sv,) = _slopes(aug, plan._augmented_images(images, l),
                    np.asarray(v, dtype=complex)[None], tol)
    if isinstance(sv, Exception):
        raise sv
    return sv


def compute_slope(rep: Representation, tol: float = 1e-8) -> SlopeValue:
    """The boundary slope of a non-parabolic admissible representation."""
    res = _route1(rep, tol)
    if res.parabolic:
        raise SlopeError(
            "representation is boundary-parabolic; use parabolic_modulus "
            "or slope_of_character")
    if isinstance(res.slope, Exception):
        raise res.slope
    return res.slope


def slope_of_character(rep: Representation, tol: float = 1e-8) -> complex | float:
    """Slope as a number: the pairing slope away from the parabolic locus,
    the cusp translation ratio on it.  Returns ``math.inf`` for a vertical
    pairing line."""
    res = _route1(rep, tol)
    if isinstance(res.slope, Exception):
        raise res.slope
    return res.slope if res.parabolic else res.slope.reading


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
    res = _route1(rep, tol)
    if not res.finite:
        raise res.slope
    dim, comm, sv = res.invariant_dimension, res.commutation_residual, res.slope
    if res.parabolic:
        return AdmissibilityReport(dim, comm, True, None, None, "parabolic")
    if dim != 1:
        return AdmissibilityReport(dim, comm, False, None, None, "not-admissible")
    if isinstance(sv, NotAdmissibleError):
        return AdmissibilityReport(dim, comm, False, 0, None, "not-admissible")
    if isinstance(sv, DegenerateIntersectionError):
        return AdmissibilityReport(dim, comm, False, None, None, "degenerate")
    if isinstance(sv, Exception):
        raise sv
    return AdmissibilityReport(dim, comm, False, 1, sv.residual, "admissible")
