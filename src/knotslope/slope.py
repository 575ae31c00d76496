"""Boundary slopes of representations from the twisted Alexander pairing.

Given a knot group presentation with meridian ``m`` and longitude word
``l``, the presentation is augmented by a fresh generator ``ell`` with
relators ``ell * l^-1`` and ``m ell m^-1 ell^-1``.  Fox derivatives of all
relators, evaluated in the adjoint representation, give a block matrix
``T`` with one 3-column block per generator, blocks ordered ``(ell, m,
rest)``.  Each Fox term of a relator ``x_1 ... x_n`` is a signed prefix
product (``P_0 = I``, ``P_i = P_{i-1} rho(x_i)``): a letter ``g`` at
position ``i`` adds ``+Ad(P_{i-1})`` to the block of ``g``, a letter
``g^-1`` adds ``-Ad(P_i)``.

For an admissible representation the row space of ``T`` meets the plane
``span{v⊗d_ell, v⊗d_m}`` (``v`` the common adjoint-invariant vector of
the peripheral images) in a line ``a·(v⊗d_ell) + b·(v⊗d_m)``; the slope
is ``-b/a``, with ``a = 0`` read as infinity.  The rank of ``T`` is known:
``dim Z^1 = (3 - dim sl2^rho) + 1``, so ``r = 3·#generators - 4 + dim
sl2^rho``, where ``dim sl2^rho`` is 1 when every generator image fixes
``v`` (abelian representations) and 0 otherwise.  A vector lies in the
row space when it annihilates the right kernel ``K`` of ``T`` at that
rank, so ``(a, b)`` is the null space of the pairing system ``[(v⊗d_ell)
K; (v⊗d_m) K]^T``.  Each verdict is one measured margin against ``tol``:
the pairing system's ``s_min/s_max`` (not admissible above ``tol``; it is
``SlopeValue.residual``) and ``s_max`` (a plane, degenerate, at or below
``tol``), and the rank gap ``s_r/s_{r-1}`` of ``T`` (degenerate above
``sqrt(tol)``).  The gap is a rounding-level ``s_r`` over the smallest
nonzero singular value, and on long words those span ten orders of
magnitude: correct slices reach gaps of 5e-6, a change of rank gives ~1.

``Route1Plan`` compiles what depends only on the presentation once: its
words as generator-index and sign arrays, the augmented relators with
their Fox coefficients (``augment``), all freely reduced, and the Riley
locus (``apoly.RileyLocus``: the Riley generators and ``phi``).
``Route1Plan.evaluate_meridians`` runs route 1 from meridian eigenvalues:
``riley_stack`` roots ``phi`` for all of them at once, and its
generator-image stack goes straight into
``Route1Plan.evaluate``, which runs route 1 on ``N`` representations
together, as ``(N, ...)`` stacks.  The
meridian and longitude images feed ``peripheral_stack``: the
commutation residual, the parabolic test, ``L`` and the residual of its
read; the generator images are then conjugated into the meridian frame,
where ``rho(m)`` is diagonal and ``v = H``, and the words are evaluated
there (``_framed_images``).  One SVD stack gives the kernels, one more
the pairing solutions; ``_pairing`` returns their margins.  Each
representation is classified once, by the first row of one ordered check
table in ``Route1Plan.evaluate`` that holds, into a ``Route1Result`` with
its verdict, error, ``L`` and slope, the pairing slope or, on the
parabolic locus, the cusp modulus.  ``compute_slope``, ``boundary_data``,
``parabolic_modulus`` and ``is_boundary_parabolic`` each read that result
for one ``Representation``; the demos use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .apoly import ApolyError, RileyLocus, riley_locus
from .linalg import adjoint_of, sl2_coordinates, sl2_inverse, svd_stack
from .presentation import KnotPresentation, Word
from .representations import (Letters, NonFiniteError, Representation,
                              RepresentationError, WordPlan, peripheral_stack,
                              prefix_images, riley_stack, word_letters)


class SlopeError(ValueError):
    """The slope computation cannot proceed."""


class NotAdmissibleError(SlopeError):
    """The peripheral line does not meet the matrix row space as required."""


class DegenerateIntersectionError(SlopeError):
    """The intersection with the peripheral space is not a single line."""


@dataclass(frozen=True)
class AugmentedPresentation:
    """A presentation extended by a longitude generator.

    ``generators`` starts with the fresh longitude name, then the meridian
    generator, then the remaining generators in presentation order.
    ``relators`` holds single reduced relator words: the base relators,
    then ``ell * longitude^-1``, then the commutator ``m ell m^-1 ell^-1``.
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
        (ell * pres.longitude.inverse()).reduced(),
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
                            images: np.ndarray) -> TwistedAlexanderMatrix:
    """Evaluate all Fox derivative blocks in the adjoint representation,
    one pass of prefix products per relator.

    ``images`` are the images of the augmented generators of ``N``
    representations, stacked ``(N, #generators, 2, 2)`` in
    ``aug.generators`` order (the longitude image first); the matrices are
    stacked ``(N, rows, columns)``.
    """
    N, G = images.shape[:2]
    rows = []
    # entries beyond floating point become inf or NaN; the caller tests the
    # matrix for finiteness
    with np.errstate(all="ignore"):
        for letters, C in zip(aug.letters, aug.fox):
            Ad = adjoint_of(prefix_images(images, letters)).reshape(N, -1, 9)
            # block (k, j, l) of the row block is sum_i C[i, j] Ad[i, k, l]
            rows.append((C.T @ Ad).reshape(N, G, 3, 3).transpose(0, 2, 1, 3)
                        .reshape(N, 3, 3 * G))
    return TwistedAlexanderMatrix(np.concatenate(rows, axis=1), aug)


@dataclass(frozen=True)
class SlopeValue:
    """A peripheral pairing line ``a·(v⊗d_ell) + b·(v⊗d_m)``.

    ``(a, b)`` is normalized so ``max(|a|, |b|) = 1``.  ``reading`` is the
    slope ``-b/a``, or ``math.inf`` when ``|a| <= tol``.  ``residual`` is
    the relative residual ``s_min/s_max`` of the pairing system.
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


def _pairing(aug: AugmentedPresentation, images: np.ndarray, v: np.ndarray,
             tol: float) -> tuple[np.ndarray, ...]:
    """The pairing's margins for augmented generator images ``(N,
    #generators, 2, 2)`` and invariant vectors ``(N, 3)``: per
    representation, whether ``T`` is finite, its structural rank, the rank
    gap, the largest pairing singular value, the pairing margin and ``(a,
    b)`` ``(N, 2)``, normalized so ``max(|a|, |b|) = 1``."""
    T = build_twisted_alexander(aug, images).matrix
    N, _, n = T.shape
    rows = np.arange(N)
    with np.errstate(all="ignore"):
        v = np.asarray(v, dtype=complex)
        v = v / np.linalg.norm(v, axis=1)[:, None]
        # dim sl2^rho is 1 where every generator image fixes v, else 0
        adj = adjoint_of(images)
        moved = np.abs(np.einsum("kj,kgjl->kgl", v, adj) - v[:, None])
        fixed = (moved.max(axis=2)
                 <= tol * (1.0 + np.abs(adj).max(axis=(2, 3)))).all(axis=1)
        rank = n - 4 + fixed
        s, vh = svd_stack(T)
        s = np.concatenate([s, np.zeros((N, n - s.shape[1]))], axis=1)
        gap = s[rows, rank] / s[rows, rank - 1]
        # the right kernel of T as rows; at rank n - 3 the first is not in it
        K = vh[:, n - 4:].conj()
        K[fixed, 0] = 0.0
        # the pairing system, from the ell and m column blocks of K
        A = np.einsum("kipj,kj->kip", K[:, :, :6].reshape(N, 4, 2, 3), v)
        s2, vh2 = svd_stack(A)
        ab = vh2[:, 1].conj()
        ab = ab / ab[rows, np.argmax(np.abs(ab), axis=1)][:, None]
        return (np.isfinite(T).all(axis=(1, 2)), rank, gap, s2[:, 0],
                s2[:, 1] / s2[:, 0], ab)


def _framed_images(images: np.ndarray, P: np.ndarray, tol: float) -> np.ndarray:
    """Generator images ``(N, #generators, 2, 2)`` conjugated into the
    meridian frames ``P``, where long words keep their large entries on
    the diagonal.  Near a parabolic meridian the eigenvectors nearly
    coincide and rounding grows by up to ``cond(Ad P)^2 <= |P|_F^8``;
    where that passes ``tol`` a slice keeps its own frame.  A diagonal
    conjugation then equalizes the total modulus of the entries above and
    below the diagonal."""
    cost = np.finfo(float).eps * np.sum(np.abs(P) ** 2, axis=(1, 2)) ** 4
    P = np.where((cost <= tol)[:, None, None], P, np.eye(2))[:, None]
    framed = sl2_inverse(P) @ images @ P
    above = np.abs(framed[:, :, 0, 1]).sum(axis=1)
    below = np.abs(framed[:, :, 1, 0]).sum(axis=1)
    with np.errstate(all="ignore"):
        d2 = np.where((above > 0) & (below > 0), np.sqrt(above / below), 1.0)
    framed[:, :, 0, 1] /= d2[:, None]
    framed[:, :, 1, 0] *= d2[:, None]
    return framed


@dataclass(frozen=True)
class Route1Result:
    """Route 1 on one representation, classified once.

    ``verdict`` is ``admissible``, ``parabolic``, ``not-admissible``,
    ``degenerate`` or ``error``.  ``error`` is the exception of the first
    check that failed (``Route1Plan.evaluate``), or ``None``.  ``L`` is
    the longitude eigenvalue on the eigenvector of ``M``, the meridian
    eigenvalue of modulus >= 1 (``boundary_data``), ``None`` where it
    cannot be read.  ``slope`` is the
    ``SlopeValue`` of an admissible representation, the cusp modulus of a
    parabolic one, ``None`` otherwise: a representation has a slope or an
    error, never both.  ``finite`` is false when the peripheral images or
    relators overflow floating point, and ``error`` is then a
    ``NonFiniteError``.
    """

    verdict: str
    error: SlopeError | RepresentationError | None
    M: complex | None
    L: complex | None
    slope: SlopeValue | complex | None
    relator_residual: float
    commutation_residual: float
    parabolic: bool
    invariant_dimension: int
    finite: bool


class Route1Plan:
    """Route 1's presentation-only data, compiled once per presentation.

    ``words`` holds its words as letter arrays.  ``augmented`` and
    ``locus`` are compiled on first use, as they raise for presentations
    that lack them.  A command that has the Riley locus from route 2
    passes it here; otherwise ``locus`` builds it.
    """

    def __init__(self, pres: KnotPresentation,
                 locus: RileyLocus | None = None):
        self.words = WordPlan.compile(pres)
        if locus is not None:  # the cached value of ``locus``
            self.locus = locus

    @cached_property
    def augmented(self) -> AugmentedPresentation:
        return augment(self.words.presentation)

    @cached_property
    def locus(self) -> RileyLocus:
        """The presentation's Riley locus (``apoly.riley_locus``);
        ``RepresentationError`` outside Riley form."""
        try:
            return riley_locus(self.words.presentation)
        except ApolyError as exc:
            raise RepresentationError(str(exc)) from exc

    def _augmented_images(self, images: np.ndarray,
                          longitude: np.ndarray) -> np.ndarray:
        """Images of the augmented generators: the longitude image, then
        the generator images in ``augmented.generators`` order."""
        gens = self.words.presentation.generators
        order = [gens.index(g) for g in self.augmented.generators[1:]]
        return np.concatenate([longitude[:, None], images[:, order]], axis=1)

    def evaluate_meridians(self, meridians: Sequence[complex],
                           tol: float = 1e-8) -> list:
        """Route 1 on the Riley representations at every meridian, one
        stacked pass: per meridian, ``riley_family``'s branches as ``(t,
        Route1Result)`` pairs, or the error it raises there."""
        try:
            locus = self.locus
        except RepresentationError as exc:
            return [exc] * len(meridians)
        roots, images, _ = riley_stack(locus, meridians)
        order = [locus.generators.index(g)
                 for g in self.words.presentation.generators]
        results = iter(self.evaluate(images[:, order], tol))
        return [ts if isinstance(ts, RepresentationError)
                else [(t, next(results)) for t in ts] for ts in roots]

    def evaluate(self, images: np.ndarray,
                 tol: float = 1e-8) -> list[Route1Result]:
        """Route 1 on representations of the presentation, from their
        generator images stacked ``(N, #generators, 2, 2)`` in its
        generator order (``words.stack``).  Each representation takes the
        verdict of the first row of the check table that holds there: the
        peripheral rows, then, on the ones still undecided, the pairing
        rows.  A row's value is the error, or the slope of a parabolic or
        admissible representation."""
        N = len(images)
        m, l = self.words.peripheral(images)
        relator = self.words.relator_residuals(images)
        per = peripheral_stack(m, l, tol)
        finite = per.finite & np.isfinite(relator)
        outcome: list = [None] * N

        def decide(at, rows):
            """Classify the representations ``at`` by the first of ``rows``,
            ``(holds, verdict, value)`` with ``holds`` an array over ``at``;
            returns the ones no row decides."""
            left = np.ones(len(at), dtype=bool)
            for holds, verdict, value in rows:
                for k in np.flatnonzero(holds & left):
                    outcome[at[k]] = (verdict, value(k))
                left &= ~holds
            return at[left]

        moved = ("longitude image does not preserve the meridian "
                 "eigenvector (residual {:.2e})").format
        off = per.residual > per.scale
        # on the parabolic locus a failed peripheral check is an error; off
        # it the representation is not admissible
        ready = decide(np.arange(N), [
            (~per.finite, "error", lambda i: NonFiniteError(
                "values overflow floating point in the peripheral images")),
            (~np.isfinite(relator), "error", lambda i: NonFiniteError(
                "values overflow floating point in the relators")),
            (per.parabolic & (per.commutation > tol), "error",
             lambda i: RepresentationError(
                 "peripheral images do not commute; modulus undefined")),
            (per.invariant_dimension == 3, "not-admissible",
             lambda i: NotAdmissibleError(
                 "peripheral invariant subspace has dimension 3, expected 1")),
            (per.commutation > tol, "not-admissible",
             lambda i: NotAdmissibleError(
                 f"peripheral images do not commute; no common invariant "
                 f"vector (commutation residual {per.commutation[i]:.2e})")),
            (per.central, "not-admissible", lambda i: NotAdmissibleError(
                "meridian image is ±identity; eigenvector is not determined")),
            (per.parabolic & off, "error",
             lambda i: RepresentationError(moved(per.residual[i]))),
            (off, "not-admissible",
             lambda i: NotAdmissibleError(moved(per.residual[i]))),
            (per.parabolic & np.isnan(per.modulus), "error",
             lambda i: RepresentationError("longitude image is not parabolic "
                                           "on the meridian's fixed line")),
            (per.parabolic, "parabolic", lambda i: complex(per.modulus[i]))])
        if len(ready):
            every = np.ones(len(ready), dtype=bool)
            try:
                aug = self.augmented
            except SlopeError as exc:
                decide(ready, [(every, "error", lambda k: exc)])
            else:
                framed = _framed_images(images[ready], per.frame[ready], tol)
                # the longitude word again, on the framed images: conjugating
                # l into the frame instead changed 68 of 6955 verdicts of
                # the two-bridge family and moved slopes by up to 2.5e-5
                stack = self._augmented_images(framed, prefix_images(
                    framed, self.words.longitude)[:, -1])
                # the meridian generator's image, second in the stack
                T_finite, rank, gap, top, margin, ab = _pairing(
                    aug, stack, sl2_coordinates(stack[:, 1]), tol)
                decide(ready, [
                    (~T_finite, "error", lambda k: NonFiniteError(
                        "values overflow floating point in the "
                        "twisted-Alexander matrix")),
                    (~(gap <= math.sqrt(tol)), "degenerate",
                     lambda k: DegenerateIntersectionError(
                         f"matrix rank is not the structural rank {rank[k]} "
                         f"(rank gap {gap[k]:.2e})")),
                    (~(top > tol), "degenerate",
                     lambda k: DegenerateIntersectionError(
                         f"peripheral intersection has dimension 2, expected "
                         f"1 (largest pairing singular value {top[k]:.2e})")),
                    (~(margin <= tol), "not-admissible",
                     lambda k: NotAdmissibleError(
                         f"matrix row space does not meet the peripheral "
                         f"space (pairing margin {margin[k]:.2e})")),
                    (every, "admissible", lambda k: SlopeValue(
                        a=complex(ab[k, 0]), b=complex(ab[k, 1]),
                        residual=float(margin[k]), tol=tol))])
        return [Route1Result(
            verdict=verdict,
            error=value if isinstance(value, Exception) else None,
            M=complex(per.M[i]) if finite[i] else None,
            L=None if not finite[i] or np.isnan(per.L[i]) else complex(per.L[i]),
            slope=None if isinstance(value, Exception) else value,
            relator_residual=float(relator[i]),
            commutation_residual=float(per.commutation[i]),
            parabolic=bool(finite[i] and per.parabolic[i]),
            invariant_dimension=int(per.invariant_dimension[i]),
            finite=bool(finite[i]))
            for i, (verdict, value) in enumerate(outcome)]


def _route1(rep: Representation, tol: float) -> Route1Result:
    """``Route1Plan.evaluate`` on one representation."""
    plan = Route1Plan(rep.presentation)
    return plan.evaluate(plan.words.stack([rep]), tol)[0]


def compute_slope(rep: Representation, tol: float = 1e-8) -> SlopeValue:
    """The boundary slope of a non-parabolic admissible representation;
    raises ``Route1Result.error`` otherwise."""
    res = _route1(rep, tol)
    if res.parabolic:
        raise SlopeError("representation is boundary-parabolic; use "
                         "parabolic_modulus or Route1Result.slope")
    if res.slope is None:
        raise res.error
    return res.slope


def is_boundary_parabolic(rep: Representation, tol: float = 1e-8) -> bool:
    """True when the meridian image has trace ±2 but is not ±identity
    (``Route1Result.parabolic``)."""
    return _route1(rep, tol).parabolic


def boundary_data(rep: Representation, tol: float = 1e-8) -> Route1Result:
    """Route 1 on one representation, for its peripheral eigenvalues on a
    shared eigenvector: ``M``, ``L`` and ``parabolic``.

    For a diagonalizable meridian image the ``|M| >= 1`` eigenvalue branch
    is selected; on the unit circle ties break toward nonnegative imaginary
    part.  ``L`` is the longitude eigenvalue on that ``M``'s eigenvector:
    for a Riley representation at a meridian ``M0`` inside the unit circle
    (or on it below the real axis) ``M`` is ``1/M0``, and the longitude
    eigenvalue paired with ``M0`` is ``1/L``.  Where ``L`` cannot be read,
    raises the error as a ``RepresentationError``.
    """
    res = _route1(rep, tol)
    if res.L is None:
        raise (res.error if isinstance(res.error, RepresentationError)
               else RepresentationError(str(res.error)))
    return res


def parabolic_modulus(rep: Representation, tol: float = 1e-8) -> complex:
    """The cusp translation ratio at a boundary-parabolic representation.

    In a basis where the meridian image is ``[[s, 1], [0, s]]`` (s = ±1),
    the longitude image becomes ``[[eps, beta], [0, eps]]`` with eps = ±1.
    As Möbius maps these translate by ``1/s`` and ``beta/eps``; the modulus
    is the ratio ``(beta/eps)/(1/s)``, invariant under conjugation.
    """
    res = _route1(rep, tol)
    if res.finite and not res.parabolic:
        raise RepresentationError("representation is not boundary-parabolic")
    if res.verdict != "parabolic":
        raise res.error
    return res.slope
