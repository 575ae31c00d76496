"""SL(2, C) representations of presented knot groups.

The central constructor is ``riley_family``: for a 2-generator presentation
whose generators are conjugate meridians it sends the meridian generator to
``[[M, 1], [0, 1/M]]`` and the other generator to ``[[M, 0], [t, 1/M]]``,
and returns one representation per root ``t`` of the exact Riley
polynomial ``phi(t, M)`` of ``apoly.riley_polynomial``, evaluated at ``M``.
``Representation.relator_residual`` evaluates the relators numerically and
is the check on those roots that does not go through ``phi``.

Words are evaluated on stacks: ``WordPlan`` compiles a presentation's
words to generator-index and sign arrays once, and ``prefix_images``
multiplies along a word for ``N`` representations at a time, images
stacked ``(N, #generators, 2, 2)``.  The single-representation functions
are its ``N = 1`` case.

``peripheral_stack`` reads, in closed form, everything route 1 needs
from ``(N, 2, 2)`` stacks of meridian and longitude images ``m`` and
``l``: the peripheral eigenvalue pair ``(M, L)`` on a common eigenvector,
the cusp modulus at boundary-parabolic representations, read from the
same ``L`` and held to the same scale, and one error per representation,
from the first check that fails; a parabolic representation gets a
modulus or an error, never both.  The eigenvectors of ``m`` give the
meridian frame ``P`` with ``P^-1 m P`` diagonal, in which ``L`` is read
off the diagonal.  ``boundary_data``,
``parabolic_modulus``, ``is_boundary_parabolic`` and
``commutation_residual`` read that stack for one representation.
``invariant_vector``, the adjoint-invariant direction in sl(2) fixed by
both peripheral images, is ``coords(m - tr(m)/2 I)`` for a non-central
``m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import polynomial as npp

from .apoly import ApolyError, TPoly, _riley_generators, riley_polynomial
from .linalg import adjoint_of, as_sl2, nullspace, sl2_coordinates, sl2_inverse
from .presentation import (KnotPresentation, Word, format_presentation,
                           parse_presentation)


class RepresentationError(ValueError):
    """A representation cannot be built or lacks a required property."""


class NonFiniteError(RepresentationError):
    """Values overflow floating point: the meridian is too far from 1 for
    the words of the presentation to be evaluated."""


@dataclass
class Representation:
    """Generator images of a presentation in SL(2, C).

    ``riley_t`` records the Riley parameter when the representation came
    from ``riley_family``; ``reducible`` records whether all generator
    images share an eigenvector (trace of every commutator equal to 2).
    The generator images are checked to lie in SL(2) once, on construction;
    products of them are not checked again.
    """

    presentation: KnotPresentation
    images: dict[str, np.ndarray]
    riley_t: complex | None = None
    reducible: bool | None = None

    def __post_init__(self):
        names = set(self.presentation.generators)
        if set(self.images) != names:
            raise RepresentationError(
                f"images given for {sorted(self.images)}, "
                f"presentation has generators {sorted(names)}")
        try:
            self.images = {g: as_sl2(m) for g, m in self.images.items()}
        except ValueError as exc:
            raise RepresentationError(str(exc)) from exc

    def image(self, word: Word) -> np.ndarray:
        """Evaluate the representation on a word."""
        return evaluate_word(self.images, word)

    def meridian_image(self) -> np.ndarray:
        return self.image(self.presentation.meridian)

    def longitude_image(self) -> np.ndarray:
        return self.image(self.presentation.longitude)

    def relator_residual(self) -> float:
        """Max over relators of ``max|rho(lhs) - rho(rhs)|``."""
        plan = WordPlan.compile(self.presentation)
        return float(plan.relator_residuals(plan.stack([self]))[0])


class Letters(NamedTuple):
    """A word's letters as indices into a generator tuple and signs ±1."""

    index: np.ndarray
    sign: np.ndarray


def word_letters(word: Word, generators: Sequence[str]) -> Letters:
    """Compile ``word`` against the generator order ``generators``."""
    position = {g: i for i, g in enumerate(generators)}
    try:
        index = [position[g] for g, _ in word.letters]
    except KeyError as exc:
        raise RepresentationError(
            f"word uses unknown generator {exc.args[0]!r}") from None
    return Letters(np.array(index, dtype=np.intp),
                   np.array([e for _, e in word.letters], dtype=np.int8))


def prefix_images(images: np.ndarray, letters: Letters) -> np.ndarray:
    """Prefix images ``P[:, 0] = I``, ``P[:, i] = P[:, i-1] @ image(letter
    i)`` of a word for a stack of representations.

    ``images`` is ``(N, #generators, 2, 2)`` in the order ``letters`` was
    compiled against; inverse letters map to adjugates.  Returns the
    products stacked ``(N, len(word) + 1, 2, 2)``.
    """
    images = np.asarray(images, dtype=complex)
    N, G = images.shape[:2]
    alphabet = np.concatenate([images, sl2_inverse(images)], axis=1)
    codes = letters.index + G * (letters.sign < 0)
    # y[i] and P[i] are (row, column, N): each step is three ufunc calls
    # over the whole stack, P[i+1][r, c] = P[i][r, 0] y[i][0, c]
    # + P[i][r, 1] y[i][1, c]
    y = np.ascontiguousarray(alphabet[:, codes].transpose(1, 2, 3, 0))
    P = np.empty((len(codes) + 1, 2, 2, N), dtype=complex)
    P[0] = np.eye(2)[:, :, None]
    term = np.empty((2, 2, N), dtype=complex)
    # far from M = 1 long products overflow; callers test for finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        for i, yi in enumerate(y):
            np.multiply(P[i, :, 0:1], yi[0:1], out=P[i + 1])
            np.multiply(P[i, :, 1:2], yi[1:2], out=term)
            P[i + 1] += term
    return P.transpose(3, 0, 1, 2)


def evaluate_word(images: Mapping[str, np.ndarray], word: Word) -> np.ndarray:
    """Evaluate a word in a plain ``{generator: matrix}`` mapping."""
    gens = tuple(images)
    stack = np.array([[images[g] for g in gens]], dtype=complex)
    return prefix_images(stack, word_letters(word, gens))[0, -1]


@dataclass(frozen=True, eq=False)
class WordPlan:
    """The words of a presentation compiled against its generator order,
    once, for evaluating representations of it as stacks."""

    presentation: KnotPresentation
    meridian: Letters
    longitude: Letters
    relators: tuple[tuple[Letters, Letters], ...]

    @classmethod
    def compile(cls, pres: KnotPresentation) -> "WordPlan":
        gens = pres.generators
        return cls(pres, word_letters(pres.meridian, gens),
                   word_letters(pres.longitude, gens),
                   tuple((word_letters(lhs, gens), word_letters(rhs, gens))
                         for lhs, rhs in pres.relators))

    def stack(self, reps: Sequence[Representation]) -> np.ndarray:
        """Generator images of representations of the presentation,
        ``(N, #generators, 2, 2)``."""
        gens = self.presentation.generators
        return np.array([[rep.images[g] for g in gens] for rep in reps],
                        dtype=complex).reshape(len(reps), len(gens), 2, 2)

    def peripheral(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Meridian and longitude images, each ``(N, 2, 2)``."""
        return (prefix_images(images, self.meridian)[:, -1],
                prefix_images(images, self.longitude)[:, -1])

    def relator_residuals(self, images: np.ndarray) -> np.ndarray:
        """Max over relators of ``max|rho(lhs) - rho(rhs)|``, ``(N,)``."""
        worst = np.zeros(len(images))
        for lhs, rhs in self.relators:
            diff = (prefix_images(images, lhs)[:, -1]
                    - prefix_images(images, rhs)[:, -1])
            worst = np.maximum(worst, _max_abs(diff))
        return worst


# ---------------------------------------------------------------------------
# constructors

def abelian_representation(pres: KnotPresentation, lam: complex) -> Representation:
    """The diagonal representation ``g -> diag(lam^phi(g), lam^-phi(g))``
    through the abelianization, with the meridian going to weight 1."""
    lam = complex(lam)
    if lam == 0:
        raise RepresentationError("eigenvalue must be nonzero")
    weights = pres.abelianization()
    images = {g: np.array([[lam ** w, 0.0], [0.0, lam ** (-w)]], dtype=complex)
              for g, w in weights.items()}
    return Representation(pres, images, reducible=True)


def _runs(items: list, close: Callable) -> list[list]:
    """Split ``items`` into maximal runs whose neighbours satisfy ``close``."""
    runs: list[list] = []
    for z in items:
        if runs and close(runs[-1][-1], z):
            runs[-1].append(z)
        else:
            runs.append([z])
    return runs


def riley_generators(pres: KnotPresentation) -> tuple[str, str]:
    """The (meridian generator, partner generator) pair of a presentation
    in Riley form; ``RepresentationError`` otherwise."""
    try:
        return _riley_generators(pres)
    except ApolyError as exc:
        raise RepresentationError(str(exc)) from exc


#: the commutator [g, h] = g h g^-1 h^-1 of the two Riley generators
_COMMUTATOR = Letters(np.array([0, 1, 0, 1], dtype=np.intp),
                      np.array([1, 1, -1, -1], dtype=np.int8))


def riley_family(pres: KnotPresentation, M: complex, tol: float = 1e-8, *,
                 phi: TPoly | None = None,
                 generators: tuple[str, str] | None = None
                 ) -> list[Representation]:
    """All Riley representations at meridian eigenvalue ``M``.

    The roots ``t`` are those of the exact Riley polynomial ``phi`` (from
    ``apoly.riley_polynomial``; computed here when not given): its
    coefficients are evaluated at ``M``, rooted numerically and each root
    is Newton-refined twice.  ``phi`` is the primitive gcd of the relator
    entry polynomials, so every root satisfies all of them; a constant
    ``phi`` (no Riley locus) gives no representations.  Roots closer than
    ``1e-6 * max(1, |t|)`` are merged.  Returns one representation per
    root, with ``riley_t`` and ``reducible`` (commutator trace within
    ``tol`` of 2) set, sorted by ``re t`` with real parts within that
    tolerance ordered by ``im t``.  ``generators`` is the pair that
    ``riley_generators`` returns, computed here when not given.  Raises
    ``NonFiniteError`` when ``phi`` or the commutators overflow at ``M``.
    """
    M = complex(M)
    if M == 0:
        raise RepresentationError("meridian eigenvalue must be nonzero")
    mgen, other = generators or riley_generators(pres)
    try:
        if phi is None:
            phi = riley_polynomial(pres, allow_constant=True)
    except ApolyError as exc:
        raise RepresentationError(str(exc)) from exc
    overflow = NonFiniteError(f"values overflow floating point at M = {M}")
    Mi = 1.0 / M
    try:
        coeffs = np.array([c.evaluate(1.0, M) for c in phi.coeffs],
                          dtype=complex)
    except (OverflowError, ZeroDivisionError):  # |M| far from 1
        raise overflow from None
    if not np.isfinite(coeffs).all():
        raise overflow
    with np.errstate(all="ignore"):
        roots = npp.polyroots(coeffs)
        deriv = npp.polyder(coeffs)
        for _ in range(2):
            d = npp.polyval(roots, deriv)
            # no step where the derivative vanishes (a double root)
            roots = roots - np.divide(npp.polyval(roots, coeffs), d,
                                      out=np.zeros_like(roots), where=d != 0)
    if not np.isfinite(roots).all():
        raise overflow

    near = lambda z: 1e-6 * max(1.0, abs(z))
    kept = sorted((complex(t) for t in roots), key=lambda z: z.real)
    # real parts equal up to rounding must not decide the order: sort each
    # run of close real parts by imaginary part instead
    kept = [z for run in _runs(kept, lambda u, z: z.real - u.real <= near(z))
            for z in sorted(run, key=lambda z: z.imag)]
    ts = [complex(np.mean(cluster))
          for cluster in _runs(kept, lambda u, z: abs(z - u) <= near(z))]

    # images of (mgen, other) for every root, and their commutators
    images = np.zeros((len(ts), 2, 2, 2), dtype=complex)
    images[:, :, 0, 0] = M
    images[:, :, 1, 1] = Mi
    images[:, 0, 0, 1] = 1.0
    images[:, 1, 1, 0] = ts
    comm = prefix_images(images, _COMMUTATOR)[:, -1]
    if not np.isfinite(comm).all():
        raise overflow
    tr = comm[:, 0, 0] + comm[:, 1, 1]
    reducible = np.abs(tr - 2.0) <= tol * (1.0 + _max_abs(comm))
    return [Representation(pres, {mgen: img[0], other: img[1]},
                           riley_t=t0, reducible=bool(red))
            for t0, img, red in zip(ts, images, reducible)]


def conjugate_representation(rep: Representation, P) -> Representation:
    """The representation ``g -> P rho(g) P^-1`` (P normalized to det 1)."""
    P = np.asarray(P, dtype=complex)
    det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    if abs(det) < 1e-300:
        raise RepresentationError("conjugating matrix is singular")
    P = P / np.sqrt(det)
    Pi = sl2_inverse(P)
    images = {g: P @ m @ Pi for g, m in rep.images.items()}
    return Representation(rep.presentation, images,
                          riley_t=rep.riley_t, reducible=rep.reducible)


# ---------------------------------------------------------------------------
# peripheral structure

@dataclass(frozen=True)
class BoundaryData:
    """Peripheral eigenvalue data on a common eigenvector.

    ``M`` and ``L`` are the meridian and longitude eigenvalues on
    ``eigenvector``; ``parabolic`` marks the case ``tr rho(meridian) = ±2``
    (where ``M`` is that ±1 and the eigenvector is the unique fixed line).
    """

    M: complex
    L: complex
    eigenvector: np.ndarray
    parabolic: bool


def _max_abs(A: np.ndarray) -> np.ndarray:
    """``max |entry|`` of each matrix of a ``(..., m, n)`` stack."""
    return np.abs(A).max(axis=(-2, -1))


def commutation_residuals(m: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Relative commutator residuals ``max|ml - lm| / (1 + max|m| max|l|)``
    of stacks of meridian and longitude images ``(N, 2, 2)``."""
    scale = 1.0 + _max_abs(m) * _max_abs(l)
    return _max_abs(m @ l - l @ m) / scale


def _parabolic_signs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sign ``s = ±1`` nearer to ``tr/2``, and the trace, per matrix."""
    tr = m[:, 0, 0] + m[:, 1, 1]
    return np.where(np.abs(tr - 2.0) <= np.abs(tr + 2.0), 1.0, -1.0), tr


def _central(m: np.ndarray, tol: float) -> np.ndarray:
    """Whether each matrix is within ``tol`` of ``±I``: its traceless part."""
    return np.abs(sl2_coordinates(m)).max(axis=-1) <= tol


def _eigenvectors(m: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """A unit eigenvector of each ``m`` for ``lam``: the kernel of ``m -
    lam I``, read off its row of larger norm."""
    top = np.stack([m[:, 0, 1], lam - m[:, 0, 0]], axis=-1)
    bottom = np.stack([lam - m[:, 1, 1], m[:, 1, 0]], axis=-1)
    norms = np.linalg.norm([top, bottom], axis=2)
    first = norms[0] >= norms[1]
    return np.where(first[:, None], top, bottom) / norms.max(axis=0)[:, None]


def _boundary_stack(m: np.ndarray, l: np.ndarray, s: np.ndarray,
                    parabolic: np.ndarray, central: np.ndarray,
                    tol: float) -> tuple[np.ndarray, ...]:
    """For finite ``(N, 2, 2)`` meridian and longitude images with their
    signs ``s`` (``_parabolic_signs``), parabolic and central flags: the
    meridian frames, determinant-1 ``P`` with ``P^-1 m P = diag(M, 1/M)``
    from closed-form eigenvectors (the identity on parabolic and central
    slices), ``M`` (the ``|M| >= 1`` branch), ``L``, M's eigenvector ``e``
    and the residual ``max|l e - L e|``."""
    rows = np.arange(len(m))
    half = (m[:, 0, 0] + m[:, 1, 1]) / 2
    root = np.sqrt(half * half - 1.0)
    # the larger eigenvalue has no cancellation; the other is its inverse
    big = np.where(np.abs(half + root) >= np.abs(half - root),
                   half + root, half - root)
    # the |M| >= 1 branch; on the unit circle ties break toward im >= 0
    first = np.where(np.abs(big) - np.abs(1.0 / big) > tol * np.abs(big),
                     True, big.imag >= (1.0 / big).imag)
    Mval = np.where(parabolic, s, np.where(first, big, 1.0 / big))
    # M's eigenvector first; a parabolic meridian has only that one
    E = np.stack([_eigenvectors(m, Mval), _eigenvectors(m, 1.0 / Mval)], axis=2)
    det = E[:, 0, 0] * E[:, 1, 1] - E[:, 0, 1] * E[:, 1, 0]
    framed = ~(parabolic | central)
    P = np.where(framed[:, None, None], E / np.sqrt(det)[:, None, None],
                 np.eye(2))
    # l commutes with m, so it is diagonal in the frame.  Its larger entry
    # is read as L on M's eigenvector, or as 1/L on the other one: the
    # smaller entry would carry the rounding error of the larger
    lf = sl2_inverse(P) @ l @ P
    d0, d1 = lf[:, 0, 0], lf[:, 1, 1]
    e = E[:, :, 0]
    k = np.argmax(np.abs(e), axis=1)
    e = e / e[rows, k][:, None]
    le = (l @ e[:, :, None])[:, :, 0]
    L = np.where(parabolic, le[rows, k],
                 np.where(np.abs(d0) >= np.abs(d1), d0, 1.0 / d1))
    return P, Mval, L, e, np.abs(le - L[:, None] * e).max(axis=1)


def _invariant_failure(both_central: bool, comm: float,
                       tol: float) -> RepresentationError | None:
    """Why the peripheral images have no unique common adjoint-fixed
    vector, or ``None``: ``Ad`` of a non-central image fixes one line,
    which the other image fixes when they commute."""
    if both_central:
        return RepresentationError(
            "peripheral invariant subspace has dimension 3, expected 1")
    if comm > tol:
        return RepresentationError(
            f"peripheral images do not commute; no common invariant "
            f"vector (commutation residual {comm:.2e})")
    return None


@dataclass(frozen=True, eq=False)
class PeripheralStack:
    """Peripheral data of ``N`` representations, read from their meridian
    and longitude images ``(N, 2, 2)``: arrays over the stack, and one
    ``error`` per representation.

    ``finite`` is false where the adjoint peripheral images overflow.
    ``commutation`` holds the relative commutator residuals, ``parabolic``
    the boundary-parabolic flags and ``invariant_dimension`` the dimension
    of the common adjoint-fixed space, 1, or 3 where both images are
    central.  ``M``, ``L`` and ``eigenvector`` are what ``boundary_data``
    returns, ``L`` NaN where it cannot be read; ``modulus`` is the cusp
    modulus, NaN off the parabolic locus and wherever ``error`` is set;
    ``frame`` holds the meridian frames (``_boundary_stack``).  ``error``
    is the ``RepresentationError`` of the first check that fails, or
    ``None``.  The checks run in this order: overflow (a
    ``NonFiniteError``); commutation, off the parabolic locus with the
    invariant vector (``_invariant_failure``) and a non-central meridian;
    the ``L`` read, that the longitude preserves the meridian's
    eigenvector; last, on the parabolic locus, the modulus.
    """

    finite: np.ndarray
    commutation: np.ndarray
    parabolic: np.ndarray
    invariant_dimension: np.ndarray
    M: np.ndarray
    L: np.ndarray
    eigenvector: np.ndarray
    modulus: np.ndarray
    frame: np.ndarray
    error: list


def peripheral_stack(m: np.ndarray, l: np.ndarray,
                     tol: float = 1e-8) -> PeripheralStack:
    """Every peripheral check and value of route 1 on stacks of meridian
    and longitude images.  The cusp modulus comes from the ``L`` read and
    is held to its scale ``tol·(1 + max|l|)``: commuting parabolics satisfy
    ``l/L - I = tau (m/s - I)``, ``s = ±1`` the meridian's sign, and
    ``tau`` is their ratio at the largest entry of ``m/s - I``."""
    N = len(m)
    with np.errstate(all="ignore"):
        adj = adjoint_of(np.stack([m, l], axis=1))
        finite = np.isfinite(adj).all(axis=(1, 2, 3))
        ok = np.flatnonzero(finite)
        m, l = m[ok], l[ok]
        comm = commutation_residuals(m, l)
        s, tr = _parabolic_signs(m)
        central = _central(m, tol)
        parabolic = (np.abs(tr - 2.0 * s) <= tol * (1.0 + np.abs(tr))) & ~central
        both_central = central & _central(l, tol)
        P, M, L, e, resid = _boundary_stack(m, l, s, parabolic, central, tol)
        scale = tol * (1.0 + _max_abs(l))
        off = resid > scale
        L[(comm > tol) | central | off] = np.nan
        # tau on the parabolic subset, NaN where L is or where it misfits
        p = np.flatnonzero(parabolic)
        A = (m[p] / s[p, None, None] - np.eye(2)).reshape(-1, 4)
        B = (l[p] / L[p, None, None] - np.eye(2)).reshape(-1, 4)
        at = np.argmax(np.abs(A), axis=1)[:, None]
        tau = np.take_along_axis(B, at, 1) / np.take_along_axis(A, at, 1)
        fits = np.abs(B - tau * A).max(axis=1) <= scale[p]
        modulus = np.full(len(ok), np.nan, dtype=complex)
        # + 0.0: a part that is exactly zero reads +0, whatever sign the
        # rounding of the divisions left on it
        modulus[p] = np.where(fits, tau[:, 0], np.nan) + 0.0
    error: list[RepresentationError | None] = [NonFiniteError(
        "values overflow floating point in the peripheral images")] * N
    for k, i in enumerate(ok):
        if parabolic[k]:
            err = None
            if comm[k] > tol:
                err = RepresentationError(
                    "peripheral images do not commute; modulus undefined")
        else:
            err = _invariant_failure(both_central[k], comm[k], tol)
            if err is None and central[k]:
                err = RepresentationError("meridian image is ±identity; "
                                          "eigenvector is not determined")
        if err is None and off[k]:
            err = RepresentationError(
                f"longitude image does not preserve the meridian eigenvector "
                f"(residual {resid[k]:.2e})")
        if err is None and parabolic[k] and np.isnan(modulus[k]):
            err = RepresentationError(
                "longitude image is not parabolic on the meridian's fixed line")
        error[i] = err

    def scatter(values, fill):
        out = np.full((N,) + values.shape[1:], fill, dtype=values.dtype)
        out[ok] = values
        return out

    return PeripheralStack(
        finite, scatter(comm, np.nan), scatter(parabolic, False),
        scatter(np.where(both_central, 3, 1), 0), scatter(M, np.nan),
        scatter(L, np.nan), scatter(e, np.nan), scatter(modulus, np.nan),
        scatter(P, np.eye(2)), error)


def _peripheral(rep: Representation, tol: float) -> PeripheralStack:
    """``peripheral_stack`` of one representation."""
    m, l = rep.meridian_image(), rep.longitude_image()
    return peripheral_stack(m[None], l[None], tol)


def commutation_residual(rep: Representation) -> float:
    """Relative commutator residual of the meridian and longitude images;
    NaN where they overflow."""
    return float(_peripheral(rep, 1e-8).commutation[0])


def is_boundary_parabolic(rep: Representation, tol: float = 1e-8) -> bool:
    """True when the meridian image has trace ±2 but is not ±identity."""
    return bool(_peripheral(rep, tol).parabolic[0])


def boundary_data(rep: Representation, tol: float = 1e-8) -> BoundaryData:
    """Eigenvalues of the peripheral images on a shared eigenvector.

    For a diagonalizable meridian image the ``|M| >= 1`` eigenvalue branch
    is selected; on the unit circle ties break toward nonnegative imaginary
    part.  ``L`` is the longitude eigenvalue on that ``M``'s eigenvector:
    for a Riley representation at a meridian ``M0`` inside the unit circle
    (or on it below the real axis) ``M`` is ``1/M0``, and the longitude
    eigenvalue paired with ``M0`` is ``1/L``.  The eigenvector is
    normalized so its largest-modulus coordinate is 1.  Where ``L`` cannot
    be read, raises ``PeripheralStack.error``.
    """
    per = _peripheral(rep, tol)
    if np.isnan(per.L[0]):
        raise per.error[0]
    return BoundaryData(M=complex(per.M[0]), L=complex(per.L[0]),
                        eigenvector=per.eigenvector[0],
                        parabolic=bool(per.parabolic[0]))


def parabolic_modulus(rep: Representation, tol: float = 1e-8) -> complex:
    """The cusp translation ratio at a boundary-parabolic representation.

    In a basis where the meridian image is ``[[s, 1], [0, s]]`` (s = ±1),
    the longitude image becomes ``[[eps, beta], [0, eps]]`` with eps = ±1.
    As Möbius maps these translate by ``1/s`` and ``beta/eps``; the modulus
    is the ratio ``(beta/eps)/(1/s)``, invariant under conjugation.
    """
    per = _peripheral(rep, tol)
    if per.finite[0] and not per.parabolic[0]:
        raise RepresentationError("representation is not boundary-parabolic")
    if np.isnan(per.modulus[0]):
        raise per.error[0]
    return complex(per.modulus[0])


@dataclass(frozen=True)
class InvariantVector:
    """The common adjoint-fixed row vector of the peripheral images,
    normalized so its largest-modulus coordinate is 1."""

    vector: np.ndarray
    residual_meridian: float
    residual_longitude: float


def invariant_vector(rep: Representation, tol: float = 1e-8) -> InvariantVector:
    """The unique row vector fixed by both peripheral adjoint images: the
    coordinates of ``X - tr(X)/2 I`` for ``X`` the meridian image or, when
    that is central, the longitude image.

    Raises ``RepresentationError`` when the common fixed space does not
    have dimension exactly 1.
    """
    m, l = rep.meridian_image(), rep.longitude_image()
    with np.errstate(all="ignore"):
        adj = adjoint_of(np.stack([m, l]))
    if not np.isfinite(adj).all():
        raise NonFiniteError("values overflow floating point in the "
                             "peripheral images")
    central_m = _central(m[None], tol)[0]
    err = _invariant_failure(central_m and _central(l[None], tol)[0],
                             commutation_residuals(m[None], l[None])[0], tol)
    if err is not None:
        raise err
    v = sl2_coordinates(l if central_m else m)
    v = v / v[np.argmax(np.abs(v))]
    resid = np.abs(v @ (adj - np.eye(3))).max(axis=1) / (1.0 + _max_abs(adj))
    return InvariantVector(vector=v, residual_meridian=float(resid[0]),
                           residual_longitude=float(resid[1]))


def reducibility_defect(rep: Representation) -> float:
    """Max over generator pairs of ``|tr rho([g, h]) - 2|``; zero exactly
    on representations with a global fixed line."""
    gens = rep.presentation.generators
    worst = 0.0
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            comm = rep.image(Word([(g, 1), (h, 1), (g, -1), (h, -1)]))
            worst = max(worst, abs(complex(np.trace(comm)) - 2.0))
    return worst


_HERMITIAN_BASIS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
)


def is_unitarizable(rep: Representation, tol: float = 1e-8) -> bool:
    """Whether some conjugate of the representation lands in SU(2).

    Solves ``rho(g)^H Q rho(g) = Q`` for a Hermitian ``Q`` over all
    generators and reports whether a positive- (or negative-) definite
    solution exists.
    """
    # real-linear constraint matrix, columns indexed by the Hermitian basis
    cols = []
    for B in _HERMITIAN_BASIS:
        col: list[float] = []
        for g in rep.presentation.generators:
            A = rep.images[g]
            R = A.conj().T @ B @ A - B
            col.extend([R[0, 0].real, R[1, 1].real, R[0, 1].real, R[0, 1].imag])
        cols.append(col)
    mat = np.array(cols).T
    ns = nullspace(mat, tol)
    for q in ns:
        Q = sum(float(c.real) * B for c, B in zip(q, _HERMITIAN_BASIS))
        eig = np.linalg.eigvalsh(Q)
        bound = tol * max(1.0, float(np.abs(eig).max()))
        if np.all(eig > bound) or np.all(eig < -bound):
            return True
    return False


# ---------------------------------------------------------------------------
# serialization

def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def representation_to_dict(rep: Representation) -> dict:
    """JSON-ready form: presentation text, images as [re, im] entry pairs."""
    return {
        "presentation": format_presentation(rep.presentation),
        "images": {g: [[_complex_pair(m[i, j]) for j in range(2)]
                       for i in range(2)]
                   for g, m in rep.images.items()},
        "riley_t": None if rep.riley_t is None else _complex_pair(rep.riley_t),
        "reducible": rep.reducible,
    }


def representation_from_dict(data: dict) -> Representation:
    pres = parse_presentation(data["presentation"])
    images = {}
    for g, rows in data["images"].items():
        images[g] = np.array([[complex(re, im) for re, im in row] for row in rows])
    t = data.get("riley_t")
    return Representation(pres, images,
                          riley_t=None if t is None else complex(t[0], t[1]),
                          reducible=data.get("reducible"))
