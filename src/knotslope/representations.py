"""SL(2, C) representations of presented knot groups.

Riley representations of a 2-generator presentation whose generators are
conjugate meridians send the meridian generator to ``[[M, 1], [0, 1/M]]``
and the other generator to ``[[M, 0], [t, 1/M]]``, ``t`` a root of the
exact Riley polynomial ``phi(t, M)`` of the presentation's Riley locus
(``apoly.RileyLocus``).  ``riley_stack`` finds them on a locus for a chunk
of meridians ``M`` in one stacked pass, as generator-image stacks;
``riley_family`` is its one-meridian view, one ``Representation`` per
root.  ``Representation.relator_residual`` evaluates the relators
numerically and is the check on those roots that does not go through
``phi``.

Words are evaluated on stacks: ``WordPlan`` compiles a presentation's
words, freely reduced, to generator-index and sign arrays once, and
``prefix_images`` multiplies along a word for ``N`` representations at a
time, images stacked ``(N, #generators, 2, 2)``.  The
single-representation functions are its ``N = 1`` case.

``peripheral_stack`` reads, in closed form, everything route 1 needs
from ``(N, 2, 2)`` stacks of meridian and longitude images ``m`` and
``l``, as arrays: the commutation residual, the parabolic and central
flags, the peripheral eigenvalue pair ``(M, L)`` on a common eigenvector
with the residual of the ``L`` read and its scale, and the cusp modulus
at boundary-parabolic representations, read from the same ``L`` and held
to the same scale.  The eigenvectors of ``m`` give the meridian frame
``P`` with ``P^-1 m P`` diagonal, in which ``L`` is read off the
diagonal.  It decides no verdict: ``slope.Route1Plan.evaluate`` reads the
arrays in its check table, and ``slope.boundary_data`` and the other
one-representation views read its result.  ``is_unitarizable`` is the
one check here that is not route 1's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import polynomial as npp

from .apoly import (ApolyError, RileyLocus, riley_locus, sum_terms,
                    summation_order)
from .linalg import adjoint_of, as_sl2, nullspace, sl2_coordinates, sl2_inverse
from .presentation import KnotPresentation, Word


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
    """The words of a presentation, freely reduced and compiled against its
    generator order, once, for evaluating representations of it as stacks:
    a cancelling pair ``g^k g^-k`` would cost letters and, in floats, the
    digits that ``g^k`` drowns."""

    presentation: KnotPresentation
    meridian: Letters
    longitude: Letters
    relators: tuple[tuple[Letters, Letters], ...]

    @classmethod
    def compile(cls, pres: KnotPresentation) -> "WordPlan":
        def letters(word: Word) -> Letters:
            return word_letters(word.reduced(), pres.generators)

        return cls(pres, letters(pres.meridian), letters(pres.longitude),
                   tuple((letters(lhs), letters(rhs))
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
            with np.errstate(all="ignore"):  # words may overflow to inf
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


#: the commutator [g, h] = g h g^-1 h^-1 of the two Riley generators
_COMMUTATOR = Letters(np.array([0, 1, 0, 1], dtype=np.intp),
                      np.array([1, 1, -1, -1], dtype=np.int8))


def _merged_roots(roots: np.ndarray) -> list[complex]:
    """One meridian's roots sorted by ``re t``, a run of real parts within
    ``1e-6 * max(1, |t|)`` of each other ordered by ``im t``, and roots
    that close merged into their mean."""
    near = lambda z: 1e-6 * max(1.0, abs(z))
    kept = sorted((complex(t) for t in roots), key=lambda z: z.real)
    # real parts equal up to rounding must not decide the order: sort each
    # run of close real parts by imaginary part instead
    kept = [z for run in _runs(kept, lambda u, z: z.real - u.real <= near(z))
            for z in sorted(run, key=lambda z: z.imag)]
    return [c[0] if len(c) == 1 else complex(np.mean(c))
            for c in _runs(kept, lambda u, z: abs(z - u) <= near(z))]


def _roots(c: np.ndarray) -> np.ndarray:
    """The roots ``(S, n)`` of ``S`` polynomials of degree ``n``, ascending
    coefficients ``c`` ``(n + 1, S)``, as ``npp.polyroots`` takes them: the
    sorted eigenvalues of their companion matrices; then two Newton steps,
    none where the derivative vanishes (a double root)."""
    n, S = len(c) - 1, c.shape[1]
    if n < 1:
        return np.zeros((S, 0), dtype=complex)
    comp = np.zeros((S, n, n), dtype=complex)
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    comp[:, :, -1] -= (c[:-1] / c[-1]).T
    roots = np.sort(np.linalg.eigvals(comp), axis=1)
    c, deriv = c[:, :, None], npp.polyder(c)[:, :, None]
    for _ in range(2):
        d = npp.polyval(roots, deriv, tensor=False)
        roots = roots - np.divide(npp.polyval(roots, c, tensor=False), d,
                                  out=np.zeros_like(roots), where=d != 0)
    return roots


def _coefficients(terms: list[list], M: complex) -> list[complex]:
    """``phi``'s coefficients at ``M`` (``sum_terms``); NaN on overflow."""
    try:
        return [sum_terms(c, 1.0, M) for c in terms]
    except (OverflowError, ZeroDivisionError):  # |M| far from 1, or 0
        return [complex(math.nan, math.nan)] * len(terms)


def riley_stack(locus: RileyLocus, meridians: Sequence[complex],
                tol: float = 1e-8) -> tuple[list, np.ndarray, np.ndarray]:
    """The Riley representations at every meridian eigenvalue, one stacked
    pass over the roots ``t`` of ``phi(t, M)``.  The ``locus``'s monic
    ``phi``, its terms put in ``summation_order`` once per call, is
    evaluated at every ``M`` by ``_coefficients``, its leading
    coefficient to exactly 1, rooted by one ``_roots`` call and ordered and
    merged by ``_merged_roots``; a constant ``phi`` (no irreducible Riley
    representation) gives no roots.  Returns ``t``, per meridian its
    roots or its error: ``M = 0``, or a ``NonFiniteError`` where ``phi``,
    its roots or the commutators overflow.  Then, over the roots of the
    meridians without one, in order, the images ``(K, 2, 2, 2)`` of the
    (meridian generator, partner) pair, and whether each commutator trace
    is within ``tol`` of 2.  No meridian's values or error depend on the
    others."""
    Ms = [complex(M) for M in meridians]
    overflow = "values overflow floating point at M = {}".format
    # a meridian's error, until its roots are found
    t: list = [NonFiniteError(overflow(M)) if M else RepresentationError(
        "meridian eigenvalue must be nonzero") for M in Ms]
    terms = [summation_order(c) for c in locus.phi.coeffs]
    coeffs = np.array([_coefficients(terms, M) for M in Ms],
                      dtype=complex).reshape(len(Ms), len(terms)).T
    with np.errstate(all="ignore"):
        rows = np.flatnonzero(np.isfinite(coeffs).all(axis=0)
                              & (np.array(Ms) != 0))
        for i, roots in zip(rows, _roots(coeffs[:, rows])):
            if np.isfinite(roots).all():
                t[i] = _merged_roots(roots)
        found = [ts if isinstance(ts, list) else [] for ts in t]
        owner = np.repeat(np.arange(len(Ms)),
                          np.array(list(map(len, found)), dtype=int))
        images = np.zeros((len(owner), 2, 2, 2), dtype=complex)
        images[:, :, 0, 0] = np.array([Ms[i] for i in owner])[:, None]
        images[:, :, 1, 1] = np.array([1.0 / Ms[i] for i in owner])[:, None]
        images[:, 0, 0, 1] = 1.0
        images[:, 1, 1, 0] = [z for ts in found for z in ts]
        comm = prefix_images(images, _COMMUTATOR)[:, -1]
        tr = comm[:, 0, 0] + comm[:, 1, 1]
        reducible = np.abs(tr - 2.0) <= tol * (1.0 + _max_abs(comm))
    for i in owner[~np.isfinite(comm).all(axis=(1, 2))]:
        t[i] = NonFiniteError(overflow(Ms[i]))
    keep = np.array([isinstance(t[i], list) for i in owner], dtype=bool)
    return t, images[keep], reducible[keep]


def riley_family(pres: KnotPresentation, M: complex,
                 tol: float = 1e-8) -> list[Representation]:
    """All Riley representations at meridian eigenvalue ``M``, with
    ``riley_t`` and ``reducible`` set: ``riley_stack`` at one meridian.
    Raises the meridian's error, or a ``RepresentationError`` for a
    presentation outside Riley form (``apoly.riley_locus``)."""
    try:
        locus = riley_locus(pres)
    except ApolyError as exc:
        raise RepresentationError(str(exc)) from exc
    (ts,), images, reducible = riley_stack(locus, [M], tol)
    if isinstance(ts, RepresentationError):
        raise ts
    return [Representation(pres, dict(zip(locus.generators, img)), riley_t=t0,
                           reducible=bool(red))
            for t0, img, red in zip(ts, images, reducible)]


# ---------------------------------------------------------------------------
# peripheral structure

def _max_abs(A: np.ndarray) -> np.ndarray:
    """``max |entry|`` of each matrix of a ``(..., m, n)`` stack."""
    return np.abs(A).max(axis=(-2, -1))


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
    slices), ``M`` (the ``|M| >= 1`` branch), ``L`` and the residual
    ``max|l e - L e|`` on M's eigenvector ``e``."""
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
    return P, Mval, L, np.abs(le - L[:, None] * e).max(axis=1)


@dataclass(frozen=True, eq=False)
class PeripheralStack:
    """Peripheral data of ``N`` representations, read from their meridian
    and longitude images ``(N, 2, 2)``: arrays over the stack, NaN or
    false where ``finite`` is false, where the adjoint images overflow.

    ``commutation`` holds the relative commutator residuals,
    ``parabolic`` the boundary-parabolic flags, ``central`` whether the
    meridian is ``±I`` and ``invariant_dimension`` the dimension of the
    common adjoint-fixed space, 1, or 3 where both images are central.
    ``M`` is the meridian eigenvalue of modulus >= 1 and ``L`` the
    longitude's eigenvalue on M's eigenvector ``e``, NaN where the images
    do not commute, the meridian is central or ``residual``, ``max|l e -
    L e|``, passes ``scale``.  ``modulus`` is the cusp modulus, NaN off
    the parabolic locus, where ``L`` is and where ``l/L - I`` does not fit
    ``m/s - I``; ``frame`` holds the meridian frames (``_boundary_stack``).
    """

    finite: np.ndarray
    commutation: np.ndarray
    parabolic: np.ndarray
    central: np.ndarray
    invariant_dimension: np.ndarray
    M: np.ndarray
    L: np.ndarray
    residual: np.ndarray
    scale: np.ndarray
    modulus: np.ndarray
    frame: np.ndarray


def peripheral_stack(m: np.ndarray, l: np.ndarray,
                     tol: float = 1e-8) -> PeripheralStack:
    """Every peripheral value of route 1 on stacks of meridian and
    longitude images.  The cusp modulus comes from the ``L`` read and is
    held to its scale ``tol·(1 + max|l|)``: commuting parabolics satisfy
    ``l/L - I = tau (m/s - I)``, ``s = ±1`` the meridian's sign, and
    ``tau`` is their ratio at the largest entry of ``m/s - I``."""
    N = len(m)
    with np.errstate(all="ignore"):
        adj = adjoint_of(np.stack([m, l], axis=1))
        finite = np.isfinite(adj).all(axis=(1, 2, 3))
        ok = np.flatnonzero(finite)
        m, l = m[ok], l[ok]
        comm = _max_abs(m @ l - l @ m) / (1.0 + _max_abs(m) * _max_abs(l))
        s, tr = _parabolic_signs(m)
        central = _central(m, tol)
        parabolic = (np.abs(tr - 2.0 * s) <= tol * (1.0 + np.abs(tr))) & ~central
        P, M, L, resid = _boundary_stack(m, l, s, parabolic, central, tol)
        scale = tol * (1.0 + _max_abs(l))
        L[(comm > tol) | central | (resid > scale)] = np.nan
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

    def scatter(values, fill):
        out = np.full((N,) + values.shape[1:], fill, dtype=values.dtype)
        out[ok] = values
        return out

    return PeripheralStack(
        finite, scatter(comm, np.nan), scatter(parabolic, False),
        scatter(central, False),
        scatter(np.where(central & _central(l, tol), 3, 1), 0),
        scatter(M, np.nan), scatter(L, np.nan), scatter(resid, np.nan),
        scatter(scale, np.nan), scatter(modulus, np.nan),
        scatter(P, np.eye(2)))


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

