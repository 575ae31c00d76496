"""SL(2, C) representations of presented knot groups.

The central constructor is ``riley_family``: for a 2-generator presentation
whose generators are conjugate meridians it sends the meridian generator to
``[[M, 1], [0, 1/M]]`` and the other generator to ``[[M, 0], [t, 1/M]]``,
and returns one representation per root ``t`` of the exact Riley
polynomial ``phi(t, M)`` of ``apoly.riley_polynomial``, evaluated at ``M``.
``Representation.relator_residual`` evaluates the relators numerically and
is the check on those roots that does not go through ``phi``.

``boundary_data`` extracts the peripheral eigenvalue pair ``(M, L)`` on a
common eigenvector, ``invariant_vector`` the adjoint-invariant direction in
sl(2) fixed by both peripheral images, and ``parabolic_modulus`` the cusp
translation ratio at boundary-parabolic representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from numpy.polynomial import polynomial as npp

from .apoly import ApolyError, TPoly, _riley_generators, riley_polynomial
from .linalg import adjoint_of, as_sl2, nullspace, sl2_inverse
from .presentation import (KnotPresentation, Word, format_presentation,
                           parse_presentation)


class RepresentationError(ValueError):
    """A representation cannot be built or lacks a required property."""


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
        try:
            return evaluate_word(self.images, word)
        except KeyError as exc:
            raise RepresentationError(
                f"word uses unknown generator {exc.args[0]!r}") from None

    def meridian_image(self) -> np.ndarray:
        return self.image(self.presentation.meridian)

    def longitude_image(self) -> np.ndarray:
        return self.image(self.presentation.longitude)

    def relator_residual(self) -> float:
        """Max over relators of ``max|rho(lhs) - rho(rhs)|``."""
        worst = 0.0
        for lhs, rhs in self.presentation.relators:
            worst = max(worst, float(np.abs(self.image(lhs) - self.image(rhs)).max()))
        return worst


def prefix_images(images: Mapping[str, np.ndarray], word: Word) -> np.ndarray:
    """Prefix images ``P[0] = I``, ``P[i] = P[i-1] @ image(letter i)`` of a
    word, stacked ``(len(word) + 1, 2, 2)``; inverses map to adjugates."""
    letter_entries: dict = {}
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    prefixes = [(a, b, c, d)]
    for letter in word.letters:
        if letter not in letter_entries:
            g, e = letter
            (p, q), (r, s) = np.asarray(images[g], dtype=complex).tolist()
            letter_entries[letter] = (p, q, r, s) if e == 1 else (s, -q, -r, p)
        p, q, r, s = letter_entries[letter]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        prefixes.append((a, b, c, d))
    return np.array(prefixes, dtype=complex).reshape(-1, 2, 2)


def evaluate_word(images: Mapping[str, np.ndarray], word: Word) -> np.ndarray:
    """Evaluate a word in a plain ``{generator: matrix}`` mapping."""
    return prefix_images(images, word)[-1]


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


def riley_family(pres: KnotPresentation, M: complex, tol: float = 1e-8, *,
                 phi: TPoly | None = None) -> list[Representation]:
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
    tolerance ordered by ``im t``.
    """
    M = complex(M)
    if M == 0:
        raise RepresentationError("meridian eigenvalue must be nonzero")
    try:
        mgen, other = _riley_generators(pres)
        if phi is None:
            phi = riley_polynomial(pres, allow_constant=True)
    except ApolyError as exc:
        raise RepresentationError(str(exc)) from exc
    Mi = 1.0 / M
    coeffs = np.array([c.evaluate(1.0, M) for c in phi.coeffs], dtype=complex)
    roots = npp.polyroots(coeffs)
    deriv = npp.polyder(coeffs)
    for _ in range(2):
        d = npp.polyval(roots, deriv)
        # no step where the derivative vanishes (a double root)
        roots = roots - np.divide(npp.polyval(roots, coeffs), d,
                                  out=np.zeros_like(roots), where=d != 0)

    near = lambda z: 1e-6 * max(1.0, abs(z))
    kept = sorted((complex(t) for t in roots), key=lambda z: z.real)
    # real parts equal up to rounding must not decide the order: sort each
    # run of close real parts by imaginary part instead
    kept = [z for run in _runs(kept, lambda u, z: z.real - u.real <= near(z))
            for z in sorted(run, key=lambda z: z.imag)]
    merged = _runs(kept, lambda u, z: abs(z - u) <= near(z))

    out: list[Representation] = []
    for cluster in merged:
        t0 = complex(np.mean(cluster))
        images = {mgen: np.array([[M, 1.0], [0.0, Mi]], dtype=complex),
                  other: np.array([[M, 0.0], [t0, Mi]], dtype=complex)}
        comm = evaluate_word(images, Word([(mgen, 1), (other, 1),
                                           (mgen, -1), (other, -1)]))
        red = bool(abs(np.trace(comm) - 2.0) <= tol * (1.0 + float(np.abs(comm).max())))
        out.append(Representation(pres, images, riley_t=t0, reducible=red))
    return out


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


def _commutation_residual(A: np.ndarray, B: np.ndarray) -> float:
    scale = 1.0 + float(np.abs(A).max()) * float(np.abs(B).max())
    return float(np.abs(A @ B - B @ A).max()) / scale


def commutation_residual(rep: Representation) -> float:
    """Relative commutator residual of the meridian and longitude images."""
    return _commutation_residual(rep.meridian_image(), rep.longitude_image())


def _parabolic_sign(m: np.ndarray) -> complex:
    tr = m[0, 0] + m[1, 1]
    return 1.0 if abs(tr - 2.0) <= abs(tr + 2.0) else -1.0


def is_boundary_parabolic(rep: Representation, tol: float = 1e-8) -> bool:
    """True when the meridian image has trace ±2 but is not ±identity."""
    m = rep.meridian_image()
    s = _parabolic_sign(m)
    tr = m[0, 0] + m[1, 1]
    if abs(tr - 2.0 * s) > tol * (1.0 + abs(tr)):
        return False
    return float(np.abs(m - s * np.eye(2)).max()) > tol


def boundary_data(rep: Representation, tol: float = 1e-8,
                  prefer_large: bool = True) -> BoundaryData:
    """Eigenvalues of the peripheral images on a shared eigenvector.

    For a diagonalizable meridian image the ``|M| >= 1`` eigenvalue branch
    is selected (``prefer_large=False`` selects the reciprocal branch); on
    the unit circle ties break toward nonnegative imaginary part.  The
    eigenvector is normalized so its largest-modulus coordinate is 1.
    """
    m = rep.meridian_image()
    l = rep.longitude_image()
    if _commutation_residual(m, l) > tol:
        raise RepresentationError(
            "peripheral images do not commute; no common eigenvector")
    s = _parabolic_sign(m)
    N = m - s * np.eye(2)
    if float(np.abs(N).max()) <= tol:
        raise RepresentationError(
            "meridian image is ±identity; eigenvector is not determined")

    if is_boundary_parabolic(rep, tol):
        # unique fixed line: kernel of the nilpotent part, read off the
        # larger of its two (proportional) rows
        if max(abs(N[0, 0]), abs(N[0, 1])) >= max(abs(N[1, 0]), abs(N[1, 1])):
            e = np.array([N[0, 1], -N[0, 0]], dtype=complex)
        else:
            e = np.array([N[1, 1], -N[1, 0]], dtype=complex)
        Mval = complex(s)
        parabolic = True
    else:
        evals, evecs = np.linalg.eig(m)
        a0, a1 = abs(evals[0]), abs(evals[1])
        if abs(a0 - a1) > tol * max(a0, a1):
            idx = int(a0 < a1)
        else:  # unit-circle pair (conjugate eigenvalues): prefer im >= 0
            idx = int(evals[0].imag < evals[1].imag)
        if not prefer_large:
            idx = 1 - idx
        Mval = complex(evals[idx])
        e = evecs[:, idx]
        parabolic = False

    k = int(np.argmax(np.abs(e)))
    e = e / e[k]
    le = l @ e
    Lval = complex(le[k] / e[k])
    resid = float(np.abs(le - Lval * e).max())
    if resid > tol * (1.0 + float(np.abs(l).max())):
        raise RepresentationError(
            f"longitude image does not preserve the meridian eigenvector "
            f"(residual {resid:.2e})")
    return BoundaryData(M=Mval, L=Lval, eigenvector=e, parabolic=parabolic)


@dataclass(frozen=True)
class InvariantVector:
    """The common adjoint-fixed row vector of the peripheral images,
    normalized so its largest-modulus coordinate is 1."""

    vector: np.ndarray
    residual_meridian: float
    residual_longitude: float


def peripheral_fixed_space(rep: Representation, tol: float = 1e-8):
    """The adjoint meridian and longitude images ``(Am, Al)`` and an
    orthonormal row basis of the vectors fixed by both."""
    Am, Al = adjoint_of(np.stack([rep.meridian_image(),
                                  rep.longitude_image()]))
    eye = np.eye(3)
    return Am, Al, nullspace(np.vstack([(Am - eye).T, (Al - eye).T]), tol)


def invariant_vector(rep: Representation, tol: float = 1e-8) -> InvariantVector:
    """The unique row vector fixed by both peripheral adjoint images.

    Raises ``RepresentationError`` when the common fixed space does not
    have dimension exactly 1.
    """
    Am, Al, ns = peripheral_fixed_space(rep, tol)
    eye = np.eye(3)
    if ns.shape[0] != 1:
        raise RepresentationError(
            f"peripheral invariant subspace has dimension {ns.shape[0]}, "
            f"expected 1")
    v = ns[0]
    v = v / v[int(np.argmax(np.abs(v)))]
    rm = float(np.abs(v @ (Am - eye)).max()) / (1.0 + float(np.abs(Am).max()))
    rl = float(np.abs(v @ (Al - eye)).max()) / (1.0 + float(np.abs(Al).max()))
    return InvariantVector(vector=v, residual_meridian=rm, residual_longitude=rl)


def parabolic_modulus(rep: Representation, tol: float = 1e-8) -> complex:
    """The cusp translation ratio at a boundary-parabolic representation.

    In a basis where the meridian image is ``[[s, 1], [0, s]]`` (s = ±1),
    the longitude image becomes ``[[eps, beta], [0, eps]]`` with eps = ±1.
    As Möbius maps these translate by ``1/s`` and ``beta/eps``; the modulus
    is the ratio ``(beta/eps)/(1/s)``, invariant under conjugation.
    """
    if not is_boundary_parabolic(rep, tol):
        raise RepresentationError("representation is not boundary-parabolic")
    m = rep.meridian_image()
    l = rep.longitude_image()
    if _commutation_residual(m, l) > tol:
        raise RepresentationError(
            "peripheral images do not commute; modulus undefined")
    s = _parabolic_sign(m)
    N = m - s * np.eye(2)
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    f = e1 if np.linalg.norm(N @ e1) >= np.linalg.norm(N @ e0) else e0
    e = N @ f
    S = np.column_stack([e, f])
    Si = np.linalg.inv(S)
    m2 = Si @ m @ S
    l2 = Si @ l @ S
    scale = 1.0 + float(np.abs(l2).max())
    if abs(l2[1, 0]) > tol * scale or abs(l2[0, 0] - l2[1, 1]) > tol * scale:
        raise RepresentationError(
            "longitude image is not parabolic on the meridian's fixed line")
    return complex((l2[0, 1] / l2[0, 0]) / (m2[0, 1] / m2[0, 0]))


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
