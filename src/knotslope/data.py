"""Bundled reference presentations with an exact check on load."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .apoly import ApolyError, TPoly, longitude_commutes, riley_polynomial
from .presentation import KnotPresentation, parse_presentation

_BUILTIN_FILES = {
    "trefoil": "trefoil.txt",
    "figure8": "figure8.txt",
}
_ALIASES = {
    "figure-eight": "figure8",
    "3_1": "trefoil",
    "4_1": "figure8",
}


class DataError(ValueError):
    """A bundled presentation failed its consistency checks."""


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTIN_FILES)


def resolve_builtin(name: str) -> str | None:
    """Canonical builtin name for ``name``, or None if unknown."""
    name = name.strip().lower()
    if name in _BUILTIN_FILES:
        return name
    return _ALIASES.get(name)


def check_presentation(pres: KnotPresentation, label: str,
                       phi: TPoly | None = None) -> None:
    """Exact consistency check of a presentation in Riley form, with its
    Riley polynomial ``phi`` (computed here when not given): it has Riley
    representations, and on each the longitude commutes with the meridian
    (``apoly.longitude_commutes``).  The relators hold there by
    construction, as ``phi`` divides every relator entry.  Raises
    ``DataError`` prefixed by ``label``, also outside Riley form and for
    a ``phi`` that is not monic."""
    try:
        if phi is None:
            phi = riley_polynomial(pres, allow_constant=True)
        if phi.degree < 1:
            raise ApolyError("no Riley representations: the Riley "
                             "polynomial is constant")
        commutes = longitude_commutes(pres, phi)
    except ApolyError as exc:
        raise DataError(f"{label}: {exc}") from exc
    if not commutes:
        raise DataError(f"{label}: longitude does not commute with the meridian; "
                        f"is it only conjugate to a peripheral element?")


@lru_cache(maxsize=None)
def load_builtin(name: str) -> KnotPresentation:
    """Parse a bundled presentation and run ``check_presentation`` on it."""
    canonical = resolve_builtin(name)
    if canonical is None:
        raise DataError(f"unknown builtin presentation {name!r}; "
                        f"available: {', '.join(builtin_names())}")
    text = (resources.files("knotslope") / "_data" / _BUILTIN_FILES[canonical]) \
        .read_text(encoding="utf-8")
    pres = parse_presentation(text)
    check_presentation(pres, f"builtin {canonical!r}")
    return pres
