"""Bundled reference presentations with an exact check on load, and the
exact check of a Riley locus (``apoly.RileyLocus``) that files get too."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .apoly import ApolyError, RileyLocus, riley_locus
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


def check_presentation(locus: RileyLocus, label: str) -> None:
    """Exact consistency check of a presentation's Riley ``locus``: it has
    Riley representations, and on each the longitude commutes with the
    meridian (``RileyLocus.commutes``).  The relators hold there by
    construction, as ``phi`` divides every relator entry.  Raises
    ``DataError`` prefixed by ``label``."""
    if locus.phi.degree < 1:
        raise DataError(f"{label}: no Riley representations: the Riley "
                        f"polynomial is constant")
    if not locus.commutes():
        raise DataError(f"{label}: longitude does not commute with the meridian; "
                        f"is it only conjugate to a peripheral element?")


def check_parsed(pres: KnotPresentation, label: str) -> None:
    """``check_presentation`` on ``apoly.riley_locus(pres)``; a presentation
    outside Riley form, or whose ``phi`` is not monic, raises the
    ``ApolyError``'s message as a ``DataError`` prefixed by ``label``."""
    try:
        locus = riley_locus(pres)
    except ApolyError as exc:
        raise DataError(f"{label}: {exc}") from exc
    check_presentation(locus, label)


@lru_cache(maxsize=None)
def load_builtin(name: str) -> KnotPresentation:
    """Parse a bundled presentation and run ``check_parsed`` on it."""
    canonical = resolve_builtin(name)
    if canonical is None:
        raise DataError(f"unknown builtin presentation {name!r}; "
                        f"available: {', '.join(builtin_names())}")
    text = (resources.files("knotslope") / "_data" / _BUILTIN_FILES[canonical]) \
        .read_text(encoding="utf-8")
    pres = parse_presentation(text)
    check_parsed(pres, f"builtin {canonical!r}")
    return pres
