"""Bundled reference presentations with load-time sanity checks."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .presentation import KnotPresentation, parse_presentation
from .representations import RepresentationError, commutation_residuals
from .slope import Route1Plan

_BUILTIN_FILES = {
    "trefoil": "trefoil.txt",
    "figure8": "figure8.txt",
}
_ALIASES = {
    "figure-eight": "figure8",
    "3_1": "trefoil",
    "4_1": "figure8",
}

#: meridian eigenvalue used for the numeric cross-check on load
_CHECK_M = 1.3
_CHECK_TOL = 1e-8


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


def check_presentation(plan: Route1Plan, label: str) -> None:
    """Numeric consistency check of a presentation, through its route-1
    plan, at a reference meridian eigenvalue: every Riley representation
    satisfies the relators and has commuting meridian and longitude
    images.  Raises ``DataError`` prefixed by ``label``."""
    try:
        (ts,), images = plan.riley_images([_CHECK_M])
        if isinstance(ts, RepresentationError):  # the meridian's error
            raise ts
    except RepresentationError as exc:
        raise DataError(f"{label}: {exc}") from exc
    if not ts:
        raise DataError(f"{label}: no Riley representations at M = {_CHECK_M}")
    relator = plan.words.relator_residuals(images)
    commutation = commutation_residuals(*plan.words.peripheral(images))
    for t, resid, comm in zip(ts, relator, commutation):
        if resid > _CHECK_TOL * 10:
            raise DataError(f"{label}: relator residual {resid:.2e} "
                            f"at t = {t}")
        if comm > _CHECK_TOL * 10:
            raise DataError(f"{label}: longitude does not commute with the "
                            f"meridian (relative residual {comm:.2e} at "
                            f"t = {t}); is it only conjugate to a "
                            f"peripheral element?")


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
    check_presentation(Route1Plan(pres), f"builtin {canonical!r}")
    return pres
