"""Bundled presentations."""

from __future__ import annotations

import re

import pytest

from knotslope.apoly import (ApolyError, BiLaurent, RileyLocus, TPoly,
                             parse_bilaurent, riley_polynomial)
from knotslope.data import (DataError, builtin_names, check_parsed,
                            check_presentation, load_builtin, resolve_builtin)
from knotslope.presentation import parse_presentation


def test_builtin_names():
    assert builtin_names() == ("trefoil", "figure8")


def test_resolve_aliases():
    assert resolve_builtin("trefoil") == "trefoil"
    assert resolve_builtin("3_1") == "trefoil"
    assert resolve_builtin("figure8") == "figure8"
    assert resolve_builtin("figure-eight") == "figure8"
    assert resolve_builtin("4_1") == "figure8"
    assert resolve_builtin("FIGURE8") == "figure8"
    assert resolve_builtin("granny") is None


def test_load_builtin_validates_and_caches():
    pres = load_builtin("trefoil")
    assert pres.generators == ("u", "v")
    assert load_builtin("trefoil") is pres  # cached
    fig8 = load_builtin("4_1")
    assert fig8.abelianization() == {"u": 1, "v": 1}


def test_load_builtin_unknown():
    with pytest.raises(DataError):
        load_builtin("granny")


def test_check_presentation_refuses_a_phi_that_is_not_monic():
    """A unit multiple of the trefoil's monic ``phi`` is refused, naming its
    leading coefficient, by the ``RileyLocus`` that ``check_presentation``
    reads, before the monic remainder, which reads ``phi``'s last row as 1,
    could give a verdict; ``check_parsed`` reports a presentation whose
    ``phi`` is not monic as a ``DataError`` under its label.  A constant
    ``phi`` has no Riley representations."""
    pres = load_builtin("trefoil")
    phi = riley_polynomial(pres).scale(parse_bilaurent("-M^2"))
    with pytest.raises(ApolyError, match=re.escape("in t is -M^2,")):
        RileyLocus(pres, ("u", "v"), phi)
    non_monic = parse_presentation(
        "gens: a b ; rel: b^-1 a^-1 b a^2 = b^2 a b^-1 a^-1 ; "
        "meridian: a ; longitude: b a b^-1 a^-1")
    with pytest.raises(DataError, match=re.escape(
            "non-monic: Riley polynomial is not monic: its leading "
            "coefficient in t is -M^2 - 1 - M^-2,")):
        check_parsed(non_monic, "non-monic")
    constant = RileyLocus(pres, ("u", "v"),
                          TPoly.constant(parse_bilaurent("M^2 + 1")))
    with pytest.raises(DataError, match="Riley polynomial is constant"):
        check_presentation(constant, "constant")


def test_check_presentation_needs_both_commutation_conditions():
    """The longitude ``u v^-1`` has ``c = -t/M`` and ``e = (M - 1/M)·b - a +
    d = t + M^2 - 1``: modulo ``phi = t + M^2 - 1`` the second vanishes and
    the first does not, so the images do not commute."""
    pres = parse_presentation("gens: u v ; rel: u = v ; meridian: u ; "
                              "longitude: u v^-1")
    phi = TPoly([parse_bilaurent("M^2 - 1"), BiLaurent.one()])
    with pytest.raises(DataError, match="longitude does not commute"):
        check_presentation(RileyLocus(pres, ("u", "v"), phi), "u v^-1")

