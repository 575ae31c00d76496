"""Words, Fox calculus, and the presentation text format."""

from __future__ import annotations

from random import Random

import pytest

from knotslope.presentation import (GroupRingElement, KnotPresentation,
                                    ParseError, PresentationError, Word,
                                    exponent_sum, format_presentation,
                                    format_word, fox_derivative, free_reduce,
                                    parse_presentation, parse_word)

from helpers import random_word, two_bridge_text

TREFOIL = ("gens: u v ;\n"
           "rel: u v u = v u v ;\n"
           "meridian: u ;\n"
           "longitude: v u v^-1 u v u^-3\n")


def naive_reduce(letters):
    """Oracle: cancel adjacent inverse pairs until stable."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i][0] == out[i + 1][0] and out[i][1] == -out[i + 1][1]:
                del out[i:i + 2]
                changed = True
                break
    return tuple(out)


# ---------------------------------------------------------------------------
# words

def test_word_identity_and_basic_ops():
    e = Word.identity()
    assert e.is_identity
    assert len(e.reduced().letters) == 0
    w = Word([("a", 1), ("b", -1)])
    assert not w.is_identity
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity
    assert w ** 0 == Word.identity()
    assert w ** 2 == w * w
    assert w ** -3 == (w.inverse()) ** 3


def test_from_syllables_expands_exponents():
    w = Word.from_syllables([("a", 3), ("b", -2)])
    assert w.letters == (("a", 1), ("a", 1), ("a", 1), ("b", -1), ("b", -1))


def test_reduction_matches_naive_oracle():
    rng = Random(20260817)
    gens = ("a", "b", "c")
    for _ in range(300):
        w = random_word(rng, gens, max_len=12)
        assert w.reduced().letters == naive_reduce(w.letters)
        assert free_reduce(w).letters == naive_reduce(w.letters)


def test_product_and_inverse_against_oracle():
    rng = Random(7)
    gens = ("a", "b")
    for _ in range(200):
        w1 = random_word(rng, gens)
        w2 = random_word(rng, gens)
        assert (w1 * w2).reduced().letters == \
            naive_reduce(w1.letters + w2.letters)
        inv = tuple((g, -e) for g, e in reversed(w1.letters))
        assert w1.inverse().reduced().letters == naive_reduce(inv)


def test_word_equality_is_up_to_reduction():
    w1 = Word([("a", 1), ("b", 1), ("b", -1)])
    w2 = Word([("a", 1)])
    assert w1 == w2
    assert hash(w1) == hash(w2)
    assert len({w1, w2}) == 1


def test_syllables_merges_runs():
    w = Word([("a", 1), ("a", 1), ("b", -1), ("b", -1), ("a", 1)])
    assert list(w.syllables()) == [("a", 2), ("b", -2), ("a", 1)]


def test_exponent_sum():
    rng = Random(99)
    gens = ("a", "b")
    for _ in range(100):
        w = random_word(rng, gens)
        for g in gens:
            expected = sum(e for name, e in w.letters if name == g)
            assert exponent_sum(w, g) == expected


# ---------------------------------------------------------------------------
# group ring and Fox calculus

def test_groupring_ring_axioms():
    rng = Random(5)
    gens = ("a", "b")

    def rand_elt():
        elt = GroupRingElement.zero()
        for _ in range(rng.randrange(0, 4)):
            elt = elt + rng.randrange(-3, 4) * GroupRingElement.from_word(
                random_word(rng, gens, max_len=4))
        return elt

    for _ in range(60):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert (x + y) * z == x * z + y * z
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert x - x == GroupRingElement.zero()
        assert x * GroupRingElement.one() == x


def test_fox_derivative_base_cases():
    a = Word([("a", 1)])
    da = fox_derivative(a, "a")
    assert da == GroupRingElement.one()
    assert fox_derivative(a, "b") == GroupRingElement.zero()
    ainv = a.inverse()
    # d(a^-1) = -a^-1
    assert fox_derivative(ainv, "a") == -1 * GroupRingElement.from_word(ainv)


def test_fox_product_rule():
    rng = Random(11)
    gens = ("a", "b", "c")
    for _ in range(200):
        u = random_word(rng, gens, max_len=6)
        v = random_word(rng, gens, max_len=6)
        g = rng.choice(gens)
        lhs = fox_derivative(u * v, g)
        rhs = fox_derivative(u, g) + \
            GroupRingElement.from_word(u) * fox_derivative(v, g)
        assert lhs == rhs


def test_fox_fundamental_identity():
    # sum_g (dw/dg) (g - 1) = w - 1, exactly, in the group ring
    rng = Random(13)
    gens = ("a", "b")
    for _ in range(200):
        w = random_word(rng, gens, max_len=8)
        total = GroupRingElement.zero()
        for g in gens:
            gw = GroupRingElement.from_word(Word([(g, 1)]))
            total = total + fox_derivative(w, g) * (gw - GroupRingElement.one())
        assert total == GroupRingElement.from_word(w) - GroupRingElement.one()


# ---------------------------------------------------------------------------
# parsing and formatting

def test_parse_trefoil_structure():
    pres = parse_presentation(TREFOIL)
    assert pres.generators == ("u", "v")
    assert len(pres.relators) == 1
    lhs, rhs = pres.relators[0]
    assert lhs == Word([("u", 1), ("v", 1), ("u", 1)])
    assert rhs == Word([("v", 1), ("u", 1), ("v", 1)])
    assert pres.meridian == Word([("u", 1)])
    assert pres.longitude == parse_word("v u v^-1 u v u^-3", pres.generators)
    assert pres.abelianization() == {"u": 1, "v": 1}


def test_format_roundtrip():
    pres = parse_presentation(TREFOIL)
    text = format_presentation(pres)
    again = parse_presentation(text)
    assert again. generators == pres.generators
    assert again.relators == pres.relators
    assert again.meridian == pres.meridian
    assert again.longitude == pres.longitude


@pytest.mark.parametrize("p, q", [(8, 3), (9, 2), (9, 4), (9, 3), (15, 5),
                                  (9, 9), (9, 11)])
def test_two_bridge_text_rejects_what_is_not_an_odd_q_knot(p, q):
    with pytest.raises(ValueError):
        two_bridge_text(p, q)


def test_relator_words():
    pres = parse_presentation(TREFOIL)
    (word,) = pres.relator_words()
    # u v u (v u v)^-1, reduced
    expected = (parse_word("u v u", pres.generators) *
                parse_word("v u v", pres.generators).inverse())
    assert word == expected


def test_format_word_merges_and_identity():
    w = Word([("a", 1), ("a", 1), ("b", -1)])
    assert format_word(w) == "a^2 b^-1"
    assert format_word(Word.identity()) == "1"
    assert parse_word("1", ("a",)) == Word.identity()


def test_parse_word_exponents():
    w = parse_word("a^3 b^-2 a^0", ("a", "b"))
    assert w == Word.from_syllables([("a", 3), ("b", -2)])


def test_abelianization_torus_style_weights():
    text = ("gens: a b ;\n"
            "rel: a^2 = b^3 ;\n"
            "meridian: a b^-1 ;\n"
            "longitude: a^2 b^-3\n")
    pres = parse_presentation(text)
    assert pres.abelianization() == {"a": 3, "b": 2}


def test_multiple_rel_clauses_accumulate():
    text = ("gens: a b ;\n"
            "rel: a = b ;\n"
            "rel: a b = b a ;\n"
            "meridian: a ;\n"
            "longitude: a b^-1\n")
    pres = parse_presentation(text)
    assert len(pres.relators) == 2


# ---------------------------------------------------------------------------
# parse errors

def err(text):
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    return info.value


def test_unknown_generator_reports_position():
    e = err("gens: a ;\nrel: a b = a ;\nmeridian: a ;\nlongitude: 1")
    assert "unknown generator 'b'" in str(e)
    assert e.line == 2
    assert e.column > 1


def test_gens_must_come_first():
    e = err("meridian: a ;\ngens: a ;\nlongitude: a")
    assert "gens clause must come first" in str(e)


def test_duplicate_clauses_rejected():
    e = err("gens: a ;\nmeridian: a ;\nmeridian: a ;\nlongitude: 1")
    assert "duplicate meridian" in str(e)
    e = err("gens: a ;\ngens: a ;\nmeridian: a ;\nlongitude: 1")
    assert "duplicate gens" in str(e) or "must come first" in str(e)


def test_missing_clauses_rejected():
    assert "missing meridian" in str(err("gens: a ;\nlongitude: a"))
    assert "missing longitude" in str(err("gens: a ;\nmeridian: a"))
    assert "missing gens" in str(err(""))


def test_reserved_word_cannot_name_generator():
    e = err("gens: rel b ;\nmeridian: b ;\nlongitude: 1")
    assert "reserved" in str(e)


def test_duplicate_generator_rejected():
    e = err("gens: a a ;\nmeridian: a ;\nlongitude: 1")
    assert "duplicate generator" in str(e)


def test_empty_word_must_stand_alone():
    e = err("gens: a ;\nrel: 1 a = a ;\nmeridian: a ;\nlongitude: 1")
    assert "stand alone" in str(e)
    e = err("gens: a ;\nrel: a 1 = a ;\nmeridian: a ;\nlongitude: 1")
    assert "expected" in str(e)


def test_parse_error_str_carries_position():
    e = err("gens: a ;\nrel: a b = a ;\nmeridian: a ;\nlongitude: 1")
    assert str(e).startswith(f"line {e.line}, column {e.column}:")


# ---------------------------------------------------------------------------
# validation errors (structurally parseable, homologically wrong)

def test_longitude_must_be_nullhomologous():
    text = "gens: u v ;\nrel: u v u = v u v ;\nmeridian: u ;\nlongitude: v"
    with pytest.raises(PresentationError) as info:
        parse_presentation(text)
    assert "nonzero abelianized weight" in str(info.value)


def test_abelianization_underdetermined():
    text = "gens: a b ;\nmeridian: a ;\nlongitude: a b a^-1 b^-1"
    with pytest.raises(PresentationError) as info:
        parse_presentation(text)
    assert "underdetermined" in str(info.value)


def test_abelianization_non_integral():
    text = ("gens: a b ;\nrel: a^2 = b ;\nmeridian: b ;\n"
            "longitude: a^2 b^-1")
    with pytest.raises(PresentationError) as info:
        parse_presentation(text)
    assert "non-integral" in str(info.value)


def test_abelianization_inconsistent():
    text = ("gens: a b ;\nrel: a = b ;\nrel: a = b^2 ;\nmeridian: a ;\n"
            "longitude: a b^-1")
    with pytest.raises(PresentationError) as info:
        parse_presentation(text)
    assert "inconsistent" in str(info.value)


def test_trivial_meridian_rejected():
    text = "gens: a ;\nmeridian: 1 ;\nlongitude: a"
    with pytest.raises(PresentationError) as info:
        parse_presentation(text)
    assert "meridian word is trivial" in str(info.value)


def test_construct_presentation_directly_and_validate():
    pres = KnotPresentation(("a",), (), Word([("a", 1)]), Word([("a", 1)]))
    with pytest.raises(PresentationError):
        pres.validate()  # longitude weight 1
