"""Words in free groups, Fox calculus, and knot group presentations.

A presentation is given in a small text format, whitespace-insensitive,
with clauses separated by ``;``::

    gens: u v ;
    rel: u v u = v u v ;
    meridian: u ;
    longitude: v u v^-1 u v u^-3

* ``gens:`` declares the generator names (identifiers: a letter or ``_``
  followed by letters, digits, or ``_``).  It must be the first clause.
* Each ``rel:`` clause states one relation ``word = word``.  An empty
  ``rel:`` clause is allowed and contributes nothing.
* ``meridian:`` and ``longitude:`` give the peripheral words; each must
  appear exactly once.
* A word is a sequence of generator tokens, each with an optional integer
  exponent (``u``, ``u^3``, ``v^-2``).  The token ``1`` denotes the empty
  word and must stand alone.

Validation computes the weights ``phi(g)`` of the generators in the
abelianization, normalized so the meridian word has total weight 1. The
weights must be determined, consistent, and integral, and the longitude
must have total weight 0 (the homologically trivial framing).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Mapping


class PresentationError(ValueError):
    """A structurally or homologically invalid presentation."""


class ParseError(PresentationError):
    """Malformed presentation text; carries the offending position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


Letter = tuple[str, int]


class Word:
    """A word in a free group, stored as a tuple of ``(generator, ±1)``.

    Construction performs no cancellation; ``reduced()`` returns the freely
    reduced form.  Equality and hashing compare reduced forms, so e.g.
    ``Word.parse-like`` products can be compared as group elements.
    """

    __slots__ = ("letters", "_reduced")

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple((str(g), int(e)) for g, e in letters)
        for g, e in letters:
            if e not in (1, -1):
                raise ValueError(f"letter exponent must be +1 or -1, got {g}^{e}")
        self.letters = letters
        self._reduced: tuple[Letter, ...] | None = None

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def from_syllables(cls, syllables: Iterable[tuple[str, int]]) -> "Word":
        """Build a word from ``(generator, exponent)`` pairs with any integer
        exponents; ``("u", -3)`` expands to three ``u^-1`` letters."""
        letters: list[Letter] = []
        for g, e in syllables:
            sign = 1 if e > 0 else -1
            letters.extend((g, sign) for _ in range(abs(e)))
        return cls(letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word(base.letters * abs(n))

    def reduced(self) -> "Word":
        """The freely reduced form (adjacent ``g g^-1`` pairs cancelled)."""
        return Word(self._reduced_letters())

    def _reduced_letters(self) -> tuple[Letter, ...]:
        if self._reduced is None:
            stack: list[Letter] = []
            for g, e in self.letters:
                if stack and stack[-1][0] == g and stack[-1][1] == -e:
                    stack.pop()
                else:
                    stack.append((g, e))
            self._reduced = tuple(stack)
        return self._reduced

    @property
    def is_identity(self) -> bool:
        return not self._reduced_letters()

    def generators(self) -> set[str]:
        return {g for g, _ in self.letters}

    def syllables(self) -> list[tuple[str, int]]:
        """Run-length form: consecutive letters of one generator merged."""
        out: list[tuple[str, int]] = []
        for g, e in self.letters:
            if out and out[-1][0] == g:
                out[-1] = (g, out[-1][1] + e)
                if out[-1][1] == 0:
                    out.pop()
            else:
                out.append((g, e))
        return out

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._reduced_letters() == other._reduced_letters()

    def __hash__(self) -> int:
        return hash(self._reduced_letters())

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def free_reduce(word: Word) -> Word:
    """Freely reduce ``word`` (module-level alias of ``Word.reduced``)."""
    return word.reduced()


def exponent_sum(word: Word, gen: str) -> int:
    """Total signed exponent of ``gen`` in ``word``."""
    return sum(e for g, e in word.letters if g == gen)


class GroupRingElement:
    """A finite integer combination of free-group words.

    Keys are stored freely reduced; zero coefficients are dropped.
    Supports the ring operations needed for Fox calculus identities.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, int] | Iterable[tuple[Word, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Word, int] = {}
        for w, c in items:
            w = w.reduced()
            c = acc.get(w, 0) + int(c)
            if c:
                acc[w] = c
            elif w in acc:
                del acc[w]
        self.terms = acc

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def from_word(cls, word: Word, coeff: int = 1) -> "GroupRingElement":
        return cls([(word, coeff)])

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls.from_word(Word.identity())

    def coefficient(self, word: Word) -> int:
        return self.terms.get(word.reduced(), 0)

    def items(self) -> list[tuple[Word, int]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0]._reduced_letters())

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        other = _coerce_groupring(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            c = out.get(w, 0) + c
            if c:
                out[w] = c
            elif w in out:
                del out[w]
        return GroupRingElement(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        other = _coerce_groupring(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_groupring(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "GroupRingElement":
        other = _coerce_groupring(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Word, int] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = (u * v).reduced()
                c = out.get(w, 0) + a * b
                if c:
                    out[w] = c
                elif w in out:
                    del out[w]
        return GroupRingElement(out)

    def __rmul__(self, other) -> "GroupRingElement":
        other = _coerce_groupring(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __eq__(self, other: object) -> bool:
        other = _coerce_groupring(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupRingElement(0)"
        parts = [f"{c}*{format_word(w)!r}" for w, c in self.items()]
        return f"GroupRingElement({' + '.join(parts)})"


def _coerce_groupring(x) -> GroupRingElement:
    if isinstance(x, GroupRingElement):
        return x
    if isinstance(x, Word):
        return GroupRingElement.from_word(x)
    if isinstance(x, int):
        return GroupRingElement.from_word(Word.identity(), x)
    return NotImplemented


def fox_derivative(word: Word, gen: str) -> GroupRingElement:
    """The free (Fox) derivative of ``word`` with respect to ``gen``.

    Characterized by ``d(g)/dg = 1``, ``d(g^-1)/dg = -g^-1``, zero on other
    generators, and the product rule ``d(uv) = du + u dv``.
    """
    terms: list[tuple[Word, int]] = []
    prefix: tuple[Letter, ...] = ()
    for g, e in word.letters:
        if g == gen:
            if e == 1:
                terms.append((Word(prefix), 1))
            else:
                terms.append((Word(prefix + ((g, -1),)), -1))
        prefix = prefix + ((g, e),)
    return GroupRingElement(terms)


@dataclass(frozen=True)
class KnotPresentation:
    """A finitely presented group with distinguished peripheral words.

    ``relators`` holds ``(lhs, rhs)`` pairs, each asserting ``lhs = rhs``.
    Direct construction performs no validation; ``parse_presentation``
    validates, and ``validate()`` may be called explicitly.
    """

    generators: tuple[str, ...]
    relators: tuple[tuple[Word, Word], ...]
    meridian: Word
    longitude: Word

    def relator_words(self) -> tuple[Word, ...]:
        """The relators as single words ``lhs * rhs^-1`` (freely reduced)."""
        return tuple((lhs * rhs.inverse()).reduced() for lhs, rhs in self.relators)

    def abelianization(self) -> dict[str, int]:
        """Integer weights ``phi(g)`` with relator balance and
        ``phi(meridian) = 1``, a fresh dict on each call.  Raises
        ``PresentationError`` when the weights are inconsistent,
        underdetermined, or non-integral, on every call."""
        return dict(self._weights)

    @cached_property
    def _weights(self) -> dict[str, int]:
        """``abelianization``'s weights, solved on first use; an error is not
        cached, so it is raised again."""
        gens = self.generators
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        for lhs_w, rhs_w in self.relators:
            rows.append([Fraction(exponent_sum(lhs_w, g) - exponent_sum(rhs_w, g))
                         for g in gens])
            rhs.append(Fraction(0))
        rows.append([Fraction(exponent_sum(self.meridian, g)) for g in gens])
        rhs.append(Fraction(1))

        n = len(gens)
        pivots: dict[int, int] = {}
        row = 0
        for col in range(n):
            pivot = next((r for r in range(row, len(rows)) if rows[r][col] != 0), None)
            if pivot is None:
                continue
            rows[row], rows[pivot] = rows[pivot], rows[row]
            rhs[row], rhs[pivot] = rhs[pivot], rhs[row]
            inv = 1 / rows[row][col]
            rows[row] = [x * inv for x in rows[row]]
            rhs[row] = rhs[row] * inv
            for r in range(len(rows)):
                if r != row and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[row])]
                    rhs[r] = rhs[r] - f * rhs[row]
            pivots[col] = row
            row += 1
        for r in range(row, len(rows)):
            if rhs[r] != 0:
                raise PresentationError(
                    "abelianization is inconsistent with phi(meridian) = 1")
        if len(pivots) < n:
            free = [gens[c] for c in range(n) if c not in pivots]
            raise PresentationError(
                f"abelianization weights are underdetermined (free: {', '.join(free)})")
        weights: dict[str, int] = {}
        for col, r in pivots.items():
            val = rhs[r]
            if val.denominator != 1:
                raise PresentationError(
                    f"abelianization weight of {gens[col]} is non-integral ({val})")
            weights[gens[col]] = int(val)
        return weights

    def validate(self) -> dict[str, int]:
        """Full structural and homological validation; returns the weights."""
        if not self.generators:
            raise PresentationError("no generators declared")
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator names")
        known = set(self.generators)
        for where, word in self._all_words():
            bad = word.generators() - known
            if bad:
                raise PresentationError(
                    f"unknown generator {sorted(bad)[0]!r} in {where}")
        if self.meridian.is_identity:
            raise PresentationError("meridian word is trivial")
        if self.longitude.is_identity:
            raise PresentationError("longitude word is trivial")
        weights = self.abelianization()
        lw = sum(exponent_sum(self.longitude, g) * weights[g] for g in self.generators)
        if lw != 0:
            raise PresentationError(
                f"longitude has nonzero abelianized weight {lw}; expected the "
                "homologically trivial framing")
        return weights

    def _all_words(self) -> Iterator[tuple[str, Word]]:
        for i, (lhs, rhs) in enumerate(self.relators):
            yield f"relator {i + 1} (lhs)", lhs
            yield f"relator {i + 1} (rhs)", rhs
        yield "meridian", self.meridian
        yield "longitude", self.longitude


# ---------------------------------------------------------------------------
# text format

_KEYWORDS = ("gens", "rel", "meridian", "longitude")

_TOKEN_RE = re.compile(r"[ \t\r]+|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<int>-?[0-9]+)|(?P<punct>[:;^=])")


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "int" | punct char | "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            if m.lastgroup == "name":
                tokens.append(_Token("name", m.group(), lineno, pos + 1))
            elif m.lastgroup == "int":
                tokens.append(_Token("int", m.group(), lineno, pos + 1))
            elif m.lastgroup == "punct":
                tokens.append(_Token(m.group(), m.group(), lineno, pos + 1))
            pos = m.end()
    last_line = text.count("\n") + 1
    tokens.append(_Token("eof", "", last_line, len(text.split("\n")[-1]) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            got = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {what}, got {got}", tok.line, tok.column)
        return self.advance()

    def parse(self) -> KnotPresentation:
        generators: tuple[str, ...] | None = None
        relators: list[tuple[Word, Word]] = []
        meridian: Word | None = None
        longitude: Word | None = None
        first = True
        while self.peek().kind != "eof":
            key = self.expect("name", "a clause keyword")
            if key.text not in _KEYWORDS:
                raise ParseError(f"unknown clause keyword {key.text!r}",
                                 key.line, key.column)
            self.expect(":", "':'")
            if key.text == "gens":
                if generators is not None:
                    raise ParseError("duplicate gens clause", key.line, key.column)
                if not first:
                    raise ParseError("gens clause must come first", key.line, key.column)
                generators = self._parse_gens()
            else:
                if generators is None:
                    raise ParseError("gens clause must come first", key.line, key.column)
                if key.text == "rel":
                    pair = self._parse_relator(generators)
                    if pair is not None:
                        relators.append(pair)
                elif key.text == "meridian":
                    if meridian is not None:
                        raise ParseError("duplicate meridian clause", key.line, key.column)
                    meridian = self._parse_word(generators, required=True)
                else:
                    if longitude is not None:
                        raise ParseError("duplicate longitude clause", key.line, key.column)
                    longitude = self._parse_word(generators, required=True)
            first = False
            if self.peek().kind == ";":
                self.advance()
            elif self.peek().kind != "eof":
                tok = self.peek()
                raise ParseError(f"expected ';' or end of input, got {tok.text!r}",
                                 tok.line, tok.column)
        eof = self.peek()
        if generators is None:
            raise ParseError("missing gens clause", eof.line, eof.column)
        if meridian is None:
            raise ParseError("missing meridian clause", eof.line, eof.column)
        if longitude is None:
            raise ParseError("missing longitude clause", eof.line, eof.column)
        pres = KnotPresentation(generators, tuple(relators), meridian, longitude)
        pres.validate()
        return pres

    def _parse_gens(self) -> tuple[str, ...]:
        names: list[str] = []
        while self.peek().kind == "name":
            tok = self.advance()
            if tok.text in _KEYWORDS:
                raise ParseError(f"{tok.text!r} is reserved and cannot name a generator",
                                 tok.line, tok.column)
            if tok.text in names:
                raise ParseError(f"duplicate generator {tok.text!r}", tok.line, tok.column)
            names.append(tok.text)
        if not names:
            tok = self.peek()
            raise ParseError("expected at least one generator name", tok.line, tok.column)
        return tuple(names)

    def _parse_relator(self, gens: tuple[str, ...]) -> tuple[Word, Word] | None:
        if self.peek().kind in (";", "eof"):
            return None  # empty rel clause
        lhs = self._parse_word(gens, required=True)
        self.expect("=", "'='")
        rhs = self._parse_word(gens, required=True)
        return lhs, rhs

    def _parse_word(self, gens: tuple[str, ...], required: bool) -> Word:
        syllables: list[tuple[str, int]] = []
        start = self.peek()
        if start.kind == "int":
            if start.text != "1":
                raise ParseError(f"unexpected number {start.text!r} in word",
                                 start.line, start.column)
            self.advance()
            nxt = self.peek()
            if nxt.kind in ("name", "int", "^"):
                raise ParseError("the empty word '1' must stand alone",
                                 nxt.line, nxt.column)
            return Word.identity()
        while self.peek().kind == "name":
            tok = self.advance()
            if tok.text not in gens:
                raise ParseError(f"unknown generator {tok.text!r}", tok.line, tok.column)
            exp = 1
            if self.peek().kind == "^":
                self.advance()
                etok = self.expect("int", "an integer exponent")
                exp = int(etok.text)
            syllables.append((tok.text, exp))
        if required and not syllables:
            tok = self.peek()
            raise ParseError("expected a word", tok.line, tok.column)
        return Word.from_syllables(syllables)


def parse_word(text: str, generators: Iterable[str]) -> Word:
    """Parse a single word over the given generators."""
    parser = _Parser(text)
    word = parser._parse_word(tuple(generators), required=True)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return word


def parse_presentation(text: str) -> KnotPresentation:
    """Parse and validate a presentation in the module's text format."""
    return _Parser(text).parse()


def format_word(word: Word) -> str:
    """Render a word; inverse of parsing up to free equality."""
    syllables = word.syllables()
    if not syllables:
        return "1"
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in syllables)


def format_presentation(pres: KnotPresentation) -> str:
    """Render a presentation, one clause per line, parseable back."""
    lines = [f"gens: {' '.join(pres.generators)} ;"]
    for lhs, rhs in pres.relators:
        lines.append(f"rel: {format_word(lhs)} = {format_word(rhs)} ;")
    lines.append(f"meridian: {format_word(pres.meridian)} ;")
    lines.append(f"longitude: {format_word(pres.longitude)}")
    return "\n".join(lines)
