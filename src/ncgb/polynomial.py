"""Non-commutative polynomials over the rationals.

A polynomial is a finite map from words to non-zero rational
coefficients.  A coefficient is an ``int`` while it is integral and a
``Fraction`` otherwise (see :func:`normal_coefficient`): integer
arithmetic is several times faster than ``Fraction`` arithmetic, and the
corpus ideals have integer coefficients throughout.  All arithmetic is
exact; there is no floating point anywhere, so coefficients are divided
only through ``Fraction(c, d)``, never with ``/``.  The text syntax
shared with the command line lives here as ``parse_polynomial`` /
``format_polynomial``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .words import Alphabet, LLexOrdering

# Longest word a single ``^`` power may spell; larger powers are rejected
# before the repeated word is built.
MAX_POWER_LETTERS = 65536
_POWER_DIGITS = len(str(MAX_POWER_LETTERS))

# Longest token a syntax error echoes; a longer one is cut and ends in "…".
_SHOWN_CHARS = 20


def normal_coefficient(c):
    """``c`` as an ``int`` when it is integral, otherwise as a ``Fraction``."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class NcPolynomial:
    """A finitely supported word -> coefficient map; treat instances as immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for word, coeff in items:
                coeff = normal_coefficient(coeff)
                if not coeff:
                    continue
                acc = data.get(word, 0) + coeff
                if acc:
                    data[word] = normal_coefficient(acc)
                else:
                    del data[word]
        self._terms = data

    @classmethod
    def from_normal(cls, terms: dict) -> "NcPolynomial":
        """The polynomial whose word -> coefficient map is ``terms``, taken as is.

        The trusted constructor: every coefficient must already be normal
        (see :func:`normal_coefficient`) and non-zero, as this package's
        arithmetic keeps them.  ``terms`` is not copied, so the caller
        hands it over and must not change it afterwards.
        """
        f = cls.__new__(cls)
        f._terms = terms
        return f

    def items(self):
        return self._terms.items()

    def support(self):
        return self._terms.keys()

    def coefficient(self, word: bytes):
        return self._terms.get(word, 0)

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(len(w) for w in self._terms)

    def is_homogeneous(self) -> bool:
        return len({len(w) for w in self._terms}) <= 1

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return isinstance(other, NcPolynomial) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "NcPolynomial(0)"
        body = " + ".join(f"{c}*{w.hex() or 'l'}" for w, c in self._terms.items())
        return f"NcPolynomial({body})"


def leading(f: NcPolynomial, ordering: LLexOrdering):
    """The (coefficient, word) pair of the largest support word of ``f``."""
    if not f:
        raise ValueError("the zero polynomial has no leading term")
    word = max(f.support(), key=ordering.key)
    return f.coefficient(word), word


def sandwich(left: bytes, f: NcPolynomial, right: bytes) -> NcPolynomial:
    """The two-sided product left * f * right."""
    if not left and not right:
        return f
    # w -> left + w + right is injective and the coefficients are already
    # normal, so the terms need no re-normalising
    return NcPolynomial.from_normal({left + w + right: c for w, c in f.items()})


def add_scaled(f: NcPolynomial, scalar, g: NcPolynomial) -> NcPolynomial:
    """f + scalar * g with zero coefficients dropped."""
    scalar = normal_coefficient(scalar)
    out = dict(f.items())
    if scalar:
        for w, c in g.items():
            acc = out.get(w, 0) + scalar * c
            if acc:
                out[w] = acc if type(acc) is int else normal_coefficient(acc)
            else:
                del out[w]
    return NcPolynomial.from_normal(out)


def make_monic(f: NcPolynomial, ordering: LLexOrdering) -> NcPolynomial:
    """Scale ``f`` so its leading coefficient becomes 1."""
    lc, _ = leading(f, ordering)
    if lc == 1:
        return f
    return NcPolynomial({w: Fraction(c, lc) for w, c in f.items()})


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------

class PolynomialSyntaxError(ValueError):
    """Malformed polynomial text; carries the position and offending token."""

    def __init__(self, message, line=1, column=1, token=""):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.token = token


def _shown(text):
    """``repr`` of a token, cut to a short prefix so a diagnostic stays short."""
    return repr(text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "…")


_NAME = r"[A-Za-z_]\w*"
# A run is a product of variables with optional integer powers written
# without spaces, ``x1^2*x2*x3^3``: the bulk of a basis file.  It is
# exactly the sequence of name, ``*``, ``^`` and num tokens it spells, so it
# ends wherever one of those would: a power is taken only when no further
# digit or fraction bar follows it.
_TOKEN_RE = re.compile(
    rf"(?P<run>{_NAME}(?:\^\d+(?!\d|\s*/))?(?:\*{_NAME}(?:\^\d+(?!\d|\s*/))?)*)"
    r"|(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<op>[-+*^()])|(?P<bad>\S)")


def _tokenize(text, line):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        col = m.start() + 1
        if m.lastgroup == "bad":
            raise PolynomialSyntaxError(
                f"unexpected character {m.group()!r}", line, col, m.group())
        tokens.append((m.lastgroup, m.group(), col))
    return tokens


class _Parser:
    def __init__(self, tokens, alphabet, line, factors):
        self.tokens = tokens
        self.alphabet = alphabet
        self.line = line
        self.factors = factors
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, "", 0)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        kind, text, col = tok if tok is not None else self.peek()
        if kind == "run":  # the error is at its first variable
            text = text.partition("*")[0].partition("^")[0]
        if kind is None:
            col = self.tokens[-1][2] + len(self.tokens[-1][1]) if self.tokens else 1
            raise PolynomialSyntaxError(message + " (at end of input)", self.line, col)
        raise PolynomialSyntaxError(f"{message}, got {_shown(text)}", self.line, col, text)

    def parse(self):
        terms = []
        sign = 1
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.next()
            sign = -1 if text == "-" else 1
        while True:
            coeff, word = self.term()
            terms.append((word, sign * coeff))
            kind, text, _ = self.peek()
            if kind is None:
                break
            if kind == "op" and text in "+-":
                self.next()
                sign = -1 if text == "-" else 1
            else:
                self.fail("expected '+' or '-' between terms")
        return NcPolynomial(terms)

    def term(self):
        coeff, word = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.next()
                c, w = self.factor()
                coeff *= c
                word += w
            else:
                return coeff, word

    def factor(self):
        kind, text, col = self.next()
        if kind == "num":
            try:
                if "/" not in text:
                    return int(text), b""
                return Fraction("".join(text.split())), b""
            except ZeroDivisionError:
                self.fail("zero denominator", (kind, text, col))
            except ValueError:  # the interpreter's limit on digits converted
                self.fail(f"coefficient longer than {sys.get_int_max_str_digits()} digits",
                          (kind, text, col))
        if kind == "run":
            return 1, self.run(text, col)
        if kind == "op" and text == "(":
            return 1, self.power(self.group_word())
        self.fail("expected a coefficient, variable or '('", (kind, text, col))

    def run(self, text, col):
        """The word a run token spells.

        Each factor is spelled once per memo ``self.factors``, so a bad
        one fails where it stands.  A power that follows the run after a
        space (``a*b ^ 2``) belongs to its last variable, unless that
        variable already carries one.
        """
        factors = self.factors
        word = bytearray()
        for factor in text.split("*"):
            w = factors.get(factor)
            if w is None:
                w = factors[factor] = self.spell(factor, col)
            word += w
            col += len(factor) + 1
        tokens, pos = self.tokens, self.pos
        if "^" in factor or pos == len(tokens) or tokens[pos][1] != "^":
            return bytes(word)
        return bytes(word[:-1]) + self.power(bytes(word[-1:]))

    def spell(self, factor, col):
        """The word of one factor, ``name`` or ``name^digits``, at column ``col``."""
        name, caret, digits = factor.partition("^")
        if name not in self.alphabet:
            self.fail(f"undeclared variable {_shown(name)}", ("name", name, col))
        word = bytes((self.alphabet.index(name),))
        return self.repeat(word, ("num", digits, col + len(name) + 1)) if caret else word

    def group_word(self):
        """The body of a parenthesized subword: variables and groups only.

        Groups nest without recursion, so any depth the input spells
        parses: the letters go into one buffer, ``starts`` holds where each
        open inner group began in it, and a power replaces its group's
        letters when the group closes.
        """
        word = bytearray()
        starts = []
        expect_factor = True
        while True:
            kind, text, col = self.next()
            if kind == "op" and text == ")":
                if expect_factor:
                    self.fail("empty group", (kind, text, col))
                if not starts:
                    return bytes(word)
                start = starts.pop()
                kind, text, _ = self.peek()
                if kind == "op" and text == "^":
                    word[start:] = self.power(bytes(word[start:]))
                continue
            if not expect_factor:
                if kind == "op" and text == "*":
                    expect_factor = True
                    continue
                self.fail("expected '*' or ')' inside group", (kind, text, col))
            if kind == "run":
                word += self.run(text, col)
            elif kind == "op" and text == "(":
                starts.append(len(word))
                continue
            elif kind is None:
                self.fail("unterminated group", (kind, text, col))
            else:
                self.fail("only variables may appear inside a group", (kind, text, col))
            expect_factor = False

    def power(self, word):
        """``word`` raised to the exponent that follows, if any."""
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            tok = self.next()
            if tok[0] != "num" or "/" in tok[1]:
                self.fail("exponent must be a non-negative integer", tok)
            return self.repeat(word, tok)
        return word

    def repeat(self, word, tok):
        """``word`` repeated by the exponent of the num token ``tok``."""
        # compare digit counts first: int() refuses very long digit strings
        digits = tok[1].lstrip("0") or "0"
        n = int(digits) if len(digits) <= _POWER_DIGITS else MAX_POWER_LETTERS + 1
        if len(word) * n > MAX_POWER_LETTERS:
            self.fail(f"power longer than {MAX_POWER_LETTERS} letters", tok)
        return word * n


def parse_polynomial(text: str, alphabet: Alphabet, line: int = 1,
                     factors: dict | None = None) -> NcPolynomial:
    """Parse ``3*a*b^2 - 1/2*(b*a)^2 + 1`` style text.

    ``factors``, a memo of factor text (``x1^2``) -> word, may be shared
    by the lines of one file parsed against ``alphabet``.
    """
    tokens = _tokenize(text, line)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial", line, 1)
    return _Parser(tokens, alphabet, line, {} if factors is None else factors).parse()


def format_polynomial(f: NcPolynomial, alphabet: Alphabet, ordering: LLexOrdering) -> str:
    """Render with terms in decreasing order; parses back to the same polynomial."""
    if not f:
        return "0"
    parts = []
    terms = sorted(f.items(), key=lambda kv: ordering.key(kv[0]), reverse=True)
    for k, (word, coeff) in enumerate(terms):
        mag = abs(coeff)
        if not word:
            body = str(mag)
        elif mag == 1:
            body = alphabet.word_to_text(word)
        else:
            body = f"{mag}*{alphabet.word_to_text(word)}"
        if k == 0:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(parts)
