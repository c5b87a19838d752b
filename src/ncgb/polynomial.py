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

from .words import NAME_PATTERN, Alphabet, LLexOrdering

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
        body = " + ".join(f"{c}*{w.hex() or '1'}" for w, c in self._terms.items())
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


# A run is a product of variables with optional integer powers written
# without spaces, ``x1^2*x2*x3^3``: the bulk of a basis file.  It is
# exactly the sequence of name, ``*``, ``^`` and number tokens it spells,
# so it ends wherever one of those would: a power is taken only when no
# further digit or fraction bar follows it.  Numbers are ASCII digits.  A
# token's match takes the whitespace before it, and the index of the group
# that matched is the token's kind.
_FACTOR = rf"{NAME_PATTERN}(?:\^[0-9]+(?![0-9]|\s*/))?"
_TOKEN_RE = re.compile(
    rf"\s*(?:({_FACTOR}(?:\*{_FACTOR})*)|([0-9]+(?:\s*/\s*[0-9]+)?)"
    r"|([-+])|(\*)|(\^)|(\()|(\))|(\S))")
_RUN, _NUM, _SIGN, _TIMES, _CARET, _OPEN, _CLOSE, _BAD = range(1, 9)


def _token(m):
    """(start, text) of the token ``m`` matched; a run stands for its first variable."""
    kind = m.lastindex
    token = m.group(kind)
    if kind == _RUN:
        token = token.partition("*")[0].partition("^")[0]
    return m.start(kind), token


def _error(text, line, message, start=None, token=""):
    """The error of the malformed right-stripped ``text``.

    Its first unexpected character comes first, wherever it stands, as if
    the whole line were tokenized before it is parsed; else ``message``
    at ``start``, or at the end of the input when ``start`` is None.
    """
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m.lastindex == _BAD:
            char = m.group(_BAD)
            return PolynomialSyntaxError(f"unexpected character {char!r}", line,
                                         m.start(_BAD) + 1, char)
        pos = m.end()
    if start is None:
        return PolynomialSyntaxError(message + " (at end of input)", line, len(text) + 1)
    return PolynomialSyntaxError(f"{message}, got {_shown(token)}", line, start + 1, token)


def _number(text, line, m):
    """The coefficient that the number token ``m`` spells."""
    token = m.group(_NUM)
    try:
        return int(token) if "/" not in token else Fraction("".join(token.split()))
    except ZeroDivisionError:
        message = "zero denominator"
    except ValueError:  # the interpreter's limit on digits converted
        message = f"coefficient longer than {sys.get_int_max_str_digits()} digits"
    raise _error(text, line, message, m.start(_NUM), token)


def _repeat(word, digits, text, line, start):
    """``word`` repeated by the exponent ``digits``, which starts at ``start``."""
    # compare digit counts first: int() refuses very long digit strings
    n = digits.lstrip("0") or "0"
    n = int(n) if len(n) <= _POWER_DIGITS else MAX_POWER_LETTERS + 1
    if len(word) * n > MAX_POWER_LETTERS:
        raise _error(text, line, f"power longer than {MAX_POWER_LETTERS} letters", start, digits)
    return word * n


def _spell(run, text, line, start, alphabet, runs):
    """The word of ``run``, which starts at ``start``; memoizes it and its factors.

    Each factor is looked up in ``runs`` too, so a bad one fails where it
    stands, and a run that fails is not memoized.
    """
    word = bytearray()
    for factor in run.split("*"):
        w = runs.get(factor)
        if w is None:
            name, caret, digits = factor.partition("^")
            if name not in alphabet:
                raise _error(text, line, f"undeclared variable {_shown(name)}", start, name)
            w = bytes((alphabet.index(name),))
            if caret:
                w = _repeat(w, digits, text, line, start + len(name) + 1)
            runs[factor] = w
        word += w
        start += len(factor) + 1
    word = runs[run] = bytes(word)
    return word


def parse_polynomial(text: str, alphabet: Alphabet, line: int = 1,
                     runs: dict | None = None) -> NcPolynomial:
    """Parse ``3*a*b^2 - 1/2*(b*a)^2 + 1`` style text.

    One loop reads the tokens left to right, alternating between a factor
    (``expect``) and what may follow one.  Groups nest without recursion:
    ``starts`` holds where each open group began in the term's word, and
    a power replaces the letters from ``power_at`` on: a closed group's,
    or the last variable of a run whose last factor has no power yet
    (``a*b ^ 2``).  A token's column is worked out only for a diagnostic.
    ``runs``, a memo of run and factor text (``x1^2*x2``, ``x1^2``) ->
    word, may be shared by the lines of one file parsed against
    ``alphabet``.
    """
    text = text.rstrip()
    if not text:
        raise PolynomialSyntaxError("empty polynomial", line, 1)
    if runs is None:
        runs = {}
    match, end = _TOKEN_RE.match, len(text)
    coeff, pos = 1, 0
    m = match(text)
    if m.lastindex == _SIGN:
        coeff, pos = -1 if m.group(_SIGN) == "-" else 1, m.end()
    word, terms, starts, power_at, expect = bytearray(), [], [], None, True
    while pos < end:
        m = match(text, pos)
        kind, pos = m.lastindex, m.end()
        if expect:
            if kind == _RUN:
                run = m.group(_RUN)
                word += runs.get(run) or _spell(run, text, line, m.start(_RUN), alphabet, runs)
                power_at = len(word) - 1
                expect = False
            elif kind == _NUM and not starts:
                coeff *= _number(text, line, m)
                power_at = None
                expect = False
            elif kind == _OPEN:
                starts.append(len(word))
            else:
                message = ("expected a coefficient, variable or '('" if not starts
                           else "empty group" if kind == _CLOSE
                           else "only variables may appear inside a group")
                raise _error(text, line, message, *_token(m))
        elif kind == _TIMES:
            expect = True
        elif kind == _SIGN and not starts:
            terms.append((bytes(word), coeff))
            coeff, word, expect = -1 if m.group(_SIGN) == "-" else 1, bytearray(), True
        elif kind == _CLOSE and starts:
            power_at = starts.pop()
            run = ""  # a group takes a power whatever it holds
        elif kind == _CARET and power_at is not None and "^" not in run[run.rfind("*") + 1:]:
            message = "exponent must be a non-negative integer"
            if pos == end:
                raise _error(text, line, message)
            m = match(text, pos)
            pos = m.end()
            if m.lastindex != _NUM or "/" in m.group(_NUM):
                raise _error(text, line, message, *_token(m))
            word[power_at:] = _repeat(word[power_at:], m.group(_NUM), text, line,
                                      m.start(_NUM))
            power_at = None
        else:
            message = ("expected '*' or ')' inside group" if starts
                       else "expected '+' or '-' between terms")
            raise _error(text, line, message, *_token(m))
    if expect or starts:
        message = ("expected a coefficient, variable or '('" if not starts
                   else "unterminated group" if expect
                   else "expected '*' or ')' inside group")
        raise _error(text, line, message)
    terms.append((bytes(word), coeff))
    return NcPolynomial(terms)


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
