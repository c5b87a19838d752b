"""Words over a finite alphabet: the free monoid everything else is built on.

A word is a ``bytes`` object whose entries are letter indices into an
:class:`Alphabet`; the empty word is ``b""`` and concatenation is ``+``.
Keeping words as index sequences in ``bytes`` form makes comparison,
concatenation and factor search integer operations that run at C speed.

Two words placed over a common word are described by one signed offset:
``d`` means the second starts ``d`` letters after the first, so a negative
``d`` puts it first.  :func:`overlaps` lists the offsets at which the two
agree on a shared stretch; suffix/prefix overlaps and containments in
either direction are all just offsets.
"""

from __future__ import annotations

import re

EMPTY = b""

# A variable name.  The polynomial tokenizer reads names by this pattern
# too, so every name an alphabet accepts can be spelled in a generator.
NAME_PATTERN = r"[A-Za-z_]\w*"


class Alphabet:
    """An ordered list of distinct variable names, largest variable first.

    The list is the precedence: letter k, the byte k in a word, is the
    k-th largest variable.  So every word has one encoding, and among
    words of one length the largest has the smallest bytes.

    :meth:`word_to_text` remembers the text of every word it renders.  A
    problem's alphabet is parsed once per run, so the memo lives as long
    as that run, and printing a basis renders each distinct word once.
    """

    __slots__ = ("symbols", "_index", "_llex", "_text")

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must not be empty")
        if len(symbols) != len(set(symbols)):
            raise ValueError("alphabet names must be pairwise distinct")
        if len(symbols) > 255:
            raise ValueError("alphabet is limited to 255 variables")
        for name in symbols:
            if not re.fullmatch(NAME_PATTERN, name):
                raise ValueError(f"bad variable name: {name!r}")
        self.symbols = symbols
        self._index = {name: k for k, name in enumerate(symbols)}
        self._llex = None
        self._text = {EMPTY: "1"}

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({' '.join(self.symbols)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    @property
    def llex(self) -> "LLexOrdering":
        """The length-lexicographic ordering of this alphabet."""
        if self._llex is None:
            self._llex = LLexOrdering(self)
        return self._llex

    def word(self, text) -> bytes:
        """Build a word from ``'a*b^2*a'`` style text or a list of names.

        When every symbol is a single character, compact text like ``'aba'``
        is accepted too.  ``'1'`` and ``''`` denote the empty word.
        """
        if not isinstance(text, str):
            return bytes(self._index[name] for name in text)
        text = text.replace(" ", "")
        if text in ("", "1"):
            return EMPTY
        letters = []
        for token in text.split("*"):
            name, _, power = token.partition("^")
            exp = int(power) if power else 1
            if name in self._index:
                letters.extend([self._index[name]] * exp)
            elif all(c in self._index for c in name):
                # compact run of single-character names; the power binds to
                # the last character
                for c in name[:-1]:
                    letters.append(self._index[c])
                letters.extend([self._index[name[-1]]] * exp)
            else:
                raise KeyError(f"unknown variable {name!r}")
        return bytes(letters)

    def word_to_text(self, w: bytes) -> str:
        """Render a word with powers collapsed, e.g. ``a^2*b``; the empty word is ``1``."""
        text = self._text.get(w)
        if text is not None:
            return text
        parts = []
        k = 0
        while k < len(w):
            run = k
            while run < len(w) and w[run] == w[k]:
                run += 1
            name = self.symbols[w[k]]
            parts.append(name if run - k == 1 else f"{name}^{run - k}")
            k = run
        text = self._text[w] = "*".join(parts)
        return text


class LLexOrdering:
    """Length first, ties broken left to right by variable precedence.

    The precedence is the alphabet order, letter 0 largest, so among words
    of one length the largest has the smallest bytes.  ``key`` flips every
    letter through one table, so that a larger word gets a larger key.
    """

    __slots__ = ("alphabet", "_tbl")

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        n = len(alphabet)
        tbl = bytearray(range(256))
        tbl[:n] = range(n - 1, -1, -1)
        self._tbl = bytes(tbl)

    def key(self, w: bytes):
        return (len(w), w.translate(self._tbl))


def overlaps(w1: bytes, w2: bytes) -> list[int]:
    """The offsets d at which w2, starting d letters after w1, agrees with it.

    Only placements that share at least one letter count, so d runs over
    ``-len(w2) < d < len(w1)``; the offsets come back ascending.  For
    identical words d = 0 is the full coincidence and -d mirrors d.

    This is the pairwise form, kept for the benchmark's micro-timings.
    Completion does not call it: :mod:`ncgb.obstructions` finds a whole
    batch through its affix index, one dict per side keyed by views of the
    leading words.
    """
    if not w1 or not w2:
        raise ValueError("overlap enumeration needs non-empty words")
    a, b = len(w1), len(w2)
    # the slices clamp at the word ends, so each side is the shared stretch
    return ([d for d in range(1 - b, 0) if w1[:b + d] == w2[-d:a - d]]
            + [d for d in range(a) if w1[d:d + b] == w2[:a - d]])
