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

EMPTY = b""


class Alphabet:
    """An ordered list of distinct variable names.

    The position in the list doubles as the default precedence: an earlier
    name denotes a larger variable.
    """

    __slots__ = ("symbols", "_index", "_llex")

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must not be empty")
        if len(symbols) != len(set(symbols)):
            raise ValueError("alphabet names must be pairwise distinct")
        if len(symbols) > 255:
            raise ValueError("alphabet is limited to 255 variables")
        for name in symbols:
            if not name or name[0].isdigit() or not all(c.isalnum() or c == "_" for c in name):
                raise ValueError(f"bad variable name: {name!r}")
        self.symbols = symbols
        self._index = {name: k for k, name in enumerate(symbols)}
        self._llex = None

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
        """The length-lexicographic ordering with precedence = alphabet order."""
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
        if not w:
            return "1"
        parts = []
        k = 0
        while k < len(w):
            run = k
            while run < len(w) and w[run] == w[k]:
                run += 1
            name = self.symbols[w[k]]
            parts.append(name if run - k == 1 else f"{name}^{run - k}")
            k = run
        return "*".join(parts)


class LLexOrdering:
    """Length first, ties broken left to right by variable precedence.

    ``precedence`` lists variable names from largest to smallest; it defaults
    to the alphabet order.  ``rev_identity`` is true when ``rev_tbl`` maps
    every byte to itself, as it does when the precedence is the alphabet
    order: then a word is its own reversed-precedence key.
    """

    __slots__ = ("alphabet", "precedence", "_tbl", "rev_tbl", "rev_identity")

    def __init__(self, alphabet: Alphabet, precedence=None):
        self.alphabet = alphabet
        if precedence is None:
            order = list(alphabet.symbols)
        else:
            order = list(precedence)
            if sorted(order) != sorted(alphabet.symbols):
                raise ValueError("precedence must list every variable exactly once")
        self.precedence = tuple(order)
        n = len(alphabet)
        # translate letter -> byte so that a larger variable gets a larger byte
        rank = {alphabet.index(name): pos for pos, name in enumerate(order)}
        tbl = bytearray(range(256))
        for letter in range(n):
            tbl[letter] = n - 1 - rank[letter]
        self._tbl = bytes(tbl)
        # the reverse: a larger variable gets a smaller byte, so ascending
        # (-len(w), w.translate(rev_tbl)) lists words largest first
        for letter in range(n):
            tbl[letter] = rank[letter]
        self.rev_tbl = bytes(tbl)
        self.rev_identity = self.rev_tbl == bytes(range(256))

    def key(self, w: bytes):
        return (len(w), w.translate(self._tbl))

    def compare(self, a: bytes, b: bytes) -> int:
        if len(a) != len(b):
            return -1 if len(a) < len(b) else 1
        if a == b:
            return 0
        return -1 if a.translate(self._tbl) < b.translate(self._tbl) else 1


def overlaps(w1: bytes, w2: bytes) -> list[int]:
    """The offsets d at which w2, starting d letters after w1, agrees with it.

    Only placements that share at least one letter count, so d runs over
    ``-len(w2) < d < len(w1)``; the offsets come back ascending.  For
    identical words d = 0 is the full coincidence and -d mirrors d.

    This is the pairwise form, kept for the benchmark's micro-timings.
    Completion does not call it: it builds whole batches through the affix
    index of :class:`ncgb.engine.BasisState`.
    """
    if not w1 or not w2:
        raise ValueError("overlap enumeration needs non-empty words")
    a, b = len(w1), len(w2)
    # the slices clamp at the word ends, so each side is the shared stretch
    return ([d for d in range(1 - b, 0) if w1[:b + d] == w2[-d:a - d]]
            + [d for d in range(a) if w1[d:d + b] == w2[:a - d]])
