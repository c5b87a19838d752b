"""Division with remainder by a list of monic polynomials.

Each step rewrites the current largest word using the divisor with the
smallest index whose leading word occurs in it (leftmost occurrence when
there are several); words no divisor matches are peeled into the
remainder.  Every step strictly decreases the largest live word, so the
loop terminates.  One loop serves every caller: it always records the
quotients, and :func:`normal_remainder` keeps only the remainder.

The live terms are a word -> coefficient dict plus a max-heap of their
words in the llex order (the simplest form of Yan's geobuckets), so
finding the largest word costs a pop instead of a scan of every live
term.  Deletion is lazy: a word is pushed whenever it enters the dict,
and a popped word that is no longer in the dict was cancelled and is
skipped.  A processed word never comes back, because every word a step
adds is smaller than the one it rewrites.

The divisor of a word is found by a :class:`DivisorIndex` kept on the
basis (``G.divisor_index``): an Aho-Corasick automaton (Aho and
Corasick, 1975) over the first k leading words, where each state holds
the smallest index of a leading word ending there, merged along the
failure links.  One pass over the word gives the smallest occurring
index and, at the first position where it ends, its leftmost
occurrence: exactly the divisor rule.  The leading words appended since,
``leading_words[k:]``, form a short tail that is searched one by one
with ``bytes.find``, only when the automaton misses; every tail index is
at least k, so an automaton hit always wins.  A new leading word can
change the failure links of existing states, so the automaton is not
grown in place: following the logarithmic method (Bentley and Saxe,
1980) it is rebuilt over all leading words once the tail holds more
than ``max(16, k // 4)`` of them, which keeps the total rebuild cost a
constant multiple of the last build.

Words found normal are remembered in the basis (``G.normal_words``): a
word maps to a count c such that none of the first c leading words
occurs in it.  Leading words are only ever appended, so an entry stays
true as the basis grows.  A remembered count below k still runs the
automaton (its answer cannot lie below c); a count of at least k skips
it and searches only ``leading_words[c:]``, so a word that is still
normal costs no search at all until the basis gains a generator.  Only
remainder words are remembered, never divisor hits, so dividing by a
Groebner basis (every remainder zero) leaves the memo empty.

A generator is checked for zero only when it is about to be applied:
``BasisState.append`` never admits zero, and a caller that puts one in
by hand gets ``ValueError`` from the step that would use it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .polynomial import NcPolynomial, normal_coefficient


@dataclass
class DivisionResult:
    """Quotient tuples (divisor index, coefficient, left word, right word) and remainder."""

    quotients: list
    remainder: NcPolynomial


class DivisorIndex:
    """Aho-Corasick automaton over a list of patterns (leading words).

    ``size`` is the number of patterns covered.  A state is a list of
    ``width + 1`` slots: the successor state per column, then the smallest
    index of a pattern that is a suffix of the text read so far (``size``
    when there is none).  Columns are the letters the patterns use, in
    increasing order, then one for every other letter, which leads back to
    the root; ``cols`` translates a word into columns.
    """

    __slots__ = ("size", "lengths", "width", "cols", "root")

    def __init__(self, patterns):
        n = self.size = len(patterns)
        self.lengths = [len(p) for p in patterns]
        letters = sorted(set(b"".join(patterns)))
        other = len(letters)
        w = self.width = other + 1
        table = bytearray([other]) * 256
        for col, letter in enumerate(letters):
            table[letter] = col
        self.cols = cols = bytes(table)
        # trie; None marks a missing edge until the pass below fills it
        root = self.root = [None] * w + [n]
        for k, p in enumerate(patterns):
            s = root
            for c in p.translate(cols):
                t = s[c]
                if t is None:
                    t = s[c] = [None] * w + [n]
                s = t
            if s[w] == n:  # a duplicate keeps the smaller index
                s[w] = k
        # breadth first, so a state's failure state (shallower) is complete:
        # merge its smallest index and take its edges for the missing ones
        queue = deque()
        for c in range(w):
            if root[c] is None:
                root[c] = root
            else:
                queue.append((root[c], root))
        while queue:
            s, fail = queue.popleft()
            if fail[w] < s[w]:
                s[w] = fail[w]
            for c in range(w):
                t = s[c]
                if t is None:
                    s[c] = fail[c]
                else:
                    queue.append((t, fail[c]))

    def search(self, word):
        """(index, left, right) for the smallest pattern index occurring in ``word``.

        ``word = left + pattern + right`` at the pattern's leftmost
        occurrence; None when no pattern occurs.
        """
        w = self.width
        s = self.root
        best = s[w]
        end = pos = 0
        for c in word.translate(self.cols):
            s = s[c]
            pos += 1
            if s[w] < best:
                best = s[w]
                end = pos
        if best == self.size:
            return None
        return best, word[:end - self.lengths[best]], word[end:]


def _find_divisor(word, leading_words, start, index):
    """Smallest divisor index from ``start`` on whose leading word occurs in ``word``, leftmost split.

    ``index`` covers ``leading_words[:index.size]``; the caller guarantees
    that none of ``leading_words[:start]`` occurs in ``word``.
    """
    k = index.size
    if start < k:
        hit = index.search(word)
        if hit is not None:
            return hit
        start = k
    for i in range(start, len(leading_words)):
        lw = leading_words[i]
        pos = word.find(lw)
        if pos >= 0:
            return i, word[:pos], word[pos + len(lw):]
    return None


def divide(f: NcPolynomial, G, ordering) -> DivisionResult:
    """Divide ``f`` by the basis ``G``, returning quotients and remainder.

    Remainder words are recorded in ``G.normal_words``, and
    ``G.divisor_index`` is built or rebuilt when the leading words have
    outgrown it (see the module docstring).  Raises ValueError when a
    divisor the rule selects is zero.
    """
    gens = G.generators
    lws = G.leading_words
    n = len(lws)
    index = G.divisor_index
    # the logarithmic method: rebuild once the tail outgrows a quarter of the index
    if index is None or n - index.size > max(16, index.size // 4):
        index = G.divisor_index = DivisorIndex(lws)
    normal_words = G.normal_words
    rev = ordering.rev_tbl
    v = dict(f.items())
    # ascending (-len, reversed-precedence bytes) pops the largest word first
    heap = [(-len(w), w.translate(rev), w) for w in v]
    heapify(heap)
    remainder = {}
    quotients = []
    while heap:
        word = heappop(heap)[2]
        c = v.get(word)
        if c is None:
            continue
        hit = _find_divisor(word, lws, normal_words.get(word, 0), index)
        if hit is None:
            normal_words[word] = n
            del v[word]
            remainder[word] = normal_coefficient(c)
            continue
        i, left, right = hit
        terms = gens[i].items()
        if not terms:
            raise ValueError("division by a zero polynomial")
        quotients.append((i, c, left, right))  # basis elements are monic
        for u, cu in terms:
            w = left + u + right
            old = v.get(w)
            if old is None:
                v[w] = -c * cu
                heappush(heap, (-len(w), w.translate(rev), w))
            else:
                acc = old - c * cu
                if acc:
                    v[w] = acc
                else:
                    del v[w]
    rem = NcPolynomial.__new__(NcPolynomial)
    rem._terms = remainder
    return DivisionResult(quotients, rem)


def normal_remainder(f: NcPolynomial, G, ordering) -> NcPolynomial:
    """The remainder of :func:`divide`."""
    return divide(f, G, ordering).remainder
