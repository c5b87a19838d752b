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

Words found normal are remembered in the basis (``G.normal_words``): a
word maps to a count k such that none of the first k leading words
occurs in it.  Leading words are only ever appended, so an entry stays
true as the basis grows, and the divisor scan of a remembered word
starts at k; a word that is still normal costs no scan at all until the
basis gains a generator.  Only remainder words are remembered, never
divisor hits, so dividing by a Groebner basis (every remainder zero)
leaves the memo empty.

A generator is checked for zero only when it is about to be applied:
``BasisState.append`` never admits zero, and a caller that puts one in
by hand gets ``ValueError`` from the step that would use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import islice

from .polynomial import NcPolynomial, add_scaled, leading, normal_coefficient, sandwich


@dataclass
class DivisionResult:
    """Quotient tuples (divisor index, coefficient, left word, right word) and remainder."""

    quotients: list
    remainder: NcPolynomial

    def validate(self, f, G, ordering):
        """Recheck the full division contract against the inputs.

        Raises AssertionError when any clause fails:
        reconstruction of ``f``, remainder support free of leading-word
        factors, no quotient term or remainder above the leading word of
        ``f``, and the minimal-index property of each quotient.
        """
        lws = G.leading_words
        acc = self.remainder
        for i, c, left, right in self.quotients:
            acc = add_scaled(acc, c, sandwich(left, G.generators[i], right))
        if acc != f:
            raise AssertionError("quotients and remainder do not reconstruct the dividend")
        for word in self.remainder.support():
            if any(word.find(lw) >= 0 for lw in lws):
                raise AssertionError("remainder contains a reducible word")
        if f:
            _, top = leading(f, ordering)
            for i, c, left, right in self.quotients:
                placed = left + lws[i] + right
                if ordering.compare(placed, top) > 0:
                    raise AssertionError("quotient term exceeds the dividend's leading word")
                if any(placed.find(lws[k]) >= 0 for k in range(i)):
                    raise AssertionError("quotient does not use the smallest divisor index")
            if self.remainder:
                _, rtop = leading(self.remainder, ordering)
                if ordering.compare(rtop, top) > 0:
                    raise AssertionError("remainder exceeds the dividend's leading word")


def _find_divisor(word, leading_words, start):
    """Smallest divisor index from ``start`` on whose leading word occurs in ``word``, leftmost split."""
    for i, lw in enumerate(islice(leading_words, start, None), start):
        pos = word.find(lw)
        if pos >= 0:
            return i, word[:pos], word[pos + len(lw):]
    return None


def divide(f: NcPolynomial, G, ordering) -> DivisionResult:
    """Divide ``f`` by the basis ``G``, returning quotients and remainder.

    Remainder words are recorded in ``G.normal_words`` (see the module
    docstring).  Raises ValueError when a divisor the rule selects is zero.
    """
    gens = G.generators
    lws = G.leading_words
    n = len(lws)
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
        hit = _find_divisor(word, lws, normal_words.get(word, 0))
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
