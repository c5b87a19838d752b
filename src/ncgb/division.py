"""Division with remainder by a list of monic polynomials.

Each step rewrites the current largest word using the divisor with the
smallest index whose leading word occurs in it (leftmost occurrence when
there are several); words no divisor matches are peeled into the
remainder.  Every step strictly decreases the largest live word, so the
loop terminates.  One loop, :func:`normal_remainder`, serves every caller,
and it returns only the remainder: no caller reads how ``f`` was
rewritten, so no step records it.

Division reads only facts the basis already holds: the leading words,
the divisor index, and each generator's tail (``G.tails``, its terms
but the leading one).  Every word is over the ordering's alphabet, as
every basis and dividend built from one problem is.

The live terms are a word -> coefficient dict plus, for each word
length, a heap of bare words (the simplest form of Yan's geobuckets), so
finding the largest word costs a pop instead of a scan of every live
term.  The alphabet order is the precedence, so among words of one
length the largest has the smallest bytes, and a heap's smallest entry is
its largest word.  The heaps are kept in a dict keyed by length and
worked through longest first; the next length is the largest key left,
read off the dict without touching the live terms.  A step adds only
words no longer than the one it rewrites: one of the current length goes
onto the current heap, a shorter one onto the heap of its own length.
Deletion is lazy: a word is pushed whenever it enters the dict, and a
popped word that is no longer in the dict was cancelled and is skipped.
A popped word leaves the dict at once: the divisor is monic, so its
placed leading term cancels the word exactly, and a step places only the
divisor's stored tail.  A processed word never comes back, because every
word a step adds is smaller than the one it rewrites.

The divisor of a word is found with an Aho-Corasick automaton (Aho and
Corasick, 1975) kept on the basis (``G.divisor_index``, a
:class:`DivisorIndex`) over the first k leading words, where each state
holds the smallest index of a leading word ending there, merged along
the failure links.  It has one column per letter of the alphabet, so a
letter is its own column.  :meth:`DivisorIndex.first` makes one pass
over the word's bytes, starting from the root's own index (an empty
leading word ends at position 0) and stopping early at index 0, and
gives the smallest occurring index; ``bytes.find`` then gives that
leading word's leftmost occurrence: exactly the divisor rule.  The
division loop calls ``first`` like every other caller, and only the
class reads its states, so a new state layout changes one class.  The
leading words appended since, ``leading_words[k:]``, form a short tail
that is searched one by one with ``bytes.find``, only when the automaton
misses; every tail index is at least k, so an automaton hit always wins.
A new leading word can change the failure links of existing states, so
the automaton is not grown in place: following the logarithmic method
(Bentley and Saxe, 1980) it is rebuilt over all leading words once the
tail holds more than ``max(16, k // 4)`` of them, which keeps the total
rebuild cost a constant multiple of the last build.  Its states form
cycles (a missing edge points back to a shallower state, and the root to
itself), so reference counting alone never frees a dropped automaton.
The automaton lists each state as it creates it, and
:meth:`DivisorIndex.clear` empties the listed states in one pass, with
no walk of the cyclic graph.  Each rebuild clears the automaton it
replaces, and only after the new one is stored in ``G.divisor_index``,
so an interrupt during the build leaves the old automaton there and
usable.  A basis that is done with division drops its last automaton
through :func:`release_divisor_index`, which unhooks it before it clears
it, so an interrupt during the clear never leaves a half-cleared
automaton stored.

Words found normal are remembered in the basis (``G.normal_words``): a
word maps to a count c such that none of the first c leading words
occurs in it.  Leading words are only ever appended, so an entry stays
true as the basis grows.  A remembered count below k still runs the
automaton (its answer cannot lie below c); a count of at least k skips
it and searches only ``leading_words[c:]``, so a word that is still
normal costs no search at all until the basis gains a generator.  Only
remainder words are remembered, never divisor hits, so dividing by a
Groebner basis (every remainder zero) leaves the memo empty.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush

from .polynomial import NcPolynomial, normal_coefficient


class DivisorIndex:
    """Aho-Corasick automaton over a list of patterns (leading words).

    ``size`` is the number of patterns covered and ``width`` the number of
    letters in the alphabet, so a letter is its own column and a word over
    the alphabet is walked byte by byte.  A state is a list of ``width +
    1`` slots: the successor state per letter, then the smallest index of
    a pattern that is a suffix of the text read so far (``size`` when
    there is none).  ``states`` lists every state, the root first, in the
    order the build creates them.  Only this class's methods read a
    state's slots: callers ask :meth:`first`, and empty a dropped
    automaton with :meth:`clear`.
    """

    __slots__ = ("size", "width", "root", "states")

    def __init__(self, patterns, width):
        n = self.size = len(patterns)
        w = self.width = width
        # trie; None marks a missing edge until the pass below fills it
        root = self.root = [None] * w + [n]
        states = self.states = [root]
        for k, p in enumerate(patterns):
            s = root
            for c in p:
                t = s[c]
                if t is None:
                    t = s[c] = [None] * w + [n]
                    states.append(t)
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

    def first(self, word):
        """The smallest index of a pattern that occurs in ``word``; ``size`` when none does."""
        w = self.width
        s = self.root
        # an empty pattern ends at the root; index 0 cannot be beaten
        i = s[w]
        for letter in word:
            s = s[letter]
            if s[w] < i:
                i = s[w]
                if not i:
                    break
        return i

    def clear(self):
        """Empty the states listed at build time, then the list.

        The automaton is unusable afterwards.  A missing edge points back
        to a shallower state, and the root to itself, so the states form
        cycles: emptied, they are freed by reference counting instead of
        waiting for a full garbage collection.
        """
        for s in self.states:
            s.clear()
        self.states.clear()


def release_divisor_index(G):
    """Drop ``G``'s divisor automaton: unhook it from ``G``, then clear it.

    Division builds a new one on its next call.  Unhooked first, an
    automaton that an interrupt leaves half cleared is no longer stored.
    """
    index, G.divisor_index = G.divisor_index, None
    if index is not None:
        index.clear()


def normal_remainder(f: NcPolynomial, G, ordering) -> NcPolynomial:
    """The remainder of ``f`` divided by the basis ``G``.

    Remainder words are recorded in ``G.normal_words``, and
    ``G.divisor_index`` is built or rebuilt when the leading words have
    outgrown it; a rebuild clears the automaton it replaces (see the
    module docstring).
    """
    tails = G.tails
    lws = G.leading_words
    n = len(lws)
    index = G.divisor_index
    # the logarithmic method: rebuild once the tail outgrows a quarter of the index
    if index is None or n - index.size > max(16, index.size // 4):
        # stored before the old one is cleared: an interrupt in the build keeps that
        G.divisor_index = DivisorIndex(lws, len(ordering.alphabet))
        if index is not None:
            index.clear()
        index = G.divisor_index
    k = index.size
    first = index.first
    normal_words = G.normal_words
    # one heap of bare words per length: among words of one length the
    # smallest bytes is the largest word, so each pop gives the llex order
    v = dict(f.items())
    heaps = {}
    for w in v:
        heaps.setdefault(len(w), []).append(w)
    for heap in heaps.values():
        heapify(heap)
    remainder = {}
    while heaps:
        length = max(heaps)
        heap = heaps.pop(length)
        while heap:
            word = heappop(heap)
            # the step below cancels the word exactly, so it leaves the live set now
            c = v.pop(word, None)
            if c is None:
                continue
            i = normal_words.get(word, 0)
            if i < k:
                i = first(word)
            if i < k:
                lw = lws[i]
                pos = word.find(lw)
            else:
                # the memo or the automaton ruled out every index below i
                for i in range(i, n):
                    lw = lws[i]
                    pos = word.find(lw)
                    if pos >= 0:
                        break
                else:
                    normal_words[word] = n
                    remainder[word] = normal_coefficient(c)
                    continue
            left = word[:pos]
            right = word[pos + len(lw):]
            for u, cu in tails[i]:
                w = left + u + right
                old = v.get(w)
                if old is None:
                    v[w] = -c * cu
                    if len(w) == length:
                        heappush(heap, w)
                    else:  # shorter, so onto the heap of its own length
                        heappush(heaps.setdefault(len(w), []), w)
                else:
                    acc = old - c * cu
                    if acc:
                        v[w] = acc
                    else:
                        del v[w]
    return NcPolynomial.from_normal(remainder)
