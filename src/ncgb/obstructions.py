"""Obstructions: aligned placements of two leading words over a common word.

An obstruction pairs generator indices i <= j with cofactor words such
that wi * lw(g_i) * wi2 == wj * lw(g_j) * wj2.  Its S-polynomial is the
difference of the two scaled placements, whose top terms cancel.

A non-trivial obstruction is one in which the placed leading words share
letters, so within the batch of target j it is fixed by the pair (i, d):
the signed offset d = len(wj) - len(wi) at which lw(g_j) starts after
lw(g_i) (see :mod:`ncgb.words`).  With a = len(lw(g_i)) and b =
len(lw(g_j)) the common word has length max(-d, 0) + max(a, b + d), and
the target cofactors are slices of lw(g_i): wj = lw(g_i)[:d] when d > 0,
wj2 = lw(g_i)[d + b:] when d + b < a, and empty otherwise.  So the
truncation bound and the criteria (see :mod:`ncgb.criteria`) decide on
pairs, and an obstruction is (i, d) until it survives them.

:func:`nontrivial_obstructions` finds the pairs of one target j at once.
The containments come from one ``find`` per pair, and only from the
sources at least as long as the target when division's memo of normal
words (``G.normal_words``) shows that no earlier leading word occurs in
the target's.  The proper overlaps come from an index of leading-word
prefixes and suffixes, so their cost follows the number of obstructions
found rather than the number of pairs times the word length.  The pairs
come in discovery order, not sorted: nothing downstream reads their
order.  The criteria decide on cofactor sets, completion selects by
:func:`obstruction_key`, and verification names its failure by that key
too, sorting only the survivors of the batch where one fails.

This module owns that index, held in the basis as ``prefixes`` and
``suffixes``: ``prefixes`` maps each proper prefix of an indexed leading
word to the ascending indices k whose leading word has that prefix, and
``suffixes`` likewise for suffixes.  A key is a ``memoryview`` slice of
the first word that carries the affix.  A slice copies no letters, hashes
like the ``bytes`` affix and compares with it by content, so a lookup
probes with the target's ``bytes`` affix and finds the list of exactly
the words that carry it.  ``bytes`` keys would copy every affix: those of
one word of n letters hold about n**2/2 letters per side (8 MB per side
for n = 4,000), against n - 1 views of fixed size.  So a lookup
emits the whole list, cut at the target by bisection, with no check per
candidate.
The index covers ``leading_words[:indexed]`` and grows only when a target
beyond it is constructed, up to that target.  So no word past the largest
target is indexed: under a bound, verification constructs no target whose
leading word exceeds it, and the reduced basis, which is only printed, is
never indexed at all.  ``indexed`` advances only after a word is fully
indexed: an interrupt can leave the next word partly listed, and
construction after it indexes that word again; a word already last in a
list is not entered twice, so each list stays ascending and free of
repeats.

:func:`build_obstructions` turns the survivors into :class:`Obstruction`
named tuples, which carry the common word and the four cofactors: cheap to
create, immutable and hashable.  The order in which completion selects
them lives in :func:`obstruction_key`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .polynomial import NcPolynomial, normal_coefficient


class Obstruction(NamedTuple):
    i: int
    j: int
    wi: bytes
    wi2: bytes
    wj: bytes
    wj2: bytes
    common: bytes


def obstruction_key(o: Obstruction, ordering):
    """Sort key realizing the obstruction ordering: j-side term, then i-side.

    The common word comes first; then the target index and the target's
    left cofactor, then the source index and its left cofactor.  Both left
    cofactors are prefixes of the common word, so their lengths order them.
    """
    return (ordering.key(o.common), o.j, len(o.wj), o.i, len(o.wi))


def s_polynomial(o: Obstruction, G, ordering):
    """wi g_i wi2 - wj g_j wj2 over a monic basis, built in one pass.

    Both placed leading terms are the common word with coefficient 1 and
    cancel, so only the two stored tails (``G.tails``) are placed: g_i's
    into a fresh dict, then g_j's subtracted from it.  Raises ValueError
    when the obstruction is not aligned over ``G``.
    """
    i, j = o.i, o.j
    lws = G.leading_words
    wi, wi2, wj, wj2 = o.wi, o.wi2, o.wj, o.wj2
    if wi + lws[i] + wi2 != wj + lws[j] + wj2:
        raise ValueError("obstruction is not aligned over this basis")
    tails = G.tails
    out = {wi + u + wi2: c for u, c in tails[i]}
    for u, c in tails[j]:
        w = wj + u + wj2
        old = out.get(w)
        if old is None:
            out[w] = -c
        else:
            acc = old - c
            if acc:
                out[w] = acc if type(acc) is int else normal_coefficient(acc)
            else:
                del out[w]
    return NcPolynomial.from_normal(out)


def nontrivial_obstructions(s: int, G) -> list[tuple[int, int]]:
    """The batch of target s: the offset pair (i, d) of every overlapping
    alignment of a pair (i, s), i <= s, in discovery order.

    One pair per offset d at which lw(g_i) and W = lw(g_s) agree.
    Containments come first, from one ``find`` loop per source, by source.
    Division's memo (``G.normal_words``) may already rule out every
    lw(g_i), i < s, inside W: a count of at least s for W says none of
    them occurs in it, as for every remainder completion appends.  Then
    only W inside a longer or equal lw(g_i) is searched.
    A proper overlap puts a proper prefix of W at the end of lw(g_i)
    (d > 0) or a proper suffix of W at the start of it (d < 0); for each
    affix length k the sources with that prefix of W as a suffix, then
    those with that suffix of W as a prefix, are read off the affix index,
    first extended through s, each list ascending and cut at s.  For i == s
    only positive offsets count: d = 0 is the trivial coincidence and -d
    mirrors d, so s itself takes part only in the suffix lists.  For i < s
    with equal leading words d = 0 is the all-empty alignment.
    """
    lws = G.leading_words
    if not 0 <= s < len(lws):
        raise IndexError("generator index out of range")
    prefixes, suffixes = G.prefixes, G.suffixes
    for k in range(G.indexed, s + 1):
        view = memoryview(lws[k])
        for n in range(1, len(view)):
            _enter(prefixes, view[:n], k)
            _enter(suffixes, view[-n:], k)
        G.indexed = k + 1
    W = lws[s]
    b = len(W)
    if not b:
        return []
    found = []
    # division's memo: a count of at least s says no lw(g_i), i < s, occurs in W
    inside = G.normal_words.get(W, 0) < s
    for i in range(s):
        lw = lws[i]
        if len(lw) >= b:  # W inside lw(g_i) at d
            d = lw.find(W)
            while d != -1:
                found.append((i, d))
                d = lw.find(W, d + 1)
        elif inside and lw:  # lw(g_i) inside W at -d
            pos = W.find(lw)
            while pos != -1:
                found.append((i, -pos))
                pos = W.find(lw, pos + 1)
    for k in range(1, b):
        ks = suffixes.get(W[:k])
        if ks is not None:
            found += [(i, len(lws[i]) - k) for i in ks[:bisect_right(ks, s)]]
        ks = prefixes.get(W[-k:])
        if ks is not None:
            found += [(i, k - b) for i in ks[:bisect_left(ks, s)]]
    return found


def _enter(index, affix, k):
    """File word k under ``affix`` in ``index``, unless it is already last there."""
    ks = index.get(affix)
    if ks is None:
        index[affix] = [k]
    elif ks[-1] != k:
        ks.append(k)


# tuple.__new__ skips the Python-level NamedTuple.__new__ call, about 40%
# of the cost of creating each obstruction
_new = tuple.__new__


def build_obstructions(s: int, G, pairs) -> list[Obstruction]:
    """The obstruction of target s at each offset pair (i, d), in the given order.

    lw(g_i) sits at x = max(-d, 0) and W = lw(g_s) at y = x + d inside the
    common word, which W's letters outside lw(g_i) extend on either side.
    """
    lws = G.leading_words
    W = lws[s]
    b = len(W)
    out = []
    for i, d in pairs:
        lwi = lws[i]
        a = len(lwi)
        x = -d if d < 0 else 0
        y = x + d
        common = W[:x] + lwi + W[a - d:]
        out.append(_new(Obstruction, (i, s, common[:x], common[x + a:],
                                      common[:y], common[y + b:], common)))
    return out
