"""Obstructions: aligned placements of two leading words over a common word.

An obstruction pairs generator indices i <= j with cofactor words such
that wi * lw(g_i) * wi2 == wj * lw(g_j) * wj2.  Its S-polynomial is the
difference of the two scaled placements, whose top terms cancel.

A non-trivial obstruction is one in which the placed leading words share
letters, so it is fixed by (i, j, d): the signed offset d =
len(wj) - len(wi) at which lw(g_j) starts after lw(g_i) (see
:mod:`ncgb.words`).  The common word is the union of the two placements,
and the four cofactors are what it leaves on either side of each copy.

Construction builds the whole batch of one target j at once.  The
containments come from one ``find`` per pair; the proper overlaps from the
basis's index of leading-word prefixes and suffixes
(``BasisState.by_prefix`` and ``by_suffix``), so their cost follows the
number of obstructions found rather than the number of pairs times the
word length.  An obstruction is a named tuple: cheap to create, immutable
and hashable.  The batch lists its pairs by source index and each pair's
obstructions by ascending offset; the order in which completion selects
them lives in :func:`obstruction_key`.
"""

from __future__ import annotations

from typing import NamedTuple

from .polynomial import add_scaled, sandwich


class Obstruction(NamedTuple):
    i: int
    j: int
    wi: bytes
    wi2: bytes
    wj: bytes
    wj2: bytes
    common: bytes

    def __repr__(self):
        def w(b):
            return b.hex() or "1"
        return (f"o[{self.i},{self.j}]({w(self.wi)},{w(self.wi2)};"
                f"{w(self.wj)},{w(self.wj2)})")


def obstruction_key(o: Obstruction, ordering):
    """Sort key realizing the obstruction ordering: j-side term, then i-side.

    The common word comes first; then the target index and the target's
    left cofactor, then the source index and its left cofactor.  Both left
    cofactors are prefixes of the common word, so their lengths order them.
    """
    return (ordering.key(o.common), o.j, len(o.wj), o.i, len(o.wi))


def s_polynomial(o: Obstruction, G, ordering):
    """wi g_i wi2 - wj g_j wj2 over a monic basis; the common top term cancels."""
    lws = G.leading_words
    if o.wi + lws[o.i] + o.wi2 != o.wj + lws[o.j] + o.wj2:
        raise ValueError("obstruction is not aligned over this basis")
    return add_scaled(sandwich(o.wi, G.generators[o.i], o.wi2), -1,
                      sandwich(o.wj, G.generators[o.j], o.wj2))


# tuple.__new__ skips the Python-level NamedTuple.__new__ call, about 40%
# of the cost of creating each obstruction
_new = tuple.__new__


def nontrivial_obstructions(s: int, G) -> list[Obstruction]:
    """The batch of target s: every overlapping alignment of a pair (i, s), i <= s.

    Listed by source index i, each pair's by ascending offset d, one per
    offset at which lw(g_i) and W = lw(g_s) agree.  Containments come from
    one ``find`` loop per source; a proper overlap puts a proper prefix of
    W at the end of lw(g_i) (d > 0) or a proper suffix of W at the start
    of it (d < 0), and the sources with that affix are read off the
    basis's affix index.  For i == s only positive offsets count: d = 0 is
    the trivial coincidence and -d mirrors d.  For i < s with equal
    leading words d = 0 is the all-empty alignment.
    """
    lws = G.leading_words
    if not 0 <= s < len(lws):
        raise IndexError("generator index out of range")
    W = lws[s]
    b = len(W)
    if not b:
        return []
    found = []
    for i in range(s + 1):
        lw = lws[i]
        if len(lw) >= b:  # W inside lw(g_i) at d
            d = lw.find(W)
            while d != -1:
                found.append((i, d))
                d = lw.find(W, d + 1)
        elif lw:  # lw(g_i) inside W at -d
            pos = W.find(lw)
            while pos != -1:
                found.append((i, -pos))
                pos = W.find(lw, pos + 1)
    by_prefix, by_suffix = G.by_prefix, G.by_suffix
    for k in range(1, b):
        # the index is keyed by hash, so each candidate is checked
        head = W[:k]
        for i in by_suffix.get(hash(head), ()):
            if i > s:
                break
            lw = lws[i]
            if len(lw) > k and lw.endswith(head):
                found.append((i, len(lw) - k))
        tail = W[-k:]
        for i in by_prefix.get(hash(tail), ()):
            if i > s:
                break
            lw = lws[i]
            if len(lw) > k and lw.startswith(tail):
                found.append((i, k - b))
    found.sort()
    out = []
    for i, d in found:
        if i == s and d <= 0:
            continue
        lwi = lws[i]
        a = len(lwi)
        # lw(g_i) sits at x and W at y = x + d inside the common word
        x = -d if d < 0 else 0
        y = x + d
        common = W[:x] + lwi + W[a - d:]
        out.append(_new(Obstruction, (i, s, common[:x], common[x + a:],
                                      common[:y], common[y + b:], common)))
    return out
