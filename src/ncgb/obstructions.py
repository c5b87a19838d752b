"""Obstructions: aligned placements of two leading words over a common word.

An obstruction pairs generator indices i <= j with cofactor words such
that wi * lw(g_i) * wi2 == wj * lw(g_j) * wj2.  Its S-polynomial is the
difference of the two scaled placements, whose top terms cancel.

A non-trivial obstruction is one in which the placed leading words share
letters, so it is fixed by (i, j, d): the signed offset d =
len(wj) - len(wi) at which lw(g_j) starts after lw(g_i) (see
:func:`ncgb.words.overlaps`).  The common word is the union of the two
placements, and the four cofactors are what it leaves on either side of
each copy.  Construction lists a pair's obstructions by ascending offset;
the order in which completion selects them lives in
:func:`obstruction_key`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .polynomial import add_scaled, sandwich
from .words import overlaps


@dataclass(frozen=True, slots=True)
class Obstruction:
    i: int
    j: int
    wi: bytes
    wi2: bytes
    wj: bytes
    wj2: bytes
    common: bytes = field(compare=False)

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


def nontrivial_obstructions(i: int, j: int, G) -> list[Obstruction]:
    """The overlapping alignments of lw(g_i) and lw(g_j), by ascending offset.

    There is one per offset at which the two leading words agree.  For
    i == j only positive offsets count: d = 0 is the trivial coincidence
    and -d mirrors d.  For i < j with equal leading words d = 0 is the
    all-empty alignment.
    """
    if not 0 <= i <= j < len(G.generators):
        raise IndexError("generator index out of range")
    lwi, lwj = G.leading_words[i], G.leading_words[j]
    if not lwi or not lwj:
        return []
    a, b = len(lwi), len(lwj)
    out = []
    for d in overlaps(lwi, lwj):
        if i == j and d <= 0:
            continue
        # lw(g_i) sits at x and lw(g_j) at y = x + d inside the common word
        x = -d if d < 0 else 0
        y = x + d
        common = lwj[:x] + lwi + lwj[a - d:]
        out.append(Obstruction(i, j, common[:x], common[x + a:],
                               common[:y], common[y + b:], common))
    return out
