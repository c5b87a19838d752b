"""Pair-elimination criteria: prune obstructions whose S-polynomials are
already covered by smaller ones.

The three criteria are the free-algebra forms of Gebauer and Moeller's
M, F and B, and the engine always applies them in that order.  The
multiply and leading-word criteria work inside one batch of new
obstructions, all targeting the newest generator s, before any of them
is built: a member of the batch is its offset pair (i, d) (see
:mod:`ncgb.obstructions`), and its target cofactors are slices of
lw(g_i), left-only when d + b >= a, right-only when d <= 0 (a =
len(lw(g_i)), b = len(lw(g_s))).  The multiply criterion splits the
batch by that shape: a member with an empty right cofactor can only be
removed by another such member whose left cofactor is a proper suffix of
its own, and a member with an empty left cofactor by one whose right
cofactor is a proper prefix of its own.  Keyed by the reversed left or
the right cofactor, a one-sided member stays exactly when its key extends
no other key of its side, and each side is one sorted scan that skips, by
bisection, the whole block of keys extending each survivor, so its
Python work follows the survivors, not the batch.  Only the rare members
with both cofactors non-empty probe every cut.  The leading-word
criterion runs on the multiply criterion's survivors, where it reduces
to a group minimum keyed (i, max(-d, 0)).  Both report only their
survivors, the pairs the engine builds, and a count.  The backward
criterion then prunes the pending set of built obstructions using the
newest generator; since a non-trivial obstruction of a pair is fixed by
its offset, it is a lookup of the two induced offset pairs in the
surviving batch.  Every removal here preserves the computed basis; only
the amount of reduction work changes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress


@dataclass
class CriteriaReport:
    """What one criterion call tells the engine.

    M and F fill ``survivors``, the offset pairs of the batch that stay,
    and ``removed_m`` or ``removed_f``; B fills ``removed``, the pending
    obstructions it prunes in the order it read them, and ``removed_bk``.
    """

    survivors: list = field(default_factory=list)
    removed_m: int = 0
    removed_f: int = 0
    removed_bk: int = 0
    removed: list = field(default_factory=list)


def _minimal_keys(keys):
    """The set of keys that have no proper prefix among ``keys``.

    One block skip per survivor over the sorted keys: a survivor r is the
    first key that does not extend the previous survivor, its copies end at
    ``bisect_right(ks, r, q)``, and every key that extends r lies in
    [r, r + b"\\xff") (letters are alphabet indices, at most 254), so the
    next survivor is at ``bisect_left(ks, r + b"\\xff", e)``.  Every key
    extends an empty one, so an empty key ends the scan.
    """
    ks = sorted(keys)
    minimal = set()
    q = 0
    while q < len(ks):
        r = ks[q]
        minimal.add(r)
        e = bisect_right(ks, r, q)
        q = bisect_left(ks, r + b"\xff", e)
    return minimal


def _has_proper_cut(u, u2, cofs):
    """Whether some cut (u[a:], u2[:c]) other than (u, u2) itself is in ``cofs``."""
    return any((u[a:], u2[:c]) in cofs
               for a in range(len(u) + 1) for c in range(len(u2) + 1)
               if a or c < len(u2))


def _target_cofactors(news, s, G):
    """The target cofactors (wj, wj2) of each pair (i, d) of target s.

    Both are slices of lw(g_i): wj = lw(g_i)[:d] when d > 0, and wj2 =
    lw(g_i)[d + b:], empty unless d + b < len(lw(g_i)) (b = len(lw(g_s))).
    """
    lws = G.leading_words
    b = len(lws[s])
    out = []
    for i, d in news:
        lw = lws[i]
        out.append((lw[:d] if d > 0 else b"", lw[d + b:]))
    return out


def multiply_criterion(news, s, G) -> CriteriaReport:
    """Drop every pair whose target cofactors strictly extend another's.

    ``news`` holds offset pairs (i, d) of target s.  A candidate with
    target cofactors (u, u2) goes when the batch contains a pair with
    cofactors (v, v2) such that u = w*v and u2 = v2*w2 with w, w2 not both
    empty; members with equal cofactors never remove each other.  Divisor
    chains compose, so testing against the full input batch removes exactly
    the same set as a largest-first sweep in which removed entries stop
    justifying.

    Almost every member is one-sided, and a one-sided member can only be
    removed by its own side, ("", "") belonging to both:

    * (u, "") (d + b >= a) by a member (v, "") with v a proper suffix of u;
      its key is u reversed, so those suffixes become prefixes;
    * ("", u2) (d <= 0) by a member ("", v2) with v2 a proper prefix of u2;
      its key is u2.

    So a one-sided member stays exactly when its key extends no other key
    of its side, and :func:`_minimal_keys` finds those keys with one block
    skip per survivor over the side's sorted keys.  The removed members are
    never visited one by one in Python: the report holds the survivors, in
    batch order, and how many went.  Only members with both cofactors
    non-empty probe every cut against the set of all the batch's cofactor
    pairs.
    """
    news = list(news)
    lws = G.leading_words
    b = len(lws[s])
    left, left_at, right, right_at, two_sided = [], [], [], [], []
    for p, (i, d) in enumerate(news):
        lw = lws[i]
        if d <= 0:  # empty left cofactor
            right.append(lw[d + b:])
            right_at.append(p)
            if d + b >= len(lw):
                left.append(b"")
                left_at.append(p)
        elif d + b >= len(lw):  # empty right cofactor
            left.append(lw[d - 1::-1])
            left_at.append(p)
        else:
            two_sided.append(p)
    alive = [False] * len(news)
    for keys, at in ((left, left_at), (right, right_at)):
        for p in compress(at, map(_minimal_keys(keys).__contains__, keys)):
            alive[p] = True
    if two_sided:
        cofs = _target_cofactors(news, s, G)
        present = set(cofs)
        for p in two_sided:
            alive[p] = not _has_proper_cut(*cofs[p], present)
    survivors = list(compress(news, alive))
    return CriteriaReport(survivors, removed_m=len(news) - len(survivors))


def leading_word_criterion(news, s, G) -> CriteriaReport:
    """Among pairs with equal target cofactors, keep the best source.

    ``news`` holds offset pairs (i, d) of target s.  The batch is grouped
    by target cofactors (wj, wj2); each group keeps its member with the
    smallest key (i, max(-d, 0)), the source index and then the length of
    the source's left cofactor (all are prefixes of the group's common
    word), and every other member goes; survivors come in the order their
    groups first appear.  On the survivors of :func:`multiply_criterion`
    this is the full criterion: a member whose target cofactors strictly
    extend another's is already gone, so only equal target cofactors
    remain to compare.
    """
    news = list(news)
    cofs = _target_cofactors(news, s, G)
    best = {}
    for o, cof in zip(news, cofs):
        i, d = o
        key = (i, -d if d < 0 else 0)
        held = best.get(cof)
        if held is None or key < held[0]:
            best[cof] = (key, o)
    survivors = [o for _, o in best.values()]
    return CriteriaReport(survivors, removed_f=len(news) - len(survivors))


def backward_criterion(B, news, s, G) -> CriteriaReport:
    """Prune pending obstructions that the newest generator re-derives.

    ``B`` holds built obstructions (any iterable, read once; the engine
    passes its pending dict), ``news`` the offset pairs (i, d) of
    target s that survived the batch criteria.  A pending obstruction goes
    when the newest leading word occurs in its common word (leftmost
    occurrence) placed so that both induced obstructions against the new
    generator are covered.  The one against g_k (k = i, j) has offset
    d = pos - len(wk); it is covered when the copies are disjoint (d
    outside -len(lw_s) < d < len(lw_k)) or when ``news`` still holds the
    pair (k, d), of which it is then a two-sided multiple.  Any witnessing
    occurrence justifies removal; checking only the leftmost one prunes
    slightly less.  Only the removed obstructions are reported.
    """
    lws = G.leading_words
    lw_s = lws[s]
    if not lw_s:
        return CriteriaReport()
    low = -len(lw_s)
    kept = set(news)

    def disjoint_or_kept(k, d):
        return not low < d < len(lws[k]) or (k, d) in kept

    removed = []
    for o in B:
        pos = o.common.find(lw_s)
        if (pos != -1 and disjoint_or_kept(o.i, pos - len(o.wi))
                and disjoint_or_kept(o.j, pos - len(o.wj))):
            removed.append(o)
    return CriteriaReport(removed=removed, removed_bk=len(removed))
