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
justified by another such member whose left cofactor is a proper suffix
of its own (the longest one present), a member with an empty left
cofactor by one whose right cofactor is a proper prefix of its own (the
shortest one present), and each side is one sorted scan over a chain of
prefixes; only the rare members with both cofactors non-empty probe
every cut.  The leading-word criterion runs on the multiply criterion's
survivors, where it reduces to a group minimum keyed (i, max(-d, 0)).
The backward criterion then prunes the pending set of built obstructions
using the newest generator; since a non-trivial obstruction of a pair is
fixed by its offset, it is a lookup of the two induced offset pairs in
the surviving batch.  Only the pairs that survive are built.  Every
removal here preserves the computed basis; only the amount of reduction
work changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CriteriaReport:
    """Survivors plus per-criterion removal counts for one transformer call."""

    survivors: list
    removed_m: int = 0
    removed_f: int = 0
    removed_bk: int = 0
    # (removed member, justifying member or None) pairs: offset pairs for
    # m and f, built obstructions for bk
    removed: list = field(default_factory=list)


def _chain_justifiers(keys, positions, just, longest):
    """Justify each key by a distinct shorter key that is a prefix of it.

    ``keys[r]`` belongs to batch position ``positions[r]``.  The keys are
    visited in sorted order, stably, so equal keys keep batch order; the
    stack then holds the chain of distinct keys that are prefixes of the
    current one, each with the batch position of its first copy.  A new
    key is justified by the top of that chain (``longest``) or by its
    bottom; a later copy of a key takes its first copy's justifier.
    ``just`` maps batch positions to justifying batch positions.
    """
    stack = []
    pick = -1 if longest else 0
    for r in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[r]
        while stack and not key.startswith(stack[-1][0]):
            stack.pop()
        p = positions[r]
        if stack and stack[-1][0] == key:
            just[p] = just[stack[-1][1]]
            continue
        if stack:
            just[p] = stack[pick][1]
        stack.append((key, p))


def _first_cut(u, u2, by_cof):
    """The value of ``by_cof`` at the first proper cut (u[a:], u2[:c]), or None.

    Cuts go a = 0, 1, ... outside and c = 0, 1, ... inside, skipping
    (u, u2) itself.
    """
    for a in range(len(u) + 1):
        v = u[a:]
        for c in range(len(u2) + 1):
            if a or c < len(u2):
                hit = by_cof.get((v, u2[:c]))
                if hit is not None:
                    return hit
    return None


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
    target cofactors (u, u2) goes when the batch contains a distinct pair
    with cofactors (v, v2) such that u = w*v and u2 = v2*w2 with w, w2 not
    both empty.  Divisor chains compose, so testing against the full input
    batch removes exactly the same set as a largest-first sweep in which
    removed entries stop justifying.

    The justifier is the first batch member with the first (v, v2) hit in
    the cut order: w shortest first, then w2 longest first.  Almost every
    member is one-sided, and a one-sided member can only be justified by
    its own side, ("", "") belonging to both:

    * (u, "") (d + b >= a) by the longest proper suffix v of u with a
      member (v, ""); reversed left cofactors make those suffixes prefixes;
    * ("", u2) (d <= 0) by the shortest proper prefix v2 of u2 with a
      member ("", v2).

    Each side is one sorted prefix-chain scan (:func:`_chain_justifiers`)
    over slices of the source leading words.  Members with equal cofactors
    do not justify each other: a later copy goes exactly when its first
    copy does, with the same justifier.  Only members with both cofactors
    non-empty probe every cut against a dict of all the batch's cofactor
    pairs.
    """
    news = list(news)
    lws = G.leading_words
    b = len(lws[s])
    left, left_at, right, right_at, two_sided = [], [], [], [], []
    for p, (i, d) in enumerate(news):
        lw = lws[i]
        if d + b >= len(lw):  # empty right cofactor
            left.append(lw[d - 1::-1] if d > 0 else b"")
            left_at.append(p)
            if d <= 0:
                right.append(b"")
                right_at.append(p)
        elif d <= 0:
            right.append(lw[d + b:])
            right_at.append(p)
        else:
            two_sided.append(p)
    just = [None] * len(news)
    _chain_justifiers(left, left_at, just, longest=True)
    _chain_justifiers(right, right_at, just, longest=False)
    if two_sided:
        cofs = _target_cofactors(news, s, G)
        by_cof = {}
        for p, cof in enumerate(cofs):
            by_cof.setdefault(cof, p)
        for p in two_sided:
            just[p] = _first_cut(*cofs[p], by_cof)
    survivors, removed = [], []
    for o, p in zip(news, just):
        if p is None:
            survivors.append(o)
        else:
            removed.append((o, news[p]))
    return CriteriaReport(survivors, removed_m=len(removed), removed=removed)


def leading_word_criterion(news, s, G) -> CriteriaReport:
    """Among pairs with equal target cofactors, keep the best source.

    ``news`` holds offset pairs (i, d) of target s.  The batch is grouped
    by target cofactors (wj, wj2); each group keeps its member with the
    smallest key (i, max(-d, 0)), the source index and then the length of
    the source's left cofactor (all are prefixes of the group's common
    word), and every other member goes, justified by that minimum.  On the
    survivors of :func:`multiply_criterion` this is the full criterion: a
    member whose target cofactors strictly extend another's is already
    gone, so only equal target cofactors remain to compare.
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
    survivors, removed = [], []
    for o, cof in zip(news, cofs):
        just = best[cof][1]
        if just == o:
            survivors.append(o)
        else:
            removed.append((o, just))
    return CriteriaReport(survivors, removed_f=len(removed), removed=removed)


def backward_criterion(B, news, s, G) -> CriteriaReport:
    """Prune pending obstructions that the newest generator re-derives.

    ``B`` holds built obstructions (any iterable, read once; the engine
    passes the queue's live keys), ``news`` the offset pairs (i, d) of
    target s that survived the batch criteria.  A pending obstruction goes
    when the newest leading word occurs in its common word (leftmost
    occurrence) placed so that both induced obstructions against the new
    generator are covered.  The one against g_k (k = i, j) has offset
    d = pos - len(wk); it is covered when the copies are disjoint (d
    outside -len(lw_s) < d < len(lw_k)) or when ``news`` still holds the
    pair (k, d), of which it is then a two-sided multiple.  Any witnessing
    occurrence justifies removal; checking only the leftmost one prunes
    slightly less.
    """
    lws = G.leading_words
    lw_s = lws[s]
    if not lw_s:
        return CriteriaReport(list(B))
    low = -len(lw_s)
    kept = set(news)

    def disjoint_or_kept(k, d):
        return not low < d < len(lws[k]) or (k, d) in kept

    survivors, removed = [], []
    for o in B:
        pos = o.common.find(lw_s)
        if (pos != -1 and disjoint_or_kept(o.i, pos - len(o.wi))
                and disjoint_or_kept(o.j, pos - len(o.wj))):
            removed.append((o, None))
        else:
            survivors.append(o)
    return CriteriaReport(survivors, removed_bk=len(removed), removed=removed)
