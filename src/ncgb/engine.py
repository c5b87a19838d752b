"""Completion engine: enumerate a two-sided Groebner basis from generators.

Two procedures share one loop.  Each new generator s brings a batch of
non-trivial obstructions, found as offset pairs (i, d) (see
:mod:`ncgb.obstructions`); the truncation bound is decided on the pairs
from the lengths alone.  The improved procedure passes the batch through
the criteria in a fixed order: the multiply and then the leading-word
criterion thin the pairs, then the backward criterion prunes the pending
set.  Only the surviving pairs are built into obstructions and merged.
The basic one builds and reduces every non-trivial obstruction within the
bound.  Both enumerate the same basis and differ only in how many
S-polynomials they reduce.  Verification pushes each generator of a fixed
basis through the same find, prune and build step (:func:`absorb`) with
the multiply and leading-word criteria only, and reduces each batch's
survivors as they are built; it keeps no pending set, so the backward
criterion, which prunes one, does not run, and it never selects, so it
keeps no heap.  It names the smallest failing survivor of the first
failing batch by the obstruction ordering, the one completion would
select first.

Selection uses the normal strategy: the pending obstruction with the
smallest common word (degree first) comes next, ties broken by the
obstruction ordering.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .criteria import backward_criterion, leading_word_criterion, multiply_criterion
from .division import DivisorIndex, normal_remainder
from .obstructions import (
    build_obstructions,
    nontrivial_obstructions,
    obstruction_key,
    s_polynomial,
)
from .polynomial import NcPolynomial, leading, make_monic


class BasisState:
    """An append-only list of monic generators, each held once: a leading word and a tail.

    Generator k is ``leading_words[k]`` with coefficient 1 plus
    ``tails[k]``, its other terms as a tuple of (word, coefficient) pairs.
    Division, ``s_polynomial`` and ``interreduce`` place only the tail,
    because a monic generator's leading term cancels the word it rewrites.
    ``G[k]`` and ``iter(G)`` build the polynomial on demand, for printing
    and tests; no hot path reads them.  ``append`` stores the tail before
    the leading word, so an interrupt never leaves a leading word without
    its tail, and ``len(G)`` counts leading words.  Leading words are only
    appended, and tails are rewritten only by ``interreduce``, in the
    state it builds.  ``append`` rejects zero, so every generator has a
    leading word.

    The state also holds caches over its leading words, each written only
    by the module that owns it and described there; none depends on a
    tail, so none ever becomes wrong.  Division (:mod:`ncgb.division`)
    owns ``divisor_index``, an Aho-Corasick automaton over a prefix of the
    leading words, and ``normal_words``, its memo of remainder words.
    Obstruction construction (:mod:`ncgb.obstructions`) owns the affix
    index over ``leading_words[:indexed]``: ``prefixes`` and ``suffixes``,
    one dict per side from each proper affix, a view into a leading word,
    to the ascending indices of the words that carry it.
    """

    __slots__ = ("leading_words", "tails", "normal_words", "divisor_index",
                 "prefixes", "suffixes", "indexed")

    def __init__(self):
        self.leading_words = []
        self.tails = []
        self.normal_words = {}
        self.divisor_index = None
        self.prefixes = {}
        self.suffixes = {}
        self.indexed = 0

    @classmethod
    def from_polynomials(cls, polys, ordering):
        G = cls()
        for f in polys:
            G.append(f, ordering)
        return G

    def append(self, f: NcPolynomial, ordering) -> int:
        if not f:
            raise ValueError("zero polynomial cannot join a basis")
        lc, lw = leading(f, ordering)  # scaled here: make_monic would find lw again
        if lc != 1:
            f = NcPolynomial({u: Fraction(c, lc) for u, c in f.items()})
        self.tails.append(tuple((u, c) for u, c in f.items() if u != lw))
        self.leading_words.append(lw)
        return len(self.leading_words) - 1

    def __len__(self):
        return len(self.leading_words)

    def __getitem__(self, k):
        return _monic(self.leading_words[k], self.tails[k])

    def __iter__(self):
        return map(_monic, self.leading_words, self.tails)


def _monic(lw, tail):
    """The monic polynomial with leading word ``lw`` and the terms ``tail``."""
    return NcPolynomial.from_normal(dict(((lw, 1), *tail)))


@dataclass
class EngineConfig:
    ordering: object
    truncation_degree: int | None = None
    max_basis: int | None = None
    max_degree: int | None = None
    criteria: bool = True  # False is the basic procedure

    def validate(self):
        for name, cap in (("truncation_degree", self.truncation_degree),
                          ("max_basis", self.max_basis),
                          ("max_degree", self.max_degree)):
            if cap is not None and cap < 1:
                raise ValueError(f"{name} must be positive")


@dataclass
class RunStats:
    """Counters for one run; the removal counts partition the constructed total.

    The row's ``tail`` column is always 0: this engine has no tail
    criterion.  ``built`` counts the obstruction tuples completion makes,
    ``tot - truncated_discards - m - f`` (``tot - truncated_discards`` in
    the basic procedure); it is not in the row.
    """

    tot: int = 0
    built: int = 0
    sel: int = 0
    m: int = 0
    f: int = 0
    bk: int = 0
    zero_reductions: int = 0
    truncated_discards: int = 0
    cap_reason: str = ""  # why the run stopped early; "" when it completed

    @property
    def rho(self) -> Fraction:
        return Fraction(self.sel, self.tot) if self.tot else Fraction(0)


class ObstructionQueue:
    """The normal strategy's selection over a pending set shared with :func:`absorb`.

    ``live`` is the pending set, a dict that maps each pending obstruction
    to True in insertion order: :func:`absorb` adds the built survivors to
    it and deletes the backward criterion's removals from it.  ``push``
    only files an obstruction in the heap under its
    :func:`obstruction_key`; ``pop_smallest`` pops until it meets one still
    in ``live`` and takes it out, so an entry deleted from ``live`` is
    skipped and one pushed twice is popped once.
    """

    def __init__(self, ordering):
        self.ordering = ordering
        self.live = {}
        self._heap = []

    def push(self, o):
        heapq.heappush(self._heap, (obstruction_key(o, self.ordering), o))

    def pop_smallest(self):
        while self._heap:
            _, o = heapq.heappop(self._heap)
            if self.live.pop(o, False):
                return o
        raise LookupError("no pending obstructions")


def obstruction_batch(s: int, G: BasisState, trunc=None):
    """The non-trivial obstructions of the pairs (i, s), i <= s, that fit the bound.

    Returns (pairs, cut): the offset pairs (i, d), in the discovery order of
    :func:`nontrivial_obstructions`, and the number whose common word is
    longer than ``trunc``.  With a = len(lw(g_i)) and b = len(lw(g_s)) the
    common word has length max(-d, 0) + max(a, b + d), so nothing is built
    to decide the bound.
    """
    pairs = nontrivial_obstructions(s, G)
    if trunc is None:
        return pairs, 0
    lws = G.leading_words
    b = len(lws[s])
    kept = [(i, d) for i, d in pairs
            if (-d if d < 0 else 0) + max(len(lws[i]), b + d) <= trunc]
    return kept, len(pairs) - len(kept)


def absorb(s, G: BasisState, pending: dict | None, stats: RunStats, trunc=None,
           criteria=True):
    """Prune generator s's batch of pairs and ``pending``; build and add the rest.

    The one find, prune and build step of completion and verification.
    ``pending`` is completion's set of pending obstructions, a dict that
    maps each to True in insertion order, or None for verification, which
    keeps none.  The batch within the bound goes through (with
    ``criteria``) the multiply and the leading-word criterion; given a
    pending set, the backward criterion's removals are deleted from it.
    The surviving pairs are built into obstructions, added to ``pending``
    when there is one, and returned.  Every count lands in ``stats``.
    Construction and each criterion are called once per batch through
    this module's globals, so a wrapper set on ``ncgb.engine`` sees every
    batch of both callers.
    """
    news, cut = obstruction_batch(s, G, trunc)
    stats.tot += len(news) + cut
    stats.truncated_discards += cut
    if criteria:
        rep = multiply_criterion(news, s, G)
        stats.m += rep.removed_m
        rep = leading_word_criterion(rep.survivors, s, G)
        stats.f += rep.removed_f
        news = rep.survivors
        if pending is not None:
            rep = backward_criterion(pending, news, s, G)
            stats.bk += rep.removed_bk
            for dead in rep.removed:
                del pending[dead]
    built = build_obstructions(s, G, news)
    stats.built += len(built)
    if pending is not None:
        pending.update(dict.fromkeys(built, True))
    return built


def buchberger(G0, cfg: EngineConfig):
    """Run completion on the given generators; returns (basis, stats).

    Input generators are absorbed one at a time by :func:`absorb`, the
    find, prune and build step the loop uses for new basis elements, so the
    criteria already thin the initial obstructions.  The returned basis is
    the enumerated one, not yet interreduced.  With a truncation degree
    (homogeneous input only) obstructions whose common word exceeds the
    bound are discarded and counted, which yields a basis valid up to that
    degree.  Every remainder then fits the bound without a check: the
    S-polynomial of a kept obstruction is homogeneous of degree
    ``len(common)``, and division keeps both properties.  Size and degree
    caps stop the run early with ``stats.cap_reason`` set instead of
    raising, and so does an interrupt (Ctrl-C): it returns the generators
    appended so far with ``cap_reason`` "interrupted".  Repeated inputs
    are absorbed once, at their first occurrence.
    """
    cfg.validate()
    ordering = cfg.ordering
    polys = {}  # the monic inputs, each once, in input order
    for f in G0:
        if not f:
            raise ValueError("zero polynomial among the generators")
        polys[make_monic(f, ordering)] = None
    if not polys:
        raise ValueError("no generators")
    if cfg.truncation_degree is not None and not all(f.is_homogeneous() for f in polys):
        raise ValueError("truncation requires homogeneous generators")
    trunc = cfg.truncation_degree

    G = BasisState()
    stats = RunStats()
    queue = ObstructionQueue(ordering)

    try:
        for f in polys:
            for o in absorb(G.append(f, ordering), G, queue.live, stats, trunc, cfg.criteria):
                queue.push(o)

        while queue.live:
            o = queue.pop_smallest()
            if cfg.max_degree is not None and len(o.common) > cfg.max_degree:
                stats.cap_reason = "max_degree"
                break
            stats.sel += 1
            remainder = normal_remainder(s_polynomial(o, G, ordering), G, ordering)
            if not remainder:
                stats.zero_reductions += 1
                continue
            if cfg.max_basis is not None and len(G) + 1 > cfg.max_basis:
                stats.cap_reason = "max_basis"
                break
            for o in absorb(G.append(remainder, ordering), G, queue.live, stats, trunc,
                            cfg.criteria):
                queue.push(o)
    except KeyboardInterrupt:
        stats.cap_reason = "interrupted"

    return G, stats


def interreduce(G: BasisState, ordering) -> BasisState:
    """The reduced basis: minimal leading words, fully reduced tails, monic.

    A generator is dropped when another leading word is a proper factor of
    its own, or equals it at a smaller index; then every tail is rewritten
    once to its normal remainder against the survivors.  The first is
    decided by position: the indices are sorted stably by leading word in
    the ordering, and one :class:`DivisorIndex` is built over the leading
    words in that order.  A word before position p is at most as long as
    the one at p, and one of the same length occurs in it only when equal
    and at a smaller index; the automaton keeps the smaller position of
    equal words.  So the generator at p is kept exactly when the smallest
    position occurring in its leading word is p itself.
    An empty leading word sits at position 0, occurs in every other word
    and keeps itself.  The kept generators come out in that sorted order.
    Leading words never change here, so one pass suffices.  For a
    Groebner basis the result is the unique reduced one.
    """
    lws = G.leading_words
    order = sorted(range(len(lws)), key=lambda k: ordering.key(lws[k]))
    index = DivisorIndex([lws[k] for k in order], len(ordering.alphabet))
    kept = [k for p, k in enumerate(order) if index.first(lws[k]) == p]
    index.clear()
    reduced = BasisState()
    reduced.leading_words = [lws[k] for k in kept]
    reduced.tails = tails = [G.tails[k] for k in kept]
    for k, tail in enumerate(tails):
        tails[k] = tuple(normal_remainder(NcPolynomial(tail), reduced, ordering).items())
    return reduced


def verify_groebner(G: BasisState, ordering, truncation=None):
    """Check that every non-trivial obstruction's S-polynomial reduces to zero.

    Returns (True, []) on success and (False, [obstruction]) with the first
    failure otherwise.  With ``truncation`` only obstructions whose common
    word fits the bound count; that shows a Groebner basis up to the bound
    only when every generator is homogeneous, so a non-homogeneous basis
    raises ValueError, as does a bound below 1, which no obstruction fits.

    Only the obstructions that survive the multiply and leading-word
    criteria are reduced.  The generators are absorbed in index order by
    :func:`absorb`, with no pending set, and each batch's survivors are
    reduced as soon as they are built, up to the first non-zero
    remainder.  That is sound: B only deletes pending obstructions, so
    these survivors include every one that :func:`buchberger` leaves
    pending once it has absorbed ``G`` as its input.  If they all reduce
    to zero, completion would append nothing and return ``G``, and the
    criteria remove only obstructions that others cover, so ``G`` is a
    Groebner basis (up to the bound).  A Groebner basis reduces every
    S-polynomial to zero, so the verdict is exactly that of the exhaustive
    check.  The bound does not weaken this.  An obstruction that M or B
    removes is covered by others whose common words are factors of its
    own, and F keeps one member of each group that shares a common word,
    so the covering obstructions fit the bound whenever the removed one
    does.  B is left out: its scan of every pending obstruction for each
    absorbed generator costs more than the reductions it saves.

    Under a bound, only the generators whose leading word fits it are
    absorbed.  A longer one takes no part: every common word of its
    obstructions contains it, so none fits, and it divides no word within
    the bound.  So the survivors, the verdict and the failure named stay
    the same.

    The failure named is the smallest failing survivor by target s and
    then by :func:`obstruction_key`, the one completion would select
    first.  Survivors are reduced in discovery order.  Those ahead of the
    first failure in batch s passed, so only it and the survivors after
    it are sorted by that key and reduced in turn, up to the one that
    failed at the latest.  So the name does not depend on the order in
    which a batch is built, and a basis that passes is never keyed.
    """
    if truncation is not None and truncation < 1:
        raise ValueError("truncation must be positive")
    if truncation is not None and not all(f.is_homogeneous() for f in G):
        raise ValueError("truncation requires homogeneous generators")

    def fails(o):
        return normal_remainder(s_polynomial(o, G, ordering), G, ordering)

    stats = RunStats()
    for s, lw in enumerate(G.leading_words):
        if truncation is not None and len(lw) > truncation:
            continue
        survivors = absorb(s, G, None, stats, truncation)
        for k, o in enumerate(survivors):
            if fails(o):
                ahead = sorted(survivors[k:], key=lambda p: obstruction_key(p, ordering))
                return False, [next(p for p in ahead if p is o or fails(p))]
    return True, []
