"""The three pair-elimination criteria and the identities that justify them."""

import random

import pytest

from ncgb.criteria import (
    backward_criterion,
    leading_word_criterion,
    multiply_criterion,
)
from ncgb.engine import BasisState
from ncgb.obstructions import nontrivial_obstructions, obstruction_key, s_polynomial
from ncgb.polynomial import add_scaled, parse_polynomial, sandwich
from ncgb.words import Alphabet
from oracles import (
    aligned,
    assert_removals_dominated,
    backward_criterion_reference,
    random_basis,
)


def basis(texts, alphabet):
    polys = [parse_polynomial(t, alphabet) for t in texts]
    return BasisState.from_polynomials(polys, alphabet.llex)


def news_batch(G, s):
    return nontrivial_obstructions(s, G)


def pending_batch(G, s):
    return [o for j in range(s) for o in nontrivial_obstructions(j, G)]


@pytest.fixture
def triple(xy):
    return basis(["y^3 - 1", "x^2*y^2 - x", "x*y*x^2*y + y^2"], xy)


@pytest.fixture
def chain(xy):
    return basis(["x^3*y*x + y", "x^2 + y", "x + 1"], xy)


class TestMultiplyCriterion:
    def test_extension_removed(self, triple, xy):
        big = aligned(0, 2, xy.word("xyxx"), b"", b"", xy.word("yy"), triple)
        small = aligned(1, 2, xy.word("xy"), b"", b"", xy.word("y"), triple)
        rep = multiply_criterion([big, small])
        assert rep.survivors == [small]
        assert rep.removed == [(big, small)]
        assert rep.removed_m == 1
        assert_removals_dominated(rep, triple, xy.llex)

    def test_singleton_unchanged(self, triple, xy):
        small = aligned(1, 2, xy.word("xy"), b"", b"", xy.word("y"), triple)
        rep = multiply_criterion([small])
        assert rep.survivors == [small] and rep.removed_m == 0

    def test_identical_cofactors_stay(self, xy):
        G = basis(["x*y - 1", "x*y - y", "y*x - 1"], xy)
        news = [aligned(0, 2, b"", xy.word("x"), xy.word("x"), b"", G),
                aligned(1, 2, b"", xy.word("x"), xy.word("x"), b"", G)]
        rep = multiply_criterion(news)
        assert rep.survivors == news

    def test_mixed_targets_rejected(self, triple, xy):
        a = aligned(0, 1, xy.word("xx"), b"", b"", xy.word("y"), triple)
        b = aligned(1, 2, xy.word("xy"), b"", b"", xy.word("y"), triple)
        with pytest.raises(ValueError):
            multiply_criterion([a, b])

    def test_empty_batch(self, triple, xy):
        assert multiply_criterion([]).survivors == []


class TestLeadingWordCriterion:
    def test_larger_source_index_removed(self, xy):
        G = basis(["x*y - 1", "x*y - y", "y*x - 1"], xy)
        lo = aligned(0, 2, b"", xy.word("x"), xy.word("x"), b"", G)
        hi = aligned(1, 2, b"", xy.word("x"), xy.word("x"), b"", G)
        rep = leading_word_criterion([hi, lo])
        assert rep.survivors == [lo]
        assert rep.removed == [(hi, lo)]
        assert_removals_dominated(rep, G, xy.llex)

    def test_larger_left_cofactor_removed_on_tie(self, ab):
        # a*b occurs twice in a*b*a*b; same source, same target cofactors
        G = basis(["a*b - 1", "a*b*a*b - 1"], ab)
        news = [o for o in nontrivial_obstructions(1, G) if o.i == 0]
        centers = [o for o in news if not o.wj and not o.wj2]
        assert len(centers) == 2
        rep = leading_word_criterion(centers)
        assert len(rep.survivors) == 1
        assert rep.survivors[0].wi == b""
        removed = rep.removed[0][0]
        assert removed.wi == ab.word("ab")

    def test_singleton_unchanged(self, triple, xy):
        o = aligned(1, 2, xy.word("xy"), b"", b"", xy.word("y"), triple)
        rep = leading_word_criterion([o])
        assert rep.survivors == [o]


class TestBackwardCriterion:
    def test_rederived_pending_obstruction_removed(self, chain, xy):
        old = aligned(0, 1, b"", b"", xy.word("x"), xy.word("yx"), chain)
        news = news_batch(chain, 2)
        rep = backward_criterion([old], news, 2, chain)
        assert rep.survivors == []
        assert rep.removed_bk == 1

    def test_new_leading_word_not_a_factor(self, xy):
        G = basis(["x^3*y*x + y", "x^2 + y", "y^2 + x"], xy)
        old = aligned(0, 1, b"", b"", xy.word("x"), xy.word("yx"), G)
        news = news_batch(G, 2)
        rep = backward_criterion([old], news, 2, G)
        assert rep.survivors == [old]

    def test_removed_base_blocks_removal(self, chain, xy):
        # without the source-0 members of the new batch, the induced
        # obstruction has no covering base left
        old = aligned(0, 1, b"", b"", xy.word("x"), xy.word("yx"), chain)
        news = [o for o in news_batch(chain, 2) if o.i != 0]
        rep = backward_criterion([old], news, 2, chain)
        assert rep.survivors == [old]


def test_conservation_on_random_batches(xy):
    rng = random.Random(31)
    ordering = xy.llex
    for _ in range(300):
        G = random_basis(rng, ordering, 2, rng.randint(2, 4), max_degree=4)
        s = len(G) - 1
        news = news_batch(G, s)
        pending = pending_batch(G, s)
        for rep, size in (
            (multiply_criterion(news), len(news)),
            (leading_word_criterion(news), len(news)),
            (backward_criterion(pending, news, s, G), len(pending)),
        ):
            assert len(rep.survivors) + len(rep.removed) == size
            assert not set(rep.survivors) & {o for o, _ in rep.removed}


def test_backward_criterion_matches_reference_property():
    """The offset lookup removes exactly what building the induced obstructions does.

    Random 2- and 3-letter bases; the batch handed in is the full one, the
    m and f survivors, or an arbitrary subset.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    orderings = {n: Alphabet(["a", "b", "c"][:n]).llex for n in (2, 3)}

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.randoms(use_true_random=False), st.sampled_from([2, 3]),
                      st.integers(2, 5), st.sampled_from(["full", "thinned", "subset"]))
    def check(rng, nletters, size, how):
        G = random_basis(rng, orderings[nletters], nletters, size, max_degree=5)
        s = len(G) - 1
        news = news_batch(G, s)
        if how == "thinned":
            news = leading_word_criterion(multiply_criterion(news).survivors).survivors
        elif how == "subset":
            news = [n for n in news if rng.random() < 0.5]
        pending = pending_batch(G, s)
        got = backward_criterion(pending, news, s, G)
        want = backward_criterion_reference(pending, news, s, G)
        assert got.survivors == want.survivors
        assert got.removed == want.removed and got.removed_bk == want.removed_bk

    check()


def test_removals_dominated_on_random_batches(xy):
    rng = random.Random(37)
    ordering = xy.llex
    for _ in range(300):
        G = random_basis(rng, ordering, 2, rng.randint(2, 4), max_degree=4)
        s = len(G) - 1
        news = news_batch(G, s)
        assert_removals_dominated(multiply_criterion(news), G, ordering)
        assert_removals_dominated(leading_word_criterion(news), G, ordering)


def test_head_batch_identity(xy):
    """Dividing target cofactors decompose the larger S-polynomial exactly."""
    rng = random.Random(47)
    ordering = xy.llex
    checked = 0
    while checked < 1000:
        G = random_basis(rng, ordering, 2, rng.randint(2, 4), max_degree=4)
        s = len(G) - 1
        news = news_batch(G, s)
        for o1 in news:
            for o2 in news:
                if o1 is o2:
                    continue
                cut = len(o1.wj) - len(o2.wj)
                if cut < 0 or not o1.wj.endswith(o2.wj) or not o1.wj2.startswith(o2.wj2):
                    continue
                w = o1.wj[:cut]
                w2 = o1.wj2[len(o2.wj2):]
                i, j = o1.i, o2.i
                if i <= j:
                    third = aligned(i, j, o1.wi, o1.wi2, w + o2.wi, o2.wi2 + w2, G)
                    sign = 1
                else:
                    third = aligned(j, i, w + o2.wi, o2.wi2 + w2, o1.wi, o1.wi2, G)
                    sign = -1
                lhs = s_polynomial(o1, G, ordering)
                rhs = add_scaled(sandwich(w, s_polynomial(o2, G, ordering), w2),
                                 sign, s_polynomial(third, G, ordering))
                assert lhs == rhs
                strict = (i > j or (w or w2) or
                          (i == j and ordering.compare(o1.wi, o2.wi) > 0))
                if strict:
                    key = obstruction_key(o1, ordering)
                    assert key > obstruction_key(o2, ordering)
                    assert key > obstruction_key(third, ordering)
                checked += 1
    assert checked >= 1000


def test_tail_identity(xy):
    """A pending obstruction splits a new one into itself plus an induced one."""
    rng = random.Random(53)
    ordering = xy.llex
    checked = 0
    while checked < 1000:
        G = random_basis(rng, ordering, 2, rng.randint(2, 4), max_degree=4)
        s = len(G) - 1
        news = news_batch(G, s)
        pending = pending_batch(G, s)
        for o in news:
            for old in pending:
                if old.j != o.i:
                    continue
                if not o.wi.endswith(old.wj) or not o.wi2.startswith(old.wj2):
                    continue
                w = o.wi[:len(o.wi) - len(old.wj)]
                w2 = o.wi2[len(old.wj2):]
                induced = aligned(old.i, s, w + old.wi, old.wi2 + w2,
                                  o.wj, o.wj2, G)
                lhs = s_polynomial(o, G, ordering)
                rhs = add_scaled(s_polynomial(induced, G, ordering), -1,
                                 sandwich(w, s_polynomial(old, G, ordering), w2))
                assert lhs == rhs
                key = obstruction_key(o, ordering)
                assert key > obstruction_key(old, ordering)
                assert key > obstruction_key(induced, ordering)
                checked += 1
    assert checked >= 1000


def test_rederivation_identity(xy):
    """Every placement of a new leading word splits an old S-polynomial."""
    rng = random.Random(59)
    ordering = xy.llex
    checked = 0
    while checked < 1000:
        G = random_basis(rng, ordering, 2, rng.randint(2, 4), max_degree=4)
        s = len(G) - 1
        lw_s = G.leading_words[s]
        if not lw_s:
            continue
        for o in pending_batch(G, s):
            pos = o.common.find(lw_s)
            while pos != -1:
                w, w2 = o.common[:pos], o.common[pos + len(lw_s):]
                lhs = s_polynomial(o, G, ordering)
                first = aligned(o.i, s, o.wi, o.wi2, w, w2, G)
                second = aligned(o.j, s, o.wj, o.wj2, w, w2, G)
                rhs = add_scaled(s_polynomial(first, G, ordering), -1,
                                 s_polynomial(second, G, ordering))
                assert lhs == rhs
                checked += 1
                pos = o.common.find(lw_s, pos + 1)
    assert checked >= 1000
