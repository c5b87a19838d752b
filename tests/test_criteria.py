"""The three pair-elimination criteria and the identities that justify them."""

import random

import pytest

import ncgb.engine as engine
from ncgb.cli import parse_problem
from ncgb.corpus import problem_path
from ncgb.criteria import (
    backward_criterion,
    leading_word_criterion,
    multiply_criterion,
)
from ncgb.engine import BasisState, EngineConfig, buchberger
from ncgb.obstructions import (
    build_obstructions,
    nontrivial_obstructions,
    obstruction_key,
    s_polynomial,
)
from ncgb.polynomial import NcPolynomial, add_scaled, parse_polynomial, sandwich
from ncgb.words import Alphabet
from oracles import (
    aligned,
    assert_removals_dominated,
    backward_criterion_reference,
    built,
    leading_word_criterion_reference,
    multiply_criterion_reference,
    offset_pair,
    random_basis,
    random_word,
)


def basis(texts, alphabet):
    polys = [parse_polynomial(t, alphabet) for t in texts]
    return BasisState.from_polynomials(polys, alphabet.llex)


def news_batch(G, s):
    """The built batch of target s."""
    return build_obstructions(s, G, nontrivial_obstructions(s, G))


def pending_batch(G, s):
    return [o for j in range(s) for o in news_batch(G, j)]


def pairs(*obstructions):
    return [offset_pair(o) for o in obstructions]


def assert_matches(got, want, s, G):
    """A pair criterion's report equals a reference report on built obstructions.

    The survivors are compared as sets: the leading-word criterion lists
    them by group, the references in batch order.
    """
    assert sorted(built(got.survivors, s, G)) == sorted(want.survivors)
    assert (got.removed_m, got.removed_f) == (want.removed_m, want.removed_f)


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
        news = pairs(big, small)
        rep = multiply_criterion(news, 2, triple)
        assert rep.survivors == pairs(small)
        assert rep.removed_m == 1
        assert_removals_dominated(news, rep, 2, triple, xy.llex)

    def test_singleton_unchanged(self, triple, xy):
        small = aligned(1, 2, xy.word("xy"), b"", b"", xy.word("y"), triple)
        rep = multiply_criterion(pairs(small), 2, triple)
        assert rep.survivors == pairs(small) and rep.removed_m == 0

    def test_identical_cofactors_stay(self, xy):
        G = basis(["x*y - 1", "x*y - y", "y*x - 1"], xy)
        news = pairs(aligned(0, 2, b"", xy.word("x"), xy.word("x"), b"", G),
                     aligned(1, 2, b"", xy.word("x"), xy.word("x"), b"", G))
        rep = multiply_criterion(news, 2, G)
        assert rep.survivors == news

    def test_empty_batch(self, triple, xy):
        assert multiply_criterion([], 2, triple).survivors == []

    def test_left_side_keeps_only_shortest_suffix(self, ab):
        # (aa, "") has the proper suffixes a and "" in the batch, and (a, "")
        # has ""; the containment ("", "") removes the whole left side
        G = basis(["a*a*b - 1", "a*b - 1", "b + 1", "b - 1"], ab)
        news = pairs(aligned(0, 3, b"", b"", ab.word("aa"), b"", G),
                     aligned(1, 3, b"", b"", ab.word("a"), b"", G),
                     aligned(2, 3, b"", b"", b"", b"", G))
        rep = multiply_criterion(news, 3, G)
        assert rep.survivors == news[2:] and rep.removed_m == 2
        assert_removals_dominated(news, rep, 3, G, ab.llex)

    def test_right_side_keeps_only_shortest_prefix(self, ab):
        # ("", aa) has the proper prefixes a and "" in the batch, and ("", a)
        # has ""; the containment ("", "") removes the whole right side
        G = basis(["b*a*a - 1", "b*a - 1", "b + 1", "b - 1"], ab)
        news = pairs(aligned(0, 3, b"", b"", b"", ab.word("aa"), G),
                     aligned(1, 3, b"", b"", b"", ab.word("a"), G),
                     aligned(2, 3, b"", b"", b"", b"", G))
        rep = multiply_criterion(news, 3, G)
        assert rep.survivors == news[2:] and rep.removed_m == 2
        assert_removals_dominated(news, rep, 3, G, ab.llex)

    def test_copies_stay_and_go_together(self, ab):
        # sources 1 and 2 share a leading word, so their target cofactors
        # are equal: neither copy removes the other, both remove an
        # extension of them, and both go when a cut of theirs is present
        G = basis(["a*a*b - 1", "a*b - 1", "a*b - b", "b + 1", "b - 1"], ab)
        copies = pairs(aligned(1, 4, b"", b"", ab.word("a"), b"", G),
                       aligned(2, 4, b"", b"", ab.word("a"), b"", G))
        longer, = pairs(aligned(0, 4, b"", b"", ab.word("aa"), b"", G))
        rep = multiply_criterion([longer] + copies, 4, G)
        assert rep.survivors == copies and rep.removed_m == 1
        assert_removals_dominated([longer] + copies, rep, 4, G, ab.llex)
        base, = pairs(aligned(3, 4, b"", b"", b"", b"", G))
        rep = multiply_criterion(copies + [base], 4, G)
        assert rep.survivors == [base] and rep.removed_m == 2
        assert_removals_dominated(copies + [base], rep, 4, G, ab.llex)

    def test_two_sided_member_probes_every_cut(self, ab):
        # (a, b) extends the one-sided (a, "") and ("", b), which both stay
        G = basis(["a*b*b - 1", "a*b + 1", "b*b - 1", "b - 1"], ab)
        news = [aligned(0, 3, b"", b"", ab.word("a"), ab.word("b"), G),
                aligned(2, 3, b"", b"", b"", ab.word("b"), G),
                aligned(1, 3, b"", b"", ab.word("a"), b"", G)]
        rep = multiply_criterion(pairs(*news), 3, G)
        assert rep.survivors == pairs(*news[1:]) and rep.removed_m == 1
        assert_matches(rep, multiply_criterion_reference(news), 3, G)
        assert_removals_dominated(pairs(*news), rep, 3, G, ab.llex)

    def test_containment_removes_both_sides(self, ab):
        # b lies inside a*b, so ("", "") is in the batch: it is a cut of the
        # one-sided ("", b) and (a, "") and of the two-sided (a, b)
        G = basis(["b - 1", "b*b - 1", "a*a - 1", "a*a*b*b - 1", "a*b - 1"], ab)
        news = nontrivial_obstructions(4, G)
        cofs = [(o.wj, o.wj2) for o in built(news, 4, G)]
        a, b = ab.word("a"), ab.word("b")
        assert {(b"", b), (a, b""), (a, b)} <= set(cofs)
        rep = multiply_criterion(news, 4, G)
        assert rep.survivors == [o for o, cof in zip(news, cofs) if cof == (b"", b"")]
        assert rep.removed_m == len(news) - 1
        assert_matches(rep, multiply_criterion_reference(built(news, 4, G)), 4, G)

    def test_top_letter_extensions_skipped(self):
        # letter 254 is the largest an alphabet can have: the block of keys
        # extending x254 ends below x254 followed by the bound b"\xff"
        names = [f"x{k}" for k in range(255)]
        ordering = Alphabet(names).llex
        top, low = bytes([254]), bytes([0])
        lws = [low + top, low + top + top, low + top + low, low + bytes([253]) + top,
               top + low, top + top + low, low]
        G = BasisState.from_polynomials(
            [NcPolynomial({lw: 1, b"": 1}) for lw in lws], ordering)
        s = len(lws) - 1
        news = nontrivial_obstructions(s, G)
        rep = multiply_criterion(news, s, G)
        kept = {(o.wj, o.wj2) for o in built(rep.survivors, s, G)}
        assert kept == {(b"", top), (b"", bytes([253]) + top), (top, b"")}
        assert_matches(rep, multiply_criterion_reference(built(news, s, G)), s, G)


def test_multiply_criterion_matches_reference_property():
    """M and F on offset pairs remove what the references remove on built batches.

    Random 1- to 3-letter bases, extended by copies, extensions and factors
    of earlier leading words so that batches hold equal cofactors, ("", "")
    and two-sided members; every target s, in construction order and
    shuffled.  M is checked against probing every cut, F against a group
    minimum, on the full batch and on M's survivors.  Survivors and counts
    must agree, and M keeps its survivors in batch order.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    orderings = {n: Alphabet(["a", "b", "c"][:n]).llex for n in (1, 2, 3)}
    seen = {"duplicate": 0, "empty": 0, "two-sided": 0, "f": 0}

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.randoms(use_true_random=False), st.sampled_from([1, 2, 3]),
                      st.integers(1, 4), st.integers(0, 3))
    def check(rng, nletters, size, extra):
        ordering = orderings[nletters]
        G = random_basis(rng, ordering, nletters, size, max_degree=4)
        for _ in range(extra):
            lw = rng.choice(G.leading_words)
            how = rng.choice(["copy", "extension", "factor"])
            if how == "extension":
                lw = (random_word(rng, nletters, 0, 2) + lw
                      + random_word(rng, nletters, 0, 2))
            elif how == "factor" and lw:
                start = rng.randrange(len(lw))
                lw = lw[start:rng.randint(start + 1, len(lw))]
            G.append(NcPolynomial({lw: 1, b"": 1} if lw else {b"": 1}), ordering)
        for s in range(len(G)):
            news = nontrivial_obstructions(s, G)
            shuffled = list(news)
            rng.shuffle(shuffled)
            for batch in (news, shuffled):
                m = multiply_criterion(batch, s, G)
                want = multiply_criterion_reference(built(batch, s, G))
                assert_matches(m, want, s, G)
                assert built(m.survivors, s, G) == want.survivors
                for members in (batch, m.survivors):
                    f = leading_word_criterion(members, s, G)
                    assert_matches(f, leading_word_criterion_reference(built(members, s, G)),
                                   s, G)
                    seen["f"] += f.removed_f
            cofactors = [(o.wj, o.wj2) for o in built(news, s, G)]
            seen["duplicate"] += len(set(cofactors)) < len(cofactors)
            seen["empty"] += (b"", b"") in cofactors
            seen["two-sided"] += any(u and u2 for u, u2 in cofactors)

    check()
    assert all(seen.values()), seen


def test_multiply_criterion_on_top_letters_property():
    """M removes what the reference removes when keys hold the largest letters.

    Random leading words over 2 or 3 letters, taken from 254, 253 and 0 of
    a 255-variable alphabet, so that the sorted keys of each side meet the
    bound that ends a block of extensions; every target s.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ordering = Alphabet([f"x{k}" for k in range(255)]).llex
    top = bytes([254, 253, 0]) + bytes(range(3, 256))

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.randoms(use_true_random=False), st.sampled_from([2, 3]),
                      st.integers(2, 6))
    def check(rng, nletters, size):
        G = BasisState()
        for _ in range(size):
            lw = random_word(rng, nletters, 1, 4).translate(top)
            G.append(NcPolynomial({lw: 1, b"": 1}), ordering)
        for s in range(len(G)):
            news = nontrivial_obstructions(s, G)
            want = multiply_criterion_reference(built(news, s, G))
            assert_matches(multiply_criterion(news, s, G), want, s, G)

    check()


@pytest.mark.slow
def test_criteria_match_references_on_corpus(monkeypatch):
    """Every call completion makes to m, f and bk, on g01-g13 and braid4 at trunc 6.

    Each recorded call is replayed against its reference: m's and f's
    survivors and counts, and bk's removals, in pending order, and count.
    """
    calls = {"m": [], "f": [], "bk": []}

    def record_m(news, s, G):
        calls["m"].append((list(news), s))
        return multiply_criterion(news, s, G)

    def record_f(news, s, G):
        calls["f"].append((list(news), s))
        return leading_word_criterion(news, s, G)

    def record_bk(B, news, s, G):
        B = list(B)
        calls["bk"].append((B, list(news), s))
        return backward_criterion(B, news, s, G)

    monkeypatch.setattr(engine, "multiply_criterion", record_m)
    monkeypatch.setattr(engine, "leading_word_criterion", record_f)
    monkeypatch.setattr(engine, "backward_criterion", record_bk)
    runs = [(f"g{k:02d}", None) for k in range(1, 14)] + [("braid4", 6)]
    removed = {"f": 0, "bk": 0}
    for name, trunc in runs:
        problem = parse_problem(problem_path(name))
        G, _ = buchberger(problem.generators,
                          EngineConfig(ordering=problem.ordering, truncation_degree=trunc))
        # the criteria read leading words up to s only, and those never
        # change once appended, so every call replays on the final basis
        for batch, s in calls["m"]:
            want = multiply_criterion_reference(built(batch, s, G))
            assert_matches(multiply_criterion(batch, s, G), want, s, G)
        for batch, s in calls["f"]:
            got = leading_word_criterion(batch, s, G)
            assert_matches(got, leading_word_criterion_reference(built(batch, s, G)), s, G)
            removed["f"] += got.removed_f
        for pending, news, s in calls["bk"]:
            got = backward_criterion(pending, news, s, G)
            want = backward_criterion_reference(pending, built(news, s, G), s, G)
            assert (got.removed, got.removed_bk) == (want.removed, want.removed_bk)
            removed["bk"] += got.removed_bk
        assert len(calls["m"]) == len(calls["f"]) == len(calls["bk"]) > 1
        for recorded in calls.values():
            recorded.clear()
    assert all(removed.values()), removed


class TestLeadingWordCriterion:
    def test_larger_source_index_removed(self, xy):
        G = basis(["x*y - 1", "x*y - y", "y*x - 1"], xy)
        lo, hi = pairs(aligned(0, 2, b"", xy.word("x"), xy.word("x"), b"", G),
                       aligned(1, 2, b"", xy.word("x"), xy.word("x"), b"", G))
        rep = leading_word_criterion([hi, lo], 2, G)
        assert rep.survivors == [lo] and rep.removed_f == 1
        assert_removals_dominated([hi, lo], rep, 2, G, xy.llex)

    def test_larger_left_cofactor_removed_on_tie(self, ab):
        # a*b occurs twice in a*b*a*b; same source, same target cofactors
        G = basis(["a*b - 1", "a*b*a*b - 1"], ab)
        news = [o for o in news_batch(G, 1) if o.i == 0]
        centers = pairs(*(o for o in news if not o.wj and not o.wj2))
        assert sorted(centers) == [(0, -2), (0, 0)]
        rep = leading_word_criterion(centers, 1, G)
        assert rep.survivors == [(0, 0)] and rep.removed_f == 1
        assert_removals_dominated(centers, rep, 1, G, ab.llex)

    def test_singleton_unchanged(self, triple, xy):
        o = pairs(aligned(1, 2, xy.word("xy"), b"", b"", xy.word("y"), triple))
        rep = leading_word_criterion(o, 2, triple)
        assert rep.survivors == o


class TestBackwardCriterion:
    def test_rederived_pending_obstruction_removed(self, chain, xy):
        old = aligned(0, 1, b"", b"", xy.word("x"), xy.word("yx"), chain)
        news = nontrivial_obstructions(2, chain)
        rep = backward_criterion([old], news, 2, chain)
        assert rep.removed == [old] and rep.removed_bk == 1

    def test_new_leading_word_not_a_factor(self, xy):
        G = basis(["x^3*y*x + y", "x^2 + y", "y^2 + x"], xy)
        old = aligned(0, 1, b"", b"", xy.word("x"), xy.word("yx"), G)
        news = nontrivial_obstructions(2, G)
        rep = backward_criterion([old], news, 2, G)
        assert rep.removed == [] and rep.removed_bk == 0

    def test_removed_base_blocks_removal(self, chain, xy):
        # without the source-0 members of the new batch, the induced
        # obstruction has no covering base left
        old = aligned(0, 1, b"", b"", xy.word("x"), xy.word("yx"), chain)
        news = [(i, d) for i, d in nontrivial_obstructions(2, chain) if i != 0]
        rep = backward_criterion([old], news, 2, chain)
        assert rep.removed == [] and rep.removed_bk == 0


def test_conservation_on_random_batches(xy):
    rng = random.Random(31)
    ordering = xy.llex
    for _ in range(300):
        G = random_basis(rng, ordering, 2, rng.randint(2, 4), max_degree=4)
        s = len(G) - 1
        news = nontrivial_obstructions(s, G)
        pending = pending_batch(G, s)
        for rep in (multiply_criterion(news, s, G), leading_word_criterion(news, s, G)):
            assert len(set(rep.survivors)) == len(rep.survivors)
            assert set(rep.survivors) <= set(news)
            assert len(rep.survivors) + rep.removed_m + rep.removed_f == len(news)
            assert rep.removed == [] and rep.removed_bk == 0
        rep = backward_criterion(pending, news, s, G)
        dead = set(rep.removed)
        assert rep.removed == [o for o in pending if o in dead]
        assert rep.removed_bk == len(rep.removed) == len(dead)
        assert rep.survivors == [] and rep.removed_m == rep.removed_f == 0


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
        news = nontrivial_obstructions(s, G)
        if how == "thinned":
            news = leading_word_criterion(multiply_criterion(news, s, G).survivors,
                                          s, G).survivors
        elif how == "subset":
            news = [n for n in news if rng.random() < 0.5]
        pending = pending_batch(G, s)
        got = backward_criterion(pending, news, s, G)
        want = backward_criterion_reference(pending, built(news, s, G), s, G)
        assert got.removed == want.removed and got.removed_bk == want.removed_bk

    check()


def test_removals_dominated_on_random_batches(xy):
    rng = random.Random(37)
    ordering = xy.llex
    for _ in range(300):
        G = random_basis(rng, ordering, 2, rng.randint(2, 4), max_degree=4)
        s = len(G) - 1
        news = nontrivial_obstructions(s, G)
        assert_removals_dominated(news, multiply_criterion(news, s, G), s, G, ordering)
        assert_removals_dominated(news, leading_word_criterion(news, s, G), s, G, ordering)


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
                          (i == j and ordering.key(o1.wi) > ordering.key(o2.wi)))
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
