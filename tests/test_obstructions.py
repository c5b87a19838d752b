"""Obstruction construction, ordering, classification and S-polynomials."""

import random
from pathlib import Path

import pytest

import ncgb.obstructions as obstructions
from ncgb.cli import parse_problem
from ncgb.corpus import problem_path
from ncgb.engine import BasisState
from ncgb.obstructions import (
    build_obstructions,
    nontrivial_obstructions,
    obstruction_key,
    s_polynomial,
)
from ncgb.polynomial import NcPolynomial, add_scaled, leading, parse_polynomial, sandwich
from ncgb.words import Alphabet
from oracles import (
    aligned,
    batch_brute,
    built,
    covered,
    has_overlap,
    nontrivial_obstructions_brute,
    random_basis,
    random_word,
    s_polynomial_reference,
    translated_obstruction_key,
)

W = lambda alphabet, text: alphabet.word(text)

# the benchmark's reference bases: every triangle problem and two braid bases
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def batch(s, G):
    """The built batch of target s."""
    return build_obstructions(s, G, nontrivial_obstructions(s, G))


def pair(i, j, G):
    """The obstructions of the pair (i, j): target j's batch filtered by source."""
    return [o for o in batch(j, G) if o.i == i]


def assert_batch_is_brute(s, G):
    """The pairs of target s and their built form against the pairwise oracle.

    The search lists its pairs in discovery order, so they are compared
    sorted, as a multiset: a pair found twice fails.
    """
    want = batch_brute(s, G)
    got = nontrivial_obstructions(s, G)
    assert sorted(got) == [(t[0], len(t[3]) - len(t[1])) for t in want]
    assert [(o.i, o.wi, o.wi2, o.wj, o.wj2)
            for o in build_obstructions(s, G, sorted(got))] == want
    assert build_obstructions(s, G, got) == built(got, s, G)


def assert_index_is_exact(G):
    """Each affix list holds exactly the indexed words that carry its affix.

    Every key of ``prefixes`` and ``suffixes`` is a view into the leading
    word of its list's first index, so no affix was copied.  Every proper
    affix of every indexed word is under exactly one key, and each list is
    ascending without repeats.
    """
    lws = G.leading_words
    for index, cut in ((G.prefixes, lambda w, n: w[:n]), (G.suffixes, lambda w, n: w[-n:])):
        listed = {}
        for view, ks in index.items():
            assert type(view) is memoryview and view.obj is lws[ks[0]]
            assert ks == sorted(set(ks))
            listed[bytes(view)] = ks
        want = {}
        for k, w in enumerate(lws[:G.indexed]):
            for n in range(1, len(w)):
                want.setdefault(cut(w, n), []).append(k)
        assert listed == want


def basis(texts, alphabet):
    polys = [parse_polynomial(t, alphabet) for t in texts]
    return BasisState.from_polynomials(polys, alphabet.llex)


@pytest.fixture
def triple(xy):
    """Leading words y^3, x^2y^2, xyx^2y with small tails."""
    return basis(["y^3 - 1", "x^2*y^2 - x", "x*y*x^2*y + y^2"], xy)


@pytest.fixture
def chain(xy):
    """Leading words x^3yx, x^2, x."""
    return basis(["x^3*y*x + y", "x^2 + y", "x + 1"], xy)


class TestSPolynomial:
    def test_top_terms_cancel(self, xy):
        G = basis(["y^3 - 1", "x^2*y^2 - 1"], xy)
        o = aligned(0, 1, W(xy, "xx"), b"", b"", W(xy, "y"), G)
        assert s_polynomial(o, G, xy.llex) == parse_polynomial("-x^2 + y", xy)

    def test_identical_placements_give_zero(self, xy):
        G = basis(["y^3 - 1"], xy)
        o = aligned(0, 0, W(xy, "x"), b"", W(xy, "x"), b"", G)
        assert not s_polynomial(o, G, xy.llex)

    def test_misaligned_rejected(self, xy):
        G = basis(["y^3 - 1", "x^2*y^2 - 1"], xy)
        with pytest.raises(ValueError):
            aligned(0, 1, W(xy, "x"), b"", b"", W(xy, "y"), G)

    def test_misaligned_obstruction_raises(self, xy):
        G = basis(["y^3 - 1", "x^2*y^2 - 1"], xy)
        o = aligned(0, 1, W(xy, "xx"), b"", b"", W(xy, "y"), G)
        with pytest.raises(ValueError, match="not aligned"):
            s_polynomial(o._replace(wi2=W(xy, "y")), G, xy.llex)
        with pytest.raises(ValueError, match="not aligned"):
            s_polynomial(o._replace(j=0), G, xy.llex)

    def test_matches_sandwich_formula_property(self):
        """One pass equals the two sandwiches and a scaled sum, normal coefficients included.

        Random rational bases get copies, extensions and factors of their
        leading words, so batches hold containments, equal leading words
        and self-overlaps (i == j); disjoint placements of every pair are
        checked too.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        orderings = {n: Alphabet(["a", "b", "c"][:n]).llex for n in (1, 2, 3)}
        seen = {"self": 0, "containment": 0, "disjoint": 0}

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.randoms(use_true_random=False), st.sampled_from([1, 2, 3]),
                          st.integers(1, 4), st.integers(0, 3), st.booleans())
        def check(rng, nletters, size, extra, integral):
            ordering = orderings[nletters]
            G = random_basis(rng, ordering, nletters, size, max_degree=4, integral=integral)
            for _ in range(extra):
                lw = rng.choice(G.leading_words)
                how = rng.choice(["copy", "extension", "factor"])
                if how == "extension":
                    lw = (random_word(rng, nletters, 0, 2) + lw
                          + random_word(rng, nletters, 0, 2))
                elif how == "factor" and lw:
                    start = rng.randrange(len(lw))
                    lw = lw[start:rng.randint(start + 1, len(lw))]
                tail = random_word(rng, nletters, 0, max(len(lw) - 1, 0))
                f = NcPolynomial({lw: 1, tail: rng.choice([-2, -1, 1, 3])})
                if f and leading(f, ordering)[1] == lw:
                    G.append(f, ordering)
            obstructions = [o for s in range(len(G)) for o in batch(s, G)]
            lws = G.leading_words
            for i in range(len(G)):
                for j in range(i, len(G)):
                    gap = random_word(rng, nletters, 0, 2)
                    obstructions.append(aligned(i, j, b"", gap + lws[j], lws[i] + gap, b"", G))
                    seen["disjoint"] += 1
            for o in obstructions:
                seen["self"] += o.i == o.j and o.wi != o.wj
                seen["containment"] += len(o.common) in (len(lws[o.i]), len(lws[o.j]))
                S = s_polynomial(o, G, ordering)
                assert S == s_polynomial_reference(o, G)
                assert all(c and (type(c) is int or c.denominator != 1) for _, c in S.items())

        check()
        assert all(seen.values())

    def test_representation_identity(self, triple, xy):
        # o(xyx^2,1;1,y^2) against target 2 decomposes through o(xy,1;1,y)
        big = aligned(0, 2, W(xy, "xyxx"), b"", b"", W(xy, "yy"), triple)
        small = aligned(1, 2, W(xy, "xy"), b"", b"", W(xy, "y"), triple)
        rest = aligned(0, 1, W(xy, "xyxx"), b"", W(xy, "xy"), W(xy, "y"), triple)
        lhs = s_polynomial(big, triple, xy.llex)
        rhs = add_scaled(sandwich(b"", s_polynomial(small, triple, xy.llex), W(xy, "y")),
                         1, s_polynomial(rest, triple, xy.llex))
        assert lhs == rhs

    def test_leading_word_below_common(self, xy):
        rng = random.Random(17)
        ordering = xy.llex
        for _ in range(400):
            G = random_basis(rng, ordering, 2, rng.randint(1, 3), max_degree=4)
            for j in range(len(G)):
                for o in batch(j, G):
                    S = s_polynomial(o, G, ordering)
                    if S:
                        _, w = leading(S, ordering)
                        assert ordering.key(w) < ordering.key(o.common)


class TestNontrivialObstructions:
    def test_prefix_overlap_found(self, triple, xy):
        got = pair(0, 2, triple)
        assert (W(xy, "xyxx"), b"", b"", W(xy, "yy")) in \
            {(o.wi, o.wi2, o.wj, o.wj2) for o in got}

    def test_self_border(self, xy):
        G = basis(["x*y*x^2*y - 1"], xy)
        got = pair(0, 0, G)
        assert [(o.wi, o.wi2, o.wj, o.wj2) for o in got] == \
            [(b"", W(xy, "xxy"), W(xy, "xyx"), b"")]

    def test_disjoint_letters_have_none(self, xy):
        G = basis(["x - 1", "y - 1"], xy)
        assert pair(0, 1, G) == []

    def test_equal_leading_words(self, xy):
        G = basis(["x*y*x - 1", "x*y*x - y"], xy)
        got = pair(0, 1, G)
        tuples = {(o.wi, o.wi2, o.wj, o.wj2) for o in got}
        # the coinciding placement once, plus both border orientations
        assert (b"", b"", b"", b"") in tuples
        assert (b"", W(xy, "yx"), W(xy, "xy"), b"") in tuples
        assert (W(xy, "xy"), b"", b"", W(xy, "yx")) in tuples
        assert len(tuples) == 3

    def test_out_of_range(self, xy):
        G = basis(["x - 1"], xy)
        with pytest.raises(IndexError):
            nontrivial_obstructions(1, G)
        with pytest.raises(IndexError):
            nontrivial_obstructions(-1, G)

    def test_each_offset_once(self, triple, xy):
        for j in range(len(triple)):
            for i in range(j + 1):
                offsets = sorted(len(o.wj) - len(o.wi) for o in pair(i, j, triple))
                assert all(a < b for a, b in zip(offsets, offsets[1:]))

    def test_against_alignment_enumeration(self, xy):
        rng = random.Random(19)
        checked = 0
        ordering = xy.llex
        while checked < 1000:
            G = random_basis(rng, ordering, 2, rng.randint(1, 4), max_degree=5)
            for j in range(len(G)):
                for i in range(j + 1):
                    got = {(o.wi, o.wi2, o.wj, o.wj2)
                           for o in pair(i, j, G)}
                    assert got == nontrivial_obstructions_brute(i, j, G)
                    checked += 1
        assert checked >= 1000


    def test_offset_loop_property(self):
        """Any two words, equal ones too: the brute-force set, aligned, by offset."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        words = st.binary(max_size=12).map(lambda w: bytes(c % 3 for c in w))
        ordering = Alphabet(["a", "b", "c"]).llex

        @hypothesis.settings(max_examples=500, deadline=None, database=None)
        @hypothesis.given(words, words, st.sampled_from(["free", "equal", "shifted"]))
        def check(w1, w2, how):
            if how == "equal":
                w2 = w1
            elif how == "shifted":  # w2 starts with the back half of w1
                w2 = (w1[len(w1) // 2:] + w2)[:12]
            G = BasisState.from_polynomials([NcPolynomial({w1: 1}),
                                             NcPolynomial({w2: 1})], ordering)
            for i, j in ((0, 0), (0, 1), (1, 1)):
                got = pair(i, j, G)
                assert {(o.wi, o.wi2, o.wj, o.wj2) for o in got} == \
                    nontrivial_obstructions_brute(i, j, G)
                for o in got:
                    assert aligned(i, j, o.wi, o.wi2, o.wj, o.wj2, G).common == o.common
                    assert has_overlap(o, G)
                offsets = sorted(len(o.wj) - len(o.wi) for o in got)
                assert all(a < b for a, b in zip(offsets, offsets[1:]))

        check()


    def test_batch_matches_pairwise_oracle_property(self):
        """Every batch, pair by pair and offset by offset, is the brute-force search.

        Random 1- to 3-letter bases with duplicated leading words, words that
        contain earlier ones, periodic words (self overlaps) and constants;
        every s, so also the batches of a basis that has grown past s.  The
        affix index then lists exactly the affixes of every word.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        orderings = {n: Alphabet(["a", "b", "c"][:n]).llex for n in (1, 2, 3)}
        word = st.binary(max_size=6)
        recipe = st.tuples(st.sampled_from(["fresh", "copy", "around", "periodic", "one"]),
                           word, word, st.integers(0, 20))

        @hypothesis.settings(max_examples=500, deadline=None, database=None)
        @hypothesis.given(st.sampled_from([1, 2, 3]), st.lists(recipe, min_size=1, max_size=6))
        def check(nletters, recipes):
            lws = []
            for how, u, v, k in recipes:
                u, v = (bytes(c % nletters for c in w) for w in (u, v))
                earlier = lws[k % len(lws)] if lws else u
                lws.append({"fresh": u, "copy": earlier, "around": u + earlier + v,
                            "periodic": (u * 4)[:2 * len(u) + k % (len(u) or 1)],
                            "one": b""}[how])
            G = BasisState.from_polynomials([NcPolynomial({w: 1}) for w in lws],
                                            orderings[nletters])
            for s in range(len(G)):
                assert_batch_is_brute(s, G)
                assert all(o.j == s and o.common == o.wi + lws[o.i] + o.wi2
                           for o in batch(s, G))
            assert_index_is_exact(G)

        check()

    def test_construction_order_and_interrupts_property(self):
        """A batch does not depend on the order of construction, nor on an interrupt.

        Targets are constructed in shuffled order with repeats, so the affix
        index may already cover words past a target.  First, a
        KeyboardInterrupt raised from ``_enter`` part-way through indexing
        one word leaves that word partly listed; the construction that
        follows indexes it again.  Every list stays exact, ascending and
        without repeats.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ordering = Alphabet(["x", "y"]).llex
        seen = {"interrupted": 0}

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.randoms(use_true_random=False), st.integers(1, 6),
                          st.integers(1, 40))
        def check(rng, size, stop):
            G = random_basis(rng, ordering, 2, size, max_degree=6)
            targets = list(range(size)) + rng.choices(range(size), k=size)
            rng.shuffle(targets)
            lws = G.leading_words
            # the index of words 0..t enters each word's 2 (n - 1) proper
            # affixes; stop at one of those
            entries = 2 * sum(max(len(w) - 1, 0) for w in lws[:targets[0] + 1])
            stop = 1 + stop % entries if entries else 0
            enter = obstructions._enter
            calls = 0

            def interrupting(index, affix, k):
                nonlocal calls
                calls += 1
                if calls == stop:
                    raise KeyboardInterrupt
                enter(index, affix, k)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(obstructions, "_enter", interrupting)
                if stop:
                    with pytest.raises(KeyboardInterrupt):
                        nontrivial_obstructions(targets[0], G)
                    k = G.indexed  # the word being indexed
                    assert k <= targets[0] and len(lws[k]) > 1
                    seen["interrupted"] += 1
                for s in targets:
                    assert_batch_is_brute(s, G)
            assert G.indexed == size
            assert_index_is_exact(G)

        check()
        assert min(seen.values()) > 0, seen

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(p.stem for p in REFERENCES.glob("*.prob")))
    def test_reference_bases_match_pairwise_oracle(self, name):
        problem = parse_problem(problem_path(name.split("_")[0]))
        basis_file = parse_problem(REFERENCES / f"{name}.prob",
                                   base_alphabet=problem.alphabet)
        G = BasisState.from_polynomials(basis_file.generators, problem.ordering)
        for s in range(len(G)):
            assert_batch_is_brute(s, G)


class TestHasOverlap:
    """The reference overlap test behind ``oracles.covered``."""

    def test_disjoint_copies(self, chain, xy):
        o = aligned(1, 2, W(xy, "x"), W(xy, "yx"), W(xy, "xxxy"), b"", chain)
        assert not has_overlap(o, chain)

    def test_emitted_obstructions_always_overlap(self, xy):
        rng = random.Random(21)
        ordering = xy.llex
        for _ in range(300):
            G = random_basis(rng, ordering, 2, rng.randint(1, 3), max_degree=4)
            for j in range(len(G)):
                for o in batch(j, G):
                    assert has_overlap(o, G)

    def test_shifted_products_do_not_overlap(self, xy):
        G = basis(["x - 1", "y - 1"], xy)
        o = aligned(0, 1, W(xy, "y"), b"", b"", W(xy, "x"), G)
        assert not has_overlap(o, G)


class TestOrderings:
    """The obstruction ordering: common word, then j, wj, i and wi."""

    def test_left_cofactor_breaks_tie(self, ab):
        # a*b sits twice in a*b*a*b; only the source-side left cofactor differs
        G = basis(["a*b - 1", "a*b*a*b - 1"], ab)
        first = aligned(0, 1, b"", W(ab, "ab"), b"", b"", G)
        second = aligned(0, 1, W(ab, "ab"), b"", b"", b"", G)
        assert obstruction_key(second, ab.llex) > obstruction_key(first, ab.llex)

    def test_equal_terms(self, xy):
        G = basis(["x*y - 1", "y*x - 1"], xy)
        a = aligned(0, 1, b"", W(xy, "x"), W(xy, "x"), b"", G)
        b = aligned(0, 1, b"", W(xy, "x"), W(xy, "x"), b"", G)
        assert a == b and hash(a) == hash(b)
        assert obstruction_key(a, xy.llex) == obstruction_key(b, xy.llex)

    def test_index_breaks_placed_word_tie(self, xy):
        # same common word, target and target cofactors; the source index decides
        G = basis(["x*y - 1", "x*y - y", "y*x - 1"], xy)
        low = aligned(0, 2, b"", W(xy, "x"), W(xy, "x"), b"", G)
        high = aligned(1, 2, b"", W(xy, "x"), W(xy, "x"), b"", G)
        assert obstruction_key(high, xy.llex) > obstruction_key(low, xy.llex)

    def test_obstruction_comparison_from_common_words(self, triple, xy):
        big = aligned(0, 2, W(xy, "xyxx"), b"", b"", W(xy, "yy"), triple)
        small = aligned(1, 2, W(xy, "xy"), b"", b"", W(xy, "y"), triple)
        assert obstruction_key(big, xy.llex) > obstruction_key(small, xy.llex)

    def test_index_tie_on_equal_common_words(self, chain, xy):
        inner = aligned(0, 1, b"", b"", W(xy, "x"), W(xy, "yx"), chain)
        outer = aligned(0, 2, b"", b"", W(xy, "xxxy"), b"", chain)
        assert obstruction_key(inner, xy.llex) < obstruction_key(outer, xy.llex)

    def test_total_order_laws(self, xy):
        """Keys are injective and refine the ordering of common words."""
        rng = random.Random(27)
        ordering = xy.llex
        checked = 0
        while checked < 1000:
            G = random_basis(rng, ordering, 2, rng.randint(2, 4), max_degree=4)
            pool = [o for j in range(len(G)) for o in batch(j, G)]
            if len(pool) < 2:
                continue
            for _ in range(10):
                a, b = rng.choice(pool), rng.choice(pool)
                ka, kb = obstruction_key(a, ordering), obstruction_key(b, ordering)
                assert (ka == kb) == (a == b)
                if ordering.key(a.common) < ordering.key(b.common):
                    assert ka < kb
                checked += 1


    def test_key_matches_translated_key_property(self):
        """Left cofactor lengths order obstructions as the cofactor words do."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        word = st.binary(min_size=1, max_size=6).map(lambda w: bytes(c % 3 for c in w))

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.lists(word, min_size=1, max_size=4),
                          st.permutations(["a", "b", "c"]))
        def check(lws, precedence):
            ordering = Alphabet(precedence).llex
            G = BasisState.from_polynomials([NcPolynomial({w: 1}) for w in lws],
                                            ordering)
            pool = [o for j in range(len(G)) for o in batch(j, G)]
            assert sorted(pool, key=lambda o: obstruction_key(o, ordering)) == \
                sorted(pool, key=lambda o: translated_obstruction_key(o, ordering))

        check()

class TestClassify:
    """The reference coverage test behind ``oracles.backward_criterion_reference``."""

    def test_two_sided_multiple(self, triple, xy):
        base = aligned(0, 1, W(xy, "xx"), b"", b"", W(xy, "y"), triple)
        o = aligned(0, 1, W(xy, "xyxx"), b"", W(xy, "xy"), W(xy, "y"), triple)
        assert covered(o, triple, [base])

    def test_without_overlap(self, xy):
        G = basis(["(x*y)^2 - 1", "y - 1", "x*y*x^2*y - 1"], xy)
        o = aligned(0, 1, W(xy, "xyx"), b"", W(xy, "x"), W(xy, "xxyxy"), G)
        assert covered(o, G, [])

    def test_member_is_multiple_of_itself(self, triple, xy):
        candidates = pair(1, 2, triple)
        assert covered(candidates[0], triple, candidates)

    def test_missing_base_yields_neither(self, triple, xy):
        o = aligned(0, 1, W(xy, "xyxx"), b"", W(xy, "xy"), W(xy, "y"), triple)
        assert not covered(o, triple, [])
