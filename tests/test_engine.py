"""The completion loop, interreduction, verification and bookkeeping."""

import gc
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import ncgb.engine as engine
from ncgb.criteria import (
    backward_criterion,
    leading_word_criterion,
    multiply_criterion,
)
from ncgb.division import normal_remainder
from ncgb.engine import (
    BasisState,
    EngineConfig,
    ObstructionQueue,
    RunStats,
    absorb,
    buchberger,
    interreduce,
    verify_groebner,
)
from ncgb.obstructions import build_obstructions, nontrivial_obstructions, s_polynomial
from ncgb.polynomial import (
    NcPolynomial,
    add_scaled,
    leading,
    parse_polynomial,
    sandwich,
)
from ncgb.words import Alphabet
from ncgb.corpus import problem_path
from ncgb.cli import parse_problem
from oracles import (
    aligned,
    assert_removals_dominated,
    batch_brute,
    built,
    minimal_leading_words_reference,
    monic_reference,
    offset_pair,
    random_basis,
    random_polynomial,
    random_word,
    reference_divide,
    reference_verify,
    validate_division,
)


REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def polys(texts, alphabet):
    return [parse_polynomial(t, alphabet) for t in texts]


def affix_index(G):
    """The affix index of ``G``: how far it reaches and its two dicts."""
    return G.indexed, G.prefixes, G.suffixes


def reordered_batches(seed):
    """``engine.nontrivial_obstructions`` with each batch reversed (seed None) or shuffled.

    The bound's cut keeps the order it is given, so every batch reaches
    the criteria reordered.
    """
    construct = engine.nontrivial_obstructions
    rng = random.Random(seed)

    def reordered(s, G):
        news = list(construct(s, G))
        if seed is None:
            return news[::-1]
        rng.shuffle(news)
        return news

    return reordered


def partition_holds(st):
    return st.tot == st.sel + st.m + st.f + st.bk + st.truncated_discards


def check_invariants(mp, ordering):
    """Make the engine check every m and f removal and every division it runs."""
    def checked(criterion):
        def wrapper(news, s, G):
            news = list(news)
            rep = criterion(news, s, G)
            assert_removals_dominated(news, rep, s, G, ordering)
            return rep
        return wrapper

    def validated_remainder(f, G, ordering):
        remainder = normal_remainder(f, G, ordering)
        validate_division(f, remainder, G, ordering)
        return remainder

    for name in ("multiply_criterion", "leading_word_criterion"):
        mp.setattr(engine, name, checked(getattr(engine, name)))
    mp.setattr(engine, "normal_remainder", validated_remainder)


@pytest.fixture(scope="module")
def g09():
    return parse_problem(problem_path("g09"))


class TestBasisState:
    def test_append_normalizes(self, xy):
        G = BasisState()
        G.append(parse_polynomial("2*x*y - 2", xy), xy.llex)
        assert G[0] == parse_polynomial("x*y - 1", xy)
        assert G.leading_words[0] == xy.word("xy")

    def test_append_divides_exactly(self, ab):
        # an integral quotient stays an int, any other becomes a Fraction
        G = BasisState()
        G.append(parse_polynomial("3*a - 1", ab), ab.llex)
        assert G.tails == [((b"", Fraction(-1, 3)),)]
        assert type(G[0].coefficient(ab.word("a"))) is int
        G.append(parse_polynomial("3*b - 6", ab), ab.llex)
        assert G.tails[1] == ((b"", -2),) and type(G.tails[1][0][1]) is int

    def test_zero_rejected(self, xy):
        with pytest.raises(ValueError, match="zero polynomial cannot join a basis"):
            BasisState().append(NcPolynomial(), xy.llex)

    def test_append_finds_each_leading_word_once(self, ab, monkeypatch):
        # one leading-term scan per generator, made monic or not
        gens = polys(["2*a*b - 1", "b*a*b - a", "a - 3*b", "-b + a*a"], ab)
        want = [monic_reference(f, ab.llex) for f in gens]
        scanned = []

        def counted(f, ordering):
            scanned.append(f)
            return leading(f, ordering)

        monkeypatch.setattr(engine, "leading", counted)
        G = BasisState.from_polynomials(gens, ab.llex)
        assert scanned == gens
        assert list(G) == want

    def test_append_indexes_no_affix(self, ab):
        # the affix index belongs to obstruction construction, which
        # extends it only up to the targets it constructs
        G = BasisState.from_polynomials(polys(["a*b - 1", "b*a*b - a"], ab), ab.llex)
        assert affix_index(G) == (0, {}, {})
        nontrivial_obstructions(0, G)
        assert affix_index(G) == (1, {ab.word("a"): [0]}, {ab.word("b"): [0]})

    def test_affix_index_is_linear_in_word_length(self, ab):
        # keyed by copies of the affixes, the index of one 4,000-letter
        # leading word would hold about 16 MB of prefixes and suffixes; its
        # keys are views into the word instead
        f = parse_polynomial("(a*b)^2000 - a", ab)
        tracemalloc.start()
        try:
            G = BasisState()
            G.append(f, ab.llex)
            nontrivial_obstructions(0, G)  # builds the index of word 0
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(G.prefixes) == len(G.suffixes) == 3999
        assert {type(view) for view in (*G.prefixes, *G.suffixes)} == {memoryview}
        assert kept < 4_000_000

    def test_generators_are_leading_word_and_tail_property(self):
        """``G[k]`` and ``iter(G)`` rebuild each monic generator, also after interreduce."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        orderings = {2: Alphabet(["a", "b"]).llex, 3: Alphabet(["b", "c", "a"]).llex}

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.randoms(use_true_random=False), st.sampled_from([2, 3]),
                          st.integers(1, 8))
        def check(rng, nletters, size):
            ordering = orderings[nletters]
            inputs = [random_polynomial(rng, nletters) for _ in range(size)]
            G = BasisState.from_polynomials(inputs, ordering)
            assert list(G) == [monic_reference(f, ordering) for f in inputs]
            for B in (G, interreduce(G, ordering)):
                assert len(B) == len(B.tails)
                assert [B[k] for k in range(len(B))] == list(B)
                assert [leading(f, ordering) for f in B] == \
                    [(1, lw) for lw in B.leading_words]

        check()


class TestSelection:
    def make_queue(self, xy):
        G = BasisState.from_polynomials(polys(["x + 1", "y + 1"], xy), xy.llex)
        lower = aligned(0, 1, b"", xy.word("yy"), xy.word("x"), xy.word("y"), G)
        upper = aligned(0, 1, b"", xy.word("xy"), xy.word("xx"), b"", G)
        quartic = aligned(0, 1, b"", xy.word("xyy"), xy.word("xx"), xy.word("y"), G)
        queue = ObstructionQueue(xy.llex)
        for o in (quartic, upper, lower):
            queue.live[o] = True
            queue.push(o)
        return queue, (lower, upper, quartic)

    def test_degree_then_word(self, xy):
        queue, (lower, upper, quartic) = self.make_queue(xy)
        assert [queue.pop_smallest() for _ in range(3)] == [lower, upper, quartic]
        assert not queue.live

    def test_empty_queue_raises(self, xy):
        queue, _ = self.make_queue(xy)
        for _ in range(3):
            queue.pop_smallest()
        with pytest.raises(LookupError):
            queue.pop_smallest()

    def test_entry_deleted_from_live_is_skipped(self, xy):
        queue, (lower, upper, quartic) = self.make_queue(xy)
        del queue.live[lower]
        assert queue.pop_smallest() == upper
        assert list(queue.live) == [quartic]

    def test_repeated_push_pops_once(self, xy):
        lower = self.make_queue(xy)[1][0]
        queue = ObstructionQueue(xy.llex)
        queue.live[lower] = True
        queue.push(lower)
        queue.push(lower)
        assert queue.pop_smallest() == lower
        with pytest.raises(LookupError):
            queue.pop_smallest()


class TestBuchberger:
    def test_single_generator_short_circuit(self, xy):
        cfg = EngineConfig(ordering=xy.llex)
        G, st = buchberger(polys(["x - 1"], xy), cfg)
        assert len(G) == 1 and st.tot == 0 and st.sel == 0

    def test_two_sided_inverse_pair(self, xy):
        gens = polys(["x*y - 1", "y*x - 1"], xy)
        out = []
        for criteria in (False, True):
            cfg = EngineConfig(ordering=xy.llex, criteria=criteria)
            G, st = buchberger(gens, cfg)
            assert partition_holds(st)
            out.append(set(interreduce(G, xy.llex)))
            ok, _ = verify_groebner(G, xy.llex)
            assert ok
        assert out[0] == out[1]

    def test_constant_generator_collapses(self, xy):
        cfg = EngineConfig(ordering=xy.llex)
        G, st = buchberger(polys(["3", "x*y - 1"], xy), cfg)
        reduced = interreduce(G, xy.llex)
        assert list(reduced) == [parse_polynomial("1", xy)]

    def test_duplicate_generators_dropped(self, xy):
        cfg = EngineConfig(ordering=xy.llex)
        G, st = buchberger(polys(["x - 1", "2*x - 2"], xy), cfg)
        assert len(G) == 1
        G, st = buchberger(polys(["y^2 - y", "2*x - 2", "x - 1", "y^2 - y"], xy), cfg)
        assert list(G) == polys(["y^2 - y", "x - 1"], xy)

    def test_zero_generator_rejected(self, xy):
        with pytest.raises(ValueError, match="zero polynomial cannot join a basis"):
            buchberger(polys(["x - 1"], xy) + [NcPolynomial()], EngineConfig(ordering=xy.llex))
        with pytest.raises(ValueError, match="no generators"):
            buchberger([], EngineConfig(ordering=xy.llex))

    def test_truncation_needs_homogeneous(self, xy):
        cfg = EngineConfig(ordering=xy.llex, truncation_degree=5)
        with pytest.raises(ValueError):
            buchberger(polys(["x*y - 1"], xy), cfg)

    def test_config_validation(self, xy):
        with pytest.raises(ValueError):
            buchberger(polys(["x - 1"], xy),
                       EngineConfig(ordering=xy.llex, max_basis=0))

    def test_reference_statistics(self, g09):
        cfg = EngineConfig(ordering=g09.ordering)
        G, st = buchberger(g09.generators, cfg)
        assert (len(G), st.tot, st.sel, st.m, st.f, st.bk) == (11, 150, 31, 98, 8, 13)
        assert partition_holds(st)
        assert float(st.rho) == pytest.approx(0.2067, abs=5e-5)

    def test_invariant_checked_run(self, g09, monkeypatch):
        check_invariants(monkeypatch, g09.ordering)
        G, st = buchberger(g09.generators, EngineConfig(ordering=g09.ordering))
        assert len(G) == 11

    def test_derivations_reconstruct_new_generators(self, g09, monkeypatch):
        divisions = []

        def recording(f, G, ordering):
            quotients, expected = reference_divide(f, G, ordering)
            remainder = normal_remainder(f, G, ordering)
            assert remainder == expected
            divisions.append((f, quotients, remainder))
            return remainder

        monkeypatch.setattr(engine, "normal_remainder", recording)
        G, st = buchberger(g09.generators, EngineConfig(ordering=g09.ordering))
        assert any(quotients for _, quotients, _ in divisions)
        s = 3  # each non-zero remainder, made monic, is the next generator
        for S, quotients, remainder in divisions:
            acc = remainder
            for i, c, left, right in quotients:
                acc = add_scaled(acc, c, sandwich(left, G[i], right))
            assert acc == S
            if remainder:
                lc, _ = leading(remainder, g09.ordering)
                assert add_scaled(NcPolynomial(), lc, G[s]) == remainder
                s += 1
        assert s == len(G)

    def test_integral_input_keeps_int_coefficients(self, g09, monkeypatch):
        def int_only(f):
            return all(type(c) is int for _, c in f.items())

        def checked_divide(f, G, ordering):
            remainder = normal_remainder(f, G, ordering)
            assert int_only(f) and int_only(remainder)
            return remainder

        braid4 = parse_problem(problem_path("braid4"))
        monkeypatch.setattr(engine, "normal_remainder", checked_divide)
        for problem, trunc in ((g09, None), (braid4, 6)):
            cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc)
            G, _ = buchberger(problem.generators, cfg)
            reduced = interreduce(G, problem.ordering)
            assert all(int_only(f) for f in list(G) + list(reduced))

    def test_max_basis_cap(self, g09):
        cfg = EngineConfig(ordering=g09.ordering, max_basis=5)
        G, st = buchberger(g09.generators, cfg)
        assert st.cap_reason == "max_basis"
        assert len(G) == 5

    def test_max_degree_cap(self, g09):
        cfg = EngineConfig(ordering=g09.ordering, max_degree=4)
        G, st = buchberger(g09.generators, cfg)
        assert st.cap_reason == "max_degree"

    def test_batch_order_does_not_matter(self, g09, monkeypatch):
        """A shuffled batch keeps the same survivors and removal counts.

        The engine hands the criteria each batch in construction order,
        unsorted; m, f and bk must not depend on that order.
        """
        braid4 = parse_problem(problem_path("braid4"))
        rng = random.Random(67)
        for problem, trunc in ((g09, None), (braid4, 6)):
            batches, pendings = [], []

            def record_m(news, s, G):
                batches.append(list(news))
                return multiply_criterion(news, s, G)

            def record_bk(B, news, s, G):
                pendings.append((list(B), s))
                return backward_criterion(B, news, s, G)

            with monkeypatch.context() as mp:
                mp.setattr(engine, "multiply_criterion", record_m)
                mp.setattr(engine, "backward_criterion", record_bk)
                cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc)
                G, st = buchberger(problem.generators, cfg)

            def chain(batch, pending, s):
                m = multiply_criterion(batch, s, G)
                f = leading_word_criterion(m.survivors, s, G)
                bk = backward_criterion(pending, f.survivors, s, G)
                return (set(f.survivors), set(bk.removed),
                        (m.removed_m, f.removed_f, bk.removed_bk))

            totals = [0, 0, 0]
            shuffled_batches = 0
            for batch, (pending, s) in zip(batches, pendings, strict=True):
                expected = chain(batch, pending, s)
                totals = [t + c for t, c in zip(totals, expected[2])]
                for _ in range(10):
                    mixed, mixed_pending = list(batch), list(pending)
                    rng.shuffle(mixed)
                    rng.shuffle(mixed_pending)
                    shuffled_batches += mixed != batch
                    assert chain(mixed, mixed_pending, s) == expected
            assert totals == [st.m, st.f, st.bk]
            assert shuffled_batches > 20

    def test_completion_ignores_batch_order(self, monkeypatch):
        """Reversing or shuffling every constructed batch leaves the basis and the row alone.

        Construction lists each batch in discovery order, not in selection
        order; the criteria's removal sets and the queue's unique keys must
        make that order irrelevant.
        """
        for name, trunc in (("g05", None), ("g09", None), ("braid4", 6)):
            problem = parse_problem(problem_path(name))
            cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc)
            G, st = buchberger(problem.generators, cfg)
            for seed in (None, 1, 2, 3):  # None reverses
                with monkeypatch.context() as mp:
                    mp.setattr(engine, "nontrivial_obstructions", reordered_batches(seed))
                    reordered_G, reordered_st = buchberger(problem.generators, cfg)
                assert list(reordered_G) == list(G)
                assert reordered_st == st

    @pytest.mark.parametrize("name,trunc", [("g06", None), ("braid4", 10)])
    def test_named_failure_ignores_batch_order(self, name, trunc, monkeypatch):
        """Reordered batches name the same failure: the failing batch's survivors are sorted.

        The reference basis without its second generator, checked with
        every batch reversed or shuffled.
        """
        problem = parse_problem(problem_path(name))
        basis_file = parse_problem(REFERENCES / f"{name}.prob", base_alphabet=problem.alphabet)
        gens = basis_file.generators
        G = BasisState.from_polynomials(gens[:1] + gens[2:], problem.ordering)
        expected = verify_groebner(G, problem.ordering, trunc)
        assert not expected[0]
        for seed in (None, 1, 2, 3):
            with monkeypatch.context() as mp:
                mp.setattr(engine, "nontrivial_obstructions", reordered_batches(seed))
                assert verify_groebner(G, problem.ordering, trunc) == expected

    def test_input_leading_word_inside_another(self, ab):
        # lw(a*b - 1) is a factor of lw(a*b*a - b): the only kind of input on
        # which the removed tail criterion could fire
        gens = polys(["a*b - 1", "a*b*a - b", "b*a*b - a"], ab)
        out = []
        for criteria in (False, True):
            G, st = buchberger(gens, EngineConfig(ordering=ab.llex, criteria=criteria))
            assert partition_holds(st)
            out.append(set(interreduce(G, ab.llex)))
        assert out[0] == out[1]

    def test_selected_degrees_non_decreasing_when_homogeneous(self, monkeypatch):
        problem = parse_problem(problem_path("braid3"))
        degrees = []

        def recording(o, G, ordering):
            degrees.append(len(o.common))
            return s_polynomial(o, G, ordering)

        monkeypatch.setattr(engine, "s_polynomial", recording)
        cfg = EngineConfig(ordering=problem.ordering, truncation_degree=6)
        G, st = buchberger(problem.generators, cfg)
        assert len(degrees) == st.sel
        assert degrees == sorted(degrees)
        assert partition_holds(st)


class TestInterreduce:
    def test_redundant_leading_word_dropped(self, xy):
        G = BasisState.from_polynomials(polys(["x - 1", "x^2 - x"], xy), xy.llex)
        reduced = interreduce(G, xy.llex)
        assert list(reduced) == polys(["x - 1"], xy)

    def test_tails_reduced(self, xy):
        G = BasisState.from_polynomials(polys(["x - 1", "y^2 - x"], xy), xy.llex)
        reduced = interreduce(G, xy.llex)
        assert parse_polynomial("y^2 - 1", xy) in list(reduced)

    def test_fixpoint(self, g09):
        braid4 = parse_problem(problem_path("braid4"))
        # g09 drops generators but rewrites no tail; braid4 rewrites one
        for problem, trunc, size, rewritten in ((g09, None, 5, 0), (braid4, 6, 25, 1)):
            cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc)
            G, _ = buchberger(problem.generators, cfg)
            reduced = interreduce(G, problem.ordering)
            assert len(reduced) == size
            completed = list(G)
            assert sum(f not in completed for f in reduced) == rewritten
            again = interreduce(reduced, problem.ordering)
            assert list(again) == list(reduced)
            lws = reduced.leading_words
            for f, lw in zip(reduced, lws):
                tail = [w for w in f.support() if w != lw]
                assert not any(w.find(v) >= 0 for w in tail for v in lws)

    def test_result_copies_kept_generators(self, g09, monkeypatch):
        """The reduced state takes the kept leading words and tails as they are.

        No generator is rebuilt as a polynomial, appended again or searched
        for its leading term, and the affix index stays empty: the reduced
        basis is only printed, and nothing constructs its obstructions.
        """
        G, _ = buchberger(g09.generators, EngineConfig(ordering=g09.ordering))
        want = list(interreduce(G, g09.ordering))

        def unused(*args):
            raise AssertionError("interreduce rebuilt a generator")

        monkeypatch.setattr(engine, "leading", unused)
        monkeypatch.setattr(BasisState, "append", unused)
        monkeypatch.setattr(BasisState, "__getitem__", unused)
        monkeypatch.setattr(BasisState, "from_polynomials", unused)
        reduced = interreduce(G, g09.ordering)
        assert affix_index(reduced) == (0, {}, {})
        monkeypatch.undo()
        assert list(reduced) == want

    def test_equal_leading_words_keep_first(self, xy):
        G = BasisState.from_polynomials(polys(["x*y - 1", "x*y - y"], xy), xy.llex)
        reduced = interreduce(G, xy.llex)
        assert reduced.leading_words.count(xy.word("xy")) == 1

    def test_minimal_leading_words_property(self):
        """The automaton keeps the leading words the pairwise scan keeps.

        Leading words are drawn from a small pool, so duplicates are
        common, and the pool may hold the empty word, a constant
        generator's: a proper factor of every other word, but not of itself.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        orderings = {2: Alphabet(["a", "b"]).llex, 3: Alphabet(["b", "c", "a"]).llex}
        seen = {"duplicate": 0, "empty": 0, "empty_duplicate": 0}

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.randoms(use_true_random=False), st.sampled_from([2, 3]),
                          st.integers(1, 12), st.booleans())
        def check(rng, nletters, size, constants):
            ordering = orderings[nletters]
            pool = [random_word(rng, nletters, 1, 4) for _ in range(rng.randint(1, size))]
            if constants:
                pool.append(b"")
            G = BasisState()
            for _ in range(size):
                lw = rng.choice(pool)
                tail = {b"": rng.randint(1, 3)} if lw and rng.random() < 0.5 else {}
                G.append(NcPolynomial({lw: 1, **tail}), ordering)
            kept = minimal_leading_words_reference(G.leading_words, ordering)
            reduced = interreduce(G, ordering)
            assert reduced.leading_words == [G.leading_words[k] for k in kept]
            lws = G.leading_words
            seen["duplicate"] += len(set(lws)) < len(lws)
            seen["empty"] += b"" in lws
            seen["empty_duplicate"] += lws.count(b"") > 1

        check()
        assert all(seen.values())


class TestVerify:
    def test_completed_run_verifies(self, g09):
        G, _ = buchberger(g09.generators, EngineConfig(ordering=g09.ordering))
        ok, failures = verify_groebner(G, g09.ordering)
        assert ok and failures == []

    def test_incomplete_set_fails_with_certificate(self, xy):
        G = BasisState.from_polynomials(polys(["x^2 - y", "x^3 - x"], xy), xy.llex)
        ok, failures = verify_groebner(G, xy.llex)
        assert not ok and len(failures) == 1

    def test_single_generator_without_self_overlap(self, xy):
        G = BasisState.from_polynomials(polys(["x - 1"], xy), xy.llex)
        ok, _ = verify_groebner(G, xy.llex)
        assert ok

    def test_truncated_verification(self):
        problem = parse_problem(problem_path("braid3"))
        cfg = EngineConfig(ordering=problem.ordering, truncation_degree=6)
        G, _ = buchberger(problem.generators, cfg)
        ok, _ = verify_groebner(G, problem.ordering, truncation=6)
        assert ok

    def test_truncation_requires_homogeneous_basis(self, xy):
        # not a Groebner basis, and a bound must not let it pass
        G = BasisState.from_polynomials(polys(["x^2 - 1", "y^2 - 1", "x*y - y"], xy),
                                        xy.llex)
        with pytest.raises(ValueError, match="homogeneous"):
            verify_groebner(G, xy.llex, truncation=2)
        ok, failures = verify_groebner(G, xy.llex)
        assert not ok and (failures[0].i, failures[0].j) == (1, 2)

    def test_first_failure_by_key_not_by_offset(self, ab):
        # lw(g_1) = a*b*a meets lw(g_0) = a*a*b at offset -2 (common word
        # a*b*a*a*b) and at +1 (a*a*b*a).  Both S-polynomials fail, and the
        # batch's offset order meets the longer common word first
        G = BasisState.from_polynomials(polys(["a*a*b - b", "a*b*a - a"], ab), ab.llex)
        first, second = build_obstructions(1, G, sorted(nontrivial_obstructions(1, G)))[:2]
        assert (first.i, first.common, second.i, second.common) == \
            (0, ab.word("abaab"), 0, ab.word("aaba"))
        for o in (first, second):
            assert normal_remainder(s_polynomial(o, G, ab.llex), G, ab.llex)
        assert verify_groebner(G, ab.llex) == reference_verify(G, ab.llex) == (False, [second])

    @pytest.mark.parametrize("truncation", [0, -3])
    def test_truncation_must_be_positive(self, ab, truncation):
        # not a Groebner basis, yet no obstruction fits a bound below 1
        G = BasisState.from_polynomials(polys(["a*a*b - b*b*b", "a*b*b - b*a*a"], ab),
                                        ab.llex)
        assert not verify_groebner(G, ab.llex)[0]
        with pytest.raises(ValueError, match="truncation must be positive"):
            verify_groebner(G, ab.llex, truncation=truncation)


def cut_batch(s, G, trunc):
    """The obstructions of target s that ``absorb`` builds under ``trunc`` without criteria.

    Returns them with the batch's ``tot`` and ``truncated_discards``.
    """
    stats = RunStats()
    kept = absorb(s, G, None, stats, trunc, criteria=False)
    return kept, stats.tot, stats.truncated_discards


def test_obstruction_batch_is_every_pair_within_the_bound(xy):
    """``absorb`` builds the batch's pairs whose common word fits, and counts the rest."""
    G = BasisState.from_polynomials(polys(["x*y*x - y", "y*x*y - x", "x*x*y - y"], xy),
                                    xy.llex)
    for s in range(len(G)):
        news = nontrivial_obstructions(s, G)
        batch = build_obstructions(s, G, news)
        assert [(o.i, o.wi, o.wi2, o.wj, o.wj2)
                for o in build_obstructions(s, G, sorted(news))] == batch_brute(s, G)
        assert cut_batch(s, G, None) == (batch, len(news), 0)
        for trunc in range(3, 7):
            kept = [o for o in batch if len(o.common) <= trunc]
            assert cut_batch(s, G, trunc) == (kept, len(news), len(news) - len(kept))


def test_truncation_arithmetic_property():
    """The bound decided from (i, d) and the lengths is the built common word's.

    ``max(-d, 0) + max(a, b + d) <= T`` must hold exactly when the common
    word fits T, for every pair of random 1- to 3-letter bases and every
    bound from 1 to past the longest common word: bounds below both word
    lengths, and leading words longer than the bound, included.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    orderings = {n: Alphabet(["a", "b", "c"][:n]).llex for n in (1, 2, 3)}
    word = st.binary(min_size=1, max_size=7)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.sampled_from([1, 2, 3]), st.lists(word, min_size=1, max_size=5))
    def check(nletters, words):
        lws = [bytes(c % nletters for c in w) for w in words]
        G = BasisState.from_polynomials([NcPolynomial({w: 1}) for w in lws],
                                        orderings[nletters])
        for s in range(len(G)):
            news = nontrivial_obstructions(s, G)
            lengths = [len(o.common) for o in built(news, s, G)]
            for trunc in range(1, max(lengths, default=0) + 2):
                kept, tot, cut = cut_batch(s, G, trunc)
                fits = [p for p, n in zip(news, lengths) if n <= trunc]
                assert list(map(offset_pair, kept)) == fits
                assert (tot, cut) == (len(news), len(news) - len(fits))

    check()


def test_truncation_drops_every_pair_of_a_longer_generator(xy):
    # a homogeneous generator of degree 5 under bound 4: its self overlaps
    # and its overlaps with x*y all have a common word of 5 letters or more
    G = BasisState.from_polynomials(polys(["x*y - y*x", "x*y*x*y*x - y^5"], xy), xy.llex)
    news = nontrivial_obstructions(1, G)
    assert news and cut_batch(1, G, 4) == ([], len(news), len(news))
    kept, _, cut = cut_batch(1, G, 5)
    assert (sorted(map(offset_pair, kept)), cut) == ([(0, -2), (0, 0)], len(news) - 2)
    cfg = EngineConfig(ordering=xy.llex, truncation_degree=4)
    _, st = buchberger(polys(["x*y*x*y*x - y^5"], xy), cfg)
    assert st.tot == st.truncated_discards > 0 and st.built == st.sel == 0


@pytest.mark.parametrize("name,trunc", [("g09", None), ("braid4", 6)])
def test_construction_called_once_per_batch(name, trunc, monkeypatch):
    """Construction and each criterion go through a module global, once per batch.

    The benchmark's tracer wraps ``engine.nontrivial_obstructions`` and
    the three criteria as module globals: it counts ``tot`` as the summed
    lengths of the construction results, and m, f and bk as the summed
    ``removed_*`` counts of the criterion reports.
    """
    problem = parse_problem(problem_path(name))
    names = ("nontrivial_obstructions", "multiply_criterion",
             "leading_word_criterion", "backward_criterion")
    calls = {name: [] for name in names}

    def counted(name):
        fn = getattr(engine, name)

        def wrapper(*args):
            result = fn(*args)
            calls[name].append(result)
            return result
        return wrapper

    for name in names:
        monkeypatch.setattr(engine, name, counted(name))
    G, st = buchberger(problem.generators,
                       EngineConfig(ordering=problem.ordering, truncation_degree=trunc))
    assert all(len(results) == len(G) for results in calls.values())
    assert sum(map(len, calls["nontrivial_obstructions"])) == st.tot
    for name, kind in zip(names[1:], ("m", "f", "bk")):
        assert sum(getattr(rep, f"removed_{kind}") for rep in calls[name]) == \
            getattr(st, kind)
    for results in calls.values():
        results.clear()
    reduced = interreduce(G, problem.ordering)
    assert verify_groebner(reduced, problem.ordering, trunc) == (True, [])
    assert len(calls["nontrivial_obstructions"]) == len(reduced)


@pytest.mark.parametrize("name,trunc,modes", [("g09", None, (True, False)),
                                               ("braid4", 6, (True, False)),
                                               ("g13", None, (True,))],
                         ids=["g09", "braid4", "g13"])
def test_only_survivors_are_built(name, trunc, modes, monkeypatch):
    """``built`` counts the obstruction tuples completion makes: the m and f survivors.

    In the basic procedure every pair within the bound is built.  On g13 m
    and f leave under 5% of the batch, so building only the survivors
    skips almost all the work.
    """
    problem = parse_problem(problem_path(name))
    made = []
    build = engine.build_obstructions

    def counted(s, G, pairs):
        made.append(len(pairs))
        return build(s, G, pairs)

    monkeypatch.setattr(engine, "build_obstructions", counted)
    for criteria in modes:
        made.clear()
        cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc,
                           criteria=criteria)
        _, st = buchberger(problem.generators, cfg)
        assert st.built == sum(made)
        if criteria:
            assert st.built == st.tot - st.truncated_discards - st.m - st.f
            if name == "g13":
                assert st.built < 0.05 * st.tot
        else:
            assert st.built == st.tot - st.truncated_discards


@pytest.mark.parametrize("name,trunc", [("g13", None), ("braid4", 8)])
def test_finished_bases_release_their_automata(name, trunc, monkeypatch):
    """Completion and interreduction leave no divisor automaton on their bases.

    An automaton's states form cycles, so one left on a dropped basis
    waits for a full garbage collection.  With the collector off, the
    completed and the reduced basis, once dropped, leave nothing for it;
    so does a completion cut short by an interrupt.
    """
    problem = parse_problem(problem_path(name))
    cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc)
    gc.collect()
    gc.disable()
    try:
        G, _ = buchberger(problem.generators, cfg)
        reduced = interreduce(G, problem.ordering)
        assert G.divisor_index is None and reduced.divisor_index is None
        del G, reduced
        assert gc.collect() == 0
        calls = 0
        reduce = engine.normal_remainder

        def interrupted(f, G, ordering):
            nonlocal calls
            calls += 1
            if calls == 20:
                raise KeyboardInterrupt
            return reduce(f, G, ordering)

        monkeypatch.setattr(engine, "normal_remainder", interrupted)
        G, st = buchberger(problem.generators, cfg)
        assert st.cap_reason == "interrupted" and G.divisor_index is None
        del G
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_random_small_ideals_mode_equivalence(xy):
    rng = random.Random(61)
    from oracles import random_polynomial
    cases = 0
    while cases < 25:
        gens = [random_polynomial(rng, 2, max_terms=3, max_degree=3)
                for _ in range(rng.randint(1, 3))]
        cfg_b = EngineConfig(ordering=xy.llex, criteria=False, max_basis=40,
                             max_degree=10)
        cfg_i = EngineConfig(ordering=xy.llex, max_basis=40, max_degree=10)
        Gb, stb = buchberger(gens, cfg_b)
        Gi, sti = buchberger(gens, cfg_i)
        if stb.cap_reason or sti.cap_reason:
            continue
        assert partition_holds(stb) and partition_holds(sti)
        assert set(interreduce(Gb, xy.llex)) == set(interreduce(Gi, xy.llex))
        ok, _ = verify_groebner(Gi, xy.llex)
        assert ok
        cases += 1


SLOW_CORPUS = [(f"g{k:02d}", None) for k in range(1, 14)] + [("braid3", 9), ("braid4", 9)]


@pytest.mark.slow
@pytest.mark.parametrize("name,trunc", SLOW_CORPUS)
def test_corpus_mode_equivalence(name, trunc, monkeypatch):
    """Basic and improved completion give the same reduced basis on the corpus.

    The improved run also checks every m and f removal and every division.
    """
    problem = parse_problem(problem_path(name))
    reduced = []
    for criteria in (False, True):
        cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc,
                           criteria=criteria)
        with monkeypatch.context() as mp:
            if criteria:
                check_invariants(mp, problem.ordering)
            G, st = buchberger(problem.generators, cfg)
        assert not st.cap_reason and partition_holds(st)
        reduced.append(set(interreduce(G, problem.ordering)))
    assert reduced[0] == reduced[1]


def test_verify_matches_reference_property():
    """``verify_groebner`` gives the exhaustive verdict and names the reference's failure.

    ``reference_verify`` checks every obstruction and names the smallest
    failing M/F survivor by (s, obstruction ordering); it raises if a
    failure shows among the removed obstructions only.  The "reordered"
    count records examples where the first failing survivor in discovery
    order is not the one named, so the sort shows.

    The bases are random, random with one generator repeated at a random
    position, random binomials, homogeneous binomials checked up to a
    bound, the reduced basis of g04 or g09 with a generator dropped,
    braid4's reduced basis truncated at degree 7 (its reference basis cut
    to degree <= 7) with a generator dropped and checked up to 7, or
    braid4's reduced basis truncated at degree 8 with a generator dropped,
    in printed order or shuffled, and checked up to 5, 6 or 7, so that
    generators above the bound sit among those that fit it: most are not
    Groebner bases.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    orderings = {2: Alphabet(["a", "b"]).llex,
                 3: Alphabet(["b", "c", "a"]).llex}
    corpus = {}
    for kind, name, trunc in (("g04", "g04", None), ("g09", "g09", None),
                              ("braid4", "braid4", 7), ("braid4<=8", "braid4", 8)):
        problem = parse_problem(problem_path(name))
        done, _ = buchberger(problem.generators,
                             EngineConfig(ordering=problem.ordering, truncation_degree=trunc))
        corpus[kind] = (list(interreduce(done, problem.ordering)), problem.ordering, trunc)
    corpus["braid4<=8 shuffled"] = corpus["braid4<=8"]
    seen = {"ok": 0, "failed": 0, "reordered": 0}

    def binomial(rng, nletters, homogeneous):
        while True:
            u = random_word(rng, nletters, 1, 4)
            v = random_word(rng, nletters, len(u) if homogeneous else 0, len(u))
            if u != v:
                return NcPolynomial({u: 1, v: -1})

    @hypothesis.settings(max_examples=450, deadline=None, database=None)
    @hypothesis.given(st.randoms(use_true_random=False),
                      st.sampled_from(["random", "duplicate", "binomial", "homogeneous",
                                       "g04", "g09", "braid4", "braid4<=8",
                                       "braid4<=8 shuffled"]),
                      st.sampled_from([2, 3]), st.integers(1, 6), st.integers(1, 8))
    def check(rng, kind, nletters, size, bound):
        truncation = bound if kind == "homogeneous" else None
        if kind in corpus:
            gens, ordering, truncation = corpus[kind]
            drop = rng.randrange(len(gens))
            gens = gens[:drop] + gens[drop + 1:]
            if kind.startswith("braid4<=8"):
                truncation = 5 + bound % 3
                if kind.endswith("shuffled"):
                    rng.shuffle(gens)
        else:
            ordering = orderings[nletters]
            if kind in ("random", "duplicate"):
                gens = list(random_basis(rng, ordering, nletters, size, max_degree=4))
                if kind == "duplicate":
                    gens.insert(rng.randint(0, len(gens)), rng.choice(gens))
            else:
                gens = [binomial(rng, nletters, kind == "homogeneous") for _ in range(size)]
        G = BasisState.from_polynomials(gens, ordering)
        expected = reference_verify(G, ordering, truncation)
        assert verify_groebner(G, ordering, truncation) == expected
        ok, failures = expected
        seen["ok" if ok else "failed"] += 1
        if not ok:
            # the first failing survivor in discovery order
            survivors = absorb(failures[0].j, G, None, RunStats(), truncation)
            first = next(o for o in survivors
                         if normal_remainder(s_polynomial(o, G, ordering), G, ordering))
            seen["reordered"] += first != failures[0]

    check()
    assert min(seen.values()) > 0, seen


def test_verify_absorbs_only_the_generators_within_the_bound(monkeypatch):
    """A generator whose leading word exceeds the bound takes no part in the check.

    braid4's reference basis (416 generators, trunc 11) checked at 10:
    only the 228 generators of degree <= 10 are absorbed, in index order,
    and the basis passes.
    """
    problem = parse_problem(problem_path("braid4"))
    basis_file = parse_problem(REFERENCES / "braid4.prob", base_alphabet=problem.alphabet)
    G = BasisState.from_polynomials(basis_file.generators, problem.ordering)
    absorbed = []

    def recorded(s, *args):
        absorbed.append(s)
        return absorb(s, *args)

    monkeypatch.setattr(engine, "absorb", recorded)
    assert verify_groebner(G, problem.ordering, 10) == (True, [])
    assert absorbed == [s for s, lw in enumerate(G.leading_words) if len(lw) <= 10]
    assert (len(G), len(absorbed)) == (416, 228)


def test_verify_indexes_only_the_generators_within_the_bound():
    """Construction indexes the affixes of no generator past its last target.

    braid4's reference basis is sorted by length, so at bound 10 the 228
    generators within it come first, and the 188 longer ones are never
    indexed.
    """
    problem = parse_problem(problem_path("braid4"))
    basis_file = parse_problem(REFERENCES / "braid4.prob", base_alphabet=problem.alphabet)
    G = BasisState.from_polynomials(basis_file.generators, problem.ordering)
    lengths = [len(lw) for lw in G.leading_words]
    assert lengths == sorted(lengths) and len(G) == 416
    assert verify_groebner(G, problem.ordering, 10) == (True, [])
    assert G.indexed == 228 == sum(n <= 10 for n in lengths)
    assert {k for ks in G.prefixes.values() for k in ks} == \
        {k for k in range(228) if lengths[k] > 1}


def test_verify_keys_no_obstruction(monkeypatch):
    """Verification reads its pending set in place: no heap, so no obstruction key."""
    problem = parse_problem(problem_path("g06"))
    ordering = problem.ordering
    done, _ = buchberger(problem.generators, EngineConfig(ordering=ordering))
    G = interreduce(done, ordering)

    def unkeyed(o, ordering):
        raise AssertionError("verification keyed an obstruction")

    monkeypatch.setattr(engine, "obstruction_key", unkeyed)
    assert verify_groebner(G, ordering) == (True, [])


@pytest.mark.parametrize("name", ["g06", "g13"])
def test_verify_reduces_only_the_survivors(name, monkeypatch):
    """A Groebner basis is verified by reducing only the M and F survivors.

    These are the obstructions each batch keeps once the multiply and
    leading-word criteria have run, summed over the batches of every
    generator: far fewer than the non-trivial obstructions (35,569 on
    g06, 67,425 on g13), which a fallback to the exhaustive check would
    reduce, and more than completion leaves pending, where B prunes too.
    """
    problem = parse_problem(problem_path(name))
    ordering = problem.ordering
    done, _ = buchberger(problem.generators, EngineConfig(ordering=ordering))
    G = interreduce(done, ordering)
    stats = RunStats()
    survivors = sum(len(absorb(s, G, None, stats)) for s in range(len(G)))
    pending = {}
    for s in range(len(G)):
        absorb(s, G, pending, RunStats())
    assert len(pending) < survivors < stats.tot
    reduced = []

    def counted(f, G, ordering):
        reduced.append(f)
        return normal_remainder(f, G, ordering)

    monkeypatch.setattr(engine, "normal_remainder", counted)
    assert verify_groebner(G, ordering) == (True, [])
    assert len(reduced) == survivors


def broken_bases(name, trunc, drops):
    """(basis, ordering) pairs: the reduced basis of ``name`` without one generator.

    Each generator whose index is in ``drops`` is dropped in turn.
    """
    problem = parse_problem(problem_path(name))
    ordering = problem.ordering
    done, _ = buchberger(problem.generators,
                         EngineConfig(ordering=ordering, truncation_degree=trunc))
    gens = list(interreduce(done, ordering))
    for drop in drops:
        yield BasisState.from_polynomials(gens[:drop] + gens[drop + 1:], ordering), ordering


def test_verify_failure_reduces_each_survivor_at_most_twice(monkeypatch):
    """A failure costs the survivors up to its batch, and that batch's once more.

    g13's reduced basis without generator 30: the first survivor to fail
    is in batch 39.  Verification reduces the survivors of batches 0..39
    in discovery order, then at most the survivors of batch 39 again, to
    name the smallest failing one.
    """
    G, ordering = next(broken_bases("g13", None, [30]))
    sizes = []
    for s in range(len(G)):
        survivors = absorb(s, G, None, RunStats())
        sizes.append(len(survivors))
        if any(normal_remainder(s_polynomial(o, G, ordering), G, ordering) for o in survivors):
            break
    calls = 0

    def counted(f, G, ordering):
        nonlocal calls
        calls += 1
        return normal_remainder(f, G, ordering)

    monkeypatch.setattr(engine, "normal_remainder", counted)
    assert not verify_groebner(G, ordering)[0]
    assert (len(sizes) - 1, sum(sizes) + sizes[-1]) == (39, 463)
    assert calls <= sum(sizes) + sizes[-1]


def test_verify_never_runs_the_backward_criterion(monkeypatch):
    """Verification keeps no pending set, so B never runs, on a pass or a failure."""
    def refused(*args):
        raise AssertionError("verification ran the backward criterion")

    problem = parse_problem(problem_path("g06"))
    basis_file = parse_problem(REFERENCES / "g06.prob", base_alphabet=problem.alphabet)
    G = BasisState.from_polynomials(basis_file.generators, problem.ordering)
    broken, ordering = next(broken_bases("g06", None, [1]))
    monkeypatch.setattr(engine, "backward_criterion", refused)
    assert verify_groebner(G, problem.ordering) == (True, [])
    assert not verify_groebner(broken, ordering)[0]


@pytest.mark.parametrize("name,trunc,drops", [("g06", None, range(0, 120, 15)),
                                              ("braid4", 7, range(44))],
                         ids=["g06", "braid4-trunc7"])
def test_verify_matches_reference_where_bk_fired(name, trunc, drops):
    """Broken bases on which B would prune still get the exhaustive check's verdict.

    The reduced basis without one generator: absorbed with a pending set,
    as completion absorbs its input, B removes obstructions from it on
    almost every such basis, and verification, which runs only M and F,
    names the same failure as ``reference_verify``, which checks that the
    exhaustive pass fails too.
    """
    cases = fired = 0
    for G, ordering in broken_bases(name, trunc, drops):
        cases += 1
        stats, pending = RunStats(), {}
        for s in range(len(G)):
            if trunc is None or len(G.leading_words[s]) <= trunc:
                absorb(s, G, pending, stats, trunc)
        fired += stats.bk > 0
        expected = reference_verify(G, ordering, trunc)
        assert not expected[0]
        assert verify_groebner(G, ordering, trunc) == expected
    assert fired > cases // 2
