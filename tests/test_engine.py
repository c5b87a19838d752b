"""The completion loop, interreduction, verification and bookkeeping."""

import random
import tracemalloc

import pytest

import ncgb.engine as engine
from ncgb.criteria import (
    backward_criterion,
    leading_word_criterion,
    multiply_criterion,
)
from ncgb.division import divide
from ncgb.engine import (
    BasisState,
    EngineConfig,
    ObstructionQueue,
    buchberger,
    interreduce,
    obstruction_batch,
    verify_groebner,
)
from ncgb.obstructions import nontrivial_obstructions, s_polynomial
from ncgb.polynomial import NcPolynomial, add_scaled, leading, parse_polynomial, sandwich
from ncgb.corpus import problem_path
from ncgb.cli import parse_problem
from oracles import aligned, assert_removals_dominated, batch_brute, validate_division


def polys(texts, alphabet):
    return [parse_polynomial(t, alphabet) for t in texts]


def partition_holds(st):
    return st.tot == st.sel + st.m + st.f + st.tail + st.bk + st.truncated_discards


def check_invariants(mp, ordering):
    """Make the engine check every m and f removal and every division it runs."""
    basis = []
    batch = engine.obstruction_batch

    def recording_batch(s, G, trunc=None):
        basis[:] = [G]
        return batch(s, G, trunc)

    def checked(criterion):
        def wrapper(news):
            rep = criterion(news)
            assert_removals_dominated(rep, basis[0], ordering)
            return rep
        return wrapper

    def validated_remainder(f, G, ordering):
        result = divide(f, G, ordering)
        validate_division(result, f, G, ordering)
        return result.remainder

    mp.setattr(engine, "obstruction_batch", recording_batch)
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
        assert G.generators[0] == parse_polynomial("x*y - 1", xy)
        assert G.leading_words[0] == xy.word("xy")

    def test_zero_rejected(self, xy):
        with pytest.raises(ValueError):
            BasisState().append(NcPolynomial.zero(), xy.llex)

    def test_affix_index_is_linear_in_word_length(self, ab):
        # keyed by the affixes themselves, the index of one 4,000-letter
        # leading word would hold about 16 MB of prefixes and suffixes
        f = parse_polynomial("(a*b)^2000 - a", ab)
        tracemalloc.start()
        try:
            G = BasisState()
            G.append(f, ab.llex)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(G.by_prefix) == len(G.by_suffix) == 3999
        assert kept < 4_000_000


class TestSelection:
    def make_queue(self, xy):
        G = BasisState.from_polynomials(polys(["x + 1", "y + 1"], xy), xy.llex)
        lower = aligned(0, 1, b"", xy.word("yy"), xy.word("x"), xy.word("y"), G)
        upper = aligned(0, 1, b"", xy.word("xy"), xy.word("xx"), b"", G)
        quartic = aligned(0, 1, b"", xy.word("xyy"), xy.word("xx"), xy.word("y"), G)
        queue = ObstructionQueue(xy.llex)
        for o in (quartic, upper, lower):
            queue.push(o)
        return G, queue, (lower, upper, quartic)

    def test_degree_then_word(self, xy):
        G, queue, (lower, upper, quartic) = self.make_queue(xy)
        assert queue.pop_smallest() == lower
        assert queue.pop_smallest() == upper
        assert queue.pop_smallest() == quartic

    def test_empty_queue_raises(self, xy):
        G, queue, _ = self.make_queue(xy)
        while len(queue):
            queue.pop_smallest()
        with pytest.raises(LookupError):
            queue.pop_smallest()

    def test_discard_skips_entries(self, xy):
        G, queue, (lower, upper, quartic) = self.make_queue(xy)
        queue.discard(lower)
        assert queue.pop_smallest() == upper


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
            out.append(set(interreduce(G, xy.llex).generators))
            ok, _ = verify_groebner(G, xy.llex)
            assert ok
        assert out[0] == out[1]

    def test_constant_generator_collapses(self, xy):
        cfg = EngineConfig(ordering=xy.llex)
        G, st = buchberger(polys(["3", "x*y - 1"], xy), cfg)
        reduced = interreduce(G, xy.llex)
        assert list(reduced.generators) == [parse_polynomial("1", xy)]

    def test_duplicate_generators_dropped(self, xy):
        cfg = EngineConfig(ordering=xy.llex)
        G, st = buchberger(polys(["x - 1", "2*x - 2"], xy), cfg)
        assert len(G) == 1

    def test_zero_generator_rejected(self, xy):
        with pytest.raises(ValueError):
            buchberger([NcPolynomial.zero()], EngineConfig(ordering=xy.llex))
        with pytest.raises(ValueError):
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
        assert (st.gb_size, st.tot, st.sel, st.m, st.f, st.tail, st.bk) == \
            (11, 150, 31, 98, 8, 0, 13)
        assert partition_holds(st)
        assert float(st.rho) == pytest.approx(0.2067, abs=5e-5)

    def test_invariant_checked_run(self, g09, monkeypatch):
        check_invariants(monkeypatch, g09.ordering)
        G, st = buchberger(g09.generators, EngineConfig(ordering=g09.ordering))
        assert st.gb_size == 11

    def test_derivations_reconstruct_new_generators(self, g09, monkeypatch):
        divisions = []

        def recording(f, G, ordering):
            result = divide(f, G, ordering)
            divisions.append((f, result))
            return result.remainder

        monkeypatch.setattr(engine, "normal_remainder", recording)
        G, st = buchberger(g09.generators, EngineConfig(ordering=g09.ordering))
        assert any(result.quotients for _, result in divisions)
        s = 3  # each non-zero remainder, made monic, is the next generator
        for S, result in divisions:
            acc = result.remainder
            for i, c, left, right in result.quotients:
                acc = add_scaled(acc, c, sandwich(left, G[i], right))
            assert acc == S
            if result.remainder:
                lc, _ = leading(result.remainder, g09.ordering)
                assert add_scaled(NcPolynomial.zero(), lc, G[s]) == result.remainder
                s += 1
        assert s == len(G)

    def test_integral_input_keeps_int_coefficients(self, g09, monkeypatch):
        def int_only(f):
            return all(type(c) is int for _, c in f.items())

        def checked_divide(f, G, ordering):
            res = divide(f, G, ordering)
            assert int_only(f) and int_only(res.remainder)
            assert all(type(c) is int for _, c, _, _ in res.quotients)
            return res.remainder

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
        assert st.capped and st.cap_reason == "max_basis"
        assert len(G) == 5

    def test_max_degree_cap(self, g09):
        cfg = EngineConfig(ordering=g09.ordering, max_degree=4)
        G, st = buchberger(g09.generators, cfg)
        assert st.capped and st.cap_reason == "max_degree"

    def test_batch_order_does_not_matter(self, g09, monkeypatch):
        """A shuffled batch keeps the same survivors and removal counts.

        The engine hands the criteria each batch in construction order,
        unsorted; m, f and bk must not depend on that order.
        """
        braid4 = parse_problem(problem_path("braid4"))
        rng = random.Random(67)
        for problem, trunc in ((g09, None), (braid4, 6)):
            batches, pendings = [], []

            def record_m(news):
                batches.append(list(news))
                return multiply_criterion(news)

            def record_bk(B, news, s, G):
                pendings.append((list(B), s))
                return backward_criterion(B, news, s, G)

            with monkeypatch.context() as mp:
                mp.setattr(engine, "multiply_criterion", record_m)
                mp.setattr(engine, "backward_criterion", record_bk)
                cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc)
                G, st = buchberger(problem.generators, cfg)

            def chain(batch, pending, s):
                m = multiply_criterion(batch)
                f = leading_word_criterion(m.survivors)
                bk = backward_criterion(pending, f.survivors, s, G)
                return (set(f.survivors), {o for o, _ in bk.removed},
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
        """Reversing every constructed batch leaves the basis and the row alone.

        Construction lists each pair's obstructions by offset, not in
        selection order; the criteria's removal sets and the queue's unique
        keys must make that order irrelevant.
        """
        batch = engine.obstruction_batch

        def reversed_batch(s, G, trunc=None):
            news, cut = batch(s, G, trunc)
            return news[::-1], cut

        for name, trunc in (("g05", None), ("g09", None), ("braid4", 6)):
            problem = parse_problem(problem_path(name))
            cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc)
            G, st = buchberger(problem.generators, cfg)
            with monkeypatch.context() as mp:
                mp.setattr(engine, "obstruction_batch", reversed_batch)
                reversed_G, reversed_st = buchberger(problem.generators, cfg)
            assert list(reversed_G) == list(G)
            assert reversed_st == st

    def test_input_leading_word_inside_another(self, ab):
        # lw(a*b - 1) is a factor of lw(a*b*a - b): the only kind of input on
        # which the removed tail criterion could fire
        gens = polys(["a*b - 1", "a*b*a - b", "b*a*b - a"], ab)
        out = []
        for criteria in (False, True):
            G, st = buchberger(gens, EngineConfig(ordering=ab.llex, criteria=criteria))
            assert st.tail == 0 and partition_holds(st)
            out.append(set(interreduce(G, ab.llex).generators))
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
        assert list(reduced.generators) == polys(["x - 1"], xy)

    def test_tails_reduced(self, xy):
        G = BasisState.from_polynomials(polys(["x - 1", "y^2 - x"], xy), xy.llex)
        reduced = interreduce(G, xy.llex)
        assert parse_polynomial("y^2 - 1", xy) in reduced.generators

    def test_fixpoint(self, g09):
        braid4 = parse_problem(problem_path("braid4"))
        # g09 drops generators but rewrites no tail; braid4 rewrites one
        for problem, trunc, size, rewritten in ((g09, None, 5, 0), (braid4, 6, 25, 1)):
            cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc)
            G, _ = buchberger(problem.generators, cfg)
            reduced = interreduce(G, problem.ordering)
            assert len(reduced) == size
            assert sum(f not in G.generators for f in reduced) == rewritten
            again = interreduce(reduced, problem.ordering)
            assert list(again.generators) == list(reduced.generators)
            lws = reduced.leading_words
            for f, lw in zip(reduced, lws):
                tail = [w for w in f.support() if w != lw]
                assert not any(w.find(v) >= 0 for w in tail for v in lws)

    def test_equal_leading_words_keep_first(self, xy):
        G = BasisState.from_polynomials(polys(["x*y - 1", "x*y - y"], xy), xy.llex)
        reduced = interreduce(G, xy.llex)
        assert reduced.leading_words.count(xy.word("xy")) == 1


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


def test_obstruction_batch_is_every_pair_within_the_bound(xy):
    G = BasisState.from_polynomials(polys(["x*y*x - y", "y*x*y - x", "x*x*y - y"], xy),
                                    xy.llex)
    for s in range(len(G)):
        news = nontrivial_obstructions(s, G)
        assert [(o.i, o.wi, o.wi2, o.wj, o.wj2) for o in news] == batch_brute(s, G)
        assert obstruction_batch(s, G) == (news, 0)
        for trunc in range(3, 7):
            kept = [o for o in news if len(o.common) <= trunc]
            assert obstruction_batch(s, G, trunc) == (kept, len(news) - len(kept))


@pytest.mark.parametrize("name,trunc", [("g09", None), ("braid4", 6)])
def test_construction_called_once_per_batch(name, trunc, monkeypatch):
    """Construction goes through ``engine.nontrivial_obstructions``, once per batch.

    The benchmark's tracer wraps that module global and counts ``tot`` as
    the summed lengths of its results.
    """
    problem = parse_problem(problem_path(name))
    calls = []
    build = engine.nontrivial_obstructions

    def counted(s, G):
        batch = build(s, G)
        calls.append(len(batch))
        return batch

    monkeypatch.setattr(engine, "nontrivial_obstructions", counted)
    G, st = buchberger(problem.generators,
                       EngineConfig(ordering=problem.ordering, truncation_degree=trunc))
    assert len(calls) == st.gb_size == len(G)
    assert sum(calls) == st.tot
    calls.clear()
    reduced = interreduce(G, problem.ordering)
    assert verify_groebner(reduced, problem.ordering, trunc) == (True, [])
    assert len(calls) == len(reduced)


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
        if stb.capped or sti.capped:
            continue
        assert partition_holds(stb) and partition_holds(sti)
        assert set(interreduce(Gb, xy.llex).generators) == \
            set(interreduce(Gi, xy.llex).generators)
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
        assert not st.capped and partition_holds(st)
        reduced.append(set(interreduce(G, problem.ordering).generators))
    assert reduced[0] == reduced[1]
