"""The completion loop, interreduction, verification and bookkeeping."""

import random

import pytest

from ncgb.engine import (
    ALL_CRITERIA,
    BasisState,
    EngineConfig,
    ObstructionQueue,
    buchberger,
    interreduce,
    verify_groebner,
)
from ncgb.obstructions import aligned, s_polynomial
from ncgb.polynomial import NcPolynomial, add_scaled, parse_polynomial, sandwich
from ncgb.corpus import problem_path
from ncgb.cli import parse_problem


def polys(texts, alphabet):
    return [parse_polynomial(t, alphabet) for t in texts]


def partition_holds(st):
    return st.tot == st.sel + st.m + st.f + st.tail + st.bk + st.truncated_discards


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


class TestSelection:
    def make_queue(self, xy):
        G = BasisState.from_polynomials(polys(["x + 1", "y + 1"], xy), xy.llex)
        lower = aligned(0, 1, b"", xy.word("yy"), xy.word("x"), xy.word("y"), G)
        upper = aligned(0, 1, b"", xy.word("xy"), xy.word("xx"), b"", G)
        quartic = aligned(0, 1, b"", xy.word("xyy"), xy.word("xx"), xy.word("y"), G)
        queue = ObstructionQueue(G, xy.llex)
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
        for criteria in (frozenset(), ALL_CRITERIA):
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
        with pytest.raises(ValueError):
            buchberger(polys(["x - 1"], xy),
                       EngineConfig(ordering=xy.llex, criteria=frozenset({"x"})))
        with pytest.raises(ValueError):
            buchberger(polys(["x - 1"], xy),
                       EngineConfig(ordering=xy.llex, criteria=frozenset({"tail"})))

    def test_reference_statistics(self, g09):
        cfg = EngineConfig(ordering=g09.ordering)
        G, st = buchberger(g09.generators, cfg)
        assert (st.gb_size, st.tot, st.sel, st.m, st.f, st.tail, st.bk) == \
            (11, 150, 31, 98, 8, 0, 13)
        assert partition_holds(st)
        assert float(st.rho) == pytest.approx(0.2067, abs=5e-5)

    def test_invariant_checked_run(self, g09):
        cfg = EngineConfig(ordering=g09.ordering, record_derivations=True,
                           check_invariants=True)
        G, st = buchberger(g09.generators, cfg)
        assert st.gb_size == 11

    def test_derivations_reconstruct_new_generators(self, g09):
        cfg = EngineConfig(ordering=g09.ordering, record_derivations=True)
        G, st = buchberger(g09.generators, cfg)
        assert len(G.derivations) == len(G)
        rebuilt = 0
        for s, derivation in enumerate(G.derivations):
            if derivation is None:
                continue
            o, quotients, lc = derivation
            acc = NcPolynomial.zero()
            for i, c, left, right in quotients:
                acc = add_scaled(acc, c, sandwich(left, G[i], right))
            assert s_polynomial(o, G, g09.ordering) == add_scaled(acc, lc, G[s])
            rebuilt += 1
        assert rebuilt == len(G) - 3

    def test_max_basis_cap(self, g09):
        cfg = EngineConfig(ordering=g09.ordering, max_basis=5)
        G, st = buchberger(g09.generators, cfg)
        assert st.capped and st.cap_reason == "max_basis"
        assert len(G) == 5

    def test_max_degree_cap(self, g09):
        cfg = EngineConfig(ordering=g09.ordering, max_degree=4)
        G, st = buchberger(g09.generators, cfg)
        assert st.capped and st.cap_reason == "max_degree"

    def test_criteria_subsets_agree_on_the_basis(self, g09):
        expected = None
        for subset in (frozenset(), frozenset({"m"}), frozenset({"f", "bk"}),
                       ALL_CRITERIA):
            cfg = EngineConfig(ordering=g09.ordering, criteria=subset)
            G, st = buchberger(g09.generators, cfg)
            assert partition_holds(st)
            reduced = frozenset(interreduce(G, g09.ordering).generators)
            if expected is None:
                expected = reduced
            assert reduced == expected

    def test_input_leading_word_inside_another(self, ab):
        # lw(a*b - 1) is a factor of lw(a*b*a - b): the only kind of input on
        # which the removed tail criterion could fire
        gens = polys(["a*b - 1", "a*b*a - b", "b*a*b - a"], ab)
        out = []
        for criteria in (frozenset(), ALL_CRITERIA):
            G, st = buchberger(gens, EngineConfig(ordering=ab.llex, criteria=criteria))
            assert st.tail == 0 and partition_holds(st)
            out.append(set(interreduce(G, ab.llex).generators))
        assert out[0] == out[1]

    def test_selected_degrees_non_decreasing_when_homogeneous(self):
        problem = parse_problem(problem_path("braid3"))
        cfg = EngineConfig(ordering=problem.ordering, truncation_degree=6,
                           record_selections=True)
        G, st = buchberger(problem.generators, cfg)
        assert st.selections == sorted(st.selections)
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
        G, _ = buchberger(g09.generators, EngineConfig(ordering=g09.ordering))
        reduced = interreduce(G, g09.ordering)
        assert len(reduced) == 5
        again = interreduce(reduced, g09.ordering)
        assert list(again.generators) == list(reduced.generators)

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


def test_random_small_ideals_mode_equivalence(xy):
    rng = random.Random(61)
    from oracles import random_polynomial
    cases = 0
    while cases < 25:
        gens = [random_polynomial(rng, 2, max_terms=3, max_degree=3)
                for _ in range(rng.randint(1, 3))]
        cfg_b = EngineConfig(ordering=xy.llex, criteria=frozenset(), max_basis=40,
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
def test_corpus_mode_equivalence(name, trunc):
    """Basic and improved completion give the same reduced basis on the corpus."""
    problem = parse_problem(problem_path(name))
    reduced = []
    for criteria in (frozenset(), ALL_CRITERIA):
        cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc,
                           criteria=criteria)
        G, st = buchberger(problem.generators, cfg)
        assert not st.capped and partition_holds(st)
        reduced.append(set(interreduce(G, problem.ordering).generators))
    assert reduced[0] == reduced[1]
