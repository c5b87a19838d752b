"""The division loop and its full contract."""

import gc
import random

import pytest

import ncgb.division as division
from ncgb.cli import parse_problem
from ncgb.corpus import problem_path
from ncgb.division import DivisorIndex, normal_remainder
from ncgb.engine import BasisState, EngineConfig, buchberger, verify_groebner
from ncgb.polynomial import NcPolynomial, add_scaled, leading, parse_polynomial, sandwich
from ncgb.words import Alphabet
from oracles import (
    random_basis,
    random_polynomial,
    random_word,
    reference_divide,
    reference_find_divisor,
    validate_division,
)


def basis(texts, alphabet):
    polys = [parse_polynomial(t, alphabet) for t in texts]
    return BasisState.from_polynomials(polys, alphabet.llex)


def test_single_reduction_step(xy):
    G = basis(["x*y - 1"], xy)
    f = parse_polynomial("x*y + y", xy)
    remainder = normal_remainder(f, G, xy.llex)
    assert remainder == parse_polynomial("y + 1", xy)
    validate_division(f, remainder, G, xy.llex)


def test_member_reduces_to_zero(xy):
    G = basis(["x*y - 1", "y^2 - y"], xy)
    assert not normal_remainder(G[1], G, xy.llex)


def test_no_divisor_applies(xy):
    G = basis(["x*y - 1"], xy)
    f = parse_polynomial("y", xy)
    assert normal_remainder(f, G, xy.llex) == f


def test_zero_dividend(xy):
    G = basis(["x*y - 1"], xy)
    assert not normal_remainder(NcPolynomial(), G, xy.llex)


def test_leftmost_occurrence_chosen(xy):
    # x^2 occurs in x^3 at 0 and at 1: the leftmost leaves y*x, the other x*y
    G = basis(["x^2 - y"], xy)
    f = parse_polynomial("x^3", xy)
    remainder = normal_remainder(f, G, xy.llex)
    assert remainder == parse_polynomial("y*x", xy)
    validate_division(f, remainder, G, xy.llex)


def test_smallest_index_preferred(xy):
    # both leading words divide x*y*x; index order must pick the first,
    # whose tail gives 2*x where the second's would give 3*x
    G = basis(["y*x - 2", "x*y - 3"], xy)
    f = parse_polynomial("x*y*x", xy)
    remainder = normal_remainder(f, G, xy.llex)
    assert remainder == parse_polynomial("2*x", xy)
    validate_division(f, remainder, G, xy.llex)


def test_integral_remainder_coefficient_is_int(xy):
    # monic x - 1/2*y times 2 leaves Fraction(1) on y, stored as int 1
    G = basis(["2*x - y"], xy)
    remainder = normal_remainder(parse_polynomial("2*x", xy), G, xy.llex)
    assert remainder == parse_polynomial("y", xy)
    assert type(remainder.coefficient(xy.word("y"))) is int


def test_constant_divisor_kills_everything(xy):
    G = basis(["2"], xy)
    f = random_polynomial(random.Random(0), 2)
    assert not normal_remainder(f, G, xy.llex)


def test_constant_divisor_in_the_tail(xy):
    # 2 joins after the automaton is built over x*y, so only the find tail
    # (b"" occurs at position 0 of every word) can report it
    G = basis(["x*y - 1"], xy)
    normal_remainder(NcPolynomial(), G, xy.llex)
    G.append(parse_polynomial("2", xy), xy.llex)
    f = random_polynomial(random.Random(1), 2)
    remainder = normal_remainder(f, G, xy.llex)
    assert G.divisor_index.size == 1 and not remainder
    validate_division(f, remainder, G, xy.llex)


def test_full_contract_on_random_instances(xy):
    """The remainder equals the rescan's, and the rescan keeps the contract.

    The reference's quotients and remainder rebuild ``f``, no remainder
    word holds a leading word, and the remainder does not rise above the
    leading word of ``f``.
    """
    rng = random.Random(41)
    checked = 0
    for _ in range(1100):
        G = random_basis(rng, xy.llex, 2, rng.randint(1, 4), max_degree=4)
        f = random_polynomial(rng, 2, max_terms=5, max_degree=6)
        validate_division(f, normal_remainder(f, G, xy.llex), G, xy.llex)
        quotients, remainder = reference_divide(f, G, xy.llex)
        acc = remainder
        for i, c, left, right in quotients:
            acc = add_scaled(acc, c, sandwich(left, G[i], right))
        assert acc == f
        for word in remainder.support():
            assert reference_find_divisor(word, G.leading_words) is None
        if remainder:
            top = leading(f, xy.llex)[1]
            assert xy.llex.key(leading(remainder, xy.llex)[1]) <= xy.llex.key(top)
        checked += 1
    assert checked >= 1000


def test_idempotent_and_deterministic(xy):
    rng = random.Random(43)
    for _ in range(400):
        G = random_basis(rng, xy.llex, 2, rng.randint(1, 3), max_degree=4)
        f = random_polynomial(rng, 2)
        r1 = normal_remainder(f, G, xy.llex)
        r2 = normal_remainder(f, G, xy.llex)
        assert r1 == r2
        assert normal_remainder(r1, G, xy.llex) == r1


def test_cancelled_word_produced_again(xy):
    # x^2 + x*y + y*x - 2*y^2: rewriting x^2 leaves -y^2, rewriting x*y
    # cancels y^2, and rewriting y*x brings it back; y^2 then sits in the
    # heap twice and must be peeled into the remainder exactly once
    G = basis(["x^2 - y^2", "x*y - y^2", "y*x - y^2"], xy)
    f = parse_polynomial("x^2 + x*y + y*x - 2*y^2", xy)
    remainder = normal_remainder(f, G, xy.llex)
    assert remainder == parse_polynomial("y^2", xy)
    assert reference_divide(f, G, xy.llex) == (
        [(0, 1, b"", b""), (1, 1, b"", b""), (2, 1, b"", b"")], remainder)
    # without the y*x term the cancelled y^2 never returns
    f = parse_polynomial("x^2 + x*y - 2*y^2", xy)
    assert not normal_remainder(f, G, xy.llex)
    assert len(reference_divide(f, G, xy.llex)[0]) == 2


def test_matches_reference_divide(xy):
    """The same remainder as a rescan, with integer coefficients kept as int."""
    abc = Alphabet(["a", "b", "c"])
    orderings = [(xy.llex, 2), (Alphabet(["y", "x"]).llex, 2),
                 (abc.llex, 3), (Alphabet(["b", "c", "a"]).llex, 3)]
    rng = random.Random(47)
    for k in range(1200):
        ordering, n = orderings[k % len(orderings)]
        integral = k % 2 == 0
        G = random_basis(rng, ordering, n, rng.randint(1, 5), max_degree=4,
                         integral=integral)
        f = random_polynomial(rng, n, max_terms=6, max_degree=6, integral=integral)
        remainder = normal_remainder(f, G, ordering)
        assert remainder == reference_divide(f, G, ordering)[1]
        if integral:
            assert all(type(c) is int for _, c in remainder.items())


def test_normal_word_remembered(xy):
    G = basis(["x*y - 1"], xy)
    yx = xy.word("yx")
    f = parse_polynomial("y*x", xy)
    assert normal_remainder(f, G, xy.llex) == f and G.normal_words == {yx: 1}
    # the entry stays true when the basis grows; the scan resumes at index 1
    G.append(parse_polynomial("y*x - 1", xy), xy.llex)
    assert normal_remainder(f, G, xy.llex) == parse_polynomial("1", xy)
    # divisor hits are not remembered, remainder words are
    assert G.normal_words == {yx: 1, b"": 2}


def test_remembered_count_skips_the_scan(xy):
    # the index covers x*y only; y*x sits in the tail.  The memo is
    # trusted: a planted count of 1 (at least the indexed prefix) for x*y*x
    # skips the automaton even though x*y occurs in the word, so only the
    # tail search from index 1 can explain the answer: y*x's tail 3, not 2
    G = basis(["x*y - 2"], xy)
    normal_remainder(parse_polynomial("y", xy), G, xy.llex)
    G.append(parse_polynomial("y*x - 3", xy), xy.llex)
    G.normal_words[xy.word("xyx")] = 1
    remainder = normal_remainder(parse_polynomial("x*y*x", xy), G, xy.llex)
    assert G.divisor_index.size == 1
    assert remainder == parse_polynomial("3*x", xy)
    # a count below the indexed prefix leaves the answer to the automaton
    G = basis(["x*y - 2", "y*x - 3"], xy)
    G.normal_words[xy.word("xyx")] = 1
    remainder = normal_remainder(parse_polynomial("x*y*x", xy), G, xy.llex)
    assert G.divisor_index.size == 2
    assert remainder == parse_polynomial("2*x", xy)


def test_memo_carried_across_appends(xy):
    """A basis grown one append at a time divides like a fresh rescan."""
    abc = Alphabet(["a", "b", "c"])
    rng = random.Random(53)
    resumed = 0
    for k in range(160):
        ordering, n = ((xy.llex, 2), (abc.llex, 3))[k % 2]
        integral = k % 4 < 2
        fs = [random_polynomial(rng, n, max_terms=6, max_degree=6, integral=integral)
              for _ in range(6)]
        G = BasisState()
        for _ in range(rng.randint(1, 5)):
            g = random_basis(rng, ordering, n, 1, max_degree=4, integral=integral)[0]
            G.append(g, ordering)
            resumed += sum(0 < c < len(G) for c in G.normal_words.values())
            for f in fs:
                assert normal_remainder(f, G, ordering) == reference_divide(f, G, ordering)[1]
            lws = G.leading_words
            for word, count in G.normal_words.items():
                assert count <= len(lws)
                assert not any(word.find(lw) >= 0 for lw in lws[:count])
    assert resumed > 100  # stale entries were met and extended


def test_verify_leaves_memo_empty():
    problem = parse_problem(problem_path("g09"))
    done, _ = buchberger(problem.generators, EngineConfig(ordering=problem.ordering))
    assert done.normal_words  # completion remembers its remainder words
    G = BasisState.from_polynomials(list(done), problem.ordering)
    ok, _ = verify_groebner(G, problem.ordering)
    assert ok and G.normal_words == {}


def marked_generator(k, pattern, mark):
    """``pattern`` minus a tail that tells index ``k`` apart from every other.

    The tail is (k + 2) * ``mark``, a one-letter word in no pattern, or the
    constant k + 2 for a one-letter pattern, which the mark would outrank;
    the empty pattern gets none.
    """
    terms = {pattern: 1}
    if pattern:
        terms[mark if len(pattern) > 1 else b""] = -(k + 2)
    return NcPolynomial(terms)


class IndexLog(list):
    """A list that logs every index read from it.

    Division reads ``G.tails[i]`` once per step, to apply divisor i, so
    the log is the sequence of divisors it applied.
    """

    def __init__(self, items):
        super().__init__(items)
        self.read = []

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def check_divisor_rule(patterns, word, indexed):
    """Divide the monomial ``word`` by the marked patterns and check each step.

    The basis holds :func:`marked_generator` of each pattern.  The
    automaton covers the first ``indexed`` of them, and the rest form the
    ``find`` tail (at most 16, so no rebuild).  The divisors applied must
    be the reference division's, step by step, and so must the remainder;
    when the divisor of the plain rule leaves only normal words, the
    remainder must be that one step: the coefficient names the index and
    the mark the occurrence.

    The alphabet holds every letter the patterns and the word use, and the
    mark, the letter after them.  Only patterns that use all 255 letters
    leave no letter for the mark; they are one letter long, so no tail
    needs it.
    """
    nletters = min(max(b"".join(patterns) + word, default=0) + 2, 255)
    mark = bytes([nletters - 1])
    assert not any(len(p) > 1 and mark in p for p in patterns)
    ordering = Alphabet([f"v{k}" for k in range(nletters)]).llex
    gens = [marked_generator(k, p, mark) for k, p in enumerate(patterns)]
    G = BasisState.from_polynomials(gens[:indexed], ordering)
    normal_remainder(NcPolynomial(), G, ordering)  # builds the automaton
    for g in gens[indexed:]:
        G.append(g, ordering)
    f = NcPolynomial({word: 1})
    quotients, expected = reference_divide(f, G, ordering)
    G.tails = log = IndexLog(G.tails)
    remainder = normal_remainder(f, G, ordering)
    assert G.divisor_index.size == indexed
    assert log.read == [i for i, _, _, _ in quotients]
    assert remainder == expected
    found = reference_find_divisor(word, patterns)
    if found is None:
        assert remainder == f
        return
    i, left, right = found
    step = add_scaled(f, -1, sandwich(left, gens[i], right))
    if all(reference_find_divisor(w, patterns) is None for w in step.support()):
        assert remainder == step


@pytest.mark.parametrize("patterns, word, expected", [
    # the empty leading word occurs at position 0 of every word
    ([b"\0\1", b""], b"\1\1\0", (1, b"", b"\1\1\0")),
    ([b"", b"\0"], b"", (0, b"", b"")),
    # a duplicate keeps the smaller index
    ([b"\1\0", b"\0\1", b"\0\1"], b"\0\0\1", (1, b"\0", b"")),
    # b*c is a proper suffix of a*b*c*d: the trie walk sits in a*b*c when
    # b*c ends, and only the merged failure link reports index 0
    ([b"\1\2", b"\0\1\2\3"], b"\0\1\2\4", (0, b"\0", b"\4")),
    # a smaller index ending later beats a larger one ending earlier
    ([b"\2\2", b"\0"], b"\0\2\2\1", (0, b"\0", b"\1")),
    # leftmost of two occurrences (both are rewritten, so the remainder does
    # not show which went first: test_leftmost_of_disjoint_occurrences does)
    ([b"\0\1"], b"\1\0\1\0\1", (0, b"\1", b"\0\1")),
    # letters no pattern uses send the walk back to the root
    ([b"\0\1"], b"\0\7\1\0\1", (0, b"\0\7\1", b"")),
    ([b"\0\1"], b"\0\7\1", None),
    ([b"\0\1"], b"\x09\x09", None),
    ([], b"\0", None),
    # the largest alphabet: 255 letters, every one a column and a pattern
    ([bytes([k]) for k in reversed(range(255))], b"\3\xfe", (0, b"\3", b"")),
    # leftmost of two overlapping occurrences
    ([b"\0\0"], b"\0\0\0", (0, b"", b"\0")),
    ([b"\0\1\0"], b"\0\1\0\1\0", (0, b"", b"\1\0")),
])
def test_index_cases(patterns, word, expected):
    assert reference_find_divisor(word, patterns) == expected
    for indexed in range(max(len(patterns) - 16, 0), len(patterns) + 1):
        check_divisor_rule(patterns, word, indexed)


@pytest.mark.parametrize("indexed", [0, 1, 2])
def test_leftmost_of_disjoint_occurrences(indexed):
    # a*b occurs twice in a*b*d*a*b, apart.  Rewriting the left one gives
    # c*d*a*b, where c*d*a (index 0) now occurs, leaving e*b; rewriting the
    # right one first would give a*b*d*c and end in c*d*c
    abcde = Alphabet(["a", "b", "c", "d", "e"])
    gens = [parse_polynomial(t, abcde) for t in ("c*d*a - e", "a*b - c")]
    G = BasisState.from_polynomials(gens[:indexed], abcde.llex)
    normal_remainder(NcPolynomial(), G, abcde.llex)  # builds the automaton
    for g in gens[indexed:]:
        G.append(g, abcde.llex)
    f = parse_polynomial("a*b*d*a*b", abcde)
    remainder = normal_remainder(f, G, abcde.llex)
    assert G.divisor_index.size == indexed
    assert remainder == parse_polynomial("e*b", abcde)
    validate_division(f, remainder, G, abcde.llex)


def test_index_matches_plain_scan_property():
    """The walk and the ``find`` tail, split anywhere, agree with a plain scan.

    So does :meth:`DivisorIndex.first`, on pattern lists that hold
    duplicates and the empty word.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    words = st.binary(max_size=5).map(lambda w: bytes(c % 3 for c in w))
    seen = {"duplicate": 0, "empty": 0}

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.lists(words, max_size=8), st.binary(max_size=12), st.data())
    def check(patterns, text, data):
        text = bytes(c % 4 for c in text)  # letter 3 is in no pattern
        indexed = data.draw(st.integers(0, len(patterns)))
        check_divisor_rule(patterns, text, indexed)
        first = next((k for k, p in enumerate(patterns) if text.find(p) >= 0), len(patterns))
        assert DivisorIndex(patterns, 4).first(text) == first
        seen["duplicate"] += len(set(patterns)) < len(patterns)
        seen["empty"] += b"" in patterns

    check()
    assert seen["duplicate"] and seen["empty"]


def test_divide_matches_reference_property():
    """The remainder equals a rescan's, on integer and rational bases.

    The automaton covers a random prefix of the basis; the rest is appended
    one generator at a time and ``f`` is divided after every append, so
    the ``find`` tail, the memo carried across appends and (past 16
    appended generators) the rebuild all take part.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    orderings = {2: Alphabet(["x", "y"]).llex, 3: Alphabet(["b", "c", "a"]).llex}
    seen = {"rebuilt": 0, "tail": 0}

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.randoms(use_true_random=False), st.sampled_from([2, 3]),
                      st.booleans(), st.integers(1, 22), st.integers(0, 22))
    def check(rng, nletters, integral, size, indexed):
        ordering = orderings[nletters]
        gens = list(random_basis(rng, ordering, nletters, size, max_degree=4,
                                 integral=integral))
        f = random_polynomial(rng, nletters, max_terms=6, max_degree=6, integral=integral)
        indexed = min(indexed, size)
        G = BasisState.from_polynomials(gens[:indexed], ordering)
        normal_remainder(NcPolynomial(), G, ordering)
        built = G.divisor_index
        appended = gens[indexed:]
        while True:
            assert normal_remainder(f, G, ordering) == reference_divide(f, G, ordering)[1]
            seen["tail"] += G.divisor_index.size < len(G)
            if not appended:
                break
            G.append(appended.pop(0), ordering)
        seen["rebuilt"] += G.divisor_index is not built

    check()
    assert seen["tail"] and seen["rebuilt"]


def test_index_across_rebuilds():
    """A basis grown past several rebuilds, memo carried, divides like a rescan."""
    abc = Alphabet(["a", "b", "c"])
    rng = random.Random(59)
    for _ in range(3):
        fs = [random_polynomial(rng, 3, max_terms=6, max_degree=7) for _ in range(8)]
        G = BasisState()
        sizes, tails = set(), 0
        while len(G) < 70:
            lw = random_word(rng, 3, 2, 6)
            G.append(NcPolynomial({lw: 1, random_word(rng, 3, 0, len(lw) - 1): -1}),
                     abc.llex)
            for f in fs[:1 + len(G) % len(fs)]:
                assert normal_remainder(f, G, abc.llex) == reference_divide(f, G, abc.llex)[1]
            sizes.add(G.divisor_index.size)
            tails += G.divisor_index.size < len(G)
            for word, count in G.normal_words.items():
                assert reference_find_divisor(word, G.leading_words[:count]) is None
        assert len(sizes) >= 4 and tails > 30


def grown_past_a_rebuild(seed):
    """(G, f, old): 18 generators, an automaton ``old`` over only the first,
    so that the next division rebuilds it, and a dividend ``f``."""
    abc = Alphabet(["a", "b", "c"])
    rng = random.Random(seed)
    G = BasisState()

    def append():
        lw = random_word(rng, 3, 2, 5)
        G.append(NcPolynomial({lw: 1, random_word(rng, 3, 0, len(lw) - 1): -1}), abc.llex)

    append()
    normal_remainder(NcPolynomial(), G, abc.llex)
    old = G.divisor_index
    for _ in range(17):  # a tail of 17 outgrows max(16, 1 // 4)
        append()
    return G, random_polynomial(rng, 3, max_terms=6, max_degree=7), old


def test_rebuild_clears_the_replaced_automaton():
    """The automaton a rebuild drops is emptied, so its cycles of states are freed."""
    ordering = Alphabet(["a", "b", "c"]).llex
    for seed in range(5):
        G, f, old = grown_past_a_rebuild(seed)
        assert old.size == 1 and old.root
        assert normal_remainder(f, G, ordering) == reference_divide(f, G, ordering)[1]
        assert G.divisor_index is not old and G.divisor_index.size == len(G) == 18
        assert old.states == []


def test_interrupted_rebuild_keeps_the_old_automaton(monkeypatch):
    """An interrupt while the new automaton is built leaves the old one stored and whole."""
    ordering = Alphabet(["a", "b", "c"]).llex
    G, f, old = grown_past_a_rebuild(7)

    def interrupted(patterns, width):
        raise KeyboardInterrupt

    monkeypatch.setattr(division, "DivisorIndex", interrupted)
    with pytest.raises(KeyboardInterrupt):
        normal_remainder(f, G, ordering)
    assert G.divisor_index is old and old.size == 1
    lw = G.leading_words[0]
    for word in [*G.leading_words, *dict(f.items())]:
        assert old.first(word) == (0 if lw in word else 1)
    monkeypatch.undo()
    assert normal_remainder(f, G, ordering) == reference_divide(f, G, ordering)[1]
    assert G.divisor_index.size == 18 and old.states == []


def test_cleared_automaton_leaves_no_cycles():
    """The build lists every state once, root first, and ``clear`` empties them all.

    So a cleared automaton leaves no cycle for the garbage collector.
    """
    rng = random.Random(28)
    for _ in range(30):
        patterns = [random_word(rng, 3, 0, 6) for _ in range(rng.randint(0, 12))]
        gc.collect()
        gc.disable()
        try:
            index = DivisorIndex(patterns, 3)
            states = list(index.states)
            reachable = {id(index.root): index.root}
            stack = [index.root]
            while stack:
                for t in stack.pop()[:3]:
                    if id(t) not in reachable:
                        reachable[id(t)] = t
                        stack.append(t)
            assert states[0] is index.root
            assert sorted(map(id, states)) == sorted(reachable)
            index.clear()
            assert index.states == [] and all(s == [] for s in states)
            del index, states, reachable, t
            assert gc.collect() == 0
        finally:
            gc.enable()
