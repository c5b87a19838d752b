"""The division loop and its full contract."""

import random

import pytest

from ncgb.cli import parse_problem
from ncgb.corpus import problem_path
from ncgb.division import divide, normal_remainder
from ncgb.engine import BasisState, EngineConfig, buchberger, verify_groebner
from ncgb.polynomial import NcPolynomial, parse_polynomial
from ncgb.words import Alphabet, LLexOrdering
from oracles import random_basis, random_polynomial, reference_divide


def basis(texts, alphabet):
    polys = [parse_polynomial(t, alphabet) for t in texts]
    return BasisState.from_polynomials(polys, alphabet.llex)


def test_single_reduction_step(xy):
    G = basis(["x*y - 1"], xy)
    f = parse_polynomial("x*y + y", xy)
    res = divide(f, G, xy.llex)
    assert res.quotients == [(0, 1, b"", b"")]
    assert res.remainder == parse_polynomial("y + 1", xy)
    res.validate(f, G, xy.llex)


def test_member_reduces_to_zero(xy):
    G = basis(["x*y - 1", "y^2 - y"], xy)
    assert not normal_remainder(G.generators[1], G, xy.llex)


def test_no_divisor_applies(xy):
    G = basis(["x*y - 1"], xy)
    f = parse_polynomial("y", xy)
    res = divide(f, G, xy.llex)
    assert res.quotients == []
    assert res.remainder == f


def test_zero_dividend(xy):
    G = basis(["x*y - 1"], xy)
    assert not normal_remainder(NcPolynomial.zero(), G, xy.llex)


def test_zero_divisor_rejected(xy):
    # the zero generator still carries the leading word x*y, so dividing
    # x*y selects it and the step that would apply it refuses
    G = basis(["x*y - 1"], xy)
    G.generators[0] = NcPolynomial.zero()
    with pytest.raises(ValueError, match="division by a zero polynomial"):
        divide(parse_polynomial("x*y", xy), G, xy.llex)


def test_leftmost_occurrence_chosen(xy):
    G = basis(["x"], xy)
    res = divide(parse_polynomial("x*y*x", xy), G, xy.llex)
    assert res.quotients[0] == (0, 1, b"", xy.word("yx"))


def test_smallest_index_preferred(xy):
    # both leading words divide x*y*x; index order must pick the first
    G = basis(["y*x - 1", "x*y - 1"], xy)
    res = divide(parse_polynomial("x*y*x", xy), G, xy.llex)
    assert res.quotients[0][0] == 0
    res.validate(parse_polynomial("x*y*x", xy), G, xy.llex)


def test_integral_remainder_coefficient_is_int(xy):
    # monic x - 1/2*y times 2 leaves Fraction(1) on y, stored as int 1
    G = basis(["2*x - y"], xy)
    res = divide(parse_polynomial("2*x", xy), G, xy.llex)
    assert res.remainder == parse_polynomial("y", xy)
    assert type(res.remainder.coefficient(xy.word("y"))) is int


def test_constant_divisor_kills_everything(xy):
    G = basis(["2"], xy)
    f = random_polynomial(random.Random(0), 2)
    assert not normal_remainder(f, G, xy.llex)


def test_full_contract_on_random_instances(xy):
    rng = random.Random(41)
    checked = 0
    for _ in range(1100):
        G = random_basis(rng, xy.llex, 2, rng.randint(1, 4), max_degree=4)
        f = random_polynomial(rng, 2, max_terms=5, max_degree=6)
        res = divide(f, G, xy.llex)
        res.validate(f, G, xy.llex)
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
        assert divide(f, G, xy.llex).remainder == r1


def test_cancelled_word_produced_again(xy):
    # x^2 + x*y + y*x - 2*y^2: rewriting x^2 leaves -y^2, rewriting x*y
    # cancels y^2, and rewriting y*x brings it back; y^2 then sits in the
    # heap twice and must be peeled into the remainder exactly once
    G = basis(["x^2 - y^2", "x*y - y^2", "y*x - y^2"], xy)
    f = parse_polynomial("x^2 + x*y + y*x - 2*y^2", xy)
    res = divide(f, G, xy.llex)
    assert res.quotients == [(0, 1, b"", b""), (1, 1, b"", b""), (2, 1, b"", b"")]
    assert res.remainder == parse_polynomial("y^2", xy)
    assert (res.quotients, res.remainder) == reference_divide(f, G, xy.llex)
    # without the y*x term the cancelled y^2 never returns
    f = parse_polynomial("x^2 + x*y - 2*y^2", xy)
    res = divide(f, G, xy.llex)
    assert not res.remainder and len(res.quotients) == 2


def test_matches_reference_divide(xy):
    """Same quotient list, in the same order, and the same remainder as a rescan."""
    abc = Alphabet(["a", "b", "c"])
    orderings = [(xy.llex, 2), (LLexOrdering(xy, ["y", "x"]), 2),
                 (abc.llex, 3), (LLexOrdering(abc, ["b", "c", "a"]), 3)]
    rng = random.Random(47)
    for k in range(1200):
        ordering, n = orderings[k % len(orderings)]
        integral = k % 2 == 0
        G = random_basis(rng, ordering, n, rng.randint(1, 5), max_degree=4,
                         integral=integral)
        f = random_polynomial(rng, n, max_terms=6, max_degree=6, integral=integral)
        res = divide(f, G, ordering)
        assert (res.quotients, res.remainder) == reference_divide(f, G, ordering)
        placed = [left + G.leading_words[i] + right for i, _, left, right in res.quotients]
        assert all(ordering.compare(a, b) > 0 for a, b in zip(placed, placed[1:]))
        if integral:
            coeffs = [c for _, c, _, _ in res.quotients] + [c for _, c in res.remainder.items()]
            assert all(type(c) is int for c in coeffs)


def test_normal_word_remembered(xy):
    G = basis(["x*y - 1"], xy)
    yx = xy.word("yx")
    res = divide(parse_polynomial("y*x", xy), G, xy.llex)
    assert res.quotients == [] and G.normal_words == {yx: 1}
    # the entry stays true when the basis grows; the scan resumes at index 1
    G.append(parse_polynomial("y*x - 1", xy), xy.llex)
    res = divide(parse_polynomial("y*x", xy), G, xy.llex)
    assert res.quotients == [(1, 1, b"", b"")]
    assert res.remainder == parse_polynomial("1", xy)
    # divisor hits are not remembered, remainder words are
    assert G.normal_words == {yx: 1, b"": 2}


def test_remembered_count_skips_the_scan(xy):
    # the memo is trusted: an entry of 1 for x*y*x skips divisor 0 even
    # though x*y occurs in it, so only the memo can explain index 1
    G = basis(["x*y - 1", "y*x - 1"], xy)
    G.normal_words[xy.word("xyx")] = 1
    res = divide(parse_polynomial("x*y*x", xy), G, xy.llex)
    assert res.quotients[0] == (1, 1, xy.word("x"), b"")


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
                res = divide(f, G, ordering)
                assert (res.quotients, res.remainder) == reference_divide(f, G, ordering)
            lws = G.leading_words
            for word, count in G.normal_words.items():
                assert count <= len(lws)
                assert not any(word.find(lw) >= 0 for lw in lws[:count])
    assert resumed > 100  # stale entries were met and extended


def test_verify_leaves_memo_empty():
    problem = parse_problem(problem_path("g09"))
    done, _ = buchberger(problem.generators, EngineConfig(ordering=problem.ordering))
    assert done.normal_words  # completion remembers its remainder words
    G = BasisState.from_polynomials(done.generators, problem.ordering)
    ok, _ = verify_groebner(G, problem.ordering)
    assert ok and G.normal_words == {}
