"""Two families with answers in closed form: finite Coxeter groups and Artin monoids.

The group algebra of a finite Coxeter group W, presented by s_i^2 = 1 and
(s_i s_j)^m = 1, has dimension |W|, the product of the degrees of W
(Humphreys, *Reflection Groups and Coxeter Groups*, 1990).  The Artin
monoid, presented by the positive braid relations, has the Hilbert series
1 / sum over J of (-1)^|J| t^l(w_J) (Deligne 1972; Charney 1995).  Both
answers come from outside the program, and each case runs under two
precedences and in both modes.
"""

import math

import pytest

import ncgb.engine as engine
from ncgb.cli import parse_problem
from ncgb.criteria import backward_criterion, leading_word_criterion, multiply_criterion
from ncgb.engine import EngineConfig, buchberger, interreduce
from ncgb.polynomial import format_polynomial
from oracles import (
    artin_series,
    backward_criterion_reference,
    built,
    coxeter_problem,
    leading_word_criterion_reference,
    multiply_criterion_reference,
    normal_word_counts,
    offset_pair,
    regular_representation,
)

try:
    from sympy.combinatorics import Permutation, PermutationGroup
except ImportError:  # the group order check is left out; sympy is optional
    PermutationGroup = None


def chain(*labels):
    """The Coxeter matrix of a path s_1 - s_2 - ... whose k-th edge has label ``labels[k]``."""
    n = len(labels) + 1
    matrix = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for k, m in enumerate(labels):
        matrix[k][k + 1] = matrix[k + 1][k] = m
    return matrix


D4 = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]

# name: (Coxeter matrix, degrees); |W| is the product of the degrees
COXETER = {
    "A3": (chain(3, 3), (2, 3, 4)),
    "B3": (chain(3, 4), (2, 4, 6)),
    "H3": (chain(5, 3), (2, 6, 10)),
    "A4": (chain(3, 3, 3), (2, 3, 4, 5)),
    "D4": (D4, (2, 4, 4, 6)),
    "F4": (chain(3, 4, 3), (2, 6, 8, 12)),
    "B5": (chain(3, 3, 3, 4), (2, 4, 6, 8, 10)),
    "H4": (chain(5, 3, 3), (2, 12, 20, 30)),
}
SLOW = {"B5", "H4"}
# above this many normal words sympy's order() takes seconds to minutes
# (B5: 7 s, H4: about two minutes)
SYMPY_ORDER_CAP = 5000


def problem_of(tmp_path, matrix, precedence, monoid=False):
    path = tmp_path / "family.prob"
    path.write_text(coxeter_problem(matrix, precedence, monoid))
    return parse_problem(path)


def reduced_bases(tmp_path, matrix, trunc=None, monoid=False):
    """(problem, reduced basis) under the vars order and its reverse.

    Each basis is computed in both modes, which must agree.
    """
    n = len(matrix)
    for precedence in (None, range(n - 1, -1, -1)):
        problem = problem_of(tmp_path, matrix, precedence, monoid)
        reduced = []
        for criteria in (True, False):
            cfg = EngineConfig(ordering=problem.ordering, truncation_degree=trunc,
                               criteria=criteria)
            G, st = buchberger(problem.generators, cfg)
            assert not st.cap_reason
            reduced.append(interreduce(G, problem.ordering))
        assert list(reduced[0]) == list(reduced[1])
        yield problem, reduced[0]


@pytest.mark.parametrize("name", [pytest.param(name, marks=pytest.mark.slow) if name in SLOW
                                  else name for name in COXETER])
def test_coxeter_group_order(name, tmp_path):
    """The normal words of the reduced basis number |W|, and the letters act as W does.

    The normal words come from string rewriting by the printed basis
    (:func:`oracles.regular_representation`).  Every relator must act as
    the identity on them, so the letters generate a quotient of W, and
    that quotient moves the empty word to every normal word.  With sympy,
    the group the letter permutations generate must have order |W|,
    checked directly up to ``SYMPY_ORDER_CAP`` normal words; past it the
    two facts above already give it, since a quotient of W acting
    transitively on |W| points has exactly |W| elements.
    """
    matrix, degrees = COXETER[name]
    order = math.prod(degrees)
    for problem, reduced in reduced_bases(tmp_path, matrix):
        lines = [f"gen {format_polynomial(f, problem.alphabet, problem.ordering)}"
                 for f in reduced]
        words, action = regular_representation(lines, problem.alphabet)
        assert len(words) == order
        n = len(words)
        for row in action:
            assert sorted(row) == list(range(n))

        def act(word):
            image = list(range(n))
            for letter in word:
                row = action[letter]
                image = [row[k] for k in image]
            return image

        for g in problem.generators:
            (u, cu), (v, cv) = g.items()
            assert cu == -cv and act(u) == act(v)
        if PermutationGroup is not None:
            group = PermutationGroup([Permutation(row) for row in action])
            assert group.is_transitive()
            if n <= SYMPY_ORDER_CAP:
                assert group.order() == order


# name: (Coxeter matrix, degree bound)
ARTIN = {"A2": (chain(3), 10), "A3": (chain(3, 3), 8), "B3": (chain(3, 4), 8)}


def test_artin_series_closed_forms():
    """The series oracle on cases small enough to count by hand.

    A1 x A1 is the free commutative monoid on two letters, d + 1 words
    of degree d; A2's denominator is 1 - 2t + t^3.
    """
    assert artin_series([[1]], 5) == [1] * 6
    assert artin_series([[1, 2], [2, 1]], 5) == [1, 2, 3, 4, 5, 6]
    assert artin_series(chain(3), 10) == [1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232]
    with pytest.raises(ValueError):
        artin_series(chain(5), 4)


@pytest.mark.parametrize("name", ARTIN)
def test_artin_monoid_hilbert_series(name, tmp_path):
    """Normal words per degree, counted from the leading words, follow the series.

    The basis is truncated at the last degree checked, so it is a
    Groebner basis up to that degree.
    """
    matrix, degree = ARTIN[name]
    series = artin_series(matrix, degree)
    for problem, reduced in reduced_bases(tmp_path, matrix, degree, monoid=True):
        counts = normal_word_counts(reduced.leading_words, len(matrix), degree)
        assert counts == series


@pytest.mark.slow
def test_artin_a5_criteria_miss_no_removal(tmp_path, monkeypatch):
    """On the Artin monoid A5 at bound 9, M, F and B remove what their references remove.

    Completion there selects 445 obstructions, 271 of which reduce to
    zero, and the criteria remove none.  Every batch the engine passes
    to a criterion is also built and passed to its reference in
    :mod:`oracles`; both must remove the same obstructions, so the zero
    reductions are not removals that the criteria miss.
    """
    problem = problem_of(tmp_path, chain(3, 3, 3, 3), None, monoid=True)
    removed = {"m": 0, "f": 0, "bk": 0}
    batches = 0

    def checked_m(news, s, G):
        nonlocal batches
        batches += 1
        got = multiply_criterion(news, s, G)
        want = multiply_criterion_reference(built(news, s, G))
        assert sorted(got.survivors) == sorted(map(offset_pair, want.survivors))
        removed["m"] += got.removed_m
        return got

    def checked_f(news, s, G):
        got = leading_word_criterion(news, s, G)
        want = leading_word_criterion_reference(built(news, s, G))
        assert sorted(got.survivors) == sorted(map(offset_pair, want.survivors))
        removed["f"] += got.removed_f
        return got

    def checked_bk(pending, news, s, G):
        pending = list(pending)
        got = backward_criterion(pending, news, s, G)
        want = backward_criterion_reference(pending, built(news, s, G), s, G)
        assert got.removed == want.removed
        removed["bk"] += got.removed_bk
        return got

    monkeypatch.setattr(engine, "multiply_criterion", checked_m)
    monkeypatch.setattr(engine, "leading_word_criterion", checked_f)
    monkeypatch.setattr(engine, "backward_criterion", checked_bk)
    G, st = buchberger(problem.generators,
                       EngineConfig(ordering=problem.ordering, truncation_degree=9))
    assert batches == len(G)
    assert (st.sel, st.zero_reductions) == (445, 271)
    assert removed == {"m": st.m, "f": st.f, "bk": st.bk} == {"m": 0, "f": 0, "bk": 0}
