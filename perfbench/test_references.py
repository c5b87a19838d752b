"""Checks on the benchmark's committed reference data and metric table.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each reference basis must be a reduced Groebner basis of its problem:
it passes the program's obstruction check, every input generator reduces
to zero by it, it is monic and no word of it contains another element's
leading word.  For triangle groups that sympy's coset enumeration handles
quickly, the number of normal words must equal the group order.  This
takes about a minute, mostly in ``verify_groebner``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

from workloads import CORPUS, ROOT, SRC, canonical, run_jobs

sys.path.insert(0, str(SRC))

from ncgb.cli import parse_problem  # noqa: E402
from ncgb.division import normal_remainder  # noqa: E402
from ncgb.engine import BasisState, verify_groebner  # noqa: E402
from ncgb.polynomial import leading  # noqa: E402

# g04 and the larger groups take sympy minutes or more
SYMPY_GROUPS = {"g01": 576, "g05": 120, "g09": 24, "g10": 48}


def load(job):
    problem = parse_problem(CORPUS / f"{job.problem}.prob")
    basis = parse_problem(job.reference, base_alphabet=problem.alphabet)
    G = BasisState.from_polynomials(basis.generators, problem.ordering)
    trunc = job.trunc if job.trunc is not None else problem.truncation
    return problem, basis.generators, G, trunc


@pytest.mark.parametrize("job", run_jobs(), ids=lambda job: job.label)
def test_reference_is_reduced_groebner_basis(job):
    problem, polys, G, trunc = load(job)
    ordering = problem.ordering
    for f in polys:
        assert leading(f, ordering)[0] == 1
    for k, f in enumerate(polys):
        for word in f.support():
            hits = [m for m, lw in enumerate(G.leading_words) if word.find(lw) >= 0]
            assert hits in ([], [k]), f"element {k} is not reduced"
    for g in problem.generators:
        if trunc is None or g.degree() <= trunc:
            assert not normal_remainder(g, G, ordering)
    ok, failures = verify_groebner(G, ordering, trunc)
    assert ok, failures


def normal_word_count(lws, letters, limit=10**6):
    """Words containing no leading word; every factor of such a word is one too."""
    count, level = 1, [b""]
    while level:
        level = [w + bytes([x]) for w in level for x in letters
                 if not any((w + bytes([x])).endswith(lw) for lw in lws)]
        count += len(level)
        if count > limit:
            raise AssertionError("normal words do not run out")
    return count


@pytest.mark.parametrize("name", sorted(SYMPY_GROUPS))
def test_normal_words_match_group_order(name):
    fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
    free_groups = pytest.importorskip("sympy.combinatorics.free_groups")
    job = next(job for job in run_jobs() if job.label == name)
    problem, _, G, _ = load(job)
    letters = range(len(problem.alphabet))
    count = normal_word_count(G.leading_words, letters)
    F, *gens = free_groups.free_group(" ".join(problem.alphabet.symbols))
    relators = []
    for g in problem.generators:
        terms = dict(g.items())
        assert terms.pop(b"") == -1 and list(terms.values()) == [1]
        (word,) = terms
        rel = F.identity
        for letter in word:
            rel = rel * gens[letter]
        relators.append(rel)
    order = fp_groups.FpGroup(F, relators).order()
    assert count == order == SYMPY_GROUPS[name]


def test_canonical_reads_output_syntax():
    assert canonical("x1^2*x3 - 3/2*x2 + 1") == frozenset(
        {(("x1", "x1", "x3"), Fraction(1)), (("x2",), Fraction(-3, 2)), ((), Fraction(1))})
    assert canonical("-a + a") == frozenset()
    with pytest.raises(ValueError):
        canonical("(a*b)^2")


def test_benchmark_json_matches_reported_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = set(run.layer_metrics({}, run.Pass(0.0, 0.0, 0.0))) | set(run.micro.TIMED) | {
        "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric["name"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
