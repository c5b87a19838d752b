"""Primitive micro-timings on inputs recorded from a braid4 (trunc 10) run.

``LLexOrdering.key`` runs about 17.7M times in one braid4 completion, far
too often to wrap in the traced run without distorting it, so the
primitives are timed here in isolation instead: each over its whole input
list, repeated until a round lasts ``ROUND_SECONDS``, and reported as the
median per-call time over ``ROUNDS`` rounds.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from workloads import CORPUS, MICRO_INPUTS

ROUNDS = 5
ROUND_SECONDS = 0.08
OVERLAP_PAIRS = 4000
TIMED = ("words.key_us", "words.overlaps_us", "polynomial.sandwich_us",
         "polynomial.add_scaled_us", "division.normal_remainder_us")


def build_inputs(cli, seed):
    """Decode the recorded state with the program's own public constructors."""
    from ncgb.engine import BasisState
    from ncgb.polynomial import add_scaled, parse_polynomial, sandwich

    data = json.loads(MICRO_INPUTS.read_text())
    problem = cli.parse_problem(CORPUS / f"{data['problem']}.prob")
    alphabet, ordering = problem.alphabet, problem.ordering
    basis = [parse_polynomial(text, alphabet) for text in data["basis"]]
    rng = random.Random(seed)
    selections = list(data["selections"])
    rng.shuffle(selections)
    word = alphabet.word
    sandwiches, sums, divisions, states = [], [], [], {}
    for size, i, j, wi, wi2, wj, wj2 in selections:
        first = (word(wi), basis[i], word(wi2))
        second = (word(wj), basis[j], word(wj2))
        sandwiches += [first, second]
        sums.append((sandwich(*first), -1, sandwich(*second)))   # basis is monic
        if size not in states:
            states[size] = BasisState.from_polynomials(basis[:size], ordering)
        divisions.append((add_scaled(*sums[-1]), states[size]))
    lws = [max(f.support(), key=ordering.key) for f in basis]
    pairs = [(a, b) for a in lws for b in lws if a != b]
    rng.shuffle(pairs)
    return {
        "ordering": ordering,
        "words": [w for S, _ in divisions for w in S.support()],
        "pairs": pairs[:OVERLAP_PAIRS],
        "sandwiches": sandwiches,
        "sums": sums,
        "divisions": divisions,
    }


def per_call_us(body, calls):
    """Median over rounds of one call's time; ``body`` makes ``calls`` calls."""
    body()
    reps = 1
    while True:
        t = time.perf_counter()
        for _ in range(reps):
            body()
        elapsed = time.perf_counter() - t
        if elapsed >= ROUND_SECONDS:
            break
        reps *= 2
    samples = [elapsed]
    for _ in range(ROUNDS - 1):
        t = time.perf_counter()
        for _ in range(reps):
            body()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples) / (reps * calls) * 1e6


def run(cli, seed) -> dict:
    from ncgb.division import normal_remainder
    from ncgb.polynomial import add_scaled, sandwich
    from ncgb.words import overlaps

    inp = build_inputs(cli, seed)
    key = inp["ordering"].key
    words, pairs = inp["words"], inp["pairs"]
    sandwiches, sums, divisions = inp["sandwiches"], inp["sums"], inp["divisions"]

    def time_key():
        for w in words:
            key(w)

    def time_overlaps():
        for a, b in pairs:
            overlaps(a, b)

    def time_sandwich():
        for left, f, right in sandwiches:
            sandwich(left, f, right)

    def time_add_scaled():
        for f, c, g in sums:
            add_scaled(f, c, g)

    def time_reduce():
        for S, G in divisions:
            normal_remainder(S, G, inp["ordering"])

    return dict(zip(TIMED, (
        per_call_us(time_key, len(words)),
        per_call_us(time_overlaps, len(pairs)),
        per_call_us(time_sandwich, len(sandwiches)),
        per_call_us(time_add_scaled, len(sums)),
        per_call_us(time_reduce, len(divisions)),
    )))
