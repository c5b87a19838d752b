"""Regenerate the committed reference data under ``reference/``.

    python3 perfbench/make_references.py

For every ``run`` job of the benchmark it writes the reduced basis that
``ncgb run`` prints, in gen-line problem format (so the file also serves
as a basis for ``ncgb verify``), with the statistics row in a comment.
It also records the micro-timing inputs: the enumerated basis of braid4
truncated at degree 10 in append order, and a sample of the selections
made while computing it, each with the basis size at that moment.

Only rerun this when the ideal, ordering or bound of a job changes: a
reduced basis is unique, so a correct program reproduces these files.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from workloads import CORPUS, MICRO_INPUTS, REFERENCE, SRC, format_row, parse_run_output, run_jobs

MICRO_SELECTIONS = 40


def write_references(cli):
    REFERENCE.mkdir(exist_ok=True)
    for job in run_jobs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(job.argv())
        if code != 0:
            raise SystemExit(f"{job.label}: ncgb run exited with {code}")
        rgb, row = parse_run_output(out.getvalue())
        problem = cli.parse_problem(CORPUS / f"{job.problem}.prob")
        lines = [
            f"# reduced Groebner basis of {job.label}; regenerate with make_references.py",
            f"# row {format_row(job.label, row)}",
            f"name {job.label}_rgb",
            f"vars {' '.join(problem.alphabet.symbols)}",
        ] + [f"gen {body}" for body in rgb]
        job.reference.write_text("\n".join(lines) + "\n")
        print(format_row(job.label, row))


def write_micro_inputs(cli):
    import ncgb.engine as engine
    from ncgb.polynomial import format_polynomial

    problem = cli.parse_problem(CORPUS / "braid4.prob")
    text = problem.alphabet.word_to_text
    seen = []
    real = engine.s_polynomial

    def recording(o, G, ordering):
        seen.append([len(G), o.i, o.j, text(o.wi), text(o.wi2), text(o.wj), text(o.wj2)])
        return real(o, G, ordering)

    engine.s_polynomial = recording
    try:
        cfg = engine.EngineConfig(ordering=problem.ordering, truncation_degree=10)
        basis, _ = engine.buchberger(problem.generators, cfg)
    finally:
        engine.s_polynomial = real
    step = max(1, len(seen) // MICRO_SELECTIONS)
    picked = seen[step - 1::step][:MICRO_SELECTIONS]
    size = max(entry[0] for entry in picked)
    data = {
        "problem": "braid4",
        "trunc": 10,
        "basis": [format_polynomial(f, problem.alphabet, problem.ordering)
                  for f in list(basis)[:size]],
        "selections": picked,
    }
    MICRO_INPUTS.write_text(json.dumps(data, indent=0) + "\n")


def main():
    sys.path.insert(0, str(SRC))
    import ncgb.cli as cli

    write_references(cli)
    write_micro_inputs(cli)


if __name__ == "__main__":
    main()
