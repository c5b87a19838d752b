"""Batch front end: problem files in, bases and a statistics row out.

A problem file is line oriented: ``vars a b`` declares the variables,
``order llex b a`` optionally lists them all again, largest first,
``gen <poly>`` lines list the generators, ``name`` labels the statistics
row (no tab: the row is tab-separated) and ``trunc`` sets the truncation
degree; the other run controls are flags only.  Every number, in a file
or in a flag (``--trunc``, ``--max-basis``, ``--max-degree``), is written
in ASCII digits, so ``1_0``, ``+5`` and the digits of other scripts are
errors.  Spaces or tabs end a directive, and ``#`` starts a comment
that runs to the end of its line.  Every directive but ``gen`` may
appear once, and no generator may be zero.  The problem's alphabet is in
precedence order: the order line's, else the vars line's.

``ncgb run --basis-out PATH`` writes the reduced basis in this form, as
vars, order and gen lines that ``ncgb verify`` reads back, with both
lines in precedence order.  A basis file must declare the problem's
variables in the problem's precedence, by its order line, else its vars
line; a file with neither takes the problem's alphabet.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .division import normal_remainder, release_divisor_index
from .engine import BasisState, EngineConfig, buchberger, interreduce, verify_groebner
from .polynomial import PolynomialSyntaxError, format_polynomial, parse_polynomial
from .words import Alphabet, LLexOrdering

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ERROR = 2
EXIT_CAPPED = 3

STATS_COLUMNS = ("label", "gb", "rgb", "tot", "sel", "m", "f", "tail", "bk", "rho")


class ProblemError(ValueError):
    def __init__(self, path, line, message, column=0):
        where = f"{path}:{line}" if line else f"{path}"
        if column:
            where += f":{column}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


@dataclass
class Problem:
    name: str
    alphabet: Alphabet  # in precedence order, largest variable first
    generators: list = field(default_factory=list)
    truncation: int | None = None
    # the line that fixes the precedence: the order line, else the vars
    # line; 0 when the alphabet is the base alphabet as given
    order_line: int = 0

    @property
    def ordering(self) -> LLexOrdering:
        return self.alphabet.llex


def positive_integer(text) -> int:
    """The positive integer ``text`` spells in ASCII digits, else 0.

    The one reader of the ``trunc`` directive and the numeric flags:
    ``int`` alone also reads "1_0", a sign, surrounding spaces and the
    digits of other scripts.
    """
    try:
        return int(text) if text.isascii() and text.isdigit() else 0
    except ValueError:  # more digits than the interpreter converts
        return 0


def parse_problem(path, base_alphabet=None) -> Problem:
    """Read a problem file; ``base_alphabet`` backs files without a vars line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ProblemError(path, 0, str(exc)) from None
    except UnicodeDecodeError:
        raise ProblemError(path, 0, "not UTF-8 text") from None
    name = path.stem
    alphabet = None
    precedence = None
    vars_line = order_line = 0
    truncation = None
    raw_gens = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        # no polynomial holds a "#", so the first one starts the comment
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        directive, *rest = line.split(None, 1)
        rest = rest[0] if rest else ""
        if directive in seen:
            raise ProblemError(path, lineno, f"duplicate {directive} line")
        if directive != "gen":
            seen.add(directive)
        if directive == "vars":
            try:
                alphabet = Alphabet(rest.split())
            except ValueError as exc:
                raise ProblemError(path, lineno, str(exc)) from None
            vars_line = lineno
        elif directive == "order":
            parts = rest.split()
            if not parts or parts[0] != "llex":
                raise ProblemError(path, lineno, "only 'order llex <vars...>' is supported")
            precedence = parts[1:]
            order_line = lineno
        elif directive == "name":
            if not rest:
                raise ProblemError(path, lineno, "empty name")
            if "\t" in rest:  # the label is a cell of a tab-separated row
                raise ProblemError(path, lineno, "name must not contain a tab")
            name = rest
        elif directive == "trunc":
            truncation = positive_integer(rest)
            if not truncation:
                raise ProblemError(path, lineno, "trunc needs a positive integer")
        elif directive == "gen":
            if alphabet is None and base_alphabet is None:
                raise ProblemError(path, lineno, "vars must be declared before gen")
            raw_gens.append((lineno, rest))
        else:
            raise ProblemError(path, lineno, f"unknown directive {directive!r}")
    if alphabet is None:
        if base_alphabet is None:
            raise ProblemError(path, 0, "missing vars line")
        alphabet = base_alphabet
    if precedence is not None:
        if sorted(precedence) != sorted(alphabet.symbols):
            raise ProblemError(path, order_line,
                               "precedence must list every variable exactly once")
        alphabet = Alphabet(precedence)
    else:
        order_line = vars_line
    generators = []
    runs = {}  # the run memo, shared by this file's gen lines
    for lineno, body in raw_gens:
        try:
            g = parse_polynomial(body, alphabet, line=lineno, runs=runs)
        except PolynomialSyntaxError as exc:
            raise ProblemError(path, lineno, exc.message, exc.column) from None
        if not g:
            raise ProblemError(path, lineno, "generator is zero")
        generators.append(g)
    if not generators:
        raise ProblemError(path, 0, "no generators")
    return Problem(name, alphabet, generators, truncation, order_line)


def render_obstruction(o, alphabet) -> str:
    w = alphabet.word_to_text
    return f"o[{o.i},{o.j}]({w(o.wi)},{w(o.wi2)};{w(o.wj)},{w(o.wj2)})"


def stats_values(problem, stats, gb, rgb):
    # the paper's tail column: this engine has no tail criterion, so it is 0
    return (problem.name, gb, rgb, stats.tot, stats.sel,
            stats.m, stats.f, 0, stats.bk, f"{float(stats.rho):.4f}")


def cmd_run(args, out) -> int:
    problem = parse_problem(args.problem)
    cfg = EngineConfig(
        ordering=problem.ordering,
        truncation_degree=args.trunc if args.trunc is not None else problem.truncation,
        max_basis=args.max_basis,
        max_degree=args.max_degree,
        criteria=args.mode != "basic",
    )
    basis, stats = buchberger(problem.generators, cfg)
    reduced = interreduce(basis, problem.ordering)

    print(f"# gb {len(basis)}", file=out)
    for f in basis:
        print(f"gen {format_polynomial(f, problem.alphabet, problem.ordering)}", file=out)
    rgb_lines = [f"gen {format_polynomial(f, problem.alphabet, problem.ordering)}"
                 for f in reduced]
    print(f"# rgb {len(reduced)}", file=out)
    for line in rgb_lines:
        print(line, file=out)
    if stats.cap_reason:
        print(f"# capped {stats.cap_reason}", file=out)
    row = stats_values(problem, stats, len(basis), len(reduced))
    print("\t".join(STATS_COLUMNS), file=out)
    print("\t".join(str(v) for v in row), file=out)
    if args.stats_csv:
        try:
            with open(args.stats_csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(STATS_COLUMNS)
                writer.writerow(row)
        except OSError as exc:
            raise ValueError(f"cannot write {args.stats_csv}: {exc.strerror}") from None
    if args.basis_out:
        symbols = " ".join(problem.alphabet.symbols)
        lines = [f"vars {symbols}", f"order llex {symbols}", *rgb_lines]
        try:
            Path(args.basis_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {args.basis_out}: {exc.strerror}") from None
    return EXIT_CAPPED if stats.cap_reason else EXIT_OK


def cmd_verify(args, out) -> int:
    problem = parse_problem(args.problem)
    basis_file = parse_problem(args.basis, base_alphabet=problem.alphabet)
    if set(basis_file.alphabet.symbols) != set(problem.alphabet.symbols):
        raise ProblemError(args.basis, 0, "basis and problem declare different variables")
    if basis_file.alphabet != problem.alphabet:
        raise ProblemError(args.basis, basis_file.order_line,
                           "basis and problem declare different orders")
    G = BasisState.from_polynomials(basis_file.generators, problem.ordering)
    truncation = args.trunc if args.trunc is not None else problem.truncation
    try:
        ok, failures = verify_groebner(G, problem.ordering, truncation)
        if not ok:
            print(f"not a Groebner basis; unresolved obstruction "
                  f"{render_obstruction(failures[0], problem.alphabet)}", file=out)
            return EXIT_VERIFY_FAILED
        # the problem's ideal must lie inside the basis's: with a Groebner
        # basis that is a zero remainder for every generator within the bound
        for k, g in enumerate(problem.generators, 1):
            if truncation is not None and g.degree() > truncation:
                continue
            if normal_remainder(g, G, problem.ordering):
                print(f"problem generator {k} does not reduce to zero: "
                      f"{format_polynomial(g, problem.alphabet, problem.ordering)}",
                      file=out)
                return EXIT_VERIFY_FAILED
    finally:
        # whatever the verdict, the basis is done with division
        release_divisor_index(G)
    print("ok", file=out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncgb",
        description="Two-sided Groebner bases in free associative algebras over Q.")
    sub = parser.add_subparsers(dest="command", required=True)

    prun = sub.add_parser("run", help="compute a (possibly truncated) Groebner basis")
    prun.add_argument("problem", help="problem file")
    prun.add_argument("--mode", choices=["improved", "basic"],
                      help="improved (the default) applies the m, f and bk "
                           "criteria in that order; basic reduces every "
                           "obstruction")
    prun.add_argument("--trunc", type=positive_integer, metavar="D",
                      help="truncation degree (homogeneous input only); every "
                           "number here is a positive integer in ASCII digits")
    prun.add_argument("--max-basis", type=positive_integer, metavar="N",
                      help="stop with '# capped max_basis' and exit 3 when completion "
                           "would grow the basis beyond N generators; the input "
                           "generators always join, even more than N of them")
    prun.add_argument("--max-degree", type=positive_integer, metavar="D",
                      help="stop with '# capped max_degree' and exit 3 at the first "
                           "selected obstruction whose common word is longer than D")
    prun.add_argument("--stats-csv", metavar="PATH",
                      help="also write the statistics row, under its header, to PATH "
                           "as CSV")
    prun.add_argument("--basis-out", metavar="PATH",
                      help="also write the reduced basis (vars, order and gen "
                           "lines) to PATH, as a basis file for 'ncgb verify'")

    pver = sub.add_parser(
        "verify", help="check that a basis file is a Groebner basis of an ideal "
                       "containing the problem's generators",
        description="Check that the basis is a Groebner basis and that every "
                    "problem generator reduces to zero modulo it, both up to the "
                    "truncation degree.  The basis passes when the S-polynomial of "
                    "every obstruction that survives the m and f criteria "
                    "reduces to zero; on a failure it names the first survivor that "
                    "does not, by generator and then in the order completion selects "
                    "them.  Under a truncation degree, "
                    "generators whose leading word is longer take no part: none of "
                    "their obstructions fits the bound, and they divide no word "
                    "within it.  The reverse inclusion, that the basis lies in the "
                    "problem's ideal, is not checked.")
    pver.add_argument("basis", help="file with gen lines for the basis; its order "
                                    "line, else its vars line, if present, must list "
                                    "the problem's variables in the problem's precedence")
    pver.add_argument("problem", help="problem file supplying variables and ordering")
    pver.add_argument("--trunc", type=positive_integer, metavar="D",
                      help="only check obstructions and generators up to this degree "
                           "(a positive integer in ASCII digits)")

    args = parser.parse_args(argv)
    try:
        for flag in ("trunc", "max_basis", "max_degree"):
            if getattr(args, flag, None) == 0:  # the reader's answer to a bad value
                raise ValueError(f"--{flag.replace('_', '-')} must be positive (ASCII digits)")
        if args.command == "run":
            return cmd_run(args, sys.stdout)
        return cmd_verify(args, sys.stdout)
    except (ProblemError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        # completion turns an interrupt into a capped result; one anywhere
        # else (parsing, interreduction, verification) ends the command
        print("error: interrupted", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader closed stdout early (``ncgb run ... | head``); point
        # the descriptor at devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
