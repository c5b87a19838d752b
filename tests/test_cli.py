"""The batch front end: problem files, run output, verification."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ncgb
import ncgb.cli as cli
import ncgb.engine as engine
from ncgb.cli import (
    EXIT_CAPPED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ProblemError,
    main,
    parse_problem,
)
from ncgb.corpus import names, problem_path
from ncgb.polynomial import format_polynomial
from ncgb.words import Alphabet
from oracles import random_polynomial, regular_representation


def interrupt_on_call(monkeypatch, k):
    """Make the engine's k-th division raise KeyboardInterrupt, as Ctrl-C would."""
    calls = []
    reduce = engine.normal_remainder

    def interrupted(f, G, ordering):
        calls.append(f)
        if len(calls) == k:
            raise KeyboardInterrupt
        return reduce(f, G, ordering)

    monkeypatch.setattr(engine, "normal_remainder", interrupted)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProblemFiles:
    def test_corpus_complete(self):
        got = names()
        assert got == ["braid3", "braid4"] + [f"g{k:02d}" for k in range(1, 14)]

    def test_parse_fields(self):
        problem = parse_problem(problem_path("braid3"))
        assert problem.name == "braid3"
        assert problem.alphabet.symbols == ("x1", "x2", "x3")
        assert problem.truncation == 11
        assert len(problem.generators) == 4

    def test_reports_offending_line(self, tmp_path):
        path = tmp_path / "bad.prob"
        path.write_text("vars a b\ngen a^2 - 1\ngen a + q\n")
        with pytest.raises(ProblemError) as err:
            parse_problem(path)
        assert err.value.line == 3
        assert "q" in str(err.value)

    def test_gen_before_vars_rejected(self, tmp_path):
        path = tmp_path / "bad.prob"
        path.write_text("gen a + 1\nvars a\n")
        with pytest.raises(ProblemError):
            parse_problem(path)

    def test_unknown_directive_rejected(self, tmp_path):
        path = tmp_path / "bad.prob"
        path.write_text("vars a\ngens a + 1\n")
        with pytest.raises(ProblemError):
            parse_problem(path)

    @pytest.mark.parametrize("line", ["mode basic", "maxbasis 5", "maxdegree 5"])
    def test_run_controls_are_flags_only(self, tmp_path, line):
        # --mode, --max-basis and --max-degree have no problem-file directive
        path = tmp_path / "bad.prob"
        path.write_text(f"vars a b\ngen a*b - 1\n{line}\n")
        with pytest.raises(ProblemError) as err:
            parse_problem(path)
        assert str(err.value) == f"{path}:3: unknown directive {line.split()[0]!r}"

    @pytest.mark.parametrize("text", [
        "vars a b\ngen\ta*b - 1\n",
        "vars a b  # letters\n# a comment line\ngen a*b - 1  # note\n",
        "\ufeffvars a b\ngen a*b - 1\n",
    ], ids=["tab", "comment", "bom"])
    def test_line_syntax(self, tmp_path, text):
        # a tab separates a directive, "#" starts a comment anywhere, and a
        # UTF-8 byte-order mark is not part of the first directive
        path = tmp_path / "p.prob"
        path.write_text(text, encoding="utf-8")
        problem = parse_problem(path)
        assert problem.alphabet.symbols == ("a", "b")
        assert [format_polynomial(g, problem.alphabet, problem.ordering)
                for g in problem.generators] == ["a*b - 1"]

    def test_unspellable_variable_name_reports_its_line(self, tmp_path):
        # the tokenizer could never read it in a gen line, so the vars line fails
        path = tmp_path / "bad.prob"
        path.write_text("vars \u00e9 x\ngen \u00e9*x - 1\n", encoding="utf-8")
        with pytest.raises(ProblemError, match="bad variable name") as err:
            parse_problem(path)
        assert err.value.line == 1

    def test_coefficients_stay_int_while_integral(self, tmp_path):
        # TestRun::test_zero_denominator_diagnostic runs 1/0 through ncgb run
        path = tmp_path / "p.prob"
        path.write_text("vars a b\ngen 3*a - 6/3*b + 1/2\n")
        [f] = parse_problem(path).generators
        coeffs = dict(f.items())
        assert [(type(c), c) for c in (coeffs[b"\0"], coeffs[b"\1"], coeffs[b""])] == \
            [(int, 3), (int, -2), (Fraction, Fraction(1, 2))]
        path.write_text("vars a b\ngen a - 1/0\n")
        with pytest.raises(ProblemError, match="zero denominator"):
            parse_problem(path)

    def test_name_with_a_tab_rejected(self, tmp_path):
        # the label is a cell of the tab-separated statistics row
        path = tmp_path / "bad.prob"
        path.write_text("vars a b\nname my\tlabel\ngen a*b - 1\n")
        with pytest.raises(ProblemError) as err:
            parse_problem(path)
        assert str(err.value) == f"{path}:2: name must not contain a tab"

    @pytest.mark.parametrize("value", ["1_0", "\u0661\u0660", "+5", "-2", "0", "5a"])
    def test_trunc_takes_ascii_digits_only(self, tmp_path, value):
        path = tmp_path / "bad.prob"
        path.write_text(f"vars a b\ntrunc {value}\ngen a*b - b*a\n", encoding="utf-8")
        with pytest.raises(ProblemError) as err:
            parse_problem(path)
        assert str(err.value) == f"{path}:2: trunc needs a positive integer"
        path.write_text("vars a b\ntrunc 010\ngen a*b - b*a\n")
        assert parse_problem(path).truncation == 10

    def test_numbers_take_ascii_digits_only(self, tmp_path):
        # Arabic-Indic 3 and 2 are digits to int(), not to the number syntax
        path = tmp_path / "bad.prob"
        path.write_text("vars a b\ngen \u0663*a^\u0662 - 1\n", encoding="utf-8")
        with pytest.raises(ProblemError) as err:
            parse_problem(path)
        assert str(err.value) == f"{path}:2:1: unexpected character '\u0663'"

    def test_order_permutes_precedence(self, tmp_path):
        path = tmp_path / "p.prob"
        path.write_text("vars a b\norder llex b a\ngen a*b - 1\n")
        problem = parse_problem(path)
        assert problem.alphabet.symbols == ("b", "a")
        assert problem.order_line == 2

    @pytest.mark.parametrize("order", ["order llex a a", "order llex a c", "order llex a",
                                       "order llex"])
    def test_bad_order_line_reports_its_line(self, tmp_path, order):
        path = tmp_path / "bad.prob"
        path.write_text(f"vars a b\n{order}\ngen a - 1\n")
        with pytest.raises(ProblemError) as err:
            parse_problem(path)
        assert err.value.line == 2
        assert str(err.value).startswith(f"{path}:2: ")

    def test_duplicate_order_line_rejected(self, tmp_path):
        path = tmp_path / "bad.prob"
        path.write_text("vars a b\norder llex b a\norder llex a b\ngen a - 1\n")
        with pytest.raises(ProblemError, match="duplicate order line") as err:
            parse_problem(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("first,second", [("name one", "name two"), ("trunc 5", "trunc 6")])
    def test_duplicate_directive_rejected(self, tmp_path, first, second):
        # the second line would otherwise silently win, even between gen lines
        path = tmp_path / "bad.prob"
        path.write_text(f"vars a b\n{first}\ngen a*b - 1\n{second}\ngen b - 1\n")
        directive = first.split()[0]
        with pytest.raises(ProblemError) as err:
            parse_problem(path)
        assert str(err.value) == f"{path}:4: duplicate {directive} line"

    def test_parse_fuzz_property(self, tmp_path):
        """Any file ends in a Problem or a ProblemError, never another exception.

        The inputs are arbitrary text and bytes, corpus files with a random
        slice replaced by random text, and vars and order lines in either
        order followed by lines of directive-shaped tokens.  An accepted
        problem's alphabet lists the names of the line that fixes its
        precedence: the order line when there is one, else the vars line.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        corpus = [problem_path(n).read_text() for n in names()]
        tokens = ["vars", "order", "llex", "gen", "trunc", "name", "mode", "basic",
                  "a", "b", "c", "x1", "1", "0", "-", "+", "*", "^", "2", "(", ")",
                  "3/4", "1/0", "#"]
        spliced = st.builds(
            lambda text, i, j, piece: text[:i % len(text)] + piece + text[i % len(text) + j:],
            st.sampled_from(corpus), st.integers(0, 10**4), st.integers(0, 40), st.text())
        names_ = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4)
        head = st.builds(
            lambda v, o, first: [f"vars {' '.join(v)}", f"order llex {' '.join(o)}"][::first],
            names_ | st.permutations(["a", "b", "c"]),
            names_ | st.permutations(["a", "b", "c"]), st.sampled_from([1, -1]))
        line = st.lists(st.sampled_from(tokens), max_size=8).map(" ".join)
        shaped = st.builds(lambda h, body: "\n".join(h + ["gen a*b - c"] + body),
                           head, st.lists(line, max_size=3))
        path = tmp_path / "fuzz.prob"
        seen = {"accepted": 0, "ordered": 0, "rejected": 0}

        @hypothesis.settings(max_examples=600, deadline=None, database=None)
        @hypothesis.given(st.one_of(st.text(), st.binary(), spliced, shaped))
        def check(data):
            if isinstance(data, bytes):
                path.write_bytes(data)
            else:
                path.write_text(data, encoding="utf-8")
            try:
                problem = parse_problem(path)
            except ProblemError:
                seen["rejected"] += 1
                return
            seen["accepted"] += 1
            line = path.read_text(encoding="utf-8-sig").splitlines()[problem.order_line - 1]
            parts = line.partition("#")[0].split()
            if parts[0] == "order":
                seen["ordered"] += 1
                assert problem.alphabet.symbols == tuple(parts[2:])
            else:
                assert problem.alphabet.symbols == tuple(parts[1:])

        check()
        assert min(seen.values()) > 0, seen


# the statistics rows of perfbench/README.md
CORPUS_ROWS = {
    "g01": "62 35 7032 248 6512 48 0 224 0.0353",
    "g02": "133 96 31700 533 30571 70 0 526 0.0168",
    "g03": "50 40 2828 197 2489 11 0 131 0.0697",
    "g04": "64 28 4702 253 4185 46 0 218 0.0538",
    "g05": "35 21 1580 115 1348 24 0 93 0.0728",
    "g06": "199 164 51175 882 49126 26 0 1141 0.0172",
    "g07": "200 164 51864 886 49818 17 0 1143 0.0171",
    "g08": "53 37 3756 192 3357 19 0 188 0.0511",
    "g09": "11 5 150 31 98 8 0 13 0.2067",
    "g10": "22 15 741 74 605 18 0 44 0.0999",
    "g11": "30 21 1573 116 1324 50 0 83 0.0737",
    "g12": "97 70 16841 365 15989 97 0 390 0.0217",
    "g13": "220 194 87673 1021 85136 153 0 1363 0.0116",
}


# sha256 of the full ``ncgb run`` stdout: statistics rows, both bases and
# their order, and the formatting of every coefficient
STDOUT_SHA256 = {
    ("g01",): "b83e9b390a59d47267692280343612aea79dc8ab64793ab722c49a0c56c038c6",
    ("g02",): "9f9929ae01bf4a1a6568a5b81bd34d0837264d8a77ce25776ba2dba16cb5c930",
    ("g03",): "bc707c49d03079c9750a4a16c83909267c0515ff6bca615bc53044ccd60f4d79",
    ("g04",): "8f58b0698cde9561f061a15d7f134837f55c4ab8b021e2f1aa4086ceeb1082f1",
    ("g05",): "03df7b544c1173520246c2042cf168ae311d8d9fec5e4d7b279013556175c063",
    ("g06",): "16607e6f03146ee4f3defee698a016103f7e5bca59f27d333c5a64eb7c7117c6",
    ("g07",): "82f713a0e56c10a76213829e861d8b97b1c87f499ea8921caa08e7ffa3a6345b",
    ("g08",): "cb50f732da3df76a367e5fe30a9ef643f8506588065c0308d3107ffeb37c25ad",
    ("g09",): "23f1231fb698f20cb6d95ba679ef08faa8d9cf699f953ad7fd0b872297573717",
    ("g10",): "fd03c3e3c59970483ee33354e95c84fb61ddb7c03ce348b5852c996c7e358654",
    ("g11",): "302a4884e2fb93e1b45367086b4bff2d2ad279c4903b0de933b79abd5786034e",
    ("g12",): "31e4f796cc962b1d3f397513f983b3f927cc283a54b0765661bec21702a02539",
    ("g13",): "18c75ae92a26d8d814a824ad6a07f965baefeac66a91aa77cc567566dc79d6aa",
    ("g06", "--mode", "basic"):
        "4b5d4cf540025d66f6b4bb5b0be344114141234c7d759fd018498b8b6c223d8d",
    ("braid4",): "3320cdc4b5d55df3e0977b0908de1500f034d2ebbd44a2fa05474f1b053bb379",
    ("braid3", "--trunc", "10"):
        "bb7df544308ca2d230ea7a8046931b0f561bcce00220cb09888365e773f91f2e",
}


def assert_stdout_pinned(out, name, argv=()):
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[(name, *argv)]


def assert_row(out, name, row):
    gb, rgb = row.split()[:2]
    lines = out.splitlines()
    assert lines[0] == f"# gb {gb}"
    assert f"# rgb {rgb}" in lines
    assert lines[-2].split("\t") == ["label", "gb", "rgb", "tot", "sel",
                                     "m", "f", "tail", "bk", "rho"]
    assert lines[-1].split("\t") == [name] + row.split()


class TestRun:
    @pytest.mark.parametrize("name", sorted(CORPUS_ROWS))
    def test_reference_row(self, name, capsys):
        code, out, _ = run_main(["run", str(problem_path(name))], capsys)
        assert code == EXIT_OK
        assert_row(out, name, CORPUS_ROWS[name])
        assert_stdout_pinned(out, name)

    def test_basic_mode_stdout(self, capsys):
        argv = ("--mode", "basic")
        code, out, _ = run_main(["run", str(problem_path("g06")), *argv], capsys)
        assert code == EXIT_OK
        assert_stdout_pinned(out, "g06", argv)

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run_main(["run", str(problem_path("g09"))], capsys)
        _, second, _ = run_main(["run", str(problem_path("g09"))], capsys)
        assert first == second

    def test_malformed_file_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.prob"
        path.write_text("vars a b\ngen a ** b\n")
        code, _, err = run_main(["run", str(path)], capsys)
        assert code == EXIT_ERROR
        assert "bad.prob:2" in err

    def test_zero_denominator_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.prob"
        path.write_text("vars a\ngen a - 1/0\n")
        code, _, err = run_main(["run", str(path)], capsys)
        assert code == EXIT_ERROR
        assert "bad.prob:2:" in err and "zero denominator" in err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_zero_generator_reports_its_line(self, tmp_path, capsys, command):
        # in a problem file for run, in a basis file for verify
        path = tmp_path / "bad.prob"
        path.write_text("vars a b\ngen a*b - 1\ngen 2*a - 2*a\n")
        argv = [command, str(path)] + ([str(problem_path("g09"))] if command == "verify" else [])
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"error: {path}:3: generator is zero\n"

    @pytest.mark.parametrize("flag", ["--trunc", "--max-basis", "--max-degree"])
    @pytest.mark.parametrize("value", ["0", "-2", "1_0", "\u0665", "+5"])
    def test_nonpositive_caps_rejected(self, flag, value, capsys):
        code, out, err = run_main(["run", str(problem_path("braid3")), flag, value],
                                  capsys)
        assert code == EXIT_ERROR and out == ""
        assert f"{flag} must be positive" in err

    def test_missing_file(self, capsys):
        code, _, err = run_main(["run", "/nonexistent/x.prob"], capsys)
        assert code == EXIT_ERROR and "x.prob" in err

    def test_cap_gets_distinct_exit_code(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["run", str(problem_path("g09")), "--max-basis", "5"], capsys)
        assert code == EXIT_CAPPED
        assert "# capped max_basis" in out
        # one 4,000-letter leading word: 1,999 self overlaps are found
        # through its affix index, and M removes all but one
        path = tmp_path / "long.prob"
        path.write_text("vars a b\ngen (a*b)^2000 - a\n")
        code, out, _ = run_main(["run", str(path), "--max-basis", "1"], capsys)
        assert code == EXIT_CAPPED
        assert "# capped max_basis" in out
        assert "long\t1\t1\t1999\t1\t1998\t0\t0\t0\t0.0005" in out.splitlines()

    def test_capped_run_fuzz_property(self, tmp_path, capsys):
        """A small random ideal ends complete and verified, or capped.

        Ideals of one to three random generators over two or three letters,
        with rational coefficients, run under ``--max-basis 12 --max-degree
        7``.  The run exits 0 and the basis it writes verifies, or it exits
        with EXIT_CAPPED and says ``# capped``; it never errs.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        alphabets = {2: Alphabet(["a", "b"]), 3: Alphabet(["a", "b", "c"])}
        prob, rgb = tmp_path / "fuzz.prob", tmp_path / "fuzz.rgb"
        seen = {"complete": 0, "capped": 0}

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.randoms(use_true_random=False), st.sampled_from([2, 3]),
                          st.integers(1, 3))
        def check(rng, nletters, size):
            alphabet = alphabets[nletters]
            gens = [random_polynomial(rng, nletters, max_degree=4) for _ in range(size)]
            prob.write_text("".join(
                [f"vars {' '.join(alphabet.symbols)}\n"]
                + [f"gen {format_polynomial(f, alphabet, alphabet.llex)}\n" for f in gens]))
            code, out, err = run_main(["run", str(prob), "--max-basis", "12",
                                       "--max-degree", "7", "--basis-out", str(rgb)], capsys)
            assert err == ""
            if code == EXIT_CAPPED:
                seen["capped"] += 1
                assert "\n# capped " in out
            else:
                seen["complete"] += 1
                assert code == EXIT_OK and "# capped" not in out
                assert run_main(["verify", str(rgb), str(prob)], capsys) == (EXIT_OK, "ok\n", "")

        check()
        assert min(seen.values()) > 0, seen

    def test_interrupt_prints_partial_basis(self, capsys, monkeypatch):
        interrupt_on_call(monkeypatch, 5)
        code, out, err = run_main(["run", str(problem_path("g09"))], capsys)
        assert code == EXIT_CAPPED and err == ""
        lines = out.splitlines()
        rgb = next(k for k, line in enumerate(lines) if line.startswith("# rgb "))
        assert lines[0] == f"# gb {rgb - 1}"
        assert lines[-3] == "# capped interrupted"
        row = lines[-1].split("\t")
        assert row[0] == "g09" and row[1] == str(rgb - 1) and row[4] == "5"

    def test_interrupt_elsewhere_is_an_error(self, capsys, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "interreduce", interrupted)
        code, out, err = run_main(["run", str(problem_path("g09"))], capsys)
        assert (code, out, err) == (EXIT_ERROR, "", "error: interrupted\n")

    def test_no_criteria_matches_basic_mode(self, capsys):
        # the flag selects the basic procedure, which applies no criterion
        _, basic, _ = run_main(
            ["run", str(problem_path("g09")), "--mode", "basic"], capsys)
        row = basic.splitlines()[-1].split("\t")
        assert row[3] == row[4] == "150"  # every obstruction selected

    @pytest.mark.parametrize("body", ["a^99999999999", "a^99999999999999999999",
                                      "(a*b)^99999999999", "(a*b)^32769 - 1"])
    def test_huge_power_diagnostic(self, tmp_path, capsys, body):
        path = tmp_path / "bad.prob"
        path.write_text(f"vars a b\ngen {body}\n")
        code, out, err = run_main(["run", str(path)], capsys)
        assert code == EXIT_ERROR and out == ""
        assert "bad.prob:2:" in err and "power longer than" in err

    @pytest.mark.parametrize("depth", [1_000, 100_000])
    def test_deeply_nested_generator(self, tmp_path, capsys, depth):
        path = tmp_path / "deep.prob"
        path.write_text(f"vars a b\ngen {'(' * depth}a*b{')' * depth}^2 - 1\n"
                        "gen b^2 - 1\n")
        code, out, err = run_main(["run", str(path)], capsys)
        assert code == EXIT_OK and err == ""
        assert out.splitlines()[-1].split("\t")[1:] == "3 2 7 5 1 1 0 0 0.7143".split()
        # an unclosed group still ends in a positioned diagnostic
        path.write_text(f"vars a b\ngen {'(' * depth}a*b\n")
        code, out, err = run_main(["run", str(path)], capsys)
        assert code == EXIT_ERROR and out == ""
        assert err == (f"error: {path}:2:{depth + 4}: expected '*' or ')' inside group "
                       "(at end of input)\n")

    def test_syntax_error_position(self, tmp_path, capsys):
        path = tmp_path / "t.prob"
        path.write_text("vars a b\ngen a^99999999999\n")
        code, _, err = run_main(["run", str(path)], capsys)
        assert code == EXIT_ERROR
        assert err == (f"error: {path}:2:3: power longer than 65536 letters, "
                       "got '99999999999'\n")
        # a long token is echoed as a short prefix
        path.write_text("vars a b\ngen a^" + "9" * 5000 + "\n")
        code, _, err = run_main(["run", str(path)], capsys)
        assert code == EXIT_ERROR
        assert err.endswith(f"{path}:2:3: power longer than 65536 letters, "
                            "got '99999999999999999999…'\n")

    @pytest.mark.parametrize("coeff", ["1" * 5000, "1/" + "3" * 5000])
    def test_long_coefficient_diagnostic(self, tmp_path, capsys, coeff):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not 0 < limit < 5000:
            pytest.skip("this interpreter converts 5,000 digits")
        path = tmp_path / "t.prob"
        path.write_text(f"vars a b\ngen {coeff}*a - b\n")
        code, out, err = run_main(["run", str(path)], capsys)
        assert code == EXIT_ERROR and out == ""
        assert err == (f"error: {path}:2:1: coefficient longer than {limit} digits, "
                       f"got '{coeff[:20]}…'\n")

    def test_non_utf8_file_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.prob"
        path.write_bytes(b"\xff\xfevars a\n")
        code, out, err = run_main(["run", str(path)], capsys)
        assert code == EXIT_ERROR and out == ""
        assert "bad.prob" in err and "not UTF-8 text" in err

    def test_stats_csv(self, tmp_path, capsys):
        target = tmp_path / "stats.csv"
        run_main(["run", str(problem_path("g09")), "--stats-csv", str(target)],
                 capsys)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "label,gb,rgb,tot,sel,m,f,tail,bk,rho"
        assert lines[1] == "g09,11,5,150,31,98,8,0,13,0.2067"

    def test_unwritable_stats_csv(self, capsys):
        code, _, err = run_main(["run", str(problem_path("g09")), "--stats-csv",
                                 "/nonexistent/dir/x.csv"], capsys)
        assert code == EXIT_ERROR
        assert err.startswith("error: ") and "x.csv" in err

    def test_rational_coefficients_rendered(self, tmp_path, capsys):
        path = tmp_path / "rat.prob"
        path.write_text("vars a b\ngen 2*a*b - 3\ngen 3*b*a - a\n")
        code, out, _ = run_main(["run", str(path)], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        start = lines.index("# rgb 2") + 1
        assert lines[start:start + 2] == ["gen b - 1/3", "gen a - 9/2"]

    @pytest.mark.slow
    def test_braid3_at_corpus_bound(self, capsys):
        code, out, _ = run_main(["run", str(problem_path("braid3"))], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# gb 726" and "# rgb 726" in lines
        assert lines[-1].split("\t") == ["braid3", "726", "726", "289642", "1663",
                                          "453", "0", "0", "79", "0.0057"]

    @pytest.mark.slow
    @pytest.mark.parametrize("name, argv, row", [
        ("braid4", [], "416 416 93252 1150 448 0 0 77 0.0123"),
        ("braid3", ["--trunc", "10"], "327 327 58507 696 170 0 0 28 0.0119"),
    ])
    def test_braid_row(self, name, argv, row, capsys):
        code, out, _ = run_main(["run", str(problem_path(name))] + argv, capsys)
        assert code == EXIT_OK
        assert_row(out, name, row)
        assert_stdout_pinned(out, name, argv)

    @pytest.mark.parametrize("name, argv", [("g02", []), ("g09", []),
                                            ("braid4", ["--trunc", "8"])])
    def test_letter_encoding_does_not_show(self, tmp_path, capsys, name, argv):
        """Reversing the vars line, with the order line kept, changes nothing.

        Both files build their alphabet in the order line's precedence, so
        the two runs print the same bytes, and each written basis verifies.
        """
        text = problem_path(name).read_text()
        vars_line = next(line for line in text.splitlines() if line.startswith("vars "))
        flipped = tmp_path / f"{name}.prob"
        flipped.write_text(text.replace(
            vars_line, " ".join(["vars"] + vars_line.split()[:0:-1]), 1))
        outs = []
        for path in (problem_path(name), flipped):
            rgb = tmp_path / "rgb.prob"
            code, out, _ = run_main(["run", str(path), *argv, "--basis-out", str(rgb)],
                                    capsys)
            assert code == EXIT_OK
            outs.append(out)
            code, verdict, _ = run_main(["verify", str(rgb), str(path), *argv], capsys)
            assert code == EXIT_OK and verdict == "ok\n"
        assert outs[0] == outs[1]

    def test_trunc_flag_requires_homogeneous(self, capsys):
        code, _, err = run_main(
            ["run", str(problem_path("g09")), "--trunc", "5"], capsys)
        assert code == EXIT_ERROR and "homogeneous" in err


class TestVerify:
    def write_basis(self, tmp_path, capsys, drop=None, name="g09", argv=()):
        """Run a corpus problem, extract the reduced basis lines into a basis file.

        The file has no vars line: it takes the variables of the problem it
        is verified against.
        """
        _, out, _ = run_main(["run", str(problem_path(name)), *argv], capsys)
        lines = out.splitlines()
        start = next(k for k, line in enumerate(lines) if line.startswith("# rgb")) + 1
        gens = [line for line in lines[start:] if line.startswith("gen ")]
        if drop is not None:
            del gens[drop]
        path = tmp_path / "basis.prob"
        path.write_text("\n".join(gens) + "\n")
        return path

    def test_reduced_basis_verifies(self, tmp_path, capsys):
        path = self.write_basis(tmp_path, capsys)
        code, out, _ = run_main(
            ["verify", str(path), str(problem_path("g09"))], capsys)
        assert code == EXIT_OK and out.strip() == "ok"

    @pytest.mark.parametrize("name, argv", [("g06", []), ("braid4", ["--trunc", "10"])])
    def test_basis_out_verifies(self, tmp_path, capsys, name, argv):
        """run --basis-out writes only the reduced basis; verify accepts it as is."""
        path = tmp_path / "rgb.prob"
        code, out, _ = run_main(["run", str(problem_path(name)), *argv,
                                 "--basis-out", str(path)], capsys)
        assert code == EXIT_OK
        if not argv:
            assert_stdout_pinned(out, name)
        lines = out.splitlines()
        rgb = lines[lines.index(next(l for l in lines if l.startswith("# rgb"))) + 1:-2]
        problem = parse_problem(problem_path(name))
        assert path.read_text().splitlines() == [
            f"vars {' '.join(problem.alphabet.symbols)}",
            f"order llex {' '.join(problem.alphabet.symbols)}", *rgb]
        code, out, err = run_main(["verify", str(path), str(problem_path(name)), *argv],
                                  capsys)
        assert (code, out, err) == (EXIT_OK, "ok\n", "")

    def test_unwritable_basis_out(self, capsys):
        code, _, err = run_main(["run", str(problem_path("g09")), "--basis-out",
                                 "/nonexistent/dir/rgb.prob"], capsys)
        assert code == EXIT_ERROR
        assert err.startswith("error: cannot write ") and "rgb.prob" in err

    def test_interrupt_is_an_error(self, tmp_path, capsys, monkeypatch):
        # verification has no partial answer: an interrupt is never "ok"
        path = self.write_basis(tmp_path, capsys)
        interrupt_on_call(monkeypatch, 5)
        code, out, err = run_main(
            ["verify", str(path), str(problem_path("g09"))], capsys)
        assert (code, out, err) == (EXIT_ERROR, "", "error: interrupted\n")

    def test_mutilated_basis_fails(self, tmp_path, capsys):
        path = self.write_basis(tmp_path, capsys, drop=2)
        code, out, _ = run_main(
            ["verify", str(path), str(problem_path("g09"))], capsys)
        assert code == EXIT_VERIFY_FAILED
        assert "unresolved obstruction" in out

    @pytest.mark.parametrize("name,drop,obstruction", [
        ("g06", 1, "o[1,1](1,b^3*a*b*a*b;b*a*b^4*a,1)"),
        ("g13", 1, "o[1,1](1,b*a*b^2*a*b*a*b*a*b*a*b;b*a*b^2*a*b^2*a*b*a*b*a,1)"),
        # by offset, o[0,1](b*a*b^4*a*b*a,1;1,b^4) would fail first
        ("g06", 0, "o[0,1](1,a*b^4*a*b*a*b;b^4,1)"),
        # checking every obstruction, the first failure by source index and
        # then obstruction order was o[2,3](b*a*b*a*b^4*a,1;1,a*b^4*a*b*a*b),
        # which the multiply and leading-word criteria remove
        ("g06", 4, "o[0,6](1,b*a*b*a*b^3*a*b;a,1)"),
    ])
    def test_first_unresolved_obstruction(self, tmp_path, capsys, name, drop, obstruction):
        # a reduced basis without one generator; construction lists
        # obstructions in discovery order, and verify reports the first
        # failure among the multiply and leading-word survivors by target
        # and then obstruction order
        path = self.write_basis(tmp_path, capsys, drop=drop, name=name)
        code, out, _ = run_main(["verify", str(path), str(problem_path(name))], capsys)
        assert code == EXIT_VERIFY_FAILED
        assert out == f"not a Groebner basis; unresolved obstruction {obstruction}\n"

    def test_problem_generator_outside_ideal(self, tmp_path, capsys):
        # a Groebner basis of g09's ideal, checked against a problem whose
        # generator a - 1 is not in that ideal
        path = self.write_basis(tmp_path, capsys)
        problem = tmp_path / "p.prob"
        problem.write_text("vars a b\ngen b^3 - 1\ngen a - 1\n")
        code, out, _ = run_main(["verify", str(path), str(problem)], capsys)
        assert code == EXIT_VERIFY_FAILED
        assert out == "problem generator 2 does not reduce to zero: a - 1\n"
        # generators above the truncation bound are not checked; a bound
        # needs a homogeneous basis, here braid4's up to 6
        path = self.write_basis(tmp_path, capsys, name="braid4", argv=["--trunc", "6"])
        problem.write_text("vars x1 x2 x3\ngen x2*x1*x2 - x3*x2*x3\ngen x3^5 - x2^5\n")
        code, out, _ = run_main(["verify", str(path), str(problem), "--trunc", "4"], capsys)
        assert (code, out) == (EXIT_OK, "ok\n")
        code, out, _ = run_main(["verify", str(path), str(problem), "--trunc", "6"], capsys)
        assert code == EXIT_VERIFY_FAILED
        assert out == "problem generator 2 does not reduce to zero: -x2^5 + x3^5\n"

    @pytest.mark.slow
    def test_problem_generators_against_g13(self, tmp_path, capsys):
        path = self.write_basis(tmp_path, capsys, name="g13")
        problem = tmp_path / "p.prob"
        problem.write_text("vars a b\ngen a - 1\n")
        code, out, _ = run_main(["verify", str(path), str(problem)], capsys)
        assert code == EXIT_VERIFY_FAILED
        assert out == "problem generator 1 does not reduce to zero: a - 1\n"
        # a^2 - 1 lies in g13's ideal; that the basis lies in the ideal of
        # a^2 - 1 alone, which it does not, is not checked
        problem.write_text("vars a b\ngen a^2 - 1\n")
        code, out, _ = run_main(["verify", str(path), str(problem)], capsys)
        assert (code, out) == (EXIT_OK, "ok\n")

    def test_single_generator_basis(self, tmp_path, capsys):
        problem = tmp_path / "p.prob"
        problem.write_text("vars a b\ngen a - 1\n")
        basis = tmp_path / "b.prob"
        basis.write_text("gen a - 1\n")
        code, out, _ = run_main(["verify", str(basis), str(problem)], capsys)
        assert code == EXIT_OK

    def test_alphabet_mismatch(self, tmp_path, capsys):
        basis = tmp_path / "b.prob"
        basis.write_text("vars a c\ngen a - 1\n")
        code, _, err = run_main(
            ["verify", str(basis), str(problem_path("g09"))], capsys)
        assert code == EXIT_ERROR and "different variables" in err

    @pytest.mark.parametrize("order, code", [
        ("order llex a b", EXIT_OK), ("order llex b a", EXIT_ERROR), (None, EXIT_OK)])
    def test_basis_order_must_match(self, tmp_path, capsys, order, code):
        """A basis file's order line, when it has one, must be the problem's."""
        path = tmp_path / "rgb.prob"
        run_main(["run", str(problem_path("g09")), "--basis-out", str(path)], capsys)
        lines = path.read_text().splitlines()
        assert lines[1] == "order llex a b"
        lines[1:2] = [order] if order else []
        path.write_text("\n".join(lines) + "\n")
        got, out, err = run_main(["verify", str(path), str(problem_path("g09"))], capsys)
        assert got == code
        if code == EXIT_OK:
            assert out == "ok\n"
        else:
            assert err == f"error: {path}:2: basis and problem declare different orders\n"

    @pytest.mark.parametrize("basis_head, problem_head, line", [
        ("vars b a\norder llex b a", "vars a b\norder llex b a", None),
        # the --basis-out layout that listed the vars line in vars order
        ("vars a b\norder llex b a", "vars a b\norder llex b a", None),
        ("order llex b a", "vars a b\norder llex b a", None),
        ("", "vars a b\norder llex b a", None),
        # without an order line the vars line is the basis's precedence
        ("vars a b", "vars a b\norder llex b a", 1),
        ("vars b a", "vars a b", 1),
        ("vars b a\norder llex a b", "vars b a", 2),
        ("order llex a b", "vars b a", 1),
    ], ids=["both-lines", "vars-order-layout", "order-only", "no-header",
            "vars-only", "vars-reversed", "order-line-wins", "order-only-mismatch"])
    def test_basis_precedence_must_match(self, tmp_path, capsys, basis_head,
                                         problem_head, line):
        """A basis declares the problem's precedence by its order line, else its vars line."""
        gens = "gen a^2 - 1\ngen b^3 - 1\ngen (a*b)^5 - 1\n"
        problem = tmp_path / "p.prob"
        problem.write_text("vars a b\norder llex b a\n" + gens)
        rgb = tmp_path / "rgb.prob"
        assert main(["run", str(problem), "--basis-out", str(rgb)]) == EXIT_OK
        lines = rgb.read_text().splitlines()
        assert lines[:2] == ["vars b a", "order llex b a"]
        basis = tmp_path / "b.prob"
        basis.write_text("\n".join(([basis_head] if basis_head else []) + lines[2:]) + "\n")
        problem.write_text(problem_head + "\n" + gens)
        capsys.readouterr()
        code, out, err = run_main(["verify", str(basis), str(problem)], capsys)
        if line is None:
            assert (code, out, err) == (EXIT_OK, "ok\n", "")
        else:
            assert (code, out) == (EXIT_ERROR, "")
            assert err == f"error: {basis}:{line}: basis and problem declare different orders\n"

    def test_truncated_verify(self, tmp_path, capsys):
        _, out, _ = run_main(
            ["run", str(problem_path("braid3")), "--trunc", "5"], capsys)
        lines = out.splitlines()
        start = lines.index([l for l in lines if l.startswith("# rgb")][0]) + 1
        gens = [line for line in lines[start:] if line.startswith("gen ")]
        path = tmp_path / "basis.prob"
        path.write_text("\n".join(gens) + "\n")
        code, out, _ = run_main(
            ["verify", str(path), str(problem_path("braid3")), "--trunc", "5"],
            capsys)
        assert code == EXIT_OK

    def test_trunc_requires_homogeneous_basis(self, tmp_path, capsys):
        # a*b - b is not homogeneous, so checking up to a bound proves nothing
        problem = tmp_path / "p.prob"
        problem.write_text("vars a b\ngen a*a - 1\ngen b*b - 1\n")
        basis = tmp_path / "b.prob"
        basis.write_text("gen a*a - 1\ngen b*b - 1\ngen a*b - b\n")
        code, out, err = run_main(["verify", str(basis), str(problem), "--trunc", "2"],
                                  capsys)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: truncation requires homogeneous generators\n"
        code, out, _ = run_main(["verify", str(basis), str(problem)], capsys)
        assert code == EXIT_VERIFY_FAILED
        assert out == "not a Groebner basis; unresolved obstruction o[1,2](a,1;1,b)\n"

    @pytest.mark.parametrize("value", ["0", "-2", "1_0", "\u0665", "+5"])
    def test_nonpositive_trunc_rejected(self, tmp_path, capsys, value):
        problem = tmp_path / "p.prob"
        problem.write_text("vars a b\ngen a*b - 1\ngen a^2 - b\n")
        code, _, _ = run_main(["verify", str(problem), str(problem)], capsys)
        assert code == EXIT_VERIFY_FAILED
        code, out, err = run_main(["verify", str(problem), str(problem), "--trunc", value],
                                  capsys)
        assert code == EXIT_ERROR and out == ""
        assert "--trunc must be positive" in err


def triangle_cases():
    """The 13 triangle ideals, and three of them with the precedence b > a."""
    cases = [pytest.param(name, "a b", id=name) for name in names() if name.startswith("g")]
    return cases + [pytest.param(name, "b a", id=f"{name}-ba") for name in ("g02", "g09", "g13")]


@pytest.mark.slow
@pytest.mark.parametrize("name, order", triangle_cases())
def test_regular_representation(tmp_path, capsys, name, order):
    """The printed reduced basis presents the triangle group, by its regular representation.

    The normal words of the basis, found by string rewriting, are permuted
    by every letter; the permutations must generate a group with exactly
    one element per normal word, and every problem relator u - v must act
    as the identity, so u and v act alike.
    """
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation, PermutationGroup

    path = tmp_path / f"{name}.prob"
    path.write_text(problem_path(name).read_text().replace(
        "order llex a b", f"order llex {order}", 1))
    code, out, _ = run_main(["run", str(path)], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("# rgb")) + 1
    problem = parse_problem(path)
    words, action = regular_representation(lines[start:-2], problem.alphabet)
    n = len(words)
    for row in action:
        assert sorted(row) == list(range(n))
    assert PermutationGroup([Permutation(row) for row in action]).order() == n

    def act(word):
        image = list(range(n))
        for letter in word:
            row = action[letter]
            image = [row[k] for k in image]
        return image

    for g in problem.generators:
        (u, cu), (v, cv) = g.items()
        assert cu == -cv
        assert act(u) == act(v)


def cli_env():
    """The environment for a ``python -m ncgb`` subprocess that finds this package."""
    src = str(Path(ncgb.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "ncgb", "--help"], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ncgb ")
    assert "{run,verify}" in proc.stdout


def test_closed_stdout_ends_quietly():
    """``ncgb run ... | head -1``: exit 2 with no traceback when the reader leaves.

    braid3 at bound 10 prints about 277 KB, more than a pipe holds, so the
    run always writes into the closed pipe.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncgb", "run", str(problem_path("braid3")), "--trunc", "10"],
        env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "# gb 327\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in err and "Exception ignored" not in err
