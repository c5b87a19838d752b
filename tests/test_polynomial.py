"""Polynomial arithmetic, leading data, and the text syntax."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from ncgb.polynomial import (
    MAX_POWER_LETTERS,
    NcPolynomial,
    PolynomialSyntaxError,
    add_scaled,
    format_polynomial,
    leading,
    make_monic,
    parse_polynomial,
    sandwich,
)
from ncgb.cli import parse_problem
from ncgb.words import Alphabet
from ncgb.corpus import problem_path
from oracles import random_polynomial, random_word

CORPUS = problem_path("g01").parent
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def poly(text, alphabet):
    return parse_polynomial(text, alphabet)


# (text, column, token, message) of a syntax error inside a product
PRODUCT_ERRORS = [
    ("3 a*b", 3, "a", "expected '+' or '-' between terms, got 'a'"),
    ("a*b*q^2", 5, "q", "undeclared variable 'q', got 'q'"),
    ("a^2^3*b", 4, "^", "expected '+' or '-' between terms, got '^'"),
    ("a^2/3*b", 3, "2/3", "exponent must be a non-negative integer, got '2/3'"),
    ("a^2 /3", 3, "2 /3", "exponent must be a non-negative integer, got '2 /3'"),
    ("a^b*a", 3, "b", "exponent must be a non-negative integer, got 'b'"),
    ("(a*b^2 b)", 8, "b", "expected '*' or ')' inside group, got 'b'"),
    ("b*a^70000*q", 5, "70000", "power longer than 65536 letters, got '70000'"),
    ("a*b^2a", 6, "a", "expected '+' or '-' between terms, got 'a'"),
    ("a^02*b +", 9, "", "expected a coefficient, variable or '(' (at end of input)"),
    ("a*b^2 ^ 3", 7, "^", "expected '+' or '-' between terms, got '^'"),
]


# text -> (column, token, message) of a malformed polynomial
MALFORMED = {
    "": (1, "", "empty polynomial"),
    "a +": (4, "", "expected a coefficient, variable or '(' (at end of input)"),
    "* a": (1, "*", "expected a coefficient, variable or '(', got '*'"),
    "a ^ b": (5, "b", "exponent must be a non-negative integer, got 'b'"),
    "a^-1": (3, "-", "exponent must be a non-negative integer, got '-'"),
    "(a": (3, "", "expected '*' or ')' inside group (at end of input)"),
    "( )": (3, ")", "empty group, got ')'"),
    "(2*a)": (2, "2", "only variables may appear inside a group, got '2'"),
    "a b": (3, "b", "expected '+' or '-' between terms, got 'b'"),
    "a @ b": (3, "@", "unexpected character '@'"),
    "c + 1": (1, "c", "undeclared variable 'c', got 'c'"),
    "3 3": (3, "3", "expected '+' or '-' between terms, got '3'"),
    # an unexpected character is reported before any earlier mistake
    "c + @": (5, "@", "unexpected character '@'"),
    "(a*": (4, "", "unterminated group (at end of input)"),
    "2/3*(a*b)^": (11, "", "exponent must be a non-negative integer (at end of input)"),
    "((a)^2^3)": (7, "^", "expected '*' or ')' inside group, got '^'"),
    "(a) (b)": (5, "(", "expected '+' or '-' between terms, got '('"),
    "a - b)": (6, ")", "expected '+' or '-' between terms, got ')'"),
}


class TestLeading:
    def test_single_maximal_word(self, xy):
        c, w = leading(poly("y^3 - 1", xy), xy.llex)
        assert (c, w) == (1, xy.word("yyy"))

    def test_degree_beats_letters(self, xy):
        c, w = leading(poly("x^2*y^2 + y^3", xy), xy.llex)
        assert (c, w) == (1, xy.word("xxyy"))

    def test_zero_has_no_leading_term(self, xy):
        with pytest.raises(ValueError):
            leading(NcPolynomial(), xy.llex)

    def test_leading_of_sandwich(self, xy):
        rng = random.Random(3)
        for _ in range(500):
            f = random_polynomial(rng, 2)
            u, v = random_word(rng, 2, 0, 3), random_word(rng, 2, 0, 3)
            _, w = leading(f, xy.llex)
            _, w2 = leading(sandwich(u, f, v), xy.llex)
            assert w2 == u + w + v


class TestSandwich:
    def test_identity(self, xy):
        f = poly("x*y + 2", xy)
        assert sandwich(b"", f, b"") == f

    def test_term_by_term(self, xy):
        f = poly("y + 1", xy)
        assert sandwich(xy.word("x"), f, xy.word("y")) == poly("x*y^2 + x*y", xy)

    def test_zero(self, xy):
        assert sandwich(xy.word("x"), NcPolynomial(), xy.word("y")) == NcPolynomial()

    def test_support_size_preserved(self, xy):
        rng = random.Random(4)
        for _ in range(300):
            f = random_polynomial(rng, 2)
            u, v = random_word(rng, 2, 0, 4), random_word(rng, 2, 0, 4)
            assert len(sandwich(u, f, v)) == len(f)


class TestAddScaled:
    def test_cancellation_to_zero(self, xy):
        f = poly("x*y - y + 1/2", xy)
        assert not add_scaled(f, -1, f)

    def test_partial_cancellation(self, xy):
        assert add_scaled(poly("x*y", xy), 1, poly("-x*y + y", xy)) == poly("y", xy)

    def test_rational_arithmetic(self, xy):
        got = add_scaled(poly("y^3 - 1", xy), -1, poly("y^3 - y", xy))
        assert got == poly("y - 1", xy)

    def test_exactness(self, xy):
        rng = random.Random(5)
        for _ in range(500):
            f = random_polynomial(rng, 2)
            g = random_polynomial(rng, 2)
            assert add_scaled(add_scaled(f, 1, g), -1, g) == f

    def test_distributes_over_sandwich(self, xy):
        rng = random.Random(6)
        for _ in range(300):
            f, g = random_polynomial(rng, 2), random_polynomial(rng, 2)
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            u, v = random_word(rng, 2, 0, 3), random_word(rng, 2, 0, 3)
            left = sandwich(u, add_scaled(f, c, g), v)
            right = add_scaled(sandwich(u, f, v), c, sandwich(u, g, v))
            assert left == right

    def test_sandwich_composition_associates(self, xy):
        rng = random.Random(7)
        for _ in range(300):
            f = random_polynomial(rng, 2)
            u, v = random_word(rng, 2, 0, 3), random_word(rng, 2, 0, 3)
            p, q = random_word(rng, 2, 0, 3), random_word(rng, 2, 0, 3)
            assert sandwich(u, sandwich(p, f, q), v) == sandwich(u + p, f, q + v)


class TestMakeMonic:
    def test_simple(self, xy):
        assert make_monic(poly("2*x - 2", xy), xy.llex) == poly("x - 1", xy)

    def test_monic_unchanged(self, xy):
        f = poly("x*y - y", xy)
        assert make_monic(f, xy.llex) == f

    def test_rational_scaling(self, xy):
        got = make_monic(poly("-1/3*y^3 + y", xy), xy.llex)
        assert got == poly("y^3 - 3*y", xy)

    def test_zero_rejected(self, xy):
        with pytest.raises(ValueError):
            make_monic(NcPolynomial(), xy.llex)


class TestCoefficients:
    def test_integral_values_become_int(self, ab):
        a = ab.word("a")
        assert type(NcPolynomial({a: Fraction(4, 2)}).coefficient(a)) is int
        half = poly("1/2*a", ab)
        assert type(add_scaled(half, 1, half).coefficient(a)) is int
        twice = add_scaled(NcPolynomial(), Fraction(6, 3), poly("a", ab))
        assert type(twice.coefficient(a)) is int
        assert all(type(c) is int for _, c in poly("3*a*b - 1", ab).items())

    def test_make_monic_divides_exactly(self, ab):
        f = make_monic(poly("3*a - 1", ab), ab.llex)
        assert type(f.coefficient(ab.word("a"))) is int
        assert f.coefficient(b"") == Fraction(-1, 3)
        assert type(f.coefficient(b"")) is Fraction

    def test_sandwich_keeps_coefficients(self, ab):
        f = poly("1/2*a - 3", ab)
        g = sandwich(ab.word("b"), f, ab.word("b"))
        assert g == poly("1/2*b*a*b - 3*b^2", ab)
        assert type(g.coefficient(ab.word("bb"))) is int


class TestParsing:
    def test_powered_group(self, ab):
        assert poly("(a*b*a*b^2)^2 - 1", ab) == \
            NcPolynomial({ab.word("ababbababb"): 1, b"": -1})

    def test_rational_coefficients(self, ab):
        f = poly("1/2*a - 3", ab)
        assert f.coefficient(ab.word("a")) == Fraction(1, 2)
        assert f.coefficient(b"") == -3

    def test_one_is_the_empty_word(self, ab):
        assert poly("1", ab) == NcPolynomial({b"": 1})

    def test_whitespace_insignificant(self, ab):
        assert poly(" a ^ 2 * b - 1 / 2 ", ab) == poly("a^2*b-1/2", ab)
        assert poly("a - 1\t/\t2", ab) == poly("a-1/2", ab)

    def test_nested_groups(self, ab):
        assert poly("((a*b)^2*b)^2", ab) == \
            NcPolynomial({ab.word("ababbababb"): 1})

    @pytest.mark.parametrize("depth", [500, 1_000, 100_000])
    def test_deep_nesting(self, ab, depth):
        """Groups nest without recursion: no depth reaches the interpreter's limit."""
        text = "(" * depth + "a*(b)^2" + ")" * depth + "^2 - b"
        assert poly(text, ab) == poly("(a*b^2)^2 - b", ab)
        assert poly("(a*" * depth + "b" + ")" * depth, ab) == \
            NcPolynomial({ab.word("a") * depth + ab.word("b"): 1})
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("(" * depth + "a", ab)
        assert err.value.column == depth + 2
        assert err.value.message == "expected '*' or ')' inside group (at end of input)"

    def test_like_terms_collected(self, ab):
        assert poly("a + a - 2*a + b", ab) == poly("b", ab)

    def test_leading_sign(self, ab):
        assert poly("-a + 1", ab) == NcPolynomial({ab.word("a"): -1, b"": 1})

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_rejects_malformed(self, ab, bad):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(bad, ab, line=2)
        assert (err.value.line, err.value.column, err.value.token, err.value.message) == \
            (2, *MALFORMED[bad])

    @pytest.mark.parametrize("text, column, char", [
        ("\u0663*a^\u0662 - 1", 1, "\u0663"),  # Arabic-Indic 3 and 2
        ("a^\u0662", 3, "\u0662"),
        ("a - \u0661/2", 5, "\u0661"),
        ("a^2\u0663", 4, "\u0663"),
    ])
    def test_numbers_take_ascii_digits_only(self, ab, text, column, char):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text, ab)
        assert (err.value.column, err.value.token, err.value.message) == \
            (column, char, f"unexpected character {char!r}")

    def test_error_carries_position_and_token(self, ab):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("a + q*b", ab, line=4)
        assert err.value.line == 4
        assert err.value.column == 5
        assert err.value.token == "q"

    @pytest.mark.parametrize("text, column, token, message", PRODUCT_ERRORS)
    def test_error_inside_a_product(self, ab, text, column, token, message):
        """A product like a*b^2 is read in one piece; errors still point at its parts."""
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text, ab)
        assert (err.value.column, err.value.token, err.value.message) == (column, token, message)

    def test_spaced_power_takes_the_last_variable(self, ab):
        assert poly("a*b ^ 2*a", ab) == NcPolynomial({ab.word("abba"): 1})
        assert poly("a^2*b ^ 2", ab) == NcPolynomial({ab.word("aabb"): 1})
        assert poly("(a*b ^2)", ab) == NcPolynomial({ab.word("abb"): 1})

    def test_zero_denominator_rejected(self, ab):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("a - 1/0", ab, line=3)
        assert err.value.line == 3
        assert err.value.column == 5
        assert err.value.token == "1/0"

    def test_power_length_bounded(self, ab):
        limit = MAX_POWER_LETTERS
        assert poly(f"a^{limit}", ab) == NcPolynomial({ab.word("a") * limit: 1})
        assert poly(f"(a*b)^{limit // 2}", ab).degree() == limit
        for text, column in ((f"a^{limit + 1}", 3), (f"(a*b)^{limit // 2 + 1}", 7),
                             ("((a*b)^300)^300", 13), ("a^99999999999999999999", 3),
                             ("b*a^" + "9" * 5000, 5)):
            with pytest.raises(PolynomialSyntaxError) as err:
                parse_polynomial(text, ab, line=2)
            assert err.value.line == 2 and err.value.column == column
            assert "power longer than" in err.value.message


class TestFactorMemo:
    """A memo of factor words shared by the lines of one file changes no result."""

    @pytest.mark.parametrize("path", sorted([*CORPUS.glob("*.prob"), *REFERENCES.glob("*.prob")]),
                             ids=lambda path: f"{path.parent.name}/{path.stem}")
    def test_cold_and_warm_parses_agree(self, path):
        alphabet = parse_problem(problem_path(path.stem.split("_")[0])).alphabet
        alphabet = parse_problem(path, base_alphabet=alphabet).alphabet
        lines = [line[4:] for line in path.read_text().splitlines() if line.startswith("gen ")]
        cold = [parse_polynomial(text, alphabet) for text in lines]
        runs = {}
        first = [parse_polynomial(text, alphabet, runs=runs) for text in lines]
        warm = [parse_polynomial(text, alphabet, runs=runs) for text in lines]
        assert runs and first == warm == cold

    @pytest.mark.parametrize("text, column, token, message", PRODUCT_ERRORS)
    def test_errors_keep_their_place_after_a_warm_memo(self, ab, text, column, token,
                                                       message):
        runs = {}
        parse_polynomial("a*b + a^2*b^2 - a^02*b*a^3 + b^5", ab, runs=runs)
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text, ab, runs=runs)
        assert (err.value.column, err.value.token, err.value.message) == (column, token, message)

    def test_memoized_variable_still_takes_a_spaced_power(self, ab):
        runs = {}
        assert parse_polynomial("b", ab, runs=runs) == NcPolynomial({ab.word("b"): 1})
        assert parse_polynomial("a*b ^ 2*a", ab, runs=runs) == \
            NcPolynomial({ab.word("abba"): 1})

    def test_failed_factor_is_not_memoized(self, ab):
        """A run is memoized whole, with its factors; a run that fails is not.

        The factors spelled before the failing one stay memoized.
        """
        runs = {}
        for text in ("a*b*q^2", "b*a^70000"):
            with pytest.raises(PolynomialSyntaxError):
                parse_polynomial(text, ab, runs=runs)
        assert set(runs) == {"a", "b"}
        parse_polynomial("a*b^2 - b^2*a", ab, runs=runs)
        assert set(runs) == {"a", "b", "b^2", "a*b^2", "b^2*a"}


class TestFormatting:
    def test_descending_terms(self, xy):
        f = poly("y + x^2*y^2 - 1/2", xy)
        assert format_polynomial(f, xy, xy.llex) == "x^2*y^2 + y - 1/2"
        assert format_polynomial(poly("y + x - 1", xy), xy, xy.llex) == "x + y - 1"

    def test_zero(self, xy):
        assert format_polynomial(NcPolynomial(), xy, xy.llex) == "0"

    def test_negative_leading(self, xy):
        assert format_polynomial(poly("-x + y", xy), xy, xy.llex) == "-x + y"

    def test_round_trip(self, ab):
        rng = random.Random(9)
        for _ in range(600):
            f = random_polynomial(rng, 2, max_terms=5, max_degree=6)
            text = format_polynomial(f, ab, ab.llex)
            assert parse_polynomial(text, ab) == f

    def test_round_trip_property(self):
        """Formatted text parses back to the polynomial, through a warm run memo.

        The letters have multi-character names, words repeat letters so
        that they print with powers, and coefficients are rationals,
        including on the empty word.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        alphabet = Alphabet(["x1", "y", "z_2"])
        runs = {}
        word = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 12)), max_size=4).map(
            lambda runs_: b"".join(bytes([k]) * n for k, n in runs_))
        coeff = st.fractions(max_denominator=50).filter(bool)
        polynomial = st.dictionaries(word, coeff, max_size=6).map(NcPolynomial)

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(polynomial)
        def check(f):
            text = format_polynomial(f, alphabet, alphabet.llex)
            assert parse_polynomial(text, alphabet, runs=runs) == f

        check()
        assert runs


class TestStructure:
    def test_degree_and_homogeneity(self, ab):
        assert poly("a*b*a + b^3", ab).is_homogeneous()
        assert not poly("a*b + b^3", ab).is_homogeneous()
        assert poly("a*b + b^3", ab).degree() == 3
        assert NcPolynomial().is_homogeneous()
        with pytest.raises(ValueError):
            NcPolynomial().degree()

    def test_hash_consistent_with_eq(self, ab):
        f = poly("a*b - 1", ab)
        g = poly("-1 + a*b", ab)
        assert f == g and hash(f) == hash(g)

    def test_repr_writes_the_empty_word_as_one(self):
        """The empty word reads ``1``, as in the text syntax; other words are hex."""
        assert repr(NcPolynomial({b"": 3})) == "NcPolynomial(3*1)"
        f = NcPolynomial({b"\x00\x01": Fraction(1, 2), b"": -1})
        assert repr(f) == "NcPolynomial(1/2*0001 + -1*1)"
        assert repr(NcPolynomial()) == "NcPolynomial(0)"
