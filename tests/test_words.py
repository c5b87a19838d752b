"""Words, comparison and overlap offsets."""

import random

import pytest

from ncgb.words import Alphabet, overlaps
from oracles import overlaps_brute, random_word


def all_words(nletters, max_degree):
    words = [b""]
    layer = [b""]
    for _ in range(max_degree):
        layer = [w + bytes([c]) for w in layer for c in range(nletters)]
        words.extend(layer)
    return words


class TestAlphabet:
    def test_validation(self):
        with pytest.raises(ValueError):
            Alphabet([])
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])
        with pytest.raises(ValueError):
            Alphabet(["a", "2b"])
        with pytest.raises(ValueError):
            Alphabet(["a", "b c"])

    def test_word_building(self, ab):
        assert ab.word("a*b*a") == bytes([0, 1, 0])
        assert ab.word("aba") == bytes([0, 1, 0])
        assert ab.word("a^2*b") == bytes([0, 0, 1])
        assert ab.word("1") == b""
        assert ab.word("") == b""
        assert ab.word(["b", "a"]) == bytes([1, 0])
        with pytest.raises(KeyError):
            ab.word("a*c")

    def test_word_to_text(self, ab):
        assert ab.word_to_text(ab.word("aab")) == "a^2*b"
        assert ab.word_to_text(ab.word("abab")) == "a*b*a*b"
        assert ab.word_to_text(b"") == "1"

    def test_multicharacter_names(self):
        alpha = Alphabet(["x1", "x2", "x3"])
        assert alpha.word("x1*x3^2") == bytes([0, 2, 2])
        assert alpha.word_to_text(bytes([0, 2, 2])) == "x1*x3^2"


class TestLLex:
    def test_empty_word_is_less_than_anything(self, xy):
        x = xy.word("x")
        assert xy.llex.key(b"") < xy.llex.key(x)

    def test_first_letter_decides_equal_length(self, xy):
        assert xy.llex.key(xy.word("xy")) > xy.llex.key(xy.word("yx"))

    def test_length_dominates(self, xy):
        # y^3 has degree 3, x^2y^2 has degree 4
        assert xy.llex.key(xy.word("yyy")) < xy.llex.key(xy.word("xxyy"))
        # cross-check against exhaustive enumeration of small words
        ordering = xy.llex
        words = all_words(2, 4)
        ranked = sorted(words, key=ordering.key)
        ia, ib = ranked.index(xy.word("yyy")), ranked.index(xy.word("xxyy"))
        assert ia < ib

    def test_total_order_laws(self, xy):
        rng = random.Random(7)
        ordering = xy.llex
        for _ in range(1200):
            a = random_word(rng, 2, 0, 6)
            b = random_word(rng, 2, 0, 6)
            c = random_word(rng, 2, 0, 6)
            ka, kb, kc = ordering.key(a), ordering.key(b), ordering.key(c)
            assert (ka == kb) == (a == b)
            assert (ka < kb) + (ka == kb) + (ka > kb) == 1
            if ka <= kb <= kc:
                assert ka <= kc

    def test_compatible_with_multiplication(self, xy):
        rng = random.Random(8)
        ordering = xy.llex
        for _ in range(1000):
            a = random_word(rng, 2, 0, 5)
            b = random_word(rng, 2, 0, 5)
            u = random_word(rng, 2, 0, 3)
            v = random_word(rng, 2, 0, 3)
            if ordering.key(a) >= ordering.key(b):
                assert ordering.key(u + a + v) >= ordering.key(u + b + v)

    def test_empty_word_unique_minimum(self, ab):
        ordering = ab.llex
        for w in all_words(2, 4):
            if w:
                assert ordering.key(b"") < ordering.key(w)

    def test_custom_precedence(self, ab):
        ba = Alphabet(["b", "a"])
        assert ba.llex.key(ba.word("a")) < ba.llex.key(ba.word("b"))
        assert ab.llex.key(ab.word("a")) > ab.llex.key(ab.word("b"))


class TestOverlaps:
    def test_prefix_suffix_only(self, xy):
        # only prefixes of yyy meet suffixes of xxyy: xxyy starts first
        assert overlaps(xy.word("yyy"), xy.word("xxyy")) == [-3, -2]

    def test_identical_words_list_proper_borders_once(self, xy):
        # the coincidence, and the border xy once on each side
        w = xy.word("xyxxy")
        assert overlaps(w, w) == [-3, 0, 3]

    def test_distinct_letters(self, xy):
        assert overlaps(xy.word("x"), xy.word("y")) == []

    def test_empty_word_rejected(self, xy):
        with pytest.raises(ValueError):
            overlaps(b"", xy.word("x"))
        with pytest.raises(ValueError):
            overlaps(xy.word("x"), b"")

    def test_containment_reported_inside_only(self, xy):
        # yx lies inside xyxx one letter in (offset -1) and shares x with
        # its end (offset 1); a containment is one offset, nothing more
        assert overlaps(xy.word("yx"), xy.word("xyxx")) == [-1, 1]
        # seen from the longer word the same two placements swap signs
        assert overlaps(xy.word("xyxx"), xy.word("yx")) == [-1, 1]

    def test_border_symmetry(self):
        rng = random.Random(11)
        for _ in range(400):
            w = random_word(rng, 2, 1, 10)
            got = overlaps(w, w)
            assert got == sorted(-d for d in got)
            borders = [n for n in range(1, len(w)) if w[:n] == w[len(w) - n:]]
            assert [d for d in got if d > 0] == sorted(len(w) - n for n in borders)


def test_overlaps_against_brute_force():
    rng = random.Random(29)
    checked = 0
    for _ in range(1500):
        w1 = random_word(rng, 2, 1, 12)
        w2 = random_word(rng, 2, 1, 12)
        assert overlaps(w1, w2) == overlaps_brute(w1, w2)
        checked += 1
    assert checked >= 1000
