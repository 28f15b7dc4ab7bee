import itertools
import random

import pytest

from oracles import Raised, _reduce_by_loop, outcome
from zigzag.bijections import phi
from zigzag.cdindex import (
    _reduce,
    reduced_variation_andre,
    reduced_variation_simsun,
    variation,
)
from zigzag.core import perm_from_text
from zigzag.families import iter_family


def test_variation_examples():
    assert variation(perm_from_text("684512937")) == "ababaaba"
    assert variation((0, 5, 7, 3, 4, 1, 2, 8, 6)) == "aababaab"
    assert variation((1, 2, 3)) == "aa"
    assert variation((1,)) == ""


def test_variation_needs_a_word():
    with pytest.raises(ValueError):
        variation(())


def test_variation_of_reverse_is_reverse_complement():
    flip = {"a": "b", "b": "a"}
    for n in range(1, 7):
        for p in iter_family("alt", n):
            expected = "".join(flip[c] for c in reversed(variation(p)))
            assert variation(tuple(reversed(p))) == expected


def test_reduced_variation_andre_examples():
    assert reduced_variation_andre(perm_from_text("684512937")) == "cddcd"
    assert reduced_variation_andre((1, 2, 3, 4, 5)) == "cccc"
    # variation of 3412 is "aba"; one `ba` pair contracts
    assert reduced_variation_andre((3, 4, 1, 2)) == "cd"


def test_reduced_variation_simsun_examples():
    assert reduced_variation_simsun(perm_from_text("57341286")) == "cddcd"
    assert reduced_variation_simsun((2, 3, 1)) == "cd"
    assert reduced_variation_simsun((1, 2, 3)) == "ccc"
    assert reduced_variation_simsun(()) == ""


def test_preconditions():
    with pytest.raises(ValueError):
        reduced_variation_andre((2, 1))
    with pytest.raises(ValueError):
        reduced_variation_simsun((3, 2, 1))


def test_weight_counts_letters():
    for n in range(1, 8):
        for p in iter_family("andre", n):
            word = reduced_variation_andre(p)
            assert word.count("c") + 2 * word.count("d") == n - 1


def test_shrink_map_preserves_reduced_variation():
    for n in range(1, 8):
        for p in iter_family("andre", n):
            assert reduced_variation_andre(p) == reduced_variation_simsun(phi(p))


def test_reduce_matches_the_loop_on_any_letters():
    # every a/b string up to length 10, then random longer ones; most
    # leave a b, and the loop and _reduce must name the same one
    strings = [
        "".join(letters)
        for size in range(11)
        for letters in itertools.product("ab", repeat=size)
    ]
    rng = random.Random(5)
    strings += [
        "".join(rng.choice("aab") for _ in range(rng.randrange(11, 60)))
        for _ in range(500)
    ]
    raised = 0
    for var in strings:
        for pair in ("ba", "ab"):
            expected = outcome(_reduce_by_loop, var, pair)
            assert outcome(_reduce, var, pair) == expected, (var, pair)
            raised += isinstance(expected, Raised)
    assert 0 < raised < 2 * len(strings)
