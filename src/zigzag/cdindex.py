"""Variation words and their c/d reductions for Andre and Simsun words.

The variation of a word is its ascent/descent profile, one letter of
``a`` (ascent) or ``b`` (descent) per adjacent pair.  Reduction
contracts pairs to ``d`` and surviving ``a`` letters to ``c`` in a
single left-to-right pass:

- Andre words contract ``ba`` pairs.  Their variations have no ``bb``
  and end in ``a``, so no ``b`` survives.
- Simsun words are first augmented with a leading 0 and contract ``ab``
  pairs; again no ``b`` survives.

A length-n input yields a c/d word of weight n-1, counting c as 1 and
d as 2.  The shrink map :func:`zigzag.bijections.phi` preserves the
reduced variation.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .core import Word, perm_from_sequence
from .families import is_andre, is_simsun


def variation(w: Sequence[int]) -> str:
    """Ascent/descent profile, one letter per adjacent pair.

    >>> variation((6, 8, 4, 5, 1, 2, 9, 3, 7))
    'ababaaba'
    """
    if len(w) < 1:
        raise ValueError("variation needs a nonempty word")
    return "".join(map(("b", "a").__getitem__, map(operator.lt, w, w[1:])))


def _reduce(var: str, pair: str) -> str:
    # str.replace contracts pairs leftmost first and without overlaps, as
    # a left-to-right pass does; when no b is left, every other letter is
    # an a, which becomes c.  A surviving b is named by its position in
    # var: each d before it stands for two letters, any other for one.
    fast = var.replace(pair, "d")
    j = fast.find("b")
    if j >= 0:
        pos = j + fast.count("d", 0, j) + 1
        raise ValueError(f"letter 'b' at position {pos} survives reduction")
    return fast.replace("a", "c")


def reduced_variation_andre(p: Sequence[int]) -> str:
    """Contract ``ba`` pairs to d, then remaining a's to c.

    >>> reduced_variation_andre((6, 8, 4, 5, 1, 2, 9, 3, 7))
    'cddcd'
    """
    p = perm_from_sequence(p)
    if not is_andre(p):
        raise ValueError("reduced_variation_andre requires an Andre permutation")
    return _reduce(variation(p), "ba")


def reduced_variation_simsun(s: Sequence[int]) -> str:
    """Augment with a leading 0, contract ``ab`` pairs, then a's to c.

    >>> reduced_variation_simsun((5, 7, 3, 4, 1, 2, 8, 6))
    'cddcd'
    """
    s = perm_from_sequence(s) if len(s) else ()
    if not is_simsun(s):
        raise ValueError("reduced_variation_simsun requires a Simsun permutation")
    return _reduce(variation((0, *s)), "ab")
