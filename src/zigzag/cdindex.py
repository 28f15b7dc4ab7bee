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
    return "".join("a" if w[i] < w[i + 1] else "b" for i in range(len(w) - 1))


def _reduce(var: str, pair: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(var):
        if var[i : i + 2] == pair:
            out.append("d")
            i += 2
        elif var[i] == "a":
            out.append("c")
            i += 1
        else:
            raise ValueError(f"letter 'b' at position {i + 1} survives reduction")
    return "".join(out)


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
