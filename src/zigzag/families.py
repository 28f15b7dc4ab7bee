"""Membership predicates and exhaustive enumerators for the object families.

Ten families are supported, identified by :class:`FamilyTag`:

==========  ============================================  ==========
tag         objects                                       refined by
==========  ============================================  ==========
alt         down-up alternating permutations              first entry
alt-b       signed down-up alternating permutations       first entry
snake       signed alternating, positive first entry      first entry
tree        increasing 1-2 trees                          pleaf
tree-b      signed increasing 1-2 trees                   pleaf
andre       Andre permutations                            last entry
simsun      Simsun permutations                           last entry
andre-b     signed Andre permutations (signed subwords)   last entry
andre-h     Andre word with forced-positive suffix minima last entry
simsun-b    Simsun word with forced-positive suffix mins  last entry
==========  ============================================  ==========

Permutation families are generated directly, never by a bijection, and
come out in lexicographic order of their entry tuples (signed entries in
signed order):

- alt, alt-b and snake come from one lexicographic backtracker that
  drops any step breaking down-up alternation.  It streams in O(n)
  memory.
- andre and simsun come from inserting the labels in increasing order
  and keeping a word only while it avoids double descents (and, for
  Andre, ends in an ascent): the intermediate words are exactly the
  bottom-k subwords the definitions constrain.
- andre-b is that same insertion run on each of the 2^n sign-choice
  label sets, sorted: the Andre condition compares entries only, so a
  signed Andre word is an Andre word grown on its own signed labels.
  andre-h and simsun-b free the signs off the suffix minima of every
  Andre or Simsun word.

These five families are materialized and sorted once, so memory grows
with the family size: E_{n+1} words for simsun at n, for example.  Tree
families grow by path copying: each new largest label is hung under
every node with a free child slot, and only the nodes on the path to
the new leaf are rebuilt, the rest of the tree being shared.  tree-b
grows the same way on each of the 2^n sign-choice label sets.  Both are
then sorted by inorder word.  The definitions
filtering :func:`iter_permutations` or :func:`iter_signed_permutations`
(``_PREDICATES``) remain the oracle the tests compare the generators
against.  Guards keep accidental huge enumerations out; pass
``force=True`` to override them.  Every size guard in the package, here
and in ``verify`` and ``cli``, raises through one helper, ``_guard``,
with one message format; each cap stays a constant in its module.

:func:`is_andre` and :func:`is_simsun` rest on the same insertion fact,
run backwards: they sort the positions by value once and delete entries
from the largest down on a doubly linked list of positions, looking only
at the two live entries after each maximum, in O(n log n) time.  The
subword definitions they replace, ``_andre_by_subwords`` and
``_simsun_by_subwords``, sort the word once for every k.  They stay as the
oracle the tests compare the one-pass predicates against, and they are
what ``_PREDICATES`` filters through, so the generator oracle does not
rest on the argument the generators use.

:func:`count_hetyei_fast`, the count behind the conjecture sweep, visits
no word.  Reverse inorder reading (``omega``) is a bijection from trees
onto Andre words; the last entry of the image is the tree's pleaf, and
its number of suffix minima is the length of the tree's minimal path,
the spine.  So the forced-sign Andre words of [n] ending in k number the
sum of 2^(n - spine) over the trees with pleaf k.  A dynamic program
sums that by attaching one largest label at a time, with state (pleaf,
leaves), in O(m^2) big-int operations per step from [m] to [m+1].  It
keeps its last state and every row it has passed, so a sweep over n
costs O(n^3) in all.  The enumeration over the generated Andre words,
``_hetyei_row_by_words``, stays as the oracle the tests compare it
against for n <= 10.
"""

from __future__ import annotations

import enum
import itertools
import operator
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    Tree,
    Word,
    ends_with_ascent,
    has_double_descent,
    inorder,
    pleaf,
    rtl_min_positions,
    subword_smallest,
)

TYPE_A_GUARD = 12
TYPE_B_GUARD = 8


class GuardExceededError(ValueError):
    """Enumeration size guard tripped without force=True."""


class FamilyTag(str, enum.Enum):
    ALT = "alt"
    ALT_B = "alt-b"
    SNAKE = "snake"
    TREE = "tree"
    TREE_B = "tree-b"
    ANDRE = "andre"
    SIMSUN = "simsun"
    ANDRE_B = "andre-b"
    ANDRE_H = "andre-h"
    SIMSUN_B = "simsun-b"


_SIGNED_TAGS = {
    FamilyTag.ALT_B,
    FamilyTag.SNAKE,
    FamilyTag.TREE_B,
    FamilyTag.ANDRE_B,
    FamilyTag.ANDRE_H,
    FamilyTag.SIMSUN_B,
}
_TREE_TAGS = {FamilyTag.TREE, FamilyTag.TREE_B}
_FIRST_TAGS = {FamilyTag.ALT, FamilyTag.ALT_B, FamilyTag.SNAKE}


# ---------------------------------------------------------------------------
# predicates


def is_alternating(p: Word) -> bool:
    """Down-up zigzag: p1 > p2 < p3 > p4 < ...; length <= 1 qualifies.

    >>> is_alternating((2, 1, 4, 3))
    True
    >>> is_alternating((1, 2, 3, 4))
    False
    """
    # descents from the even (0-indexed) positions, ascents from the odd
    odd = p[1::2]
    return all(map(operator.gt, p[::2], odd)) and all(map(operator.lt, odd, p[2::2]))


def is_snake(p: Word) -> bool:
    """Alternating with a positive first entry."""
    return bool(p) and p[0] > 0 and is_alternating(p)


def _andre_by_subwords(p: Word) -> bool:
    """The definition: every bottom-k subword avoids double descents and
    ends ascending.  Kept as the oracle :func:`is_andre` is tested against."""
    for k in range(2, len(p) + 1):
        w = subword_smallest(p, k)
        if not ends_with_ascent(w) or has_double_descent(w):
            return False
    return True


def _simsun_by_subwords(p: Word) -> bool:
    """The definition: every bottom-k subword avoids double descents.
    Kept as the oracle :func:`is_simsun` is tested against."""
    for k in range(3, len(p) + 1):
        if has_double_descent(subword_smallest(p, k)):
            return False
    return True


def _bottom_up_ok(p: Word, andre: bool) -> bool:
    """Check every bottom-k subword in one pass, deleting the largest first.

    Before the current maximum is deleted, the live entries form the
    bottom-k subword.  If the bottom-(k-1) subword is fine, a double
    descent of the bottom-k one can only start at the maximum, and the
    word can only stop ending in an ascent if the maximum is second to
    last.  So it suffices to look at the two live entries after each
    maximum, kept in a doubly linked list of positions.
    """
    n = len(p)
    after = list(range(1, n + 1))  # next live position; n is past the end
    before = list(range(-1, n - 1))  # previous live position; -1 is none
    for i in sorted(range(n), key=p.__getitem__, reverse=True):
        r = after[i]
        if r < n:
            s = after[r]
            if s < n:
                if p[r] > p[s]:
                    return False
            elif andre:
                return False
            before[r] = before[i]
        if before[i] >= 0:
            after[before[i]] = r
    return True


def is_andre(p: Word) -> bool:
    """Every bottom-k subword avoids double descents and ends ascending.

    >>> is_andre((3, 1, 2, 4, 5))
    True
    >>> is_andre((4, 3, 5, 1, 2))
    False

    A word that ends in a descent is refused before anything is sorted.
    That exit is exact: the bottom-n subword is the whole word, and
    :func:`_bottom_up_ok` refuses such a word too, at the latest when it
    deletes the second to last entry, which is then followed by the last
    entry alone.
    """
    if len(p) >= 2 and p[-2] > p[-1]:
        return False
    return _bottom_up_ok(p, andre=True)


def is_andre_valley(p: Word) -> bool:
    """Valley-condition characterization of the Andre property.

    No double descents, the word ends with an ascent, and at every valley
    the run of larger letters just before it has a larger minimum than
    the run of larger letters just after it.
    """
    n = len(p)
    if n <= 1:
        return True
    if p[-2] > p[-1]:
        return False
    if has_double_descent(p):
        return False
    for i in range(1, n - 1):
        if p[i - 1] > p[i] < p[i + 1]:
            lo = i - 1
            while lo >= 0 and p[lo] > p[i]:
                lo -= 1
            hi = i + 1
            while hi < n and p[hi] > p[i]:
                hi += 1
            if min(p[lo + 1 : i]) <= min(p[i + 1 : hi]):
                return False
    return True


def is_simsun(p: Word) -> bool:
    """Every bottom-k subword avoids double descents.

    >>> is_simsun((2, 5, 1, 3, 4))
    True
    >>> is_simsun((3, 2, 1))
    False
    """
    return _bottom_up_ok(p, andre=False)


# is_andre only compares entries, so on a signed word it takes the
# subwords in signed order: the signed Andre condition is the same test
is_signed_andre_b = is_andre


def _forced_signs(p: Word, absolute_ok: Callable[[Word], bool]) -> bool:
    absw = tuple(abs(v) for v in p)
    if not absolute_ok(absw):
        return False
    return all(p[i - 1] > 0 for i in rtl_min_positions(absw))


def is_hetyei_andre(p: Word) -> bool:
    """Absolute word is Andre and every suffix minimum carries a plus sign."""
    return _forced_signs(p, is_andre)


def is_signed_simsun(p: Word) -> bool:
    """Absolute word is Simsun and every suffix minimum carries a plus sign."""
    return _forced_signs(p, is_simsun)


# the generator oracle filters through the subword definitions, not the
# one-pass predicates, which rest on the same insertion fact as the
# generators
_PREDICATES = {
    FamilyTag.ALT: is_alternating,
    FamilyTag.ALT_B: is_alternating,
    FamilyTag.SNAKE: is_snake,
    FamilyTag.ANDRE: _andre_by_subwords,
    FamilyTag.SIMSUN: _simsun_by_subwords,
    FamilyTag.ANDRE_B: _andre_by_subwords,
    FamilyTag.ANDRE_H: lambda p: _forced_signs(p, _andre_by_subwords),
    FamilyTag.SIMSUN_B: lambda p: _forced_signs(p, _simsun_by_subwords),
}


# ---------------------------------------------------------------------------
# raw object streams


def iter_permutations(n: int) -> Iterator[Word]:
    """All permutations of [n] in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def iter_signed_permutations(n: int) -> Iterator[Word]:
    """All signed permutations of [n], lexicographic in signed entry order.

    All 2^n n! words are built and sorted before the first is yielded.
    """
    words = [
        tuple(map(operator.mul, signs, p))
        for signs in itertools.product((1, -1), repeat=n)
        for p in iter_permutations(n)
    ]
    return iter(sorted(words))


# ---------------------------------------------------------------------------
# permutation family generators; each yields what filtering the raw stream
# through _PREDICATES yields, in the same order


def _iter_alternating(tag: FamilyTag, n: int, k: int | None) -> Iterator[Word]:
    """Down-up words in lexicographic order, by pruned backtracking."""
    if tag is FamilyTag.ALT:
        values = list(range(1, n + 1))
    else:
        values = list(range(-n, 0)) + list(range(1, n + 1))
    # the values below and above each value, sliced once and not at every node
    below = {v: values[:i] for i, v in enumerate(values)}
    above = {v: values[i + 1 :] for i, v in enumerate(values)}
    first = [v for v in values if k is None or v == k]
    if tag is FamilyTag.SNAKE:
        first = [v for v in first if v > 0]
    used = [False] * (n + 1)
    prefix: list[int] = []

    def extend(candidates: list[int]) -> Iterator[Word]:
        for v in candidates:
            if used[abs(v)]:
                continue
            if len(prefix) == n - 1:
                yield (*prefix, v)
                continue
            used[abs(v)] = True
            prefix.append(v)
            # the entry after an even (0-indexed) position is smaller
            yield from extend(below[v] if len(prefix) % 2 else above[v])
            prefix.pop()
            used[abs(v)] = False

    return extend(first)


def _iter_bottom_up(labels: Sequence[int], andre: bool) -> Iterator[Word]:
    """Unordered stream of Simsun (or, if ``andre``, Andre) words on ``labels``.

    Inserting the labels in increasing order passes through every
    bottom-k subword, so a word is kept while it has no double descent
    and, for Andre, ends in an ascent.  The largest label starts a double
    descent exactly when it goes right before a descent, and ends the
    word in a descent exactly when it goes second to last.  ``labels``
    must be sorted; entries are only compared, so signed labels work.
    """
    n = len(labels)
    stack: list[Word] = [(labels[0],)]
    while stack:
        w = stack.pop()
        m = len(w)
        if m == n:
            yield w
            continue
        v = labels[m]
        stack.append(w + (v,))
        if not andre:
            stack.append(w[:-1] + (v, w[-1]))
        stack.extend(w[:j] + (v,) + w[j:] for j in range(m - 1) if w[j] < w[j + 1])


def _free_signs(words: Iterable[Word]) -> list[Word]:
    """Every signing of each word that keeps its suffix minima positive."""
    out: list[Word] = []
    for w in words:
        fixed = set(rtl_min_positions(w))
        choices = [(v,) if i in fixed else (-v, v) for i, v in enumerate(w, 1)]
        out.extend(itertools.product(*choices))
    return sorted(out)


def _over_sign_sets(n: int, grow: Callable[[list[int]], Iterable]) -> Iterator:
    """Run ``grow`` on each of the 2^n sign-choice label sets, each sorted.

    The signed families see labels only through their order, so a signed
    object is a plain one grown on its own sign set.
    """
    for signs in itertools.product((1, -1), repeat=n):
        yield from grow(sorted(s * v for s, v in zip(signs, range(1, n + 1))))


def _grown(t: Tree, v: int) -> Iterator[Tree]:
    """``t`` with ``v`` hung under each node that has a free slot.

    ``v`` exceeds every label in ``t``: a leaf takes it as its left
    child, and a unary node as its right one, which keeps the canonical
    order.  Only the path to the new leaf is rebuilt; the rest is shared.
    """
    if t.left is None:
        yield Tree(t.label, Tree(v))
        return
    if t.right is None:
        yield Tree(t.label, t.left, Tree(v))
    for left in _grown(t.left, v):
        yield Tree(t.label, left, t.right)
    if t.right is not None:
        for right in _grown(t.right, v):
            yield Tree(t.label, t.left, right)


def _gen_trees(labels: Sequence[int]) -> list[Tree]:
    """Unordered list of the increasing 1-2 trees on the sorted ``labels``."""
    trees = [Tree(labels[0])]
    for v in labels[1:]:
        trees = [g for t in trees for g in _grown(t, v)]
    return trees


# ---------------------------------------------------------------------------
# family enumeration


_BUILDERS = {
    FamilyTag.TREE: lambda n: sorted(_gen_trees(range(1, n + 1)), key=inorder),
    FamilyTag.TREE_B: lambda n: sorted(_over_sign_sets(n, _gen_trees), key=inorder),
    FamilyTag.ANDRE: lambda n: sorted(_iter_bottom_up(range(1, n + 1), True)),
    FamilyTag.SIMSUN: lambda n: sorted(_iter_bottom_up(range(1, n + 1), False)),
    FamilyTag.ANDRE_B: lambda n: sorted(
        _over_sign_sets(n, lambda labels: _iter_bottom_up(labels, True))
    ),
    FamilyTag.ANDRE_H: lambda n: _free_signs(_iter_bottom_up(range(1, n + 1), True)),
    FamilyTag.SIMSUN_B: lambda n: _free_signs(_iter_bottom_up(range(1, n + 1), False)),
}


def refinement_statistic(tag: FamilyTag | str, obj) -> int:
    """The statistic a family is refined by: first entry, last entry, or pleaf."""
    return _statistic(FamilyTag(tag))(obj)


def _statistic(tag: FamilyTag) -> Callable[..., int]:
    # resolved once per family, for callers that read many objects
    if tag in _TREE_TAGS:
        return pleaf
    return operator.itemgetter(0 if tag in _FIRST_TAGS else -1)


def _guard(what: str, n: int, cap: int, force: bool) -> None:
    """Refuse ``n`` above ``cap`` unless ``force``; every size guard in
    the package trips here, with one message format.

    A guard stands only in front of work that grows factorially or output
    that grows without bound: :func:`iter_family` (and so
    :func:`enumerate_family` and :func:`count_family`), the checks and the
    conjecture sweep in ``verify``, and ``zigzag triangle``.  Polynomial
    work, such as the maps and their inverses, the library's triangle
    builders and :func:`count_hetyei_fast`, takes no guard."""
    if n > cap and not force:
        raise GuardExceededError(
            f"{what} at n={n} exceeds the guard (n <= {cap}); "
            "pass force=True to override"
        )


def _check_k(tag: FamilyTag, n: int, k: int | None) -> None:
    if k is None:
        return
    if tag in _SIGNED_TAGS:
        if k == 0 or abs(k) > n:
            raise ValueError(f"refinement k must satisfy 1 <= |k| <= {n}, got {k}")
    elif not 1 <= k <= n:
        raise ValueError(f"refinement k must satisfy 1 <= k <= {n}, got {k}")


def iter_family(
    tag: FamilyTag | str, n: int, k: int | None = None, force: bool = False
) -> Iterator:
    """Stream the family in deterministic lexicographic order.

    Permutation families come out in lexicographic order of their entry
    tuples (signed entries in signed order); tree families in
    lexicographic order of their inorder words.  ``k`` filters on the
    family's refinement statistic.
    """
    tag = FamilyTag(tag)
    if n < 1:
        raise ValueError("families start at n = 1")
    cap = TYPE_B_GUARD if tag in _SIGNED_TAGS else TYPE_A_GUARD
    _guard(f"enumeration of {tag.value}", n, cap, force)
    _check_k(tag, n, k)
    if tag in _FIRST_TAGS:
        yield from _iter_alternating(tag, n, k)
        return
    statistic = _statistic(tag)
    for obj in _BUILDERS[tag](n):
        if k is None or statistic(obj) == k:
            yield obj


def enumerate_family(
    tag: FamilyTag | str, n: int, k: int | None = None, force: bool = False
) -> list:
    """The family as an ordered list; see :func:`iter_family`."""
    return list(iter_family(tag, n, k, force))


def count_family(
    tag: FamilyTag | str, n: int, k: int | None = None, force: bool = False
) -> int:
    """Number of family members, equal to ``len(enumerate_family(...))``."""
    return sum(1 for _ in iter_family(tag, n, k, force))


def count_hetyei_fast(n: int, k: int) -> int:
    """Number of forced-sign Andre words of [n] with last entry k.

    Signs are forced positive exactly at the suffix-minimum positions of
    the underlying Andre word and free elsewhere, so each Andre word with
    r suffix minima contributes 2^(n-r).  The count visits no word.  It
    rests on three facts about ``omega``, the reverse inorder reading,
    which is a bijection from the increasing 1-2 trees on [n] onto the
    Andre words:

    - the last entry of ``omega(t)`` is ``pleaf(t)``;
    - the number of suffix minima of ``omega(t)`` is the length of
      ``minimal_path(t)``, the spine;
    - so the count is the sum, over trees with pleaf k, of 2^(n - spine).

    :func:`_hetyei_row` sums that by growing trees, in O(n^3) big-int
    operations, and keeps every row it passes.  The enumeration over
    Andre words, ``_hetyei_row_by_words``, is the oracle the tests compare
    it against for n <= 10.

    >>> [count_hetyei_fast(4, k) for k in range(1, 5)]
    [0, 4, 4, 3]
    """
    if n < 1:
        raise ValueError("families start at n = 1")
    if not 1 <= k <= n:
        raise ValueError(f"refinement k must satisfy 1 <= k <= {n}, got {k}")
    return _hetyei_row(n)[k]


class _HetyeiRows:
    """Row n of :func:`count_hetyei_fast`, index k, by tree growth.

    A tree on [m] grows into one on [m+1] by attaching the new largest
    label m+1 as a leaf, under a leaf or under a node with one child (a
    unary node).  ``w[k-1][L]`` sums 2^(m - spine) over the trees on [m]
    with pleaf k and L leaves; such a tree has U = m - 2L + 1 unary
    nodes.  Attaching under the pleaf lengthens the spine and makes m+1
    the pleaf, so the weight stays.  Attaching under one of the other
    L - 1 leaves, or under one of the U unary nodes (the new child goes
    right), keeps the spine and the pleaf and doubles the weight; only
    the second adds a leaf.

    The state ``w`` of the largest size reached stays, and so does every
    row on the way, so a call in any order either reads a kept row or
    grows on from the largest one.
    """

    def __init__(self) -> None:
        self.cache_clear()

    def cache_clear(self) -> None:
        """Forget every row and start again from the one tree on [1]."""
        self._w = [[0, 1]]  # pleaf 1, one leaf, spine 1
        self._rows: list[tuple[int, ...]] = [(), (0, 1)]

    def __call__(self, n: int) -> tuple[int, ...]:
        rows = self._rows
        while len(rows) <= n:
            m = len(rows) - 1
            grown = [[0] * ((m + 2) // 2 + 1) for _ in range(m + 1)]
            new_pleaf = grown[m]
            for counts, out in zip(self._w, grown):
                for leaves, c in enumerate(counts):
                    if c:
                        new_pleaf[leaves] += c
                        out[leaves] += 2 * (leaves - 1) * c
                        unary = m - 2 * leaves + 1
                        if unary:
                            out[leaves + 1] += 2 * unary * c
            self._w = grown
            rows.append((0, *map(sum, grown)))
        return rows[n]


_hetyei_row = _HetyeiRows()


def _hetyei_row_by_words(n: int) -> tuple[int, ...]:
    """Row n of :func:`count_hetyei_fast` from one pass over the Andre words.

    Kept as the oracle :func:`_hetyei_row` is tested against.
    """
    row = [0] * (n + 1)
    for w in _iter_bottom_up(range(1, n + 1), andre=True):
        row[w[-1]] += 1 << (n - len(rtl_min_positions(w)))
    return tuple(row)
