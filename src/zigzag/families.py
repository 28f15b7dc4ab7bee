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
the new leaf are rebuilt, the rest of the tree being shared; one leaf
node for the new label serves every tree grown at that step.  Growth
keeps each tree's inorder word beside it: the new label goes just
before a leaf that takes it as its left child, and just after a unary
node that takes it as its right one.  tree-b grows the same way on each
of the 2^n sign-choice label sets.  Both are then sorted by those
words, and no tree is walked to read one; verify reads the words too
(``_tree_words``).  The oracles of the generators are in
``tests/oracles.py``: the trees read off the canonical inorder words,
sorted by those words, and the definitions filtering
:func:`iter_permutations` or the stream of all signed permutations.
Guards keep accidental huge enumerations out; pass ``force=True`` to
override them.  Every size guard in the package, here and in ``verify``
and ``cli``, raises through one helper, ``_guard``, with one message
format; each cap stays a constant in its module.

:func:`is_andre` and :func:`is_simsun` read the word once, left to
right, in O(n) time.  They keep the suffix minima on a stack, and a
double descent of some bottom-k subword shows when an entry pops a
minimum u whose own smallest pop is below every entry between the two
(see ``_stack_scan``).  ``is_andre`` is the same scan on the word with
an entry smaller than all the others appended.  Both take words of
distinct entries, signed ones distinct in absolute value, and refuse a
word that repeats one.  The subword definitions they replace, which
sort the word once for every k, are their oracle in
``tests/oracles.py``, and the generator oracle filters through them, so
it rests neither on the scan nor on the insertion argument the
generators use.

:func:`count_hetyei_fast`, the count behind the conjecture sweep, visits
no word.  Reverse inorder reading (``omega``) is a bijection from trees
onto Andre words; the last entry of the image is the tree's pleaf, and
its number of suffix minima is the length of the tree's minimal path,
the spine.  So the forced-sign Andre words of [n] ending in k number the
sum of 2^(n - spine) over the trees with pleaf k.  A dynamic program
sums that by attaching one largest label at a time, with state (pleaf,
leaves), in O(m^2) big-int operations per step from [m] to [m+1].  It
keeps its last state and every row it has passed, so a sweep over n
costs O(n^3) in all.  Its oracle in ``tests/oracles.py`` weighs the
generated Andre words one by one, for n <= 10.
"""

from __future__ import annotations

import enum
import itertools
import operator
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    Tree,
    Word,
    _exact_int,
    has_double_descent,
    pleaf,
    rtl_min_positions,
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


def _stack_scan(p: Word, andre: bool) -> bool:
    """Check every bottom-k subword in one left-to-right stack scan.

    A bottom-k subword has a double descent a > b > c exactly when the
    word has positions i < j < l holding a > b > c, and every other entry
    strictly between i and l is larger than a: take k = a.  The scan
    keeps the suffix minima of the prefix read so far on a stack, with
    values increasing toward the top.  Each stack entry u records a(u),
    the smallest entry it popped when it was pushed; that entry is the
    only candidate for a with b = u.  When a new entry v pops u, the
    entry popped just before u, if there is one, is the minimum of the
    entries strictly between u and v.  There is a double descent with
    b = u and c = v exactly when a(u) exists, and that minimum is either
    absent or larger than a(u).

    With ``andre``, the scan goes on as if an entry smaller than all the
    others came next, popping the whole stack with the same test.  A word
    p is Andre exactly when p with such an entry appended is Simsun: the
    bottom-k subwords of the longer word are that entry alone and w
    followed by it, for each bottom-(k-1) subword w of p, and the latter
    avoids double descents exactly when w avoids them and does not end
    in a descent.

    The argument needs distinct entries.  A word that passes the scan is
    still refused if it repeats an absolute value; the bottom of the
    stack, its smallest entry, tells whether signs can hide a repeat.

    >>> _stack_scan((2, 5, 1, 3, 4), andre=False)
    True
    >>> _stack_scan((4, 3, 5, 1, 2), andre=False)
    False
    >>> _stack_scan((2, 1), andre=False), _stack_scan((2, 1), andre=True)
    (True, False)
    >>> _stack_scan((1, 1), andre=False)
    False
    """
    vals: list[int] = []  # the suffix minima of the prefix read so far
    mins: list[int | None] = []  # the smallest entry each of them popped
    for v in p:
        above = None  # the entry popped just before: the minimum since it
        while vals and vals[-1] > v:
            u = vals.pop()
            a = mins.pop()
            if a is not None and (above is None or above > a):
                return False
            above = u
        vals.append(v)
        mins.append(above)
    if not vals:
        return True
    low = vals[0]
    if andre:
        above = None
        while vals:
            a = mins.pop()
            if a is not None and (above is None or above > a):
                return False
            above = vals.pop()
    return len(set(p if low > 0 else map(abs, p))) == len(p)


def is_andre(p: Word) -> bool:
    """Every bottom-k subword avoids double descents and ends ascending.

    >>> is_andre((3, 1, 2, 4, 5))
    True
    >>> is_andre((4, 3, 5, 1, 2))
    False

    ``p`` is a word of distinct entries, signed ones distinct in absolute
    value; a word that repeats one is not Andre.  A word that ends in a
    descent is refused before the scan.  That exit is exact: the
    bottom-n subword is the whole word, and :func:`_stack_scan` refuses
    such a word too, at the latest at its first flush pop: the last entry
    is then on top of the stack, and it popped the entry before it.
    """
    if len(p) >= 2 and p[-2] > p[-1]:
        return False
    return _stack_scan(p, andre=True)


def is_andre_valley(p: Word) -> bool:
    """Valley-condition characterization of the Andre property.

    No double descents, the word ends with an ascent, and at every valley
    the run of larger letters just before it has a larger minimum than
    the run of larger letters just after it.  As for :func:`is_andre`,
    ``p`` is a word of distinct entries, signed ones distinct in absolute
    value, and a word that repeats one is refused.
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
    # the argument needs distinct entries; only a word that passes pays
    return len(set(map(abs, p))) == n


def is_simsun(p: Word) -> bool:
    """Every bottom-k subword avoids double descents.

    >>> is_simsun((2, 5, 1, 3, 4))
    True
    >>> is_simsun((3, 2, 1))
    False

    As for :func:`is_andre`, a word that repeats an absolute value is not
    Simsun.
    """
    return _stack_scan(p, andre=False)


# is_andre only compares entries, so on a signed word it takes the
# subwords in signed order: the signed Andre condition is the same test
is_signed_andre_b = is_andre


def _forced_signs(p: Word, absolute_ok: Callable[[Word], bool]) -> bool:
    absw = tuple(map(abs, p))
    if not absolute_ok(absw):
        return False
    return all(p[i - 1] > 0 for i in rtl_min_positions(absw))


def is_hetyei_andre(p: Word) -> bool:
    """Absolute word is Andre and every suffix minimum carries a plus sign.

    A word that repeats an absolute value is refused."""
    return _forced_signs(p, is_andre)


def is_signed_simsun(p: Word) -> bool:
    """Absolute word is Simsun and every suffix minimum carries a plus sign.

    A word that repeats an absolute value is refused."""
    return _forced_signs(p, is_simsun)


# ---------------------------------------------------------------------------
# raw object streams


def iter_permutations(n: int) -> Iterator[Word]:
    """All permutations of [n] in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# permutation family generators; each yields what filtering the raw stream
# through the definitions yields, in the same order


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


def _grown(t: Tree, word: Word, v: int, leaf: Tree) -> Iterator[tuple[Word, Tree]]:
    """``t`` with ``v`` hung under each node that has a free slot, each
    after its inorder word, grown from ``t``'s ``word``.

    ``v`` exceeds every label in ``t``: a leaf takes it as its left
    child, so ``v`` goes just before the leaf in the word, and a unary
    node as its right one, so ``v`` goes just after the node; this keeps
    the canonical order.  Only the path to the new leaf is rebuilt; the
    rest is shared, and so is the new leaf, the node ``leaf`` labeled
    ``v``.
    """
    if t.left is None:
        i = word.index(t.label)
        yield word[:i] + (v,) + word[i:], Tree(t.label, leaf)
        return
    if t.right is None:
        i = word.index(t.label) + 1
        yield word[:i] + (v,) + word[i:], Tree(t.label, t.left, leaf)
    for w, left in _grown(t.left, word, v, leaf):
        yield w, Tree(t.label, left, t.right)
    if t.right is not None:
        for w, right in _grown(t.right, word, v, leaf):
            yield w, Tree(t.label, t.left, right)


def _gen_trees(labels: Sequence[int]) -> list[tuple[Word, Tree]]:
    """Unordered list of the increasing 1-2 trees on the sorted
    ``labels``, each after its inorder word."""
    grown = [((labels[0],), Tree(labels[0]))]
    for v in labels[1:]:
        leaf = Tree(v)
        grown = [g for word, t in grown for g in _grown(t, word, v, leaf)]
    return grown


# ---------------------------------------------------------------------------
# family enumeration


# the tree builders sort (inorder word, tree) pairs by word alone
_word = operator.itemgetter(0)

_BUILDERS = {
    FamilyTag.TREE: lambda n: sorted(_gen_trees(range(1, n + 1)), key=_word),
    FamilyTag.TREE_B: lambda n: sorted(_over_sign_sets(n, _gen_trees), key=_word),
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
    tag = FamilyTag(tag)
    return pleaf(obj) if tag in _TREE_TAGS else obj[_stat_at(tag)]


def _stat_at(tag: FamilyTag) -> int:
    # where the statistic sits in an object's word: a permutation is its
    # own word, and a tree's inorder word starts with its pleaf
    return 0 if tag in _FIRST_TAGS or tag in _TREE_TAGS else -1


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
    lexicographic order of their inorder words, which growth keeps
    beside the trees.  ``k`` filters on the family's refinement
    statistic; a tree's pleaf is the first entry of its word.  ``n`` and
    ``k`` convert exactly (``operator.index``): a float such as 1.5
    raises ``ValueError``.
    """
    tag, n, k = _family_args(tag, n, k, force)
    if tag in _FIRST_TAGS:
        yield from _iter_alternating(tag, n, k)
        return
    if tag in _TREE_TAGS:
        for word, t in _BUILDERS[tag](n):
            if k is None or word[0] == k:
                yield t
        return
    at = _stat_at(tag)
    for obj in _BUILDERS[tag](n):
        if k is None or obj[at] == k:
            yield obj


def _family_args(
    tag: FamilyTag | str, n: int, k: int | None, force: bool
) -> tuple[FamilyTag, int, int | None]:
    # iter_family's arguments, converted and checked, past the guard
    tag = FamilyTag(tag)
    n = _exact_int(n, ValueError)
    if k is not None:
        k = _exact_int(k, ValueError)
    if n < 1:
        raise ValueError("families start at n = 1")
    cap = TYPE_B_GUARD if tag in _SIGNED_TAGS else TYPE_A_GUARD
    _guard(f"enumeration of {tag.value}", n, cap, force)
    _check_k(tag, n, k)
    return tag, n, k


def _tree_words(tag: FamilyTag, n: int) -> list[tuple[Word, Tree]]:
    """The tree family at n as (inorder word, tree) pairs, in the order
    of :func:`iter_family`, which checks and guards ``n`` as here."""
    tag, n, _ = _family_args(tag, n, None, False)
    return _BUILDERS[tag](n)


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
    operations, and keeps every row it passes.  The tests compare it with
    one pass over the Andre words for n <= 10.

    >>> [count_hetyei_fast(4, k) for k in range(1, 5)]
    [0, 4, 4, 3]
    """
    # n and k convert exactly, as _exact_int converts them, but without
    # its frame on ints: the sweep makes one call per (n, k)
    try:
        n, k = operator.index(n), operator.index(k)
    except TypeError:
        n, k = _exact_int(n, ValueError), _exact_int(k, ValueError)
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
