"""Bijections between zigzag permutations, 1-2 trees, and their relatives.

The maps and their statistic bookkeeping:

- ``omega``: tree -> Andre permutation, by reading the tree in reverse
  inorder.  The last entry of the image is the tree's pleaf.
  ``omega_inv`` splits the word back into child maps in one stack pass,
  ``_min_split_maps``, which ``psi_inv`` shares, and links them.
- ``phi``: Andre -> Simsun one letter shorter.  Each right-to-left
  minimum moves to the previous right-to-left minimum's position (the
  value 1 drops out) and everything shrinks by one.  The last entry
  drops by exactly one.  ``phi`` and ``phi_signed`` each validate their
  own input, then run one kernel, ``_shrink``, which works on the
  absolute values and keeps signs; on an unsigned word it is ``phi``.
  ``_shrink`` and ``phi_inv`` each fill the image from the whole word
  in one pass and then overwrite the suffix-minimum slots.
- ``psi_c``: alternating permutation -> tree, grafting pairs of entries
  from the back of the permutation to the front.  The grafting works on
  child maps keyed by label; the pleaf of each intermediate state is the
  first entry of the pair just placed, so the final pleaf is the
  permutation's first entry.  The minimal path increases downward, so
  each step walks it from the root only to the first vertex above the
  pair's second entry, remembering that vertex's parent.  A C1 step
  then walks the right chain below that vertex once and rewires each
  link in place as the walk reaches it, building no list.  The kernel
  ``_graft_maps`` runs the grafting once and returns the final child
  maps, showing the maps after every step to an optional visitor;
  ``psi``, ``psi_signed`` and ``psi_c`` link those maps into a
  :class:`Tree`, and only ``psi_c`` records the decisions in an
  :class:`AlgoCTrace`.  The checks read the
  maps as checked inorder words instead (``core._linked_inorder``).
  Every map that builds a tree fills child maps and freezes them with
  ``core._link_tree``, which checks every tree invariant as it links,
  and every map that takes a tree reads it through a checked walk of
  ``core``, which checks it as it reads; this module checks no tree
  invariant itself.
- ``psi_b``: the same bijection computed independently, by a reduction
  replayed backwards.  Walking the word forward, each step either
  strips the first two entries (when the second is the next smaller
  remaining label) or swaps the first entry with that label; replaying
  the steps in reverse on child and parent maps grows the tree.  The
  replay keys those maps by node ids, each node named by the label it
  was created with, beside two tables from node to current label and
  back, so a swap that exchanges two labels is four stores and moves
  no child link.  The kernel ``_replay_maps`` translates the maps to
  labels once, at the end, and ``psi_b`` links them.  Both phases are
  loops, so deep inputs raise no ``RecursionError``.
- ``psi_signed``, ``omega_signed``, ``phi_signed``: the signed-label
  versions.  The first two equal the unsigned maps conjugated by the
  unique order isomorphism onto [n], but neither relabels: the grafting
  only compares labels, so ``psi_signed`` grafts the signed labels
  directly, and ``omega_signed`` is ``omega`` itself.  The
  ``conjugation-diagram`` check compares each against the conjugation
  route.  ``phi_signed`` moves the suffix minima of the absolute-value
  word exactly as ``phi`` does and shrinks absolute values by one,
  keeping every other entry's sign: it is the same ``_shrink``.
- ``chuang_phi``: tree -> Simsun permutation directly; equals
  ``phi(omega(tree))`` and exists to cross-check that factorization.
  It reads the tree and its labels 1..n through ``_one_to_n_reading``:
  ``core._checked_reverse_inorder`` and one 1..n test.
- ``psi_inv``: inverse of ``psi_c``, undoing ``psi_b``'s replay.  It
  reads the tree the same way and splits the word back into child maps
  with ``omega_inv``'s pass.  The pleaf and the next smaller label tell
  which replay step came last (a label exchange, a strip or a sibling
  rotation), and undoing the steps one by one leaves the base tree.
  Like the replay, the undoing keys its maps by node ids, so an
  exchange is four stores on the label tables.  It keeps no parent
  map: the pleaf's parent and grandparent are the last nodes of the
  minimal path, kept as a list.  The steps then replay backwards on
  the base word.  Nothing is enumerated and nothing is grafted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    Tree,
    Word,
    _checked_reverse_inorder,
    _link_tree,
    inorder,
    perm_from_sequence,
    rtl_min_positions,
    signed_perm_from_sequence,
)
from .families import is_alternating, is_andre, is_hetyei_andre, is_simsun


@dataclass(frozen=True, slots=True)
class AlgoCStep:
    """One grafting step: which vertex was split and how."""

    index: int  # step number i, executed from m-1 down to 1
    a: int  # smallest minimal-path vertex above the even entry
    b: int | None  # end of the rebuilt chain; absent in the C2 case
    case: str  # "C1" or "C2"


@dataclass(frozen=True)
class AlgoCTrace:
    """All grafting steps of one ``psi_c`` run, in execution order."""

    steps: tuple[AlgoCStep, ...]

    def lines(self) -> list[str]:
        return [
            f"i={s.index} a={s.a} b={'-' if s.b is None else s.b} case={s.case}"
            for s in self.steps
        ]


# ---------------------------------------------------------------------------
# omega and its inverse


def omega(t: Tree) -> Word:
    """Read the tree in reverse inorder; the image is an Andre permutation.

    >>> from zigzag.core import tree_from_literal
    >>> omega(tree_from_literal("1(2(3(7,9)),4(5,6(8)))"))
    (6, 8, 4, 5, 1, 2, 9, 3, 7)

    A tree that fails :func:`~zigzag.core.validate_tree` raises
    :class:`~zigzag.core.InvalidTreeError`; with one failing node, with
    the same message.
    """
    return _checked_reverse_inorder(t)


def omega_inv(p: Sequence[int]) -> Tree:
    """Rebuild the tree whose reverse inorder reading is ``p``."""
    p = perm_from_sequence(p)
    if not is_andre(p):
        raise ValueError("omega_inv requires an Andre permutation")
    return _link_tree(*_min_split_maps(p))


def _min_split_maps(p: Sequence[int]) -> tuple[int, dict[int, int], dict[int, int]]:
    """The child maps ``(root, left, right)`` of the tree whose reverse
    inorder reading is ``p``; the word is not checked.

    The reversed word splits at its minimum into left subtree, root,
    right subtree, and so on down.  One pass with a stack builds that
    min-split (Cartesian) tree: the stack holds the right spine so far,
    and each new entry takes the larger entries it pops as its left
    subtree and hangs as the right child of what stays on top.  An
    increasing tree is the min-split tree of its inorder word, so on
    the reading of a valid tree these are its own child maps.
    """
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    spine: list[int] = []
    for v in reversed(p):
        popped = None
        while spine and spine[-1] > v:
            popped = spine.pop()
        if popped is not None:
            left[v] = popped
        if spine:
            right[spine[-1]] = v
        spine.append(v)
    return spine[0], left, right


# reverse inorder reading never looks at label values, so it reads
# signed trees as they are
omega_signed = omega


# ---------------------------------------------------------------------------
# phi and friends


def phi(p: Sequence[int]) -> Word:
    """Shrink an Andre permutation to a Simsun permutation, one shorter.

    >>> phi((6, 8, 4, 5, 1, 2, 9, 3, 7))
    (5, 7, 3, 4, 1, 2, 8, 6)
    """
    p = perm_from_sequence(p)
    if not is_andre(p):
        raise ValueError("phi requires an Andre permutation")
    return _shrink(p)


def _shrink(p: Word) -> Word:
    # every entry but the last shrinks by one in absolute value, keeping
    # its sign; then each suffix minimum of the absolute-value word takes
    # the next one's value less one, so the value 1 drops out
    mins = rtl_min_positions(tuple(map(abs, p)))
    out = [v - 1 if v > 0 else v + 1 for v in p[:-1]]
    for t in range(1, len(mins)):
        out[mins[t - 1] - 1] = abs(p[mins[t] - 1]) - 1
    return tuple(out)


def phi_inv(s: Sequence[int]) -> Word:
    """Inverse of :func:`phi`: re-insert the value 1 and grow by one.

    >>> phi_inv((5, 7, 3, 4, 1, 2, 8, 6))
    (6, 8, 4, 5, 1, 2, 9, 3, 7)
    """
    s = perm_from_sequence(s) if len(s) else ()
    if not is_simsun(s):
        raise ValueError("phi_inv requires a Simsun permutation")
    if not s:
        return (1,)
    # every entry grows by one and the last repeats; then each suffix
    # minimum takes the previous one's value, the first one taking 1
    mins = rtl_min_positions(s)
    out = [v + 1 for v in s]
    out.append(out[-1])
    out[mins[0] - 1] = 1
    for t in range(1, len(mins)):
        out[mins[t] - 1] = s[mins[t - 1] - 1] + 1
    return tuple(out)


def phi_signed(p: Sequence[int]) -> Word:
    """Signed version of :func:`phi` for forced-sign Andre words.

    The suffix minima of the absolute-value word are all positive; they
    move exactly as in :func:`phi`.  Every other entry keeps its sign
    while its absolute value shrinks by one.
    """
    p = signed_perm_from_sequence(p)
    if not is_hetyei_andre(p):
        raise ValueError("phi_signed requires a forced-sign Andre word")
    return _shrink(p)


# ---------------------------------------------------------------------------
# psi: the grafting construction (two equivalent algorithms)


def _graft_maps(
    p: Word, visit: Callable[..., None] | None = None
) -> tuple[int, dict[int, int], dict[int, int]]:
    """The grafting construction's final child maps ``(root, left, right)``.

    ``p`` must be an alternating word of distinct nonzero labels; it is
    not checked.  The grafting only compares labels, so signed words
    graft as they are.  ``visit``, when given, is called after every step
    with ``(i, a, b, case, root, left, right)``; the two child maps are
    the same dicts every time and change with the next step, so the
    visitor reads them before it returns.
    """
    n = len(p)
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    root = p[-1]
    if n % 2 == 0:
        left[root] = p[-2]

    for i in range((n - 1) // 2, 0, -1):
        x, y = p[2 * i - 2], p[2 * i - 1]
        # the minimal path increases downward, so the smallest path
        # vertex above y is the first one
        a, parent = root, None
        while a < y:
            parent, a = a, left[a]
        if a < x:
            # walk the chain of right edges out of a down to b, its last
            # vertex below x, relinking as the walk goes: each chain
            # vertex becomes the left child of the vertex above it (y
            # above a), and its old left subtree swings over to the right
            # of that vertex; x becomes b's left child, and b keeps its
            # right child
            u, v = y, a
            while True:
                hang = left.get(v)
                left[u] = v
                if hang is None:
                    right.pop(u, None)
                else:
                    right[u] = hang
                r = right.get(v)
                if r is None or r > x:
                    break
                u, v = v, r
            left[v] = x
            case: str = "C1"
            brec: int | None = v
        else:
            # x slips under y, the whole subtree at a swings right
            right[y] = a
            left[y] = x
            case, brec = "C2", None
        if parent is None:
            root = y
        else:
            left[parent] = y
        if visit is not None:
            visit(i, a, brec, case, root, left, right)
    return root, left, right


def psi_c(p: Sequence[int]) -> tuple[Tree, AlgoCTrace]:
    """Alternating permutation -> tree by iterated grafting, with trace.

    >>> from zigzag.core import tree_to_literal
    >>> t, trace = psi_c((7, 3, 9, 1, 5, 4, 8, 2, 6))
    >>> tree_to_literal(t)
    '1(2(3(7,9)),4(5,6(8)))'
    """
    p = perm_from_sequence(p)
    if not is_alternating(p):
        raise ValueError("psi_c requires an alternating permutation")
    steps: list[AlgoCStep] = []

    def record(i: int, a: int, b: int | None, case: str, *_maps) -> None:
        steps.append(AlgoCStep(i, a, b, case))

    return _link_tree(*_graft_maps(p, record)), AlgoCTrace(tuple(steps))


def psi(p: Sequence[int]) -> Tree:
    """The tree image of an alternating permutation; pleaf = first entry."""
    p = perm_from_sequence(p)
    if not is_alternating(p):
        raise ValueError("psi requires an alternating permutation")
    return _link_tree(*_graft_maps(p))


def psi_b(p: Sequence[int]) -> Tree:
    """The same bijection as :func:`psi_c`, by reduction and replay.

    Reduce: with k the first entry and j the next smaller label still in
    the word, strip the first two entries if the second is j, otherwise
    swap the values j and k.  Repeat until at most two entries remain,
    which give the starting tree.  Replay the steps in reverse: a strip
    splices j onto the minimal path, at the first vertex above k, with k
    as its leaf; a swap either exchanges the labels j and k or, when
    they are siblings, rotates k under j.  Neither phase recurses, and
    nothing here goes through the grafting construction.
    """
    p = perm_from_sequence(p)
    if not is_alternating(p):
        raise ValueError("psi_b requires an alternating permutation")
    return _link_tree(*_replay_maps(p))


def _replay_maps(p: Word) -> tuple[int, dict[int, int], dict[int, int]]:
    """``psi_b``'s child maps ``(root, left, right)``; the input is not
    checked.  :func:`psi_inv` undoes this replay step by step, on node
    ids the same way.

    The replay runs on node ids: a node is named by the label it was
    created with, and ``label`` and ``node`` map ids to current labels
    and back, so a label exchange is four stores and moves no child
    link.  The maps are translated to labels once, at the end.
    """
    n = len(p)
    word = list(p)
    at = {v: i for i, v in enumerate(word)}
    below = list(range(-1, n + 1))  # below[v]: next smaller label still present
    above = list(range(1, n + 3))
    steps: list[tuple[bool, int, int]] = []
    s = 0
    while n - s > 2:
        k = word[s]
        j = below[k]
        if word[s + 1] == j:
            steps.append((True, j, k))
            lo, hi = below[j], above[k]
            above[lo], below[hi] = hi, lo
            s += 2
        else:
            steps.append((False, j, k))
            q = at[j]
            word[s], word[q] = j, k
            at[j], at[k] = s, q

    # every label enters the tree once, as a new node named by it, and
    # only labels in the tree are exchanged, so both tables start as the
    # identity
    label = list(range(n + 1))  # label[u]: the label node u carries
    node = list(range(n + 1))  # node[v]: the node carrying label v
    root = word[-1]
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    parent: dict[int, int] = {}
    if n - s == 2:
        left[root], parent[word[s]] = word[s], root
    for strip, j, k in reversed(steps):
        if strip:
            # j and k enter as the nodes j and k
            m = root
            while label[m] < k:
                m = left[m]
            up = parent.get(m)
            left[j], right[j] = k, m
            parent[k] = parent[m] = j
            if up is None:
                root = j
            else:
                left[up], parent[j] = j, up
            continue
        nj, nk = node[j], node[k]
        if parent[nj] == parent[nk]:
            # j is the leaf left of its sibling k: k becomes j's leaf, k's
            # right child moves under j and its left child takes k's place
            ell = parent[nj]
            kl, kr = left.pop(nk, None), right.pop(nk, None)
            left[nj], parent[nk] = nk, nj
            if kr is not None:
                right[nj], parent[kr] = kr, nj
            if kl is None:
                del right[ell]
            else:
                right[ell], parent[kl] = kl, ell
        else:
            node[j], node[k] = nk, nj
            label[nj], label[nk] = k, j
    return (
        label[root],
        {label[u]: label[v] for u, v in left.items()},
        {label[u]: label[v] for u, v in right.items()},
    )


def _one_to_n_reading(t: Tree, name: str) -> Word:
    """``t``'s checked reverse inorder word; ``name`` refuses labels not 1..n."""
    word = _checked_reverse_inorder(t)
    # n distinct labels, the root the smallest, are 1..n when these are
    if t.label != 1 or max(word) != len(word):
        raise ValueError(f"{name} expects a tree labeled by 1..n")
    return word


def psi_inv(t: Tree) -> Word:
    """The alternating permutation that psi maps to ``t``.

    The checked reading of ``t`` splits back into child maps as in
    :func:`omega_inv`, so no second walk visits the nodes.  Then it
    undoes :func:`psi_b`'s replay on node ids, as :func:`_replay_maps`
    runs it, its last step first.  With k the pleaf and j the next
    smaller label: if j is not k's parent, the step exchanged the labels
    j and k, which is four stores that move no child link.  Otherwise,
    if j has a right child m, and j is the root or its parent's right
    child is missing or larger than m, the step was a strip; otherwise
    it was the sibling rotation.  k's parent and grandparent are read
    off the minimal path, kept as a list of nodes.  The steps then
    replay backwards on the base word.  Nothing is enumerated or
    grafted, and no size guard applies.

    >>> from zigzag.core import tree_from_literal
    >>> psi_inv(tree_from_literal("1(2(3(7,9)),4(5,6(8)))"))
    (7, 3, 9, 1, 5, 4, 8, 2, 6)
    """
    word = _one_to_n_reading(t, "psi_inv")
    n = len(word)
    root, left, right = _min_split_maps(word)
    # each node starts named by its label, as in the replay
    label = list(range(n + 1))  # label[u]: the label node u carries
    node = list(range(n + 1))  # node[v]: the node carrying label v
    below = list(range(-1, n + 1))  # below[v]: next smaller label still present
    above = list(range(1, n + 3))
    steps: list[tuple[bool, int, int]] = []
    size = n
    path = [root]  # the minimal path's nodes, from the root
    while size > 2:
        kn = path[-1]
        while kn in left:
            kn = left[kn]
            path.append(kn)
        k = label[kn]
        j = below[k]
        jn = node[j]
        if path[-2] != jn:
            node[j], node[k] = kn, jn
            label[kn], label[jn] = j, k
            steps.append((False, j, k))
            continue
        m = right.get(jn)
        up = path[-3] if len(path) > 2 else None
        beside = None if up is None else right.get(up)
        if m is not None and (beside is None or label[beside] > label[m]):
            # a strip: j and its leaf k leave, and m takes j's place
            del left[jn], right[jn]
            if up is not None:
                left[up] = m
            path[-2:] = (m,)
            lo, hi = below[j], above[k]
            above[lo], below[hi] = hi, lo
            size -= 2
            steps.append((True, j, k))
        else:
            # the rotation: k becomes j's right sibling again, with the
            # child beside j on its left and j's right child on its right
            del left[jn]
            kr = right.pop(jn, None)
            right[up] = kn
            if beside is not None:
                left[kn] = beside
            if kr is not None:
                right[kn] = kr
            path.pop()
            steps.append((False, j, k))

    # replay the steps backwards on the base word, built from its end:
    # a strip puts k, j back in front, a swap exchanges the values j, k
    root = path[0]
    rev = [label[root], label[left[root]]] if root in left else [label[root]]
    at = {v: i for i, v in enumerate(rev)}
    for strip, j, k in reversed(steps):
        if strip:
            at[j], at[k] = len(rev), len(rev) + 1
            rev += (j, k)
        else:
            a, b = at[j], at[k]
            rev[a], rev[b] = k, j
            at[j], at[k] = b, a
    return tuple(reversed(rev))


def psi_signed(p: Sequence[int]) -> Tree:
    """Signed alternating permutation -> signed tree, by direct grafting.

    The grafting only compares labels, so it runs on the signed labels
    as they are.  The result equals relabeling the entries onto [n]
    order-preservingly, grafting, and relabeling the tree back.

    >>> from zigzag.core import tree_to_literal
    >>> tree_to_literal(psi_signed((6, -3, 9, -8, 2, -1, 7, -4, 5)))
    '-8(-4(-3(6,9)),-1(2,5(7)))'
    """
    p = signed_perm_from_sequence(p)
    if not is_alternating(p):
        raise ValueError("psi_signed requires an alternating signed permutation")
    return _link_tree(*_graft_maps(p))


# ---------------------------------------------------------------------------
# the direct tree -> Simsun map


def chuang_phi(t: Tree) -> Word:
    """Peel a tree into a Simsun permutation one letter shorter.

    While the root has a child, emit its right (larger) subtree in
    reverse inorder, if it has one, then its left child, and descend
    into that child.  Finally shift every letter down by one.  Equals
    ``phi(omega(t))``; like :func:`psi_inv`, it needs labels 1..n.

    >>> from zigzag.core import tree_from_literal
    >>> chuang_phi(tree_from_literal("1(2(3(7,9)),4(5,6(8)))"))
    (5, 7, 3, 4, 1, 2, 8, 6)
    """
    _one_to_n_reading(t, "chuang_phi")
    word: list[int] = []
    cur = t
    while cur.left is not None:
        if cur.right is not None:
            word.extend(reversed(inorder(cur.right)))
        cur = cur.left
        word.append(cur.label)
    return tuple(v - 1 for v in word)
