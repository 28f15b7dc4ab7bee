"""Domain types and statistics for zigzag combinatorics.

Value conventions used across the whole package:

- A permutation of [n] = {1, ..., n} is a tuple of ints in one-line
  notation.  Positions are 1-indexed wherever a position is reported or
  accepted.
- A signed permutation of [n] is a tuple of nonzero ints whose absolute
  values are exactly {1, ..., n}.  Signed entries compare in ordinary
  integer order, so -4 < -1 < 2.
- A word is a tuple of pairwise distinct ints; permutations and signed
  permutations are words.  Entries and labels convert exactly
  (``operator.index``): a float such as 1.9 is refused, never truncated.
- An increasing 1-2 tree is a rooted tree with at most two children per
  node and labels strictly increasing away from the root.  It is stored
  as nested :class:`Tree` records in canonical orientation: a unique
  child is a left child, and of two children the smaller label goes
  left.  Orientation is therefore a function of the labels alone;
  algorithms that need to break it work on transient structures and
  re-canonicalize before returning.  A :class:`Tree` node is a slotted
  frozen record: a frozen dataclass with ``__slots__``, whose
  constructor stores each field through its slot.
- The per-node invariants live in one helper, ``_check_node``.  Parsers
  and maps build child maps keyed by label and freeze them with
  ``_link_tree``; ``_linked_inorder`` reads the same maps as an inorder
  word without building a tree.  Both check every node, and that the
  maps are one tree through the shared ``_check_one_tree``.
  :func:`validate_tree` checks a finished :class:`Tree` node by node
  with the same helper, in one walk, ``_checked_nodes``, that also hands
  the nodes and their label set to ``psi_inv`` and ``chuang_phi``; it
  compares the size of that set with the node count and names a
  duplicate only when they differ.  When one node fails, every reader
  names it with the same message.  When several fail, the readers may
  differ: :func:`validate_tree` names the first in walk order, and the
  map readers, which check from the largest label down, the one with
  the largest label.  A lone right child has no literal; it renders as
  ``v(,c)``, which the parser refuses as text.
  ``_link_tree``, the hot one of the maps chain, tests each node inline
  with the same conditions and calls ``_check_node`` only for a node
  that fails, to raise its message; it makes its nodes through the slot
  setters, without the frame of ``Tree.__init__``.
- A signed increasing 1-2 tree uses the same :class:`Tree` type with
  signed labels whose absolute values are exactly {1, ..., n}; the root
  is then the minimum label in signed order.

Text formats (also used by the CLI):

- permutation: whitespace- or comma-separated integers, a minus sign for
  negative entries; a bare digit string like ``2143`` is accepted for
  unsigned permutations with n <= 9.
- tree literal: ``LABEL``, ``LABEL(T)`` or ``LABEL(T,T)``.  The one-child
  form is a left child; the two-child form lists left then right.  Input
  is validated against the canonical orientation, never reordered.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]


class InvalidPermutationError(ValueError):
    """Input sequence is not a valid (signed) permutation."""


class InvalidTreeError(ValueError):
    """Structure or labels violate the increasing 1-2 tree invariants."""


class TreeParseError(InvalidTreeError):
    """Tree literal text does not conform to the grammar."""


# ---------------------------------------------------------------------------
# permutations and words


def _exact_int(v, error: type[ValueError]) -> int:
    """``v`` as an int, converted exactly: a float such as 1.9 raises
    ``error`` naming it instead of being truncated to 1."""
    try:
        return operator.index(v)
    except TypeError:
        raise error(f"{v!r} is not an integer") from None


def _exact_ints(values: Iterable, error: type[ValueError]) -> Word:
    """:func:`_exact_int` of every entry, in one pass when all are ints."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return tuple(_exact_int(v, error) for v in values)


def perm_from_sequence(values: Sequence[int]) -> Word:
    """Validate and freeze a permutation of [n].

    >>> perm_from_sequence([2, 1, 4, 3])
    (2, 1, 4, 3)
    >>> perm_from_sequence([2, 2, 3])
    Traceback (most recent call last):
        ...
    zigzag.core.InvalidPermutationError: duplicate value 2
    """
    entries = _exact_ints(values, InvalidPermutationError)
    if not entries:
        raise InvalidPermutationError("a permutation has length n >= 1")
    # n entries covering 1..n are a permutation; the loop names a fault
    if set(entries).issuperset(range(1, len(entries) + 1)):
        return entries
    seen: set[int] = set()
    for v in entries:
        if v in seen:
            raise InvalidPermutationError(f"duplicate value {v}")
        seen.add(v)
    # n distinct entries that missed the fast path miss some of 1..n
    raise InvalidPermutationError(
        f"entries must be exactly 1..{len(entries)}, got {sorted(seen)}"
    )


def signed_perm_from_sequence(values: Sequence[int]) -> Word:
    """Validate and freeze a signed permutation of [n].

    >>> signed_perm_from_sequence([1, -2, 3])
    (1, -2, 3)
    >>> signed_perm_from_sequence([1, -1])
    Traceback (most recent call last):
        ...
    zigzag.core.InvalidPermutationError: duplicate absolute value 1
    """
    entries = _exact_ints(values, InvalidPermutationError)
    if not entries:
        raise InvalidPermutationError("a signed permutation has length n >= 1")
    if set(map(abs, entries)).issuperset(range(1, len(entries) + 1)):
        return entries
    seen: set[int] = set()
    for v in entries:
        if v == 0:
            raise InvalidPermutationError("zero entries are not allowed")
        if abs(v) in seen:
            raise InvalidPermutationError(f"duplicate absolute value {abs(v)}")
        seen.add(abs(v))
    raise InvalidPermutationError(
        f"absolute values must be exactly 1..{len(entries)}, got {sorted(seen)}"
    )


def subword_smallest(w: Sequence[int], k: int) -> Word:
    """The subsequence of the k smallest entries, in their original order.

    "Smallest" means ordinary integer order, which for signed permutations
    is signed order (-4 comes before 2).

    >>> subword_smallest((3, 1, 2, 4, 5), 3)
    (3, 1, 2)
    >>> subword_smallest((2, -4, -1, 3, 5), 1)
    (-4,)
    """
    if not 1 <= k <= len(w):
        raise ValueError(f"k must be in 1..{len(w)}, got {k}")
    threshold = sorted(w)[k - 1]
    return tuple(v for v in w if v <= threshold)


def has_double_descent(w: Sequence[int]) -> bool:
    """True iff some three consecutive entries strictly decrease.

    >>> has_double_descent((4, 3, 1, 2))
    True
    >>> has_double_descent((2, 1))
    False
    """
    return any(w[i] > w[i + 1] > w[i + 2] for i in range(len(w) - 2))


def ends_with_ascent(w: Sequence[int]) -> bool:
    """True iff the last two entries increase; words of length <= 1 qualify.

    >>> ends_with_ascent((3, 1, 2, 4))
    True
    >>> ends_with_ascent((2, 1))
    False
    >>> ends_with_ascent((1,))
    True
    """
    return len(w) <= 1 or w[-2] < w[-1]


def rtl_min_positions(w: Sequence[int]) -> tuple[int, ...]:
    """1-indexed positions of the right-to-left minima, in increasing order.

    Position i is included iff w_i is strictly smaller than every later
    entry; the last position always qualifies.

    >>> rtl_min_positions((6, 8, 4, 5, 1, 2, 9, 3, 7))
    (5, 6, 8, 9)
    """
    positions: list[int] = []
    best: int | None = None
    for i in range(len(w) - 1, -1, -1):
        if best is None or w[i] < best:
            positions.append(i + 1)
            best = w[i]
    return tuple(reversed(positions))


# ---------------------------------------------------------------------------
# increasing 1-2 trees


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Tree:
    """One node of an increasing 1-2 tree, in canonical orientation.

    A slotted frozen record: assignment and deletion raise
    ``FrozenInstanceError``, and pickling, copying and
    ``dataclasses.replace`` work as for any frozen dataclass.  The
    constructor stores through the slots' own setters, past the frozen
    ``__setattr__``, since every map builds many nodes.  Equality is
    structural, as for a frozen dataclass, but walks the tree with a
    stack; the hash reads the inorder word, which equal trees share,
    through the stack walk of :func:`inorder`.  So chains deeper than the
    recursion limit compare and hash too.
    """

    label: int
    left: Tree | None = None
    right: Tree | None = None

    def __init__(
        self, label: int, left: Tree | None = None, right: Tree | None = None
    ) -> None:
        _set_label(self, label)
        _set_left(self, left)
        _set_right(self, right)

    def __repr__(self) -> str:
        return f"Tree[{tree_to_literal(self)}]"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack: list[tuple[Tree | None, Tree | None]] = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a is None or b is None or a.label != b.label:
                return False
            stack.append((a.left, b.left))
            stack.append((a.right, b.right))
        return True

    def __hash__(self) -> int:
        # equal trees have equal inorder words
        return hash(inorder(self))


# the slots' own setters, which the frozen ``__setattr__`` does not guard
_set_label = Tree.label.__set__
_set_left = Tree.left.__set__
_set_right = Tree.right.__set__


def node(label: int, *children: Tree | None) -> Tree:
    """Build a node, placing the given subtrees in canonical orientation.

    None entries are dropped; of two children the smaller-rooted subtree
    becomes the left child.
    """
    kids = sorted((c for c in children if c is not None), key=lambda c: c.label)
    if len(kids) > 2:
        raise InvalidTreeError(f"node {label} would have {len(kids)} children")
    left = kids[0] if kids else None
    right = kids[1] if len(kids) == 2 else None
    return Tree(label, left, right)


def _walk(t: Tree) -> Iterator[Tree]:
    stack = [t]
    while stack:
        cur = stack.pop()
        yield cur
        if cur.left is not None:
            stack.append(cur.left)
        if cur.right is not None:
            stack.append(cur.right)


def tree_labels(t: Tree) -> tuple[int, ...]:
    """All labels of the tree, sorted."""
    return tuple(sorted(n.label for n in _walk(t)))


def _check_node(v: int, left_label: int | None, right_label: int | None) -> None:
    """Raise :class:`InvalidTreeError` unless node ``v``, with these child
    labels (None if absent), keeps the per-node tree invariants.

    ``_link_tree`` tests the same conditions inline and calls this only
    for a node that fails them, so the two must change together.
    """
    if v == 0:
        raise InvalidTreeError("label 0 is not allowed")
    if left_label is None:
        if right_label is not None:
            raise InvalidTreeError(f"node {v} has a right child but no left child")
        return
    if left_label <= v:
        raise InvalidTreeError(f"child {left_label} must be greater than parent {v}")
    if right_label is None:
        return
    if right_label <= v:
        raise InvalidTreeError(f"child {right_label} must be greater than parent {v}")
    if left_label > right_label:
        raise InvalidTreeError(
            f"children of {v} are not in canonical order: "
            f"{left_label} before {right_label}"
        )


def _check_distinct(labels: Iterable[int]) -> None:
    seen: set[int] = set()
    for v in labels:
        if v in seen:
            raise InvalidTreeError(f"duplicate label {v}")
        seen.add(v)


def _checked_nodes(t: Tree) -> tuple[list[Tree], set[int]]:
    """Every node of ``t`` and its label set, once its labels are distinct
    and every node passes :func:`_check_node`; :class:`InvalidTreeError`
    otherwise."""
    nodes = list(_walk(t))
    labels = {cur.label for cur in nodes}
    if len(labels) != len(nodes):
        _check_distinct(cur.label for cur in nodes)
    for cur in nodes:
        _check_node(
            cur.label,
            None if cur.left is None else cur.left.label,
            None if cur.right is None else cur.right.label,
        )
    return nodes, labels


def validate_tree(t: Tree) -> None:
    """Check the increasing 1-2 tree invariants, raising on violation.

    Labels may be any distinct nonzero integers; trees on arbitrary label
    sets arise as intermediate states and as relabelings.  Use
    :func:`tree_spans_range` to additionally demand that the absolute
    label values are exactly 1..n.
    """
    _checked_nodes(t)


def _check_one_tree(
    root: int, left: dict[int, int], right: dict[int, int], labels: set[int]
) -> None:
    """Raise :class:`InvalidTreeError` unless the child maps, whose labels
    are ``labels``, are one tree rooted at ``root``."""
    # every map entry is one edge, and one tree on these labels has one
    # edge fewer than nodes, each out of a node in the tree; a child
    # linked twice, a root with a parent or an edge out of a node not in
    # the tree breaks that
    if (
        len(left) + len(right) != len(labels) - 1
        or not labels.issuperset(left)
        or not labels.issuperset(right)
    ):
        raise InvalidTreeError(f"the child maps are not one tree rooted at {root}")


def _link_tree(root: int, left: dict[int, int], right: dict[int, int]) -> Tree:
    """Freeze child maps into a :class:`Tree` without recursion.

    Labels must increase away from the root, so building nodes from the
    largest label down finishes every child before its parent.  Each node
    is tested on the way, a failing one raising :func:`_check_node`'s
    message, and maps that are not one tree rooted at ``root`` fail
    :func:`_check_one_tree`.
    """
    labels = {root, *left.values(), *right.values()}
    built: dict[int, Tree] = {}
    new = object.__new__
    for v in sorted(labels, reverse=True):
        lk, rk = left.get(v), right.get(v)
        # Tree(v, ...) without its Python frame
        built[v] = t = new(Tree)
        _set_label(t, v)
        # _check_node's test inline; it runs only to name a fault
        if lk is None:
            if rk is not None or not v:
                _check_node(v, lk, rk)
            _set_left(t, None)
            _set_right(t, None)
        else:
            if lk <= v or not v or (rk is not None and lk > rk):
                _check_node(v, lk, rk)
            # both children are larger, so built already; one linked
            # twice is shared, and the maps fail the one-tree test then
            _set_left(t, built[lk])
            _set_right(t, None if rk is None else built[rk])
    _check_one_tree(root, left, right, labels)
    return built[root]


def _linked_inorder(root: int, left: dict[int, int], right: dict[int, int]) -> Word:
    """The inorder word of the tree :func:`_link_tree` would build.

    The maps are checked as :func:`_link_tree` checks them, node by node
    from the largest label down and then by :func:`_check_one_tree`, with
    the same errors, but no :class:`Tree` is built.  Inorder is injective
    on increasing binary trees, so equal words mean equal trees, and the
    first entry is the pleaf.
    """
    labels = {root, *left.values(), *right.values()}
    for v in sorted(labels, reverse=True):
        _check_node(v, left.get(v), right.get(v))
    _check_one_tree(root, left, right, labels)
    out: list[int] = []
    stack: list[int] = []
    v: int | None = root
    while True:
        while v in left:
            stack.append(v)
            v = left[v]
        out.append(v)
        v = right.get(v)
        while v is None:
            if not stack:
                return tuple(out)
            v = stack.pop()
            out.append(v)
            v = right.get(v)


def tree_spans_range(t: Tree) -> bool:
    """True iff the absolute label values are exactly 1..n."""
    labels = tree_labels(t)
    return {abs(v) for v in labels} == set(range(1, len(labels) + 1))


# splitting on a capturing group alternates gaps and tokens; the pattern
# has no nested repeat, so a long malformed literal fails in linear time
_TOKEN = re.compile(r"(-?\d+|[(),])")


def _tokenize_literal(text: str) -> list[str]:
    parts = _TOKEN.split(text)
    # every gap between tokens must be whitespace
    if len(parts) == 1 or "".join(parts[::2]).strip():
        raise TreeParseError(f"cannot tokenize tree literal {text!r}")
    return parts[1::2]


def tree_from_literal(text: str) -> Tree:
    """Parse a tree literal such as ``1(2(3(7,9)),4(5,6(8)))``.

    The one-child form means a left child; two children are listed left
    then right.  The child maps are filled in one pass and linked by
    :func:`_link_tree`, which checks the invariants, not silently
    reordering.  Open nodes wait on a stack instead of the call stack, so
    chains deeper than the recursion limit parse too.

    >>> tree_from_literal("1(2,3)")
    Tree[1(2,3)]
    """
    tokens = _tokenize_literal(text)
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    labels: list[int] = []
    # per open node: its label and the map its next child goes into
    stack: list[tuple[int, dict[int, int]]] = []
    due = True  # a label must come next
    opens = False  # the last token was a label, whose "(" may follow
    for tok in tokens:
        if due:
            try:
                label = int(tok)
            except ValueError:
                raise TreeParseError(f"expected a label, got {tok!r}") from None
            labels.append(label)
            if stack:
                parent, kids = stack[-1]
                kids[parent] = label
            due, opens = False, True
            continue
        if opens and tok == "(":
            stack.append((label, left))
            due = True
        elif not stack:
            raise TreeParseError(f"trailing text in tree literal {text!r}")
        elif tok == "," and stack[-1][1] is left:
            stack[-1] = (stack[-1][0], right)
            due = True
        elif tok == ")":
            stack.pop()
        else:
            raise TreeParseError(f"expected ')', got {tok!r}")
        opens = False
    if due or stack:
        raise TreeParseError("unexpected end of tree literal")
    _check_distinct(labels)
    return _link_tree(labels[0], left, right)


def tree_to_literal(t: Tree) -> str:
    """Render a tree in the literal grammar, canonical orientation.

    The walk keeps a stack instead of recursing, so chains deeper than
    the recursion limit render too.

    >>> tree_to_literal(Tree(1, Tree(2, Tree(4)), Tree(3)))
    '1(2(4),3)'
    """
    out: list[str] = []
    # per open node: its right child still to render, then None for ")"
    stack: list[Tree | None] = []
    cur = t
    while True:
        while cur.left is not None:
            out.append(f"{cur.label}(")
            stack.append(cur.right)
            cur = cur.left
        if cur.right is not None:
            # a right child without a left one, which no valid tree has,
            # written so that the parser refuses it
            out.append(f"{cur.label}(,")
            stack.append(None)
            cur = cur.right
            continue
        out.append(str(cur.label))
        while stack:
            right = stack.pop()
            if right is None:
                out.append(")")
            else:
                out.append(",")
                stack.append(None)
                cur = right
                break
        else:
            return "".join(out)


def tree_to_json(t: Tree) -> dict:
    """JSON-friendly form: {label, left, right} with null for absent children.

    The dicts are filled from the root down with a stack, so chains
    deeper than the recursion limit convert too.
    """
    top = {"label": t.label, "left": None, "right": None}
    stack = [(t, top)]
    while stack:
        cur, doc = stack.pop()
        for side, child in (("left", cur.left), ("right", cur.right)):
            if child is not None:
                doc[side] = {"label": child.label, "left": None, "right": None}
                stack.append((child, doc[side]))
    return top


def tree_from_json(obj: dict) -> Tree:
    """Inverse of :func:`tree_to_json`; the result is validated.

    The dicts are read breadth first into child maps, which
    :func:`_link_tree` links and checks without recursion.
    """
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    labels: list[int] = []
    docs = [obj]
    for doc in docs:
        labels.append(_exact_int(doc["label"], InvalidTreeError))
        for kids, child in ((left, doc.get("left")), (right, doc.get("right"))):
            if child is not None:
                kids[labels[-1]] = _exact_int(child["label"], InvalidTreeError)
                docs.append(child)
    _check_distinct(labels)
    return _link_tree(labels[0], left, right)


def inorder(t: Tree) -> Word:
    """Left subtree, node, right subtree, walked with a stack.

    >>> inorder(tree_from_literal("1(2(3(7,9)),4(5,6(8)))"))
    (7, 3, 9, 2, 1, 5, 4, 8, 6)
    """
    out: list[int] = []
    stack: list[Tree] = []
    cur: Tree | None = t
    while True:
        while cur.left is not None:
            stack.append(cur)
            cur = cur.left
        out.append(cur.label)
        cur = cur.right
        while cur is None:
            if not stack:
                return tuple(out)
            cur = stack.pop()
            out.append(cur.label)
            cur = cur.right


def minimal_path(t: Tree) -> tuple[int, ...]:
    """The path from the root following left children down to a leaf.

    A unique child is always a left child, so the terminal node is a leaf.

    >>> minimal_path(tree_from_literal("1(2(3(7,9)),4(5,6(8)))"))
    (1, 2, 3, 7)
    """
    path = [t]
    while path[-1].left is not None:
        path.append(path[-1].left)
    return tuple(n.label for n in path)


def pleaf(t: Tree) -> int:
    """The terminal leaf of the minimal path."""
    return minimal_path(t)[-1]


def maximal_path_from(t: Tree, v: int) -> tuple[int, ...]:
    """The chain starting at label v following right children.

    The terminal node has no right child but may still own a left child.
    """
    start = next((n for n in _walk(t) if n.label == v), None)
    if start is None:
        raise ValueError(f"label {v} not in tree")
    path = [start]
    while path[-1].right is not None:
        path.append(path[-1].right)
    return tuple(n.label for n in path)


# ---------------------------------------------------------------------------
# order isomorphisms


def order_relabel(obj: Word | Tree, target_labels: Sequence[int]):
    """Apply the unique order isomorphism onto ``target_labels``.

    The i-th smallest current label is replaced by the i-th smallest
    target label, entrywise for words and nodewise for trees.  Order
    isomorphisms preserve relative order, so canonical tree orientation
    is untouched.

    >>> order_relabel((6, -3, 9, -8, 2, -1, 7, -4, 5), range(1, 10))
    (7, 3, 9, 1, 5, 4, 8, 2, 6)
    """
    target = _exact_ints(target_labels, InvalidPermutationError)
    if len(set(target)) != len(target):
        raise ValueError("target labels must be pairwise distinct")
    if isinstance(obj, Tree):
        nodes = list(_walk(obj))
        current = sorted(cur.label for cur in nodes)
    else:
        current = sorted(obj)
    if len(current) != len(target):
        raise ValueError(
            f"size mismatch: object has {len(current)} labels, "
            f"target has {len(target)}"
        )
    mapping = dict(zip(current, sorted(target)))
    if isinstance(obj, Tree):
        return _relabeled(nodes, mapping)
    return tuple(mapping[v] for v in obj)


def _relabeled(nodes: list[Tree], mapping: dict[int, int]) -> Tree:
    """The tree whose preorder walk, as :func:`_walk` gives it, is
    ``nodes``, with every label v replaced by ``mapping[v]``.

    ``mapping`` must preserve order, or the result is not canonical.
    The reverse of a preorder walk finishes each node's left subtree,
    then its right one, then the node, so the two subtrees built last
    are its children, the right one on top.
    """
    built: list[Tree] = []
    for cur in reversed(nodes):
        right = None if cur.right is None else built.pop()
        left = None if cur.left is None else built.pop()
        built.append(Tree(mapping[cur.label], left, right))
    return built[0]


# ---------------------------------------------------------------------------
# text formats


# byte v -> the ASCII digit of v, for the entries 1..9 of a compact word
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def perm_to_text(p: Sequence[int]) -> str:
    """Render a (signed) permutation; compact digits when unambiguous.

    A compact word is rendered by one ``bytes.translate``, which equals
    ``"".join(map(str, p))`` on entries 1..9.
    """
    if p and min(p) >= 1 and max(p) <= 9:
        return bytes(p).translate(_DIGITS).decode()
    return " ".join(map(str, p))


def perm_from_text(text: str) -> Word:
    """Parse permutation text; bare digit strings split into single digits."""
    s = text.strip()
    if not s:
        raise InvalidPermutationError("empty permutation text")
    parts = s.replace(",", " ").split()
    if parts == [s] and s.isdigit():
        # no separator at all: a bare digit string
        parts = list(s)
    try:
        return tuple(map(int, parts))
    except ValueError:
        raise InvalidPermutationError(f"cannot parse permutation {text!r}") from None
