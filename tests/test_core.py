import copy
import dataclasses
import itertools
import json
import pickle
import random
import time

import pytest
from hypothesis import given, strategies as st

from zigzag.core import (
    InvalidPermutationError,
    InvalidTreeError,
    Tree,
    TreeParseError,
    _check_distinct,
    _check_node,
    _exact_ints,
    _linked_inorder,
    _tokenize_literal,
    _walk,
    ends_with_ascent,
    has_double_descent,
    inorder,
    maximal_path_from,
    minimal_path,
    node,
    order_relabel,
    perm_from_sequence,
    perm_from_text,
    perm_to_text,
    pleaf,
    rtl_min_positions,
    signed_perm_from_sequence,
    subword_smallest,
    tree_from_json,
    tree_from_literal,
    tree_labels,
    tree_to_json,
    tree_to_literal,
    validate_tree,
)
from zigzag.bijections import _link_tree, omega, omega_signed, phi_inv, psi, psi_inv
from zigzag import core
from zigzag.families import iter_family

RUNNING_TREE = "1(2(3(7,9)),4(5,6(8)))"
SIGNED_TREE = "-8(-4(-3(6,9)),-1(2,5(7)))"


# distinct-entry words of moderate size
words = st.lists(
    st.integers(min_value=-40, max_value=40), unique=True, min_size=1, max_size=12
).map(tuple)


@st.composite
def trees(draw, signed=False):
    n = draw(st.integers(min_value=1, max_value=9))
    t = Tree(1)
    for label in range(2, n + 1):
        open_slots = [
            x.label
            for x in _nodes(t)
            if x.right is None
        ]
        at = draw(st.sampled_from(sorted(open_slots)))
        t = _attach(t, at, label)
    if signed:
        flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        target = [(-v if f else v) for v, f in zip(range(1, n + 1), flips)]
        t = order_relabel(t, target)
    return t


def _nodes(t):
    stack = [t]
    while stack:
        cur = stack.pop()
        yield cur
        for c in (cur.left, cur.right):
            if c is not None:
                stack.append(c)


def _attach(t, at, label):
    if t.label == at:
        if t.left is None:
            return Tree(t.label, Tree(label))
        return Tree(t.label, t.left, Tree(label))
    left = _attach(t.left, at, label) if t.left and at in tree_labels(t.left) else t.left
    right = (
        _attach(t.right, at, label) if t.right and at in tree_labels(t.right) else t.right
    )
    return Tree(t.label, left, right)


def _perm_by_final_comparison(values) -> tuple[int, ...]:
    """``perm_from_sequence`` as it stood, ending in a comparison of the
    entries with 1..n."""
    entries = _exact_ints(values, InvalidPermutationError)
    if not entries:
        raise InvalidPermutationError("a permutation has length n >= 1")
    if set(entries).issuperset(range(1, len(entries) + 1)):
        return entries
    seen: set[int] = set()
    for v in entries:
        if v in seen:
            raise InvalidPermutationError(f"duplicate value {v}")
        seen.add(v)
    if seen != set(range(1, len(entries) + 1)):
        raise InvalidPermutationError(
            f"entries must be exactly 1..{len(entries)}, got {sorted(seen)}"
        )
    return entries


def _signed_perm_by_final_comparison(values) -> tuple[int, ...]:
    """``signed_perm_from_sequence`` as it stood."""
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
    if seen != set(range(1, len(entries) + 1)):
        raise InvalidPermutationError(
            f"absolute values must be exactly 1..{len(entries)}, got {sorted(seen)}"
        )
    return entries


class TestPermValidation:
    def test_accepts_permutation(self):
        assert perm_from_sequence([2, 1, 4, 3]) == (2, 1, 4, 3)
        assert perm_from_sequence([1]) == (1,)

    def test_rejects_duplicates_and_gaps(self):
        with pytest.raises(InvalidPermutationError) as info:
            perm_from_sequence([2, 2, 3])
        assert str(info.value) == "duplicate value 2"
        with pytest.raises(InvalidPermutationError) as info:
            perm_from_sequence([1, 3])
        assert str(info.value) == "entries must be exactly 1..2, got [1, 3]"
        with pytest.raises(InvalidPermutationError):
            perm_from_sequence([])

    def test_signed_accepts(self):
        assert signed_perm_from_sequence([1, -2, 3]) == (1, -2, 3)
        assert signed_perm_from_sequence([-1]) == (-1,)

    def test_signed_rejects(self):
        for entries, message in (
            ([1, -1], "duplicate absolute value 1"),
            ([0, 1], "zero entries are not allowed"),
            ([1, 3], "absolute values must be exactly 1..2, got [1, 3]"),
        ):
            with pytest.raises(InvalidPermutationError) as info:
                signed_perm_from_sequence(entries)
            assert str(info.value) == message

    def test_messages_match_the_final_comparison_oracle(self):
        def outcome(call, values):
            try:
                return call(values)
            except InvalidPermutationError as exc:
                return str(exc)

        for size in range(5):
            for values in itertools.product(range(-1, 6), repeat=size):
                assert outcome(perm_from_sequence, values) == outcome(
                    _perm_by_final_comparison, values
                ), values
                assert outcome(signed_perm_from_sequence, values) == outcome(
                    _signed_perm_by_final_comparison, values
                ), values

    # each of these once truncated its floats and answered for other input
    @pytest.mark.parametrize(
        "call, error, entry",
        [
            pytest.param(
                lambda: perm_from_sequence([1.9, 2.2]), InvalidPermutationError, 1.9,
                id="perm_from_sequence",
            ),
            pytest.param(
                lambda: signed_perm_from_sequence([-1.5, 2.5]),
                InvalidPermutationError, -1.5,
                id="signed_perm_from_sequence",
            ),
            pytest.param(
                lambda: psi((2.9, 1.1, 3.0)), InvalidPermutationError, 2.9, id="psi"
            ),
            pytest.param(
                lambda: phi_inv((1.7,)), InvalidPermutationError, 1.7, id="phi_inv"
            ),
            pytest.param(
                lambda: order_relabel((2, 1), [1, 2.5]), InvalidPermutationError, 2.5,
                id="order_relabel",
            ),
            pytest.param(
                lambda: tree_from_json({"label": 1.9, "left": {"label": 2.1}}),
                InvalidTreeError, 1.9,
                id="tree_from_json",
            ),
            pytest.param(
                lambda: tree_from_json({"label": 1, "left": {"label": 2.0}}),
                InvalidTreeError, 2.0,
                id="tree_from_json-child",
            ),
        ],
    )
    def test_rejects_non_integer_entries(self, call, error, entry):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == f"{entry!r} is not an integer"


class TestWordStatistics:
    def test_subword_smallest(self):
        assert subword_smallest((3, 1, 2, 4, 5), 3) == (3, 1, 2)
        assert subword_smallest((2, -4, -1, 3, 5), 1) == (-4,)
        assert subword_smallest((2, -4, -1, 3, 5), 2) == (-4, -1)
        w = (3, 1, 2, 4, 5)
        assert subword_smallest(w, len(w)) == w

    def test_subword_range_checked(self):
        with pytest.raises(ValueError):
            subword_smallest((1, 2), 0)
        with pytest.raises(ValueError):
            subword_smallest((1, 2), 3)

    def test_double_descent(self):
        assert has_double_descent((4, 3, 1, 2))
        assert not has_double_descent((3, 1, 2))
        assert not has_double_descent((2, 1))

    def test_ends_with_ascent(self):
        assert ends_with_ascent((3, 1, 2, 4))
        assert not ends_with_ascent((2, 1))
        assert ends_with_ascent((1,))

    def test_rtl_min_positions(self):
        assert rtl_min_positions((6, 8, 4, 5, 1, 2, 9, 3, 7)) == (5, 6, 8, 9)
        assert rtl_min_positions(tuple(range(1, 7))) == (1, 2, 3, 4, 5, 6)
        # frozen from a quadratic scan: positions whose value is the
        # minimum of the whole suffix
        assert rtl_min_positions((5, 7, 3, 4, 1, 2, 8, 6)) == (5, 6, 8)

    @given(words)
    def test_rtl_matches_quadratic_definition(self, w):
        expected = tuple(
            i + 1 for i in range(len(w)) if w[i] == min(w[i:])
        )
        assert rtl_min_positions(w) == expected

    @given(words)
    def test_double_descent_matches_definition(self, w):
        expected = any(
            w[i] > w[i + 1] and w[i + 1] > w[i + 2] for i in range(len(w) - 2)
        )
        assert has_double_descent(w) == expected

    @given(words, st.integers(min_value=1, max_value=12))
    def test_subword_is_order_preserving_selection(self, w, k):
        if k > len(w):
            k = len(w)
        sub = subword_smallest(w, k)
        assert len(sub) == k
        assert set(sub) == set(sorted(w)[:k])
        positions = [w.index(v) for v in sub]
        assert positions == sorted(positions)


class TestTreeLiterals:
    def test_running_tree_round_trip(self):
        t = tree_from_literal(RUNNING_TREE)
        assert tree_to_literal(t) == RUNNING_TREE
        assert tree_labels(t) == tuple(range(1, 10))

    def test_single_node(self):
        assert tree_from_literal("1") == Tree(1)

    def test_signed_tree(self):
        t = tree_from_literal(SIGNED_TREE)
        assert tree_to_literal(t) == SIGNED_TREE
        assert tree_labels(t) == (-8, -4, -3, -1, 2, 5, 6, 7, 9)

    def test_non_canonical_order_rejected(self):
        with pytest.raises(InvalidTreeError):
            tree_from_literal("1(3,2)")

    def test_decreasing_edge_rejected(self):
        with pytest.raises(InvalidTreeError):
            tree_from_literal("2(1)")

    def test_duplicate_label_rejected(self):
        with pytest.raises(InvalidTreeError):
            tree_from_literal("1(2,2)")

    def test_zero_label_rejected(self):
        with pytest.raises(InvalidTreeError):
            tree_from_literal("0(1)")

    def test_label_subsets_are_valid(self):
        # intermediate trees live on arbitrary label sets
        t = tree_from_literal("1(2(5(8,9)),3(6))")
        assert tree_labels(t) == (1, 2, 3, 5, 6, 8, 9)

    def test_parse_errors(self):
        for bad, message in (
            ("", "cannot tokenize tree literal ''"),
            ("1(", "unexpected end of tree literal"),
            ("1(2,3,4)", "expected ')', got ','"),
            ("1(2))", "trailing text in tree literal '1(2))'"),
            ("x", "cannot tokenize tree literal 'x'"),
            ("1 2", "trailing text in tree literal '1 2'"),
            ("1()", "expected a label, got ')'"),
            ("1(-x)", "cannot tokenize tree literal '1(-x)'"),
            ("- 1", "cannot tokenize tree literal '- 1'"),
        ):
            with pytest.raises(TreeParseError) as info:
                tree_from_literal(bad)
            assert str(info.value) == message

    def test_invalid_trees_keep_their_messages(self):
        for bad, message in (
            ("1(3,2)", "children of 1 are not in canonical order: 3 before 2"),
            ("2(1)", "child 1 must be greater than parent 2"),
            ("1(2,2)", "duplicate label 2"),
            ("0(1)", "label 0 is not allowed"),
        ):
            with pytest.raises(InvalidTreeError) as info:
                tree_from_literal(bad)
            assert str(info.value) == message

    def test_long_malformed_literal_fails_fast(self):
        # a tokenizer that backtracks over how to split the digits would
        # take far longer than this
        text = "1" * 199_999 + "x"
        start = time.perf_counter()
        with pytest.raises(TreeParseError, match="cannot tokenize"):
            tree_from_literal(text)
        assert time.perf_counter() - start < 0.5

    def test_json_round_trip(self):
        t = tree_from_literal(RUNNING_TREE)
        doc = tree_to_json(t)
        assert doc["label"] == 1
        assert doc["right"]["label"] == 4
        assert tree_from_json(doc) == t

    @given(trees())
    def test_literal_round_trip(self, t):
        assert tree_from_literal(tree_to_literal(t)) == t

    @given(trees(signed=True))
    def test_signed_literal_round_trip(self, t):
        validate_tree(t)
        assert tree_from_literal(tree_to_literal(t)) == t


# (tree, its literal, its child maps, the one message); the literal of a
# lone right child fails the grammar instead, and child maps cannot hold a
# duplicate label
_MALFORMED_TREES = [
    pytest.param(
        Tree(1, Tree(2, None, Tree(3))), None, (1, {1: 2}, {2: 3}),
        "node 2 has a right child but no left child",
        id="right-child-without-left",
    ),
    pytest.param(
        Tree(1, Tree(3, Tree(2))), "1(3(2))", (1, {1: 3, 3: 2}, {}),
        "child 2 must be greater than parent 3",
        id="decreasing-edge",
    ),
    pytest.param(
        Tree(1, Tree(2, Tree(5), Tree(4))), "1(2(5,4))", (1, {1: 2, 2: 5}, {2: 4}),
        "children of 2 are not in canonical order: 5 before 4",
        id="non-canonical-order",
    ),
    pytest.param(
        Tree(1, Tree(2, Tree(3)), Tree(3)), "1(2(3),3)", None,
        "duplicate label 3",
        id="duplicate-label",
    ),
    pytest.param(
        Tree(-1, Tree(0)), "-1(0)", (-1, {-1: 0}, {}),
        "label 0 is not allowed",
        id="label-zero",
    ),
]


@pytest.mark.parametrize("t, literal, maps, message", _MALFORMED_TREES)
def test_every_tree_entry_point_applies_one_rule(t, literal, maps, message):
    entries = [
        lambda: validate_tree(t),
        lambda: tree_from_json(tree_to_json(t)),
        lambda: psi_inv(t),
    ]
    if literal is not None:
        entries.append(lambda: tree_from_literal(literal))
    if maps is not None:
        entries.append(lambda: _link_tree(*maps))
        entries.append(lambda: _linked_inorder(*maps))
    for entry in entries:
        with pytest.raises(InvalidTreeError) as info:
            entry()
        assert str(info.value) == message


def _node_by_node(t: Tree) -> None:
    """``validate_tree`` as it stood: distinct labels, then
    ``_check_node`` on every node in ``_walk`` order."""
    nodes = list(_walk(t))
    _check_distinct(cur.label for cur in nodes)
    for cur in nodes:
        _check_node(
            cur.label,
            None if cur.left is None else cur.left.label,
            None if cur.right is None else cur.right.label,
        )


def _rebuilt(cur: Tree | None, at: Tree, make) -> Tree | None:
    # the tree with the node ``at`` replaced by ``make(at)``
    if cur is None:
        return None
    if cur is at:
        return make(cur)
    return Tree(cur.label, _rebuilt(cur.left, at, make), _rebuilt(cur.right, at, make))


def _tree_faults(t: Tree):
    """Copies of ``t`` built with ``Tree(...)``, each with one fault at
    one node: its label set to 0, its label swapped with a child's (a
    child below its parent), a right child without a left one, or its
    two children swapped."""
    for at in _walk(t):
        yield _rebuilt(t, at, lambda c: Tree(0, c.left, c.right))
        if at.left is None:
            continue
        yield _rebuilt(
            t, at,
            lambda c: Tree(c.left.label, Tree(c.label, c.left.left, c.left.right), c.right),
        )
        if at.right is None:
            yield _rebuilt(t, at, lambda c: Tree(c.label, None, c.left))
            continue
        yield _rebuilt(
            t, at,
            lambda c: Tree(c.right.label, c.left, Tree(c.label, c.right.left, c.right.right)),
        )
        yield _rebuilt(t, at, lambda c: Tree(c.label, c.right, c.left))
        yield _rebuilt(t, at, lambda c: Tree(c.label, None, c.right))


@pytest.mark.parametrize(
    "tag, n_max", [("tree", 5), ("tree-b", 4)], ids=["unsigned", "signed"]
)
def test_tree_checks_name_every_single_fault_as_the_node_oracle(tag, n_max):
    # validate_tree passes what a per-node _check_node walk passes, and a
    # fault gets its message for the first failing node in walk order
    faults = 0
    for n in range(1, n_max + 1):
        for t in iter_family(tag, n):
            validate_tree(t)
            for bad in _tree_faults(t):
                with pytest.raises(InvalidTreeError) as oracle:
                    _node_by_node(bad)
                with pytest.raises(InvalidTreeError) as got:
                    validate_tree(bad)
                assert str(got.value) == str(oracle.value), tree_to_literal(bad)
                faults += 1
    assert faults > 200


def _failing_nodes(t: Tree) -> list[tuple[int, str]]:
    """Each node of ``t`` that fails ``_check_node``, with its message."""
    failed = []
    for cur in _walk(t):
        try:
            _check_node(
                cur.label,
                None if cur.left is None else cur.left.label,
                None if cur.right is None else cur.right.label,
            )
        except InvalidTreeError as exc:
            failed.append((cur.label, str(exc)))
    return failed


def _message(read) -> str:
    with pytest.raises(InvalidTreeError) as info:
        read()
    return str(info.value)


@pytest.mark.parametrize(
    "tag, n_max, single, several",
    [("tree", 5, 185, 92), ("tree-b", 4, 817, 113)],
    ids=["unsigned", "signed"],
)
def test_readers_name_a_single_failing_node_alike(tag, n_max, single, several):
    # one failing node gets one message from every reader; of several,
    # validate_tree names the first in walk order and the map readers the
    # one with the largest label
    counts = [0, 0]
    for n in range(1, n_max + 1):
        for t in iter_family(tag, n):
            for bad in _tree_faults(t):
                failed = _failing_nodes(bad)
                text = tree_to_literal(bad)
                from_json = _message(lambda: tree_from_json(tree_to_json(bad)))
                from_literal = _message(lambda: tree_from_literal(text))
                if "(," in text:
                    # a lone right child, which the grammar refuses
                    assert from_literal == "expected a label, got ','", text
                    from_literal = from_json
                assert _message(lambda: validate_tree(bad)) == failed[0][1]
                assert from_json == from_literal == max(failed)[1], text
                counts[len(failed) > 1] += 1
    assert counts == [single, several]


@pytest.mark.parametrize(
    "tag, n_max, count",
    [("tree", 5, 277), ("tree-b", 4, 930)],
    ids=["unsigned", "signed"],
)
def test_no_faulty_tree_renders_as_a_valid_literal(tag, n_max, count):
    faults = 0
    for n in range(1, n_max + 1):
        for t in iter_family(tag, n):
            assert tree_from_literal(tree_to_literal(t)) == t
            for bad in _tree_faults(t):
                text = tree_to_literal(bad)
                assert repr(bad) == f"Tree[{text}]"
                with pytest.raises(InvalidTreeError):
                    tree_from_literal(text)
                faults += 1
    assert faults == count


def test_lone_right_child_renders_as_a_refused_literal():
    assert tree_to_literal(Tree(1, None, Tree(2))) == "1(,2)"
    assert repr(Tree(1, Tree(2, None, Tree(4, Tree(5))), Tree(3))) == (
        "Tree[1(2(,4(5)),3)]"
    )
    with pytest.raises(TreeParseError) as info:
        tree_from_literal("1(,2)")
    assert str(info.value) == "expected a label, got ','"


def test_distinct_check_runs_only_for_a_repeated_label(monkeypatch):
    calls = []

    def counted(labels):
        calls.append(1)
        return _check_distinct(labels)

    monkeypatch.setattr(core, "_check_distinct", counted)
    for tag, n_max in (("tree", 7), ("tree-b", 4)):
        for n in range(1, n_max + 1):
            for t in iter_family(tag, n):
                validate_tree(t)
    assert not calls
    repeats = 0
    for n in range(2, 6):
        for t in iter_family("tree", n):
            nodes = list(_walk(t))
            for a, b in itertools.permutations(nodes, 2):
                bad = _rebuilt(t, b, lambda c: Tree(a.label, c.left, c.right))
                with pytest.raises(InvalidTreeError) as oracle:
                    _node_by_node(bad)
                with pytest.raises(InvalidTreeError) as got:
                    validate_tree(bad)
                assert str(got.value) == str(oracle.value) == f"duplicate label {a.label}"
                repeats += 1
    assert len(calls) == repeats == 394


def _parse_by_index(text: str) -> Tree:
    """``tree_from_literal`` as it stood: a label loop over token indices
    with a nested loop that closes nodes, and a ``while ... else``."""
    tokens = _tokenize_literal(text)
    end = len(tokens)
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    labels: list[int] = []
    stack: list[tuple[int, dict[int, int]]] = []
    pos = 0
    while True:
        if pos == end:
            raise TreeParseError("unexpected end of tree literal")
        tok = tokens[pos]
        pos += 1
        try:
            label = int(tok)
        except ValueError:
            raise TreeParseError(f"expected a label, got {tok!r}") from None
        labels.append(label)
        if stack:
            parent, kids = stack[-1]
            kids[parent] = label
        if pos < end and tokens[pos] == "(":
            pos += 1
            stack.append((label, left))
            continue
        while stack:
            if pos == end:
                raise TreeParseError("unexpected end of tree literal")
            tok = tokens[pos]
            pos += 1
            if tok == "," and stack[-1][1] is left:
                stack[-1] = (stack[-1][0], right)
                break
            if tok != ")":
                raise TreeParseError(f"expected ')', got {tok!r}")
            stack.pop()
        else:
            break
    if pos != end:
        raise TreeParseError(f"trailing text in tree literal {text!r}")
    _check_distinct(labels)
    return _link_tree(labels[0], left, right)


def _parsed(parse, text: str):
    try:
        return parse(text)
    except InvalidTreeError as exc:
        return type(exc), str(exc)


def test_parser_matches_the_index_loop_oracle_on_random_text():
    rng = random.Random(20)
    alphabet = ["1", "2", "3", "4", "5", "-1", "0", "(", ")", ",", " "]
    texts = [
        "".join(rng.choices(alphabet, k=rng.randint(1, 14))) for _ in range(100_000)
    ]
    texts += [tree_to_literal(t) for n in range(1, 6) for t in iter_family("tree", n)]
    parsed = 0
    for text in texts:
        got = _parsed(tree_from_literal, text)
        assert got == _parsed(_parse_by_index, text), text
        parsed += isinstance(got, Tree)
    assert parsed > 1_000


def _bfs_key(t: Tree) -> tuple[int | None, ...]:
    """The key ``Tree.__hash__`` hashed as it stood: the labels breadth
    first, with None for every missing child."""
    key: list[int | None] = [t.label]
    order = [t]
    for cur in order:
        for child in (cur.left, cur.right):
            if child is None:
                key.append(None)
            else:
                key.append(child.label)
                order.append(child)
    return tuple(key)


def test_hash_agrees_with_equality_on_every_construction():
    trees = [t for n in range(1, 7) for t in iter_family("tree", n)]
    trees += [t for n in range(1, 5) for t in iter_family("tree-b", n)]
    for t in trees:
        nodes = list(_walk(t))
        linked = _link_tree(
            t.label,
            {c.label: c.left.label for c in nodes if c.left is not None},
            {c.label: c.right.label for c in nodes if c.right is not None},
        )
        copies = [
            _rebuilt(t, t, lambda c: Tree(c.label, c.left, c.right)),
            linked,
            copy.copy(t),
            copy.deepcopy(t),
            pickle.loads(pickle.dumps(t)),
            tree_from_literal(tree_to_literal(t)),
        ]
        for other in copies:
            assert other == t and hash(other) == hash(t) == hash(inorder(t))
    # the inorder word tells these trees apart as the old key did
    assert len({_bfs_key(t) for t in trees}) == len({inorder(t) for t in trees})
    assert len(set(trees)) == len({inorder(t) for t in trees})
    chain = _link_tree(1, {v: v + 1 for v in range(1, 3000)}, {})
    assert hash(chain) == hash(tuple(range(3000, 0, -1)))


class TestTreeTraversals:
    def test_inorder_running_tree(self):
        assert inorder(tree_from_literal(RUNNING_TREE)) == (7, 3, 9, 2, 1, 5, 4, 8, 6)

    def test_inorder_single(self):
        assert inorder(Tree(1)) == (1,)

    def test_inorder_signed(self):
        # reverse of the signed reverse-inorder reading 5 7 -1 2 -8 -4 9 -3 6
        t = tree_from_literal(SIGNED_TREE)
        assert inorder(t) == (6, -3, 9, -4, -8, 2, -1, 7, 5)

    def test_minimal_path(self):
        t = tree_from_literal(RUNNING_TREE)
        assert minimal_path(t) == (1, 2, 3, 7)
        assert pleaf(t) == 7
        assert minimal_path(Tree(1)) == (1,)
        assert minimal_path(tree_from_literal("-2(1,3)")) == (-2, 1)
        assert pleaf(tree_from_literal("-2(1,3)")) == 1

    def test_maximal_path_from(self):
        t = tree_from_literal(RUNNING_TREE)
        assert maximal_path_from(t, 1) == (1, 4, 6)
        assert maximal_path_from(t, 7) == (7,)
        # right-edge chain may end at a vertex that still has a left child
        t2 = tree_from_literal("1(2(5(8,9)),3(6))")
        assert maximal_path_from(t2, 5) == (5, 9)
        assert maximal_path_from(t2, 1) == (1, 3)
        with pytest.raises(ValueError):
            maximal_path_from(t, 42)

    @given(trees(signed=True))
    def test_pleaf_is_first_of_inorder(self, t):
        assert inorder(t)[0] == pleaf(t)

    @given(trees())
    def test_minimal_path_increases_to_a_leaf(self, t):
        path = minimal_path(t)
        assert path[0] == t.label
        assert list(path) == sorted(path)


class TestOrderRelabel:
    def test_signed_to_plain(self):
        p = (6, -3, 9, -8, 2, -1, 7, -4, 5)
        assert order_relabel(p, range(1, 10)) == (7, 3, 9, 1, 5, 4, 8, 2, 6)

    def test_identity(self):
        p = (2, 1, 4, 3)
        assert order_relabel(p, [1, 2, 3, 4]) == p

    def test_tree_relabel(self):
        t = tree_from_literal(RUNNING_TREE)
        target = [-8, -4, -3, -1, 2, 5, 6, 7, 9]
        assert tree_to_literal(order_relabel(t, target)) == SIGNED_TREE

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            order_relabel((1, 2), [1, 2, 3])
        with pytest.raises(ValueError):
            order_relabel((1, 2), [3, 3])

    @given(trees(), st.lists(st.integers(-99, 99), unique=True, min_size=9, max_size=9))
    def test_relabel_commutes_with_inorder(self, t, pool):
        target = pool[: len(tree_labels(t))]
        if len(target) < len(tree_labels(t)) or 0 in target:
            return
        relabeled = order_relabel(t, target)
        assert inorder(relabeled) == order_relabel(inorder(t), target)
        assert pleaf(relabeled) == order_relabel(inorder(t), target)[0]


class TestDeepTrees:
    """Equality, hashing and relabeling walk the tree without recursion."""

    N = 3000

    @staticmethod
    def _chain(n, last=None):
        left = {v: v + 1 for v in range(1, n)}
        if last is not None:
            left[n - 1] = last
        return _link_tree(1, left, {})

    def test_equality_and_hash_on_a_deep_chain(self):
        a, b = self._chain(self.N), self._chain(self.N)
        changed = self._chain(self.N, last=self.N + 1)
        assert a is not b
        assert a == b
        assert not a != b
        assert hash(a) == hash(b)
        assert a != changed
        assert not a == changed
        assert len({a, b, changed}) == 2

    def test_order_relabel_on_a_deep_chain(self):
        shifted = order_relabel(self._chain(self.N), range(2, self.N + 2))
        assert minimal_path(shifted) == tuple(range(2, self.N + 2))

    def test_inorder_and_literal_on_a_deep_chain(self):
        chain = self._chain(self.N)
        assert inorder(chain) == tuple(range(self.N, 0, -1))
        text = tree_to_literal(chain)
        assert text == "(".join(map(str, range(1, self.N + 1))) + ")" * (self.N - 1)
        assert repr(chain) == f"Tree[{text}]"

    def test_omega_on_deep_chains(self):
        chain = self._chain(self.N)
        assert omega(chain) == tuple(range(1, self.N + 1))
        # a chain hanging off the right child of the root: 1(2, 3(4(...)))
        left = {v: v + 1 for v in range(3, self.N)}
        left[1] = 2
        right_chain = _link_tree(1, left, {1: 3})
        assert omega(right_chain) == (*range(3, self.N + 1), 1, 2)
        signed = order_relabel(chain, [-v for v in range(1, self.N + 1)])
        assert omega_signed(signed) == tuple(range(-self.N, 0))

    def test_literal_parser_on_a_deep_chain(self):
        text = "(".join(map(str, range(1, self.N + 1))) + ")" * (self.N - 1)
        assert tree_from_literal(text) == self._chain(self.N)
        with pytest.raises(TreeParseError):
            tree_from_literal(text[:-1])
        with pytest.raises(InvalidTreeError):
            tree_from_literal(text.replace(f"({self.N})", "(1)"))

    def test_json_round_trip_on_a_deep_chain(self):
        chain = self._chain(self.N)
        doc = tree_to_json(chain)
        depth, cur = 1, doc
        while cur["left"] is not None:
            assert cur["right"] is None
            depth, cur = depth + 1, cur["left"]
        assert depth == self.N
        assert tree_from_json(doc) == chain

    def test_json_matches_recursive_form(self):
        def recursive(t):
            return {
                "label": t.label,
                "left": None if t.left is None else recursive(t.left),
                "right": None if t.right is None else recursive(t.right),
            }

        for tag, n_max in (("tree", 6), ("tree-b", 3)):
            for n in range(1, n_max + 1):
                for t in iter_family(tag, n):
                    doc = tree_to_json(t)
                    assert json.dumps(doc, indent=2) == json.dumps(
                        recursive(t), indent=2
                    )
                    assert tree_from_json(json.loads(json.dumps(doc))) == t

    def test_literal_matches_recursive_rendering(self):
        def rendered(t):
            if t.left is None:
                return str(t.label)
            if t.right is None:
                return f"{t.label}({rendered(t.left)})"
            return f"{t.label}({rendered(t.left)},{rendered(t.right)})"

        for n in range(1, 7):
            for t in iter_family("tree", n):
                assert tree_to_literal(t) == rendered(t)
        for n in range(1, 4):
            for t in iter_family("tree-b", n):
                assert tree_to_literal(t) == rendered(t)

    @given(trees(signed=True), trees(signed=True))
    def test_equality_is_structural(self, s, t):
        assert (s == t) == (tree_to_literal(s) == tree_to_literal(t))
        assert (s != t) == (tree_to_literal(s) != tree_to_literal(t))
        rebuilt = tree_from_literal(tree_to_literal(t))
        assert rebuilt == t and hash(rebuilt) == hash(t)

    def test_comparison_with_other_types(self):
        assert Tree(1) != 1
        assert Tree(1) != (1, None, None)
        assert Tree(1, Tree(2)) != Tree(1, None, Tree(2))


class TestNodeBuilder:
    def test_orders_children(self):
        t = node(1, Tree(3), Tree(2))
        assert tree_to_literal(t) == "1(2,3)"

    def test_drops_none(self):
        assert node(1, None, Tree(2)) == Tree(1, Tree(2))

    def test_rejects_three_children(self):
        with pytest.raises(InvalidTreeError):
            node(1, Tree(2), Tree(3), Tree(4))


class TestPermText:
    def test_compact_digits(self):
        assert perm_to_text((5, 7, 3, 4, 1, 2, 8, 6)) == "57341286"
        assert perm_from_text("684512937") == (6, 8, 4, 5, 1, 2, 9, 3, 7)

    def test_signed_text(self):
        p = (6, -3, 9, -8, 2, -1, 7, -4, 5)
        assert perm_to_text(p) == "6 -3 9 -8 2 -1 7 -4 5"
        assert perm_from_text("6 -3 9 -8 2 -1 7 -4 5") == p
        assert perm_from_text("1,-2,3") == (1, -2, 3)

    def test_compact_path_matches_joining_strs(self):
        # the oracle is the per-entry join the bytes.translate path replaces
        words = [
            *(p for n in range(1, 10) for p in iter_family("alt", n)),
            *(p for n in range(1, 10) for p in iter_family("andre", n)),
            *(p for n in range(1, 6) for p in iter_family("alt-b", n)),
            *iter_family("alt", 10, 3),
            (10, 9, 8, 7, 6, 5, 4, 3, 2, 1),
            (),
        ]
        compact = 0
        for p in words:
            digits = bool(p) and min(p) >= 1 and max(p) <= 9
            compact += digits
            oracle = ("" if digits else " ").join(map(str, p))
            assert perm_to_text(p) == oracle, p
            assert perm_to_text(list(p)) == oracle, p
        assert compact == 2 * 9679 + 25  # alt and andre to n = 9, alt-b words > 0

    def test_single_value(self):
        assert perm_from_text("7") == (7,)
        assert perm_from_text("-1") == (-1,)

    @pytest.mark.parametrize(
        "text, word",
        [
            ("1,2,3", (1, 2, 3)),
            ("1 2\t3", (1, 2, 3)),
            ("213", (2, 1, 3)),
            ("7", (7,)),
            (",", ()),
            (" 3 , 1 ,2 ", (3, 1, 2)),
            ("12,", (12,)),
        ],
    )
    def test_separators(self, text, word):
        assert perm_from_text(text) == word

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty permutation text"),
            ("1;2", "cannot parse permutation '1;2'"),
            ("21a", "cannot parse permutation '21a'"),
        ],
    )
    def test_unparsable_text(self, text, message):
        with pytest.raises(InvalidPermutationError) as info:
            perm_from_text(text)
        assert str(info.value) == message


class TestTreeRecord:
    """``Tree`` keeps the contract of a frozen dataclass."""

    T = Tree(1, Tree(2, Tree(4)), Tree(3))

    @pytest.mark.parametrize("name", ["label", "left", "right"])
    def test_fields_are_frozen(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError) as info:
            setattr(self.T, name, None)
        assert str(info.value) == f"cannot assign to field {name!r}"
        with pytest.raises(dataclasses.FrozenInstanceError) as info:
            delattr(self.T, name)
        assert str(info.value) == f"cannot delete field {name!r}"

    @pytest.mark.parametrize(
        "round_trip",
        [
            lambda t: pickle.loads(pickle.dumps(t)),
            copy.copy,
            copy.deepcopy,
            dataclasses.replace,
        ],
        ids=["pickle", "copy", "deepcopy", "replace"],
    )
    def test_round_trips(self, round_trip):
        t = round_trip(self.T)
        assert t == self.T
        assert tree_to_literal(t) == "1(2(4),3)"

    def test_linked_nodes_behave_like_constructed_ones(self):
        # _link_tree makes its nodes without calling Tree's constructor
        linked = _link_tree(1, {1: 2, 2: 4}, {1: 3})
        for got, built in zip(_walk(linked), _walk(self.T), strict=True):
            assert type(got) is Tree
            assert got == built and hash(got) == hash(built)
            assert repr(got) == repr(built)
            for round_trip in (copy.copy, copy.deepcopy, dataclasses.replace):
                assert round_trip(got) == built
            assert pickle.loads(pickle.dumps(got)) == built
            for name in ("label", "left", "right"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(got, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(got, name)
        assert dataclasses.replace(linked, right=None) == tree_from_literal("1(2(4))")

    def test_replace_and_keywords(self):
        assert dataclasses.replace(self.T, right=None) == tree_from_literal("1(2(4))")
        assert Tree(label=1, right=Tree(3), left=Tree(2)) == tree_from_literal("1(2,3)")
        assert Tree(5) == Tree(5, None, None)

    def test_dataclass_metadata(self):
        assert dataclasses.is_dataclass(self.T)
        assert Tree.__match_args__ == ("label", "left", "right")
        assert [f.name for f in dataclasses.fields(Tree)] == ["label", "left", "right"]
        match self.T:
            case Tree(1, Tree(2), right):
                assert right == Tree(3)
            case _:
                pytest.fail("Tree did not match positionally")
