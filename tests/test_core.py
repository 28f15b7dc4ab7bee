import copy
import dataclasses
import itertools
import json
import pickle
import random
import time

import pytest
from hypothesis import given, strategies as st

from oracles import (
    _bfs_key, _double_descent_by_index, _json_by_recursion, _label_copies,
    _literal_by_recursion, _node_by_node, _parse_by_index, _perm_by_final_comparison,
    _random_tree, _rebuilt, _signed_perm_by_final_comparison, _tree_faults, _tree_maps,
    outcome,
)
from zigzag.core import (
    InvalidPermutationError,
    InvalidTreeError,
    Tree,
    TreeParseError,
    _check_distinct,
    _check_node,
    _linked_inorder,
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
    tree_spans_range,
    tree_to_json,
    tree_to_literal,
    validate_tree,
)
from zigzag.bijections import (
    _link_tree,
    chuang_phi,
    omega,
    omega_signed,
    phi_inv,
    psi,
    psi_inv,
)
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
    # the shared sampler, each free slot picked by hypothesis
    n = draw(st.integers(min_value=1, max_value=9))
    t = _random_tree(n, lambda k: draw(st.integers(min_value=0, max_value=k - 1)))
    if signed:
        flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        target = [(-v if f else v) for v, f in zip(range(1, n + 1), flips)]
        t = order_relabel(t, target)
    return t


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
        assert has_double_descent(w) == _double_descent_by_index(w)

    def test_double_descent_matches_definition_exhaustively(self):
        # every word of [n] to n = 8, every signed word to n = 5, as
        # tuples and as lists, and the lengths below three
        signed = (
            tuple(s * v for s, v in zip(signs, p))
            for n in range(1, 6)
            for p in itertools.permutations(range(1, n + 1))
            for signs in itertools.product((1, -1), repeat=n)
        )
        unsigned = (
            p for n in range(1, 9) for p in itertools.permutations(range(1, n + 1))
        )
        short = [(), (1,), (2, 1), (1, 2), (-1, -2), (-2, 1)]
        checked = 0
        for w in itertools.chain(unsigned, signed, short):
            expected = _double_descent_by_index(w)
            assert has_double_descent(w) == has_double_descent(list(w)) == expected, w
            checked += 1
        assert checked == 46233 + 4282 + 6

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({}, "a tree node must be a dict with a label, got {}"),
            ([1], "a tree node must be a dict with a label, got [1]"),
            (None, "a tree node must be a dict with a label, got None"),
            ({"label": 1, "left": 5}, "a tree node must be a dict with a label, got 5"),
            (
                {"label": 1, "left": {"label": 2}, "right": {"left": None}},
                "a tree node must be a dict with a label, got {'left': None}",
            ),
            ({"label": 1, "right": ["label"]}, "got ['label']"),
            ({"label": "1"}, "'1' is not an integer"),
            ({"label": 1, "left": {"label": 2.0}}, "2.0 is not an integer"),
        ],
    )
    def test_json_refuses_a_malformed_document(self, doc, message):
        with pytest.raises(InvalidTreeError) as info:
            tree_from_json(doc)
        assert info.type is InvalidTreeError
        assert str(info.value).endswith(message)

    def test_json_refuses_a_cyclic_or_shared_document(self):
        # both once read forever, or doubling per level, before a check
        cyclic = {"label": 1}
        cyclic["left"] = cyclic
        shared = {"label": 61}
        for v in range(60, 0, -1):
            shared = {"label": v, "left": shared, "right": shared}
        for doc, label in ((cyclic, 1), (shared, 2)):
            start = time.perf_counter()
            with pytest.raises(InvalidTreeError) as info:
                tree_from_json(doc)
            assert time.perf_counter() - start < 0.1
            assert str(info.value) == f"duplicate label {label}"

    def test_json_names_a_large_node_briefly(self):
        with pytest.raises(InvalidTreeError) as info:
            tree_from_json({"label": 1, "left": list(range(10_000))})
        assert len(str(info.value)) < 100

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
    # validate_tree names the first in walk order, the map readers the
    # one with the largest label, and omega the first it reaches
    counts = [0, 0]
    for n in range(1, n_max + 1):
        for t in iter_family(tag, n):
            for bad in _tree_faults(t):
                failed = _failing_nodes(bad)
                text = tree_to_literal(bad)
                from_omega = _message(lambda: omega(bad))
                assert from_omega in {message for _, message in failed}, text
                from_json = _message(lambda: tree_from_json(tree_to_json(bad)))
                from_literal = _message(lambda: tree_from_literal(text))
                if "(," in text:
                    # a lone right child, which the grammar refuses
                    assert from_literal == "expected a label, got ','", text
                    from_literal = from_json
                assert _message(lambda: validate_tree(bad)) == failed[0][1]
                assert from_json == from_literal == max(failed)[1], text
                if len(failed) == 1:
                    assert from_omega == failed[0][1], text
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


def test_omega_checks_the_tree_it_reads(monkeypatch):
    calls = []

    def counted(labels):
        calls.append(1)
        return _check_distinct(labels)

    monkeypatch.setattr(core, "_check_distinct", counted)
    for tag, n_max in (("tree", 7), ("tree-b", 4)):
        for n in range(1, n_max + 1):
            for t in iter_family(tag, n):
                assert omega(t) == tuple(reversed(inorder(t)))
    assert not calls
    with pytest.raises(InvalidTreeError, match="child 1 must be greater than parent 2"):
        omega(Tree(2, Tree(1)))
    with pytest.raises(InvalidTreeError, match="duplicate label 2"):
        omega(Tree(1, Tree(2), Tree(2)))
    # a repeated label is named as validate_tree names it, whether or not
    # a node fails too
    calls.clear()
    named = 0
    for n in range(2, 6):
        for t in iter_family("tree", n):
            nodes = list(_walk(t))
            for a, b in itertools.permutations(nodes, 2):
                bad = _rebuilt(t, b, lambda c: Tree(a.label, c.left, c.right))
                assert _message(lambda: omega(bad)) == f"duplicate label {a.label}"
                named += 1
    assert named == len(calls) == 394


@pytest.mark.parametrize(
    "tag, n_max, count",
    [("tree", 5, 671), ("tree-b", 4, 1994)],
    ids=["unsigned", "signed"],
)
def test_every_tree_reader_names_what_validate_tree_names(tag, n_max, count):
    # one checked walk reads a Tree for all four, so on every single fault
    # and every copied label each names what the node oracle names
    faulty = 0
    for n in range(1, n_max + 1):
        for t in iter_family(tag, n):
            for bad in [*_tree_faults(t), *_label_copies(t)]:
                with pytest.raises(InvalidTreeError) as oracle:
                    _node_by_node(bad)
                for read in (validate_tree, omega, psi_inv, chuang_phi):
                    with pytest.raises(InvalidTreeError) as got:
                        read(bad)
                    assert got.type is InvalidTreeError
                    assert str(got.value) == str(oracle.value), (
                        read.__name__,
                        tree_to_literal(bad),
                    )
                faulty += 1
    assert faulty == count


def _shared_chain(depth: int) -> Tree:
    # each node's two children are one subtree object
    t = Tree(depth + 1)
    for v in range(depth, 0, -1):
        t = Tree(v, t, t)
    return t


def _shared_grandchild(depth: int) -> Tree:
    # each node's two children have one subtree object as their child
    top = 3 * depth + 1
    t = Tree(top)
    for v in range(top - 3, 0, -3):
        t = Tree(v, Tree(v + 1, t), Tree(v + 2, t))
    return t


@pytest.mark.parametrize(
    "make, repeat",
    [
        (_shared_chain, lambda depth: depth + 1),
        (_shared_grandchild, lambda depth: 3 * depth + 1),
    ],
    ids=["shared-children", "shared-grandchild"],
)
def test_tree_readers_refuse_shared_subtrees_in_linear_time(make, repeat):
    # the paths to the deepest node double with each level, and every
    # path was once walked before a repeated label was named
    for depth in (10, 60):
        t = make(depth)
        if depth == 10:
            with pytest.raises(InvalidTreeError) as oracle:
                _node_by_node(t)
            assert str(oracle.value) == f"duplicate label {repeat(depth)}"
        for read in (validate_tree, omega, psi_inv, chuang_phi):
            start = time.perf_counter()
            with pytest.raises(InvalidTreeError) as info:
                read(t)
            assert time.perf_counter() - start < 0.1
            assert str(info.value) == f"duplicate label {repeat(depth)}", read.__name__


def _shared_after_distinct(depth: int) -> Tree:
    # inorder reads 200 distinct labels, and passes its first repeat
    # test, before it reaches a shared chain
    left = None
    for v in range(200, 1, -1):
        left = Tree(v, left)
    shared = Tree(depth + 201)
    for v in range(depth + 200, 200, -1):
        shared = Tree(v, shared, shared)
    return Tree(1, left, shared)


@pytest.mark.parametrize(
    "make, repeat",
    [
        (_shared_chain, lambda depth: depth + 1),
        (_shared_grandchild, lambda depth: 3 * depth + 1),
        (_shared_after_distinct, lambda depth: depth + 201),
    ],
    ids=["shared-children", "shared-grandchild", "shared-after-distinct"],
)
def test_plain_walk_readers_refuse_shared_subtrees_in_linear_time(make, repeat):
    # _walk refuses a node object it reaches twice, and tree_to_json does
    # so in the same order, so none of these walks every path to a shared
    # subtree; each reads the whole tree.  inorder, and through it hash,
    # repr and ==, tests for a shared subtree once its word is past 64
    # entries, and names it the same
    t = make(60)
    readers = (
        tree_labels,
        tree_to_json,
        tree_spans_range,
        lambda t: order_relabel(t, (1,)),
        lambda t: maximal_path_from(t, 0),
        hash,
        repr,
        lambda t: t == make(60),
    )
    for read in readers:
        start = time.perf_counter()
        with pytest.raises(InvalidTreeError) as info:
            read(t)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == f"duplicate label {repeat(60)}"


def test_tree_methods_read_trees_that_share_no_subtree_whole():
    # witnesses print invalid trees: labels copied into distinct node
    # objects are read whole, past the sharing test at 64 steps
    def copied(depth):
        if depth == 0:
            return Tree(1)
        return Tree(1, copied(depth - 1), copied(depth - 1))

    def literal(depth):
        return "1" if depth == 0 else f"1({literal(depth - 1)},{literal(depth - 1)})"

    t, u = copied(7), copied(7)  # 255 nodes, every label 1
    assert repr(t) == f"Tree[{literal(7)}]"
    assert t == u and hash(t) == hash(u) == hash((1,) * 255)
    assert t != copied(6)
    # a shared tree too small to be tested is read path by path
    small = _shared_chain(3)

    def unfold(v):
        return Tree(4) if v == 4 else Tree(v, unfold(v + 1), unfold(v + 1))

    unfolded = unfold(1)
    assert repr(small) == repr(unfolded)
    assert small == unfolded and hash(small) == hash(unfolded)


def test_parser_matches_the_index_loop_oracle_on_random_text():
    rng = random.Random(20)
    alphabet = ["1", "2", "3", "4", "5", "-1", "0", "(", ")", ",", " "]
    texts = [
        "".join(rng.choices(alphabet, k=rng.randint(1, 14))) for _ in range(100_000)
    ]
    texts += [tree_to_literal(t) for n in range(1, 6) for t in iter_family("tree", n)]
    parsed = 0
    for text in texts:
        got = outcome(tree_from_literal, text)
        assert got == outcome(_parse_by_index, text), text
        parsed += isinstance(got, Tree)
    assert parsed > 1_000


def test_hash_agrees_with_equality_on_every_construction():
    trees = [t for n in range(1, 7) for t in iter_family("tree", n)]
    trees += [t for n in range(1, 5) for t in iter_family("tree-b", n)]
    for t in trees:
        copies = [
            _rebuilt(t, t, lambda c: Tree(c.label, c.left, c.right)),
            _link_tree(*_tree_maps(t)),
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

    # each once collapsed onto one target label
    @pytest.mark.parametrize(
        "obj, target",
        [
            pytest.param((1, 1), (1, 2), id="word"),
            pytest.param(Tree(1, Tree(2), Tree(2)), (1, 2, 3), id="tree"),
        ],
    )
    def test_repeated_labels(self, obj, target):
        with pytest.raises(ValueError) as info:
            order_relabel(obj, target)
        assert str(info.value) == "the object's labels must be pairwise distinct"

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
        for tag, n_max in (("tree", 6), ("tree-b", 3)):
            for n in range(1, n_max + 1):
                for t in iter_family(tag, n):
                    doc = tree_to_json(t)
                    assert json.dumps(doc, indent=2) == json.dumps(
                        _json_by_recursion(t), indent=2
                    )
                    assert tree_from_json(json.loads(json.dumps(doc))) == t

    def test_literal_matches_recursive_rendering(self):
        for n in range(1, 7):
            for t in iter_family("tree", n):
                assert tree_to_literal(t) == _literal_by_recursion(t)
        for n in range(1, 4):
            for t in iter_family("tree-b", n):
                assert tree_to_literal(t) == _literal_by_recursion(t)

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
