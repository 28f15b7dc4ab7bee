import copy
import dataclasses
import hashlib
import pickle
import random
from functools import lru_cache

import pytest

from zigzag import bijections
from zigzag.bijections import (
    AlgoCStep,
    _link_tree,
    chuang_phi,
    omega,
    omega_inv,
    omega_signed,
    phi,
    phi_inv,
    phi_signed,
    psi,
    psi_b,
    psi_c,
    psi_inv,
    psi_signed,
)
from zigzag.cli import dispatch
from zigzag.core import (
    InvalidTreeError,
    Tree,
    Word,
    _linked_inorder,
    inorder,
    minimal_path,
    node,
    order_relabel,
    perm_from_text,
    perm_to_text,
    pleaf,
    rtl_min_positions,
    tree_from_literal,
    tree_labels,
    tree_to_literal,
    validate_tree,
)
from zigzag.families import is_alternating, iter_family
from zigzag.triangles import entringer_table

RUNNING_TREE = tree_from_literal("1(2(3(7,9)),4(5,6(8)))")
SIGNED_TREE = tree_from_literal("-8(-4(-3(6,9)),-1(2,5(7)))")

# rows: alternating, tree, Andre, Simsun images under psi, omega, phi
CHAIN_TABLE = [
    ("2143", "1(2,3(4))", "3412", "231"),
    ("3241", "1(2(3,4))", "1423", "132"),
    ("3142", "1(2(3),4)", "4123", "312"),
    ("4231", "1(2(3(4)))", "1234", "123"),
    ("4132", "1(2(4),3)", "3124", "213"),
]

# rows: signed alternating, signed tree, reverse inorder reading
SIGNED_CHAIN_TABLE = [
    ("1 -2 3", "-2(1,3)", "3 -2 1"),
    ("1 -3 2", "-3(1,2)", "2 -3 1"),
    ("1 -3 -2", "-3(-2(1))", "-3 -2 1"),
    ("213", "1(2,3)", "312"),
    ("2 -1 3", "-1(2,3)", "3 -1 2"),
    ("2 -3 1", "-3(1(2))", "-3 1 2"),
    ("2 -3 -1", "-3(-1(2))", "-3 -1 2"),
    ("312", "1(2(3))", "123"),
    ("3 -1 2", "-1(2(3))", "-1 2 3"),
    ("3 -2 1", "-2(1(3))", "-2 1 3"),
    ("3 -2 -1", "-2(-1(3))", "-2 -1 3"),
]

# rows: forced-sign Andre word of [4], its signed Simsun image
SIGNED_SHRINK_TABLE = [
    ("1234", "123"),
    ("3124", "213"),
    ("-3 1 2 4", "-2 1 3"),
    ("1423", "132"),
    ("1 -4 2 3", "1 -3 2"),
    ("4123", "312"),
    ("-4 1 2 3", "-3 1 2"),
    ("3412", "231"),
    ("-3 4 1 2", "-2 3 1"),
    ("3 -4 1 2", "2 -3 1"),
    ("-3 -4 1 2", "-2 -3 1"),
]


class TestOmega:
    def test_running_example(self):
        assert omega(RUNNING_TREE) == perm_from_text("684512937")

    def test_single_node(self):
        assert omega(tree_from_literal("1")) == (1,)

    def test_small(self):
        assert omega(tree_from_literal("1(2,3(4))")) == perm_from_text("3412")

    def test_inverse_running_example(self):
        assert omega_inv(perm_from_text("684512937")) == RUNNING_TREE

    def test_inverse_of_identity_permutation_is_the_chain(self):
        assert tree_to_literal(omega_inv((1, 2, 3, 4))) == "1(2(3(4)))"

    def test_inverse_single(self):
        assert omega_inv((1,)) == tree_from_literal("1")

    def test_inverse_rejects_non_andre(self):
        with pytest.raises(ValueError):
            omega_inv(perm_from_text("4351 2".replace(" ", "")))

    def test_suffix_minima_are_the_spine_exhaustive(self):
        # the identity count_hetyei_fast rests on, from the trees themselves
        for n in range(1, 9):
            for t in iter_family("tree", n):
                w = omega(t)
                assert w[-1] == pleaf(t)
                assert len(rtl_min_positions(w)) == len(minimal_path(t)), t


class TestPhi:
    def test_running_example(self):
        assert phi(perm_from_text("684512937")) == perm_from_text("57341286")

    def test_small(self):
        assert phi(perm_from_text("3412")) == perm_from_text("231")

    def test_singleton_gives_empty(self):
        assert phi((1,)) == ()

    def test_inverse_running_example(self):
        assert phi_inv(perm_from_text("57341286")) == perm_from_text("684512937")

    def test_inverse_small(self):
        assert phi_inv(perm_from_text("231")) == perm_from_text("3412")

    def test_inverse_of_empty(self):
        assert phi_inv(()) == (1,)

    def test_round_trip_exhaustive(self):
        for n in range(1, 7):
            for p in iter_family("andre", n):
                assert phi_inv(phi(p)) == p

    def test_precondition(self):
        with pytest.raises(ValueError):
            phi((4, 3, 5, 1, 2))
        with pytest.raises(ValueError):
            phi_inv((3, 2, 1))


def _shrink_by_skip(p: Word) -> Word:
    """``bijections._shrink`` as it stood: the entries off the suffix
    minima first, then the suffix minima."""
    n = len(p)
    if n == 1:
        return ()
    absw = tuple(abs(v) for v in p)
    mins = rtl_min_positions(absw)
    out: list[int] = [0] * (n - 1)
    skip = set(mins)
    for i in range(1, n):
        if i not in skip:
            v = p[i - 1]
            out[i - 1] = v - 1 if v > 0 else v + 1
    for t in range(1, len(mins)):
        out[mins[t - 1] - 1] = absw[mins[t] - 1] - 1
    return tuple(out)


def _phi_inv_by_skip(s: Word) -> Word:
    """The body of ``phi_inv`` as it stood, for a nonempty Simsun word."""
    n = len(s) + 1
    mins = rtl_min_positions(s)
    out: list[int] = [0] * n
    skip = set(mins)
    for i in range(1, n):
        if i not in skip:
            out[i - 1] = s[i - 1] + 1
    out[mins[0] - 1] = 1
    for t in range(1, len(mins)):
        out[mins[t] - 1] = s[mins[t - 1] - 1] + 1
    out[n - 1] = s[mins[-1] - 1] + 1
    return tuple(out)


class TestShrinkOracle:
    """The one-pass shrink kernels agree with the skip-set oracles."""

    def test_every_small_word(self):
        andre = [p for n in range(1, 10) for p in iter_family("andre", n)]
        simsun = [s for n in range(1, 10) for s in iter_family("simsun", n)]
        forced = [p for n in range(1, 7) for p in iter_family("andre-h", n)]
        for p in andre:
            assert phi(p) == _shrink_by_skip(p), p
        for p in forced:
            assert phi_signed(p) == _shrink_by_skip(p), p
        for s in simsun:
            assert phi_inv(s) == _phi_inv_by_skip(s), s
        assert len(andre) + len(simsun) + len(forced) == 70_312

    @pytest.mark.parametrize("n", [40, 200])
    def test_sampled_words(self, n):
        for seed in range(50):
            p = omega(_random_tree(n, seed))
            s = _shrink_by_skip(p)
            assert phi(p) == s
            assert phi_inv(s) == _phi_inv_by_skip(s) == p


class TestPsi:
    def test_running_example(self):
        tree, trace = psi_c(perm_from_text("739154826"))
        assert tree == RUNNING_TREE
        assert pleaf(tree) == 7

    def test_two_element(self):
        assert psi((2, 1)) == tree_from_literal("1(2)")
        assert psi((1,)) == tree_from_literal("1")

    def test_grafting_trace(self):
        _, trace = psi_c(perm_from_text("748591623"))
        got = [(s.index, s.a, s.b, s.case) for s in trace.steps]
        assert got == [
            (4, 3, 3, "C1"),
            (3, 2, 2, "C1"),
            (2, 9, None, "C2"),
            (1, 5, 5, "C1"),
        ]

    def test_recorded_steps_behave_like_constructed_ones(self):
        _, trace = psi_c(perm_from_text("748591623"))
        built = AlgoCStep(index=2, a=9, b=None, case="C2")
        step = trace.steps[2]
        assert type(step) is AlgoCStep
        assert step == built and hash(step) == hash(built)
        assert repr(step) == "AlgoCStep(index=2, a=9, b=None, case='C2')"
        for round_trip in (copy.copy, copy.deepcopy, dataclasses.replace):
            assert round_trip(step) == built
        assert pickle.loads(pickle.dumps(step)) == built
        assert dataclasses.replace(step, b=4) == AlgoCStep(2, 9, 4, "C2")
        assert step != AlgoCStep(2, 9, 9, "C2")
        for name in ("index", "a", "b", "case"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(step, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(step, name)
        assert step == built

    def test_trace_lines(self):
        _, trace = psi_c(perm_from_text("748591623"))
        assert trace.lines()[2] == "i=2 a=9 b=- case=C2"

    def test_pleaf_statistic_exhaustive(self):
        for n in range(1, 7):
            for p in iter_family("alt", n):
                assert pleaf(psi(p)) == p[0]

    def test_recursive_version_examples(self):
        assert psi_b(perm_from_text("2143")) == tree_from_literal("1(2,3(4))")
        assert psi_b(perm_from_text("4231")) == tree_from_literal("1(2(3(4)))")

    def test_two_algorithms_agree_exhaustively(self):
        for n in range(1, 8):
            for p in iter_family("alt", n):
                assert psi_b(p) == psi_c(p)[0]

    def test_inverse(self):
        assert psi_inv(RUNNING_TREE) == perm_from_text("739154826")
        assert psi_inv(tree_from_literal("1(2)")) == (2, 1)

    def test_inverse_round_trip_exhaustive(self):
        for n in range(1, 10):
            for p in iter_family("alt", n):
                assert psi_inv(psi(p)) == p

    def test_inverse_runs_past_the_enumeration_guard(self):
        # psi_inv enumerates nothing, so n = 13 needs no override
        chain = tree_from_literal("1(2(3(4(5(6(7(8(9(10(11(12(13))))))))))))")
        assert psi_inv(chain) == (13, 11, 12, 9, 10, 7, 8, 5, 6, 3, 4, 1, 2)

    def test_inverse_matches_the_table_oracle_through_n8(self):
        for n in range(1, 9):
            table = _psi_table(n)
            trees = list(iter_family("tree", n))
            assert len(trees) == len(table)
            for t in trees:
                assert psi_inv(t) == table[t]

    @pytest.mark.parametrize("n, seed", [(60, 5), (200, 6)])
    def test_inverse_of_large_words_grafts_nothing(self, monkeypatch, n, seed):
        p = _sample_alternating(n, seed)
        t = psi(p)

        def refuse(*args, **kwargs):
            raise AssertionError("psi_inv must not go through the grafting")

        for name in ("psi_c", "_graft_maps"):
            monkeypatch.setattr(bijections, name, refuse)
        assert psi_inv(t) == p

    @pytest.mark.parametrize("n, seed", [(40, 1), (401, 2), (1000, 3)])
    def test_psi_undoes_the_inverse_on_random_trees(self, n, seed):
        t = _random_tree(n, seed)
        assert len(tree_labels(t)) == n
        assert psi(psi_inv(t)) == t

    def test_precondition(self):
        with pytest.raises(ValueError):
            psi_c((1, 2, 3))
        with pytest.raises(ValueError):
            psi_b((1, 2, 3))
        with pytest.raises(ValueError):
            psi((1, 2, 3))

    def test_trees_and_traces_unchanged_through_n8(self):
        # pinned from psi_c as it stood when it re-validated every tree
        # after linking and psi went through it
        digest = hashlib.sha256()
        count = 0
        for n in range(1, 9):
            for p in iter_family("alt", n):
                t, trace = psi_c(p)
                assert psi(p) == t
                line = f"{tree_to_literal(t)};{'|'.join(trace.lines())}\n"
                digest.update(line.encode())
                count += 1
        assert count == 1743
        assert digest.hexdigest() == (
            "9bd291e7a522fe6ab3431f4b7c7b260b4b51eabececcad40828f95228898d601"
        )

    def test_maps_check_trees_while_linking(self, monkeypatch):
        expected = [psi_c(p)[0] for p in iter_family("alt", 6)]

        def refuse(t):
            raise AssertionError("the tree was walked again after linking")

        monkeypatch.setattr(bijections, "_checked_nodes", refuse)
        assert [psi_c(p)[0] for p in iter_family("alt", 6)] == expected
        assert [psi(p) for p in iter_family("alt", 6)] == expected
        assert [psi_b(p) for p in iter_family("alt", 6)] == expected
        assert omega_inv(perm_from_text("684512937")) == RUNNING_TREE
        assert psi_signed(perm_from_text("6 -3 9 -8 2 -1 7 -4 5")) == SIGNED_TREE


class TestLinkTree:
    """``_link_tree`` checks every tree invariant as it links."""

    def test_links_valid_maps(self):
        assert _link_tree(1, {1: 2, 2: 3}, {1: 4}) == tree_from_literal("1(2(3),4)")
        assert _link_tree(-2, {-2: 1}, {-2: 3}) == tree_from_literal("-2(1,3)")
        assert _link_tree(5, {}, {}) == Tree(5)

    @pytest.mark.parametrize(
        "root, left, right",
        [
            pytest.param(1, {}, {1: 2}, id="right-child-without-left"),
            pytest.param(2, {2: 1}, {}, id="left-child-below-parent"),
            pytest.param(2, {2: 3}, {2: 1}, id="right-child-below-parent"),
            pytest.param(2, {2: 2}, {}, id="child-equal-to-parent"),
            pytest.param(1, {1: 3}, {1: 2}, id="children-out-of-order"),
            pytest.param(1, {1: 2}, {1: 2}, id="one-child-twice"),
            pytest.param(1, {1: 2, 2: 4, 3: 4}, {1: 3}, id="child-of-two-parents"),
            pytest.param(1, {1: 2, 3: 4}, {}, id="two-trees"),
            pytest.param(2, {1: 2}, {}, id="root-has-a-parent"),
            pytest.param(2, {2: 3}, {1: 4}, id="edge-from-a-missing-node"),
            pytest.param(1, {1: 3, 3: 4}, {1: 5, 2: 6}, id="dangling-subtree"),
            pytest.param(0, {0: 1}, {}, id="label-zero-at-root"),
            pytest.param(-1, {-1: 0}, {}, id="label-zero-as-child"),
        ],
    )
    def test_rejects_malformed_maps(self, root, left, right):
        with pytest.raises(InvalidTreeError) as linked:
            _link_tree(root, left, right)
        # the word reader checks the maps the same way
        with pytest.raises(InvalidTreeError) as read:
            _linked_inorder(root, left, right)
        assert str(read.value) == str(linked.value)

    @pytest.mark.parametrize(
        "tag, n_max", [("tree", 5), ("tree-b", 4)], ids=["unsigned", "signed"]
    )
    def test_readers_agree_on_every_single_fault(self, tag, n_max):
        # valid maps give the tree and its word, and both readers name
        # the same first fault of every map with one fault
        faults = 0
        for n in range(1, n_max + 1):
            for t in iter_family(tag, n):
                maps = _tree_maps(t)
                assert _link_tree(*maps) == t
                assert _linked_inorder(*maps) == inorder(t)
                for root, left, right in _single_faults(*maps):
                    with pytest.raises(InvalidTreeError) as linked:
                        _link_tree(root, left, right)
                    with pytest.raises(InvalidTreeError) as read:
                        _linked_inorder(root, left, right)
                    assert str(read.value) == str(linked.value), (root, left, right)
                    faults += 1
        assert faults > 100

    def test_word_reader_reads_the_linked_inorder(self):
        def read(_i, _a, _b, _case, root, left, right):
            # each state is read before the grafting moves on
            word = _linked_inorder(root, left, right)
            assert word == inorder(_link_tree(root, left, right))

        for n in range(1, 8):
            for p in iter_family("alt", n):
                bijections._graft_maps(p, read)
                for maps in (bijections._graft_maps(p), bijections._replay_maps(p)):
                    assert _linked_inorder(*maps) == inorder(_link_tree(*maps))
        for p in iter_family("alt-b", 4):
            maps = bijections._graft_maps(p)
            assert _linked_inorder(*maps) == inorder(psi_signed(p))


def _tree_maps(t: Tree):
    left, right, stack = {}, {}, [t]
    while stack:
        cur = stack.pop()
        for kids, child in ((left, cur.left), (right, cur.right)):
            if child is not None:
                kids[cur.label] = child.label
                stack.append(child)
    return t.label, left, right


def _single_faults(root, left, right):
    """The maps with one fault each: a label set to 0, a right child
    without a left one, swapped children, a child linked a second time,
    and a left or right edge out of a node not in the tree."""
    labels = sorted({root, *left.values(), *right.values()})
    for v in labels:
        to = {v: 0}
        yield (
            to.get(root, root),
            {to.get(u, u): to.get(c, c) for u, c in left.items()},
            {to.get(u, u): to.get(c, c) for u, c in right.items()},
        )
    for v, c in left.items():
        yield root, {u: d for u, d in left.items() if u != v}, {v: c, **right}
    for v, c in right.items():
        yield root, {**left, v: c}, {**right, v: left[v]}
    for v in labels:
        for c in labels:
            if v not in left:
                yield root, {**left, v: c}, right
            elif v not in right:
                yield root, left, {**right, v: c}
    missing = max(map(abs, labels)) + 1
    yield root, {**left, missing: missing + 1}, right
    yield root, left, {**right, missing: missing + 1}
    yield root, {**left, missing: labels[-1]}, right


# The recursive psi_b that the iterative one replaced, kept as its oracle.


def _subtree(t: Tree, label: int) -> Tree | None:
    if t.label == label:
        return t
    for child in (t.left, t.right):
        if child is not None:
            found = _subtree(child, label)
            if found is not None:
                return found
    return None


def _parent_label(t: Tree, label: int) -> int | None:
    for child in (t.left, t.right):
        if child is not None:
            if child.label == label:
                return t.label
            found = _parent_label(child, label)
            if found is not None:
                return found
    return None


def _replace_subtree(t: Tree, at: int, new: Tree) -> Tree:
    if t.label == at:
        return new
    kids = [
        _replace_subtree(c, at, new) if c is not None and at in tree_labels(c) else c
        for c in (t.left, t.right)
    ]
    return node(t.label, *kids)


def _swap_labels(t: Tree, u: int, v: int) -> Tree:
    mapping = {u: v, v: u}

    def rebuild(cur: Tree) -> Tree:
        kids = [rebuild(c) for c in (cur.left, cur.right) if c is not None]
        return node(mapping.get(cur.label, cur.label), *kids)

    return rebuild(t)


def _psi_b(p: Word) -> Tree:
    n = len(p)
    if n == 1:
        return Tree(1)
    if n == 2:
        return Tree(1, Tree(2))
    k = p[0]
    if p[1] == k - 1:
        reduced = order_relabel(p[2:], range(1, n - 1))
        small = _psi_b(reduced)
        target = [*range(1, k - 1), *range(k + 1, n + 1)]
        grown = order_relabel(small, target)
        m = min(v for v in minimal_path(grown) if v > k)
        spliced = node(k - 1, Tree(k), _subtree(grown, m))
        if m == grown.label:
            return spliced
        return _replace_subtree(grown, m, spliced)
    swapped = tuple(k if v == k - 1 else k - 1 if v == k else v for v in p)
    t = _psi_b(swapped)
    if _parent_label(t, k) == _parent_label(t, k - 1):
        ell = _parent_label(t, k)
        knode = _subtree(t, k)
        rebuilt = node(ell, node(k - 1, Tree(k), knode.right), knode.left)
        return _replace_subtree(t, ell, rebuilt)
    return _swap_labels(t, k - 1, k)


def _psi_table(n: int) -> dict[Tree, Word]:
    """psi_inv's oracle: every alternating permutation of [n] by its tree,
    so an inverse is a lookup."""
    return {psi(p): p for p in iter_family("alt", n, force=True)}


@lru_cache(maxsize=None)
def _entringer(n_max: int):
    return entringer_table(n_max)


def _sample_alternating(n: int, seed: int) -> tuple[int, ...]:
    """A uniformly random down-up permutation of [n], one entry at a time.

    A down-up word of size s whose first entry has rank k continues,
    after complementing the rest, as a down-up word of size s - 1 whose
    first entry has rank at least s + 1 - k.  Each entry is drawn over
    its allowed ranks with weight E(s, k), so every word is equally
    likely.
    """
    table = _entringer(n)
    rng = random.Random(seed)
    remaining = list(range(1, n + 1))
    flipped = False
    lo = 1
    out = []
    for s in range(n, 0, -1):
        ks = range(lo, s + 1)
        x = rng.randrange(sum(table.value(s, k) for k in ks))
        for k in ks:
            x -= table.value(s, k)
            if x < 0:
                break
        out.append(remaining.pop(s - k if flipped else k - 1))
        flipped = not flipped
        lo = s + 1 - k
    return tuple(out)


def _random_tree(n: int, seed: int) -> Tree:
    """A random increasing 1-2 tree on [n], grown one label at a time.

    Each new largest label hangs under a free slot chosen at random: a
    leaf's left slot or a unary node's right one, so no Entringer table
    is needed at any n.
    """
    rng = random.Random(seed)
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    slots = [(left, 1)]
    for v in range(2, n + 1):
        kids, u = slots.pop(rng.randrange(len(slots)))
        kids[u] = v
        if kids is left:
            slots.append((right, u))
        slots.append((left, v))
    return _link_tree(1, left, right)


# The kernels as they stood before the first-above walk and the node-id
# replay, kept as their oracles.


def _graft_maps_by_path(p: Word, visit=None):
    """The grafting with the whole minimal path listed at every step."""
    n = len(p)
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    root = p[-1]
    if n % 2 == 0:
        left[root] = p[-2]
    for i in range((n - 1) // 2, 0, -1):
        x, y = p[2 * i - 2], p[2 * i - 1]
        path = [root]
        while path[-1] in left:
            path.append(left[path[-1]])
        a = min(v for v in path if v > y)
        parent = None if a == root else path[path.index(a) - 1]
        if a < x:
            chain = [a]
            while chain[-1] in right and right[chain[-1]] < x:
                chain.append(right[chain[-1]])
            b = chain[-1]
            hang = [left.get(v) for v in chain] + [right.get(b)]
            spine = [y, *chain, x]
            for u, v in zip(spine, spine[1:]):
                left[u] = v
            left.pop(x, None)
            right.pop(x, None)
            for v, s in zip(spine, hang):
                if s is None:
                    right.pop(v, None)
                else:
                    right[v] = s
            case, brec = "C1", b
        else:
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


def _graft_maps_by_lists(p: Word, visit=None):
    """The grafting whose C1 step lists the right chain, the subtrees
    hanging off it and the new spine, then relinks them."""
    n = len(p)
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    root = p[-1]
    if n % 2 == 0:
        left[root] = p[-2]
    for i in range((n - 1) // 2, 0, -1):
        x, y = p[2 * i - 2], p[2 * i - 1]
        a, parent = root, None
        while a < y:
            parent, a = a, left[a]
        if a < x:
            chain = [a]
            while chain[-1] in right and right[chain[-1]] < x:
                chain.append(right[chain[-1]])
            b = chain[-1]
            hang = [left.get(v) for v in chain] + [right.get(b)]
            spine = [y, *chain, x]
            for u, v in zip(spine, spine[1:]):
                left[u] = v
            for v, s in zip(spine, hang):
                if s is None:
                    right.pop(v, None)
                else:
                    right[v] = s
            case, brec = "C1", b
        else:
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


def _graft_states(graft, p: Word):
    """The final maps of one grafting run, and after every step the
    ``AlgoCStep`` that ``psi_c`` records beside a copy of the maps."""
    states = []

    def visit(i, a, b, case, root, left, right):
        states.append((AlgoCStep(i, a, b, case), root, dict(left), dict(right)))

    return graft(p, visit), states


def _exchange(left, right, parent, a: int, b: int) -> None:
    # exchange the labels a and b, neither of them the root; a is a leaf,
    # so only b's child links move
    pa, pb = parent[a], parent[b]
    for u, old, new in ((pa, a, b), (pb, b, a)):
        kids = left if left[u] == old else right
        kids[u] = new
    parent[a], parent[b] = pb, pa
    for kids in (left, right):
        if b in kids:
            c = kids[a] = kids.pop(b)
            parent[c] = a


def _replay_maps_by_label(p: Word):
    """psi_b's replay on label-keyed maps, exchanging labels by moving
    child links with ``_exchange``."""
    n = len(p)
    word = list(p)
    at = {v: i for i, v in enumerate(word)}
    below = list(range(-1, n + 1))
    above = list(range(1, n + 3))
    steps = []
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
    root = word[-1]
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    parent: dict[int, int] = {}
    if n - s == 2:
        left[root], parent[word[s]] = word[s], root
    for strip, j, k in reversed(steps):
        if strip:
            m = root
            while m < k:
                m = left[m]
            up = parent.get(m)
            left[j], right[j] = k, m
            parent[k] = parent[m] = j
            if up is None:
                root = j
            else:
                left[up], parent[j] = j, up
        elif parent[j] == parent[k]:
            ell = parent[j]
            kl, kr = left.pop(k, None), right.pop(k, None)
            left[j], parent[k] = k, j
            if kr is not None:
                right[j], parent[kr] = kr, j
            if kl is None:
                del right[ell]
            else:
                right[ell], parent[kl] = kl, ell
        else:
            _exchange(left, right, parent, j, k)
    return root, left, right


def _graft_run(graft, p: Word):
    """The final maps, and every step's decisions and root, of one
    grafting run."""
    steps = []

    def visit(i, a, b, case, root, _left, _right):
        steps.append((i, a, b, case, root))

    return graft(p, visit), steps


class TestKernelOracles:
    def test_grafting_matches_the_path_list_oracle_exhaustively(self):
        words = [p for n in range(1, 11) for p in iter_family("alt", n)]
        words += [p for n in range(1, 7) for p in iter_family("alt-b", n)]
        for p in words:
            assert _graft_run(bijections._graft_maps, p) == _graft_run(
                _graft_maps_by_path, p
            ), p

    def test_grafting_matches_the_list_oracle_after_every_step(self):
        words = [p for n in range(1, 10) for p in iter_family("alt", n)]
        words += [p for n in range(1, 7) for p in iter_family("alt-b", n)]
        words += [_sample_alternating(n, seed) for n in (40, 400) for seed in range(20)]
        c1 = 0
        for p in words:
            expected = _graft_states(_graft_maps_by_lists, p)
            assert _graft_states(bijections._graft_maps, p) == expected, p
            c1 += sum(step.case == "C1" for step, *_maps in expected[1])
        assert c1 > 10_000

    def test_replay_matches_the_label_oracle_exhaustively(self):
        for n in range(1, 11):
            for p in iter_family("alt", n):
                assert bijections._replay_maps(p) == _replay_maps_by_label(p), p

    @pytest.mark.parametrize("n", [40, 41, 200, 401])
    def test_kernels_match_their_oracles_on_sampled_words(self, n):
        for seed in range(3):
            p = _sample_alternating(n, seed)
            assert _graft_run(bijections._graft_maps, p) == _graft_run(
                _graft_maps_by_path, p
            )
            assert bijections._replay_maps(p) == _replay_maps_by_label(p)

    def test_psi_b_and_psi_inv_at_n_400(self):
        p = _sample_alternating(400, 11)
        t = psi_b(p)
        assert t == psi_c(p)[0]
        assert psi_inv(t) == p


class TestPsiB:
    def test_matches_recursive_oracle_exhaustively(self):
        for n in range(1, 10):
            for p in iter_family("alt", n):
                assert psi_b(p) == _psi_b(p)

    def test_does_not_go_through_grafting(self, monkeypatch):
        perms = [p for n in range(1, 8) for p in iter_family("alt", n)]
        perms.append(_sample_alternating(60, seed=7))
        expected = [psi_c(p)[0] for p in perms]

        def refuse(*args, **kwargs):
            raise AssertionError("psi_b must not use the grafting construction")

        monkeypatch.setattr(bijections, "psi_c", refuse)
        monkeypatch.setattr(bijections, "_graft_maps", refuse)
        assert [psi_b(p) for p in perms] == expected

    def test_graft_states_keep_the_pleaf_sequence(self):
        for n in range(1, 8):
            for p in iter_family("alt", n):
                leaves = []

                def visit(i, _a, _b, _case, root, left, right):
                    state = bijections._link_tree(root, left, right)
                    validate_tree(state)
                    v = root
                    while v in left:
                        v = left[v]
                    assert v == pleaf(state)
                    leaves.append(v)

                bijections._graft_maps(p, visit)
                m = (n + 1) // 2
                assert leaves == [p[2 * i - 2] for i in range(m - 1, 0, -1)]

    def test_sampler_draws_alternating_words(self):
        seen = {_sample_alternating(5, seed) for seed in range(300)}
        assert seen == set(iter_family("alt", 5))
        assert is_alternating(_sample_alternating(200, seed=3))

    @pytest.mark.parametrize("n, seed", [(150, 1), (400, 2)])
    def test_large_random_inputs_match_psi_c(self, n, seed):
        p = _sample_alternating(n, seed)
        t = psi_b(p)
        assert t == psi_c(p)[0]
        assert pleaf(t) == p[0]

    def test_cli_map_psi_b_at_n_150(self, capsys):
        text = perm_to_text(_sample_alternating(150, seed=1))
        assert dispatch(["map", "psi-b", "--input", text]) == 0
        via_b = capsys.readouterr().out
        assert dispatch(["map", "psi", "--input", text]) == 0
        assert capsys.readouterr().out == via_b


class TestChainTables:
    def test_unsigned_chains(self):
        for alt, tree_lit, andre, simsun in CHAIN_TABLE:
            t = tree_from_literal(tree_lit)
            assert psi(perm_from_text(alt)) == t
            assert omega(t) == perm_from_text(andre)
            assert phi(perm_from_text(andre)) == perm_from_text(simsun)

    def test_signed_chains(self):
        for alt, tree_lit, andre in SIGNED_CHAIN_TABLE:
            t = tree_from_literal(tree_lit)
            assert psi_signed(perm_from_text(alt)) == t
            assert omega_signed(t) == perm_from_text(andre)

    def test_signed_shrink_column(self):
        for source, image in SIGNED_SHRINK_TABLE:
            assert phi_signed(perm_from_text(source)) == perm_from_text(image)


def _psi_signed_by_conjugation(p: Word) -> Tree:
    """psi_signed as first defined: relabel onto [n], graft, relabel back."""
    tree = psi_c(order_relabel(p, range(1, len(p) + 1)))[0]
    return order_relabel(tree, sorted(p))


class TestSignedMaps:
    def test_psi_signed_matches_conjugation_exhaustively(self):
        count = 0
        for n in range(1, 7):
            for p in iter_family("alt-b", n):
                assert psi_signed(p) == _psi_signed_by_conjugation(p), p
                count += 1
        assert count == 4518

    def test_psi_signed_grafts_without_the_unsigned_maps(self, monkeypatch):
        perms = [p for n in range(1, 6) for p in iter_family("alt-b", n)]
        expected = [_psi_signed_by_conjugation(p) for p in perms]

        def refuse(*args, **kwargs):
            raise AssertionError("psi_signed must graft the signed labels itself")

        monkeypatch.setattr(bijections, "psi_c", refuse)
        monkeypatch.setattr(bijections, "psi", refuse)
        assert [psi_signed(p) for p in perms] == expected

    def test_psi_signed_running_example(self):
        p = perm_from_text("6 -3 9 -8 2 -1 7 -4 5")
        assert psi_signed(p) == SIGNED_TREE

    def test_psi_signed_singleton(self):
        assert psi_signed((1,)) == tree_from_literal("1")
        assert psi_signed((-1,)) == tree_from_literal("-1")

    def test_omega_signed_running_example(self):
        assert omega_signed(SIGNED_TREE) == perm_from_text("5 7 -1 2 -8 -4 9 -3 6")

    def test_omega_signed_singleton(self):
        assert omega_signed(tree_from_literal("-1")) == (-1,)

    def test_phi_signed_singleton(self):
        assert phi_signed((1,)) == ()

    def test_phi_signed_statistic_exhaustive(self):
        for n in range(2, 6):
            for p in iter_family("andre-h", n):
                image = phi_signed(p)
                assert image[-1] == p[-1] - 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            psi_signed((1, 2))
        with pytest.raises(ValueError):
            phi_signed((-1, 2))


class TestDeepInputs:
    N = 3000
    CHAIN = "(".join(map(str, range(1, N + 1))) + ")" * (N - 1)
    IDENTITY = " ".join(map(str, range(1, N + 1)))

    def test_omega_inv_of_a_long_identity_is_the_chain(self):
        t = omega_inv(range(1, self.N + 1))
        assert minimal_path(t) == tuple(range(1, self.N + 1))

    def test_omega_inv_round_trip_on_a_deep_caterpillar(self):
        # 1(2,3(4,5(6,...))): each spine node has a leaf left, the rest right
        spine = range(1, self.N - 1, 2)
        t = _link_tree(1, {v: v + 1 for v in spine}, {v: v + 2 for v in spine})
        assert omega_inv(omega(t)) == t

    @pytest.mark.parametrize(
        "name, text, image",
        [
            pytest.param("omega", CHAIN, IDENTITY, id="omega"),
            pytest.param(
                "chuang-phi", CHAIN, " ".join(map(str, range(1, N))), id="chuang-phi"
            ),
            pytest.param("omega-inv", IDENTITY, CHAIN, id="omega-inv"),
        ],
    )
    def test_cli_maps_on_deep_inputs(self, name, text, image, capsys):
        assert dispatch(["map", name, "--input", text]) == 0
        assert capsys.readouterr().out == image + "\n"

    def test_cli_json_of_a_deep_tree_is_a_usage_error(self, capsys):
        argv = ["map", "omega-inv", "--input", self.IDENTITY, "--format", "json"]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: tree too deep for --format json; use --format text\n"
        )


class TestChuangPhi:
    def test_running_example(self):
        assert chuang_phi(RUNNING_TREE) == perm_from_text("57341286")

    def test_single_node(self):
        assert chuang_phi(tree_from_literal("1")) == ()

    def test_factorization_exhaustive(self):
        for n in range(1, 8):
            for t in iter_family("tree", n):
                assert chuang_phi(t) == phi(omega(t))

    @pytest.mark.parametrize(
        "t",
        [Tree(2, Tree(5)), Tree(1, Tree(3)), SIGNED_TREE, Tree(-1, Tree(1))],
        ids=["off-range", "gap", "signed", "signed-pair"],
    )
    def test_refuses_labels_other_than_1_to_n(self, t):
        # the rule and wording of psi_inv
        for refuse in (chuang_phi, psi_inv):
            with pytest.raises(ValueError) as info:
                refuse(t)
            assert str(info.value) == f"{refuse.__name__} expects a tree labeled by 1..n"

    def test_cli_keeps_its_own_label_message(self, capsys):
        assert dispatch(["map", "chuang-phi", "--input", "2(5)"]) == 2
        assert capsys.readouterr().err == (
            "error: chuang-phi expects labels exactly 1..2, got (2, 5)\n"
        )

    def test_peeling_builds_no_node(self, monkeypatch):
        trees = [t for n in range(1, 7) for t in iter_family("tree", n)]
        expected = [phi(omega(t)) for t in trees]

        def refuse(*args):
            raise AssertionError("chuang_phi built a node")

        monkeypatch.setattr(bijections, "Tree", refuse)
        assert [chuang_phi(t) for t in trees] == expected
