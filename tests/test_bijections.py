import copy
import dataclasses
import hashlib
import pickle

import pytest

from oracles import (
    _graft_maps_by_path, _linked_inorder_by_sorting, _phi_inv_by_skip, _psi_b,
    _psi_signed_by_conjugation, _psi_table, _random_tree, _replay_maps_by_label,
    _sample_alternating, _shrink_by_skip, _tree_maps,
)
from zigzag import bijections, core
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

        monkeypatch.setattr(bijections, "_checked_reverse_inorder", refuse)
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


class TestOneWalkReaders:
    """``_linked_inorder`` reads in one walk what the oracle below reads
    in two passes, and hands a fault to the namer of the maps."""

    @staticmethod
    def _trees():
        for tag, n_max in (("tree", 7), ("tree-b", 5)):
            for n in range(1, n_max + 1):
                yield from iter_family(tag, n)

    @staticmethod
    def _grafting_states():
        # every state of every grafting run, the final one included
        for tag, n_max in (("alt", 7), ("alt-b", 5)):
            for n in range(1, n_max + 1):
                for p in iter_family(tag, n):
                    final, states = _graft_states(bijections._graft_maps, p)
                    yield final
                    for _step, *maps in states:
                        yield maps

    def test_readers_match_their_oracles_on_every_tree(self):
        trees = 0
        for t in self._trees():
            maps = _tree_maps(t)
            assert _linked_inorder(*maps) == _linked_inorder_by_sorting(*maps)
            assert _linked_inorder(*maps) == inorder(t)
            trees += 1
        assert trees == 358 + 614

    def test_word_reader_matches_its_oracle_on_every_grafting_state(self):
        states = 0
        for maps in self._grafting_states():
            assert _linked_inorder(*maps) == _linked_inorder_by_sorting(*maps)
            states += 1
        assert states == 3069

    def test_valid_input_reaches_no_fault_path(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(core, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("_check_node", "_maps_fault", "_tree_fault", "_link_tree"):
            monkeypatch.setattr(core, name, counted(name))
        for t in self._trees():
            _linked_inorder(*_tree_maps(t))
            validate_tree(t)
        for maps in self._grafting_states():
            _linked_inorder(*maps)
        assert calls == []
        # a fault goes to the namer of its form, once, and no tree is built
        with pytest.raises(InvalidTreeError):
            _linked_inorder(1, {1: 2, 2: 1}, {})
        with pytest.raises(InvalidTreeError):
            psi_inv(Tree(2, Tree(1)))
        assert calls == ["_maps_fault", "_check_node", "_tree_fault", "_check_node"]

    @pytest.mark.parametrize(
        "root, left, right",
        [
            pytest.param(1, {1: 2, 2: 1}, {}, id="two-cycle"),
            pytest.param(1, {1: 2, 2: 3, 3: 1}, {}, id="three-cycle"),
            pytest.param(1, {1: 2, 2: 3}, {2: 1}, id="cycle-through-a-right-edge"),
            pytest.param(1, {1: 2, 2: 4, 3: 4}, {1: 3}, id="two-parents-right-count"),
            pytest.param(1, {1: 2, 2: 4}, {1: 3, 2: 5, 3: 5}, id="two-parents"),
            pytest.param(1, {1: 2}, {5: 6}, id="edge-out-of-an-unreached-node"),
            pytest.param(1, {1: 2, 7: 8}, {7: 9}, id="unreached-subtree"),
            pytest.param(1, {1: 3}, {2: 4}, id="unreached-right-edge"),
            # every node's two children share their grandchildren, so the
            # paths to the last node number about 10^16
            pytest.param(
                1, {v: v + 1 for v in range(1, 80)}, {v: v + 2 for v in range(1, 79)},
                id="fibonacci-many-paths",
            ),
            pytest.param(
                1, {v: v + 1 for v in range(1, 60)}, {v: v + 1 for v in range(1, 60)},
                id="each-child-twice",
            ),
        ],
    )
    def test_malformed_maps_end_with_the_oracles_message(self, root, left, right):
        with pytest.raises(InvalidTreeError) as oracle:
            _linked_inorder_by_sorting(root, left, right)
        with pytest.raises(InvalidTreeError) as read:
            _linked_inorder(root, left, right)
        assert str(read.value) == str(oracle.value)

    def test_psi_inv_names_a_shared_node_as_a_repeated_label(self):
        shared = Tree(2, Tree(3))
        for t in (Tree(1, shared, shared), Tree(1, Tree(2, shared), Tree(4, shared))):
            with pytest.raises(InvalidTreeError) as oracle:
                validate_tree(t)
            with pytest.raises(InvalidTreeError) as read:
                psi_inv(t)
            assert str(read.value) == str(oracle.value)
            assert str(read.value).startswith("duplicate label")


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


def _graft_states(graft, p: Word):
    """The final maps of one grafting run, and after every step the
    ``AlgoCStep`` that ``psi_c`` records beside a copy of the maps."""
    states = []

    def visit(i, a, b, case, root, left, right):
        states.append((AlgoCStep(i, a, b, case), root, dict(left), dict(right)))

    return graft(p, visit), states


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
            expected = _graft_states(_graft_maps_by_path, p)
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

    def test_min_split_matches_the_walk_fill_exhaustively(self):
        # omega_inv and psi_inv split a reading back into the child maps
        # that psi_inv once filled by walking the tree, as _tree_maps does
        trees = [t for n in range(1, 9) for t in iter_family("tree", n)]
        trees += [t for n in range(1, 6) for t in iter_family("tree-b", n)]
        assert len(trees) == 2357
        for t in trees:
            assert bijections._min_split_maps(omega(t)) == _tree_maps(t), t

    @pytest.mark.parametrize("n", [20, 40, 80, 400, 401])
    def test_min_split_and_psi_inv_on_sampled_words(self, n):
        for seed in range(5):
            p = _sample_alternating(n, seed)
            t = psi(p)
            assert bijections._min_split_maps(omega(t)) == _tree_maps(t)
            assert psi_inv(t) == p

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

    def test_cli_json_of_a_deep_tree(self, capsys):
        # the renderer walks with a stack, so no depth is refused
        argv = ["map", "omega-inv", "--input", self.IDENTITY, "--format", "json"]
        assert dispatch(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        # every node has no right child, and only the last has no left one
        assert captured.out.count('"label": ') == self.N
        assert captured.out.count('"right": null') == self.N
        assert captured.out.count('"left": null') == 1


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
