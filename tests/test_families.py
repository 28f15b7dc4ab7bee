import ast
import inspect
import itertools
import pathlib
import random

import pytest

from oracles import (
    _PREDICATES, _alternating_by_index, _andre_by_subwords, _filtered,
    _hetyei_row_by_words, _random_tree, _simsun_by_subwords, _trees_by_inorder,
    iter_signed_permutations,
)
from zigzag import cli, core, families, verify
from zigzag.bijections import omega, phi
from zigzag.core import (
    Tree,
    inorder,
    perm_from_text,
    pleaf,
    rtl_min_positions,
    tree_from_literal,
)
from zigzag.families import (
    FamilyTag,
    GuardExceededError,
    count_family,
    count_hetyei_fast,
    enumerate_family,
    is_alternating,
    is_andre,
    is_andre_valley,
    is_hetyei_andre,
    is_signed_andre_b,
    is_signed_simsun,
    is_simsun,
    is_snake,
    iter_family,
    iter_permutations,
    refinement_statistic,
)
from zigzag.triangles import arnold_table, entringer_table
from zigzag.verify import check_conjecture, run_checks


def perms(text_items):
    return [perm_from_text(t) for t in text_items]


ALT_4 = perms(["2143", "3142", "3241", "4132", "4231"])
ANDRE_4 = perms(["1234", "1423", "3124", "3412", "4123"])
SIMSUN_3 = perms(["123", "132", "213", "231", "312"])
SNAKES_3 = perms(
    [
        "1 -2 3", "1 -3 2", "1 -3 -2",
        "213", "2 -1 3", "2 -3 1", "2 -3 -1",
        "312", "3 -1 2", "3 -2 1", "3 -2 -1",
    ]
)

# the triple of refined sets Alt/Andre/Simsun for n = 4, k = 2..4
REFINED_4 = {
    2: (["2143"], ["3412"], ["231"]),
    3: (["3142", "3241"], ["1423", "4123"], ["132", "312"]),
    4: (["4132", "4231"], ["1234", "3124"], ["123", "213"]),
}

# signed families at n = 3 (and the forced-sign sets one size up)
SIGNED_SETS = {
    1: {
        "snake": ["1 -2 3", "1 -3 2", "1 -3 -2"],
        "andre-b": ["3 -2 1", "-3 -2 1", "2 -3 1"],
        "andre-h4": ["1234", "3124", "-3 1 2 4"],
        "simsun-b3": ["123", "213", "-2 1 3"],
    },
    2: {
        "snake": ["213", "2 -1 3", "2 -3 1", "2 -3 -1"],
        "andre-b": ["312", "-3 1 2", "3 -1 2", "-3 -1 2"],
        "andre-h4": ["1423", "1 -4 2 3", "4123", "-4 1 2 3"],
        "simsun-b3": ["132", "1 -3 2", "312", "-3 1 2"],
    },
    3: {
        "snake": ["312", "3 -1 2", "3 -2 1", "3 -2 -1"],
        "andre-b": ["-2 1 3", "-2 -1 3", "123", "-1 2 3"],
        "andre-h4": ["3412", "-3 4 1 2", "3 -4 1 2", "-3 -4 1 2"],
        "simsun-b3": ["231", "-2 3 1", "2 -3 1", "-2 -3 1"],
    },
}


class TestPredicates:
    def test_alternating(self):
        assert is_alternating((2, 1, 4, 3))
        assert not is_alternating((1, 2, 3, 4))
        assert is_alternating((2, -3, 1))
        assert is_alternating((1,))

    def test_snake(self):
        assert is_snake((3, -2, -1))
        assert not is_snake((-1, 2, -3))
        assert is_snake((1,))
        assert not is_snake((-1,))

    def test_andre(self):
        assert is_andre((3, 1, 2, 4, 5))
        assert not is_andre((4, 3, 5, 1, 2))
        assert is_andre((6, 8, 4, 5, 1, 2, 9, 3, 7))
        assert is_andre((1,))

    def test_simsun(self):
        assert is_simsun((2, 5, 1, 3, 4))
        assert is_simsun((2, 1, 3))
        assert not is_simsun((3, 2, 1))

    def test_andre_is_simsun_small(self):
        for n in range(1, 7):
            for p in itertools.permutations(range(1, n + 1)):
                if is_andre(p):
                    assert is_simsun(p)

    def test_valley_equivalence_small(self):
        for n in range(1, 7):
            for p in itertools.permutations(range(1, n + 1)):
                assert is_andre(p) == is_andre_valley(p)

    def test_valley_handles_tiny_words(self):
        assert is_andre_valley(())
        assert is_andre_valley((1,))
        assert not is_andre_valley((2, 1))

    def test_signed_andre(self):
        assert is_signed_andre_b((2, -4, -1, 3, 5))
        assert is_signed_andre_b((3, -2, 1))
        assert not is_signed_andre_b((-1, -2, 3))
        assert is_signed_andre_b((-1,))

    def test_hetyei_andre(self):
        assert is_hetyei_andre((-3, 1, 2, 4))
        assert is_hetyei_andre((1, -4, 2, 3))
        assert not is_hetyei_andre((-1, 2, 3, 4))
        # absolute word must itself pass the Andre test
        assert not is_hetyei_andre((2, 1))

    def test_signed_simsun(self):
        assert is_signed_simsun((-2, 1, 3))
        assert is_signed_simsun((2, -3, 1))
        assert not is_signed_simsun((-1, 2, 3))
        assert not is_signed_simsun((1, -2, 3))


class TestFastPredicateOracle:
    """The stack-scan predicates agree with the subword definitions, and
    every early exit with the plain scan it skips."""

    @staticmethod
    def _agree(p):
        assert is_andre(p) == _andre_by_subwords(p), p
        assert is_simsun(p) == _simsun_by_subwords(p), p
        assert is_alternating(p) == _alternating_by_index(p), p

    def test_every_permutation_up_to_eight(self):
        for n in range(0, 9):
            for p in iter_permutations(n):
                self._agree(p)

    def test_every_signed_permutation_up_to_five(self):
        for n in range(1, 6):
            for p in iter_signed_permutations(n):
                self._agree(p)

    def test_random_large_words_and_near_misses(self):
        outcomes = set()
        for seed in range(8):
            rng = random.Random(seed)
            n = rng.randint(40, 200)
            andre = omega(_random_tree(n, seed))
            simsun = phi(andre)
            assert is_andre(andre) and _andre_by_subwords(andre)
            assert is_simsun(simsun) and _simsun_by_subwords(simsun)
            for word in (andre, simsun):
                # the last two entries, then random adjacent pairs
                spots = [len(word) - 2]
                spots += [rng.randrange(len(word) - 1) for _ in range(6)]
                for j in spots:
                    near = (*word[:j], word[j + 1], word[j], *word[j + 2 :])
                    self._agree(near)
                    outcomes.add((is_andre(near), is_simsun(near)))
        # the near misses include Andre words, Simsun-only words and neither
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_andre_is_simsun_with_a_smallest_entry_appended(self):
        # the flush of the scan treats the word so
        for n in range(0, 9):
            for p in iter_permutations(n):
                assert is_andre(p) == is_simsun((*p, 0)), p

    def test_alternation_of_lists_and_short_words(self):
        for p in ([], [5], [2, 1], [1, 2], [3, 1, 2], [3, 1, 0], [2, 1, 4, 3, 5]):
            assert is_alternating(p) == _alternating_by_index(p), p
            assert is_alternating(tuple(p)) == is_alternating(p), p

    def test_final_descent_exits_before_the_pass(self, monkeypatch):
        # 1 + sum(n!/2 for n = 2..6) of the 873 permutations scanned at cap
        # 6 end in an ascent or have one entry, and only they may reach
        # the scan with andre=True; the andre=False calls are is_simsun's,
        # one per Andre word
        real = families._stack_scan
        calls = {True: 0, False: 0}

        def counted(p, andre):
            calls[andre] += 1
            return real(p, andre)

        monkeypatch.setattr(families, "_stack_scan", counted)
        (report,) = run_checks(["andre-implies-simsun"], n_max_a=6, n_max_b=1)
        assert report.status == "PASS"
        assert report.counts == {"objects": 873}
        assert calls[True] == 437
        assert calls[False] == 86

    def test_generator_oracle_filters_through_the_definitions(self):
        assert _PREDICATES[FamilyTag.ANDRE] is _andre_by_subwords
        assert _PREDICATES[FamilyTag.SIMSUN] is _simsun_by_subwords
        assert _PREDICATES[FamilyTag.ANDRE_B] is _andre_by_subwords

    def test_fast_predicates_never_build_subwords(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("subword_smallest called")

        monkeypatch.setattr(core, "subword_smallest", refuse)
        assert not hasattr(families, "subword_smallest")
        assert is_andre((6, 8, 4, 5, 1, 2, 9, 3, 7))
        assert not is_andre((4, 3, 5, 1, 2))
        assert is_simsun((2, 5, 1, 3, 4))
        assert not is_simsun((3, 2, 1))
        assert is_hetyei_andre((-3, 1, 2, 4))
        assert is_signed_simsun((2, -3, 1))
        with pytest.raises(AssertionError):
            _andre_by_subwords((2, 1, 3))


_MEMBERSHIP = (is_andre, is_simsun, is_signed_andre_b, is_hetyei_andre, is_signed_simsun)


class TestRepeatedEntries:
    """A word that repeats an entry, or a signed word that repeats an
    absolute value, belongs to no Andre or Simsun family."""

    def test_unsigned_words_with_a_repeat(self):
        refused = 0
        for n in range(2, 7):
            for p in itertools.product(range(1, n + 1), repeat=n):
                if len(set(p)) < n:
                    for pred in _MEMBERSHIP:
                        assert not pred(p), (pred.__name__, p)
                    refused += 1
        assert refused == 49196

    def test_valley_refuses_a_repeat_and_keeps_every_permutation(self):
        # refusing a repeat changes no answer on a permutation: the valley
        # test agrees with is_andre on every one up to n = 8
        kept = 0
        for n in range(1, 9):
            for p in iter_permutations(n):
                assert is_andre_valley(p) == is_andre(p), p
                kept += 1
        assert kept == 46233
        refused = 0
        for n in range(2, 7):
            for p in itertools.product(range(1, n + 1), repeat=n):
                if len(set(p)) < n:
                    assert not is_andre_valley(p), p
                    refused += 1
        assert refused == 49196
        refused = 0
        for n in range(2, 5):
            for p in itertools.product((-3, -2, -1, 1, 2, 3), repeat=n):
                if len(set(map(abs, p))) < n:
                    assert not is_andre_valley(p), p
                    refused += 1
        assert refused == 1476

    def test_signed_words_with_a_repeated_absolute_value(self):
        letters = (-3, -2, -1, 1, 2, 3)
        refused = 0
        for n in range(2, 5):
            for p in itertools.product(letters, repeat=n):
                if len(set(map(abs, p))) < n:
                    for pred in _MEMBERSHIP:
                        assert not pred(p), (pred.__name__, p)
                    refused += 1
        assert refused == 1476


# mutants of the stack scan, each an edit of its source (the first match
# only: the pop test of the scan loop, not of the flush), pinned to the
# check that catches it at caps 6/4 and to that check's witness.
# Flipping the pop test's own ``>`` to ``>=`` changes nothing on distinct
# entries, so it is not pinned.
_MUTANTS = {
    "above-none": (
        "(above is None or above > a)",
        "above is not None and above > a",
        "valley-equivalence",
        "valley characterization disagrees on 4312",
    ),
    "above-flipped": (
        "above > a)",
        "above < a)",
        "omega-bijection",
        "omega(1(2,3(4,5))) not Andre",
    ),
    "no-flush": (
        "    if andre:\n",
        "    if False:\n",
        "valley-equivalence",
        "valley characterization disagrees on 213",
    ),
}


@pytest.mark.parametrize("name", sorted(_MUTANTS))
def test_the_checks_catch_pinned_mutants_of_the_scan(monkeypatch, name):
    old, new, check_id, witness = _MUTANTS[name]
    (report,) = run_checks([check_id], n_max_a=6, n_max_b=4)
    assert report.status == "PASS"
    source = inspect.getsource(families._stack_scan)
    assert old in source
    namespace = {"Word": families.Word}
    exec(source.replace(old, new, 1), namespace)
    monkeypatch.setattr(families, "_stack_scan", namespace["_stack_scan"])
    (report,) = run_checks([check_id], n_max_a=6, n_max_b=4)
    assert report.status == "FAIL"
    assert report.counterexample == witness


class TestEnumeration:
    def test_alt4(self):
        assert enumerate_family("alt", 4) == ALT_4

    def test_andre4(self):
        assert enumerate_family("andre", 4) == ANDRE_4

    def test_simsun3(self):
        assert enumerate_family("simsun", 3) == SIMSUN_3

    def test_snakes3(self):
        assert sorted(enumerate_family("snake", 3)) == sorted(SNAKES_3)

    def test_refined_sets_n4(self):
        for k, (alt, andre, simsun) in REFINED_4.items():
            assert enumerate_family("alt", 4, k) == perms(alt)
            assert enumerate_family("andre", 4, k) == perms(andre)
            assert enumerate_family("simsun", 3, k - 1) == perms(simsun)

    def test_signed_sets_n3(self):
        for k, sets in SIGNED_SETS.items():
            assert sorted(enumerate_family("snake", 3, k)) == sorted(perms(sets["snake"]))
            assert sorted(enumerate_family("andre-b", 3, k)) == sorted(
                perms(sets["andre-b"])
            )
            assert sorted(enumerate_family("andre-h", 4, 5 - k)) == sorted(
                perms(sets["andre-h4"])
            )
            assert sorted(enumerate_family("simsun-b", 3, 4 - k)) == sorted(
                perms(sets["simsun-b3"])
            )

    def test_tree_counts(self):
        assert [count_family("tree", n) for n in range(1, 8)] == [
            1, 1, 2, 5, 16, 61, 272,
        ]

    def test_signed_tree_counts(self):
        for n in range(1, 6):
            assert count_family("tree-b", n) == 2**n * count_family("tree", n)

    def test_sixteen_signed_trees_on_three(self):
        assert count_family("tree-b", 3) == 16

    def test_tree_refinement_is_pleaf(self):
        for t in iter_family("tree", 5, 3):
            assert pleaf(t) == 3

    def test_enumeration_is_sorted_and_duplicate_free(self):
        for tag in FamilyTag:
            n = 4
            objs = enumerate_family(tag, n)
            keys = [inorder(o) if isinstance(o, Tree) else o for o in objs]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_signed_permutation_stream(self):
        all_b2 = list(iter_signed_permutations(2))
        assert len(all_b2) == 8
        assert all_b2 == sorted(all_b2)
        assert (-2, -1) in all_b2 and (1, -2) in all_b2

    def test_andre_never_ends_in_one(self):
        for n in range(2, 7):
            assert count_family("andre", n, 1) == 0

    def test_guards(self):
        with pytest.raises(GuardExceededError):
            next(iter_family("alt", 13))
        with pytest.raises(GuardExceededError):
            next(iter_family("snake", 9))
        with pytest.raises(ValueError):
            next(iter_family("alt", 0))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            enumerate_family("alt", 4, 0)
        with pytest.raises(ValueError):
            enumerate_family("alt", 4, -2)
        with pytest.raises(ValueError):
            enumerate_family("snake", 4, 5)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            enumerate_family("nope", 4)

    def test_refinement_statistic(self):
        assert refinement_statistic("alt", (2, 1)) == 2
        assert refinement_statistic("andre", (1, 2)) == 2
        assert refinement_statistic("tree", tree_from_literal("1(2)")) == 2


UNSIGNED_PERM_TAGS = [FamilyTag.ALT, FamilyTag.ANDRE, FamilyTag.SIMSUN]
SIGNED_PERM_TAGS = [
    FamilyTag.ALT_B,
    FamilyTag.SNAKE,
    FamilyTag.ANDRE_B,
    FamilyTag.ANDRE_H,
    FamilyTag.SIMSUN_B,
]


class TestGeneratorOracle:
    """The generators yield exactly the filtered streams, order included."""

    @pytest.mark.parametrize("tag", UNSIGNED_PERM_TAGS, ids=lambda t: t.value)
    def test_unsigned_matches_filter(self, tag):
        for n in range(1, 9):
            assert list(iter_family(tag, n)) == _filtered(tag, n)

    @pytest.mark.parametrize("tag", SIGNED_PERM_TAGS, ids=lambda t: t.value)
    def test_signed_matches_filter(self, tag):
        for n in range(1, 6):
            assert list(iter_family(tag, n)) == _filtered(tag, n)

    @pytest.mark.parametrize(
        "tag, n, k",
        [
            ("alt", 6, 4),
            ("andre", 6, 6),
            ("simsun", 6, 1),
            ("alt-b", 4, -2),
            ("snake", 4, 3),
            ("snake", 4, -2),
            ("andre-b", 4, -1),
            ("andre-h", 5, 5),
            ("andre-h", 5, -5),
            ("simsun-b", 4, 2),
        ],
    )
    def test_refined_matches_filter(self, tag, n, k):
        assert list(iter_family(tag, n, k)) == _filtered(FamilyTag(tag), n, k)

    def test_generators_never_touch_the_bijections(self):
        import zigzag.families as module

        with open(module.__file__, encoding="utf-8") as src:
            tree = ast.parse(src.read())
        imported = set()
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom):
                imported.add(stmt.module or "")
                imported.update(alias.name for alias in stmt.names)
            elif isinstance(stmt, ast.Import):
                imported.update(alias.name for alias in stmt.names)
        assert not any("bijections" in name for name in imported)


class TestTreeOracle:
    """Cross-check the tree generator against an unrelated construction."""

    def test_trees_match_inorder_words(self):
        for n in range(1, 8):
            assert list(iter_family("tree", n)) == _trees_by_inorder("tree", n)

    def test_signed_trees_match_relabeled_trees(self):
        # every signed tree is a plain tree relabeled in order onto one of
        # the 2^n sign sets
        for n in range(1, 6):
            assert list(iter_family("tree-b", n)) == _trees_by_inorder("tree-b", n)


class TestGrownWords:
    """The words growth keeps against the trees of the inorder-word
    definition, sorted by their inorder walks."""

    SIZES = [("tree", 8), ("tree-b", 6)]

    @pytest.mark.parametrize("tag, n_max", SIZES)
    def test_the_builders_match_the_inorder_sort(self, tag, n_max):
        for n in range(1, n_max + 1):
            expected = _trees_by_inorder(tag, n)
            assert list(iter_family(tag, n)) == expected
            ks = range(-n, n + 1) if tag == "tree-b" else range(1, n + 1)
            for k in filter(None, ks):
                refined = [t for t in expected if pleaf(t) == k]
                assert list(iter_family(tag, n, k)) == refined

    @pytest.mark.parametrize("tag, n_max", SIZES)
    def test_every_cached_word_is_the_inorder_word_of_its_tree(self, tag, n_max):
        for n in range(1, n_max + 1):
            trees, words = verify._family(FamilyTag(tag), n)
            assert trees == tuple(iter_family(tag, n))
            assert words == tuple(map(inorder, trees))


class TestCounts:
    def test_counts_match_entringer(self):
        table = entringer_table(6)
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert count_family("alt", n, k) == table.value(n, k)
                assert count_family("tree", n, k) == table.value(n, k)
                assert count_family("andre", n, k) == table.value(n, k)

    def test_counts_match_arnold(self):
        table = arnold_table(5)
        for n in range(1, 6):
            for k in [*range(-n, 0), *range(1, n + 1)]:
                assert count_family("alt-b", n, k) == table.value(n, k)
                assert count_family("tree-b", n, k) == table.value(n, k)
                assert count_family("andre-b", n, k) == table.value(n, k)
                if k > 0:
                    assert count_family("snake", n, k) == table.value(n, k)

    def test_hetyei_fast_table_values(self):
        assert count_hetyei_fast(4, 4) == 3
        assert count_hetyei_fast(4, 3) == 4
        assert count_hetyei_fast(4, 2) == 4

    def test_hetyei_fast_matches_brute_force(self):
        # weighted count over all of S_n, independent of the generators
        for n in range(1, 9):
            row = [0] * (n + 1)
            for p in iter_permutations(n):
                if is_andre(p):
                    row[p[-1]] += 2 ** (n - len(rtl_min_positions(p)))
            assert [count_hetyei_fast(n, k) for k in range(1, n + 1)] == row[1:]

    def test_hetyei_fast_matches_enumeration(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert count_hetyei_fast(n, k) == count_family("andre-h", n, k)

    def test_hetyei_fast_guard(self):
        # the count enumerates nothing, so n = 13 needs no override
        row = [count_hetyei_fast(13, k) for k in range(1, 14)]
        assert row[0] == 0 and all(row[1:])
        with pytest.raises(ValueError):
            count_hetyei_fast(4, 0)

    def test_hetyei_growth_matches_word_oracle(self):
        for n in range(1, 11):
            assert families._hetyei_row(n) == _hetyei_row_by_words(n), n

    def test_hetyei_growth_resumes_in_any_call_order(self):
        expected = {n: _hetyei_row_by_words(n) for n in range(1, 11)}
        for order in (range(1, 11), range(10, 0, -1), (4, 2, 9, 1, 10, 3)):
            families._hetyei_row.cache_clear()
            try:
                for n in order:
                    assert families._hetyei_row(n) == expected[n], (order, n)
            finally:
                families._hetyei_row.cache_clear()

    def test_hetyei_fast_visits_no_word(self, monkeypatch):
        expected = {n: _hetyei_row_by_words(n) for n in range(1, 9)}

        def no_words(*args, **kwargs):
            raise AssertionError("count_hetyei_fast enumerated Andre words")

        monkeypatch.setattr(families, "_iter_bottom_up", no_words)
        families._hetyei_row.cache_clear()
        try:
            for n, row in expected.items():
                counts = tuple(count_hetyei_fast(n, k) for k in range(1, n + 1))
                assert counts == row[1:]
        finally:
            families._hetyei_row.cache_clear()


def _triangle_cli(n):
    return cli.dispatch(["triangle", "entringer", "--n", str(n)])


def _enumerate_cli(n):
    # E(n, 1) is 0 for n >= 2, so the accepted call prints nothing
    return cli.dispatch(["enumerate", "alt", "--n", str(n), "--k", "1"])


# (what the message names, the cap, a call at size n); the cap is accepted
# and one more is refused
_GUARD_SITES = [
    pytest.param(
        "enumeration of alt", 12, lambda n: next(iter_family("alt", n)),
        id="iter_family-alt",
    ),
    pytest.param(
        "enumeration of snake", 8, lambda n: next(iter_family("snake", n)),
        id="iter_family-snake",
    ),
    pytest.param(
        "checking the unsigned families", 9,
        lambda n: run_checks(["valley-equivalence"], n, 3),
        id="run_checks-a",
    ),
    pytest.param(
        "checking the signed families", 7,
        lambda n: run_checks(["valley-equivalence"], 5, n),
        id="run_checks-b",
    ),
    pytest.param("conjecture sweep", 100, check_conjecture, id="check_conjecture"),
    pytest.param("entringer triangle", 50, _triangle_cli, id="cli-triangle"),
    pytest.param("enumeration of alt", 12, _enumerate_cli, id="cli-enumerate"),
]


@pytest.mark.parametrize("what, cap, call", _GUARD_SITES)
def test_every_guard_site_raises_the_one_error(capsys, what, cap, call):
    # the CLI names its own flag
    via_cli = call in (_triangle_cli, _enumerate_cli)
    message = (
        f"{what} at n={cap + 1} exceeds the guard (n <= {cap}); "
        f"pass {'--force' if via_cli else 'force=True'} to override"
    )
    if via_cli:
        assert call(cap) == 0
        capsys.readouterr()
        assert call(cap + 1) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    call(cap)
    with pytest.raises(GuardExceededError) as info:
        call(cap + 1)
    assert str(info.value) == message


@pytest.mark.parametrize("tag, cap", [("tree", 12), ("tree-b", 8)])
def test_the_tree_words_for_verify_keep_the_family_guard(tag, cap):
    # verify builds the tree families through _tree_words, not
    # iter_family, so a forced run past the family caps still refuses them
    for n, error, message in (
        (cap + 1, GuardExceededError,
         f"enumeration of {tag} at n={cap + 1} exceeds the guard (n <= {cap}); "
         "pass force=True to override"),
        (0, ValueError, "families start at n = 1"),
    ):
        with pytest.raises(error) as info:
            families._tree_words(FamilyTag(tag), n)
        assert str(info.value) == message


def _calls(path, name, raised=False):
    # calls that build ``name`` or ``module.name``; with ``raised``, only
    # those a raise statement makes
    with open(path, encoding="utf-8") as src:
        tree = ast.parse(src.read())
    nodes = ast.walk(tree)
    if raised:
        nodes = (stmt.exc for stmt in nodes if isinstance(stmt, ast.Raise))
    return sum(
        isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in nodes
    )


def test_one_guard_raise_and_no_tree_checks_in_the_bijections():
    package = pathlib.Path(families.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sum(_calls(path, "GuardExceededError", True) for path in sources) == 1
    assert _calls(package / "bijections.py", "InvalidTreeError", True) == 0
    assert _calls(package / "bijections.py", "_guard") == 0
    # psi_inv undoes a label exchange on node ids, as the replay makes
    # it, so no label-keyed exchange is left to define or call
    source = ast.parse((package / "bijections.py").read_text(encoding="utf-8"))
    assert _calls(package / "bijections.py", "_exchange") == 0
    assert "_exchange" not in {
        node.name for node in ast.walk(source) if isinstance(node, ast.FunctionDef)
    }


def test_one_site_makes_every_check_report():
    # a second report loop would be a second CheckReport(...) call
    package = pathlib.Path(families.__file__).parent
    assert sum(_calls(path, "CheckReport") for path in package.glob("*.py")) == 1


class _Index:
    """An integer type other than int, as numpy's are."""

    def __init__(self, v: int) -> None:
        self.v = v

    def __index__(self) -> int:
        return self.v


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: list(iter_family("alt", 3, 1.5)), "1.5"),
        (lambda: list(iter_family("alt", 3.0)), "3.0"),
        (lambda: enumerate_family("tree", 2.5), "2.5"),
        (lambda: count_family("andre-b", 3, -1.0), "-1.0"),
        (lambda: count_family("simsun", "4"), "'4'"),
        (lambda: count_hetyei_fast(4, 2.0), "2.0"),
        (lambda: count_hetyei_fast(4.5, 2), "4.5"),
    ],
)
def test_integer_arguments_convert_exactly(call, bad):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"{bad} is not an integer"


def test_integer_types_and_bools_still_count():
    assert enumerate_family("alt-b", _Index(3), _Index(-1)) == enumerate_family(
        "alt-b", 3, -1
    )
    assert count_family("tree", True) == 1
    assert enumerate_family("snake", 2, True) == [(1, -2)]
    assert count_hetyei_fast(_Index(4), True) == count_hetyei_fast(4, 1) == 0
    assert [count_hetyei_fast(_Index(5), k) for k in range(1, 6)] == [
        count_hetyei_fast(5, k) for k in range(1, 6)
    ]
