"""Exhaustive cross-checks tying triangles, families, and bijections together.

Every check compares two independently computed quantities over a full
range of objects and reports PASS or FAIL with counts and, on failure,
the smallest witness encountered.  Theorem checks and the open-conjecture
sweep are kept separate: a conjecture counterexample is a finding to
report, not a defect in this package.

Every report, of a check or of one row of the sweep, is made by
:func:`_report`.  It times the check and turns a failure or any other
exception into a FAIL report whose witness names it, so one broken check
does not end the run.

Every theorem check is run by :func:`_run`, which walks n = 1..cap and,
at each n, the check's legs in turn, each built when its turn comes.  A
leg is a stream of objects, a step that tests each one and a close that
takes their number; both raise ``_Failure`` inline, so a witness is
built only on failure, at the smallest failing n.  A row of
``_BIJECTIONS`` is one leg over F(n): its step checks each image for
membership in G, the statistic carried over less the shift, the row's
extra invariant and the inverse round trip, and its close compares the
sorted images with G(n - shift).  The psi rows read each image from one
grafting pass as a checked inorder word; only psi-bijection links a
tree, for ``psi_inv``.  A check of ``_LEGS`` tests one property of each
object, and the two scans of S_n close on a count of n!.  A family-count
check has one leg per family: its step tests the predicate of a family
no bijection row targets, and its close compares the counts by
statistic with a triangle row, and the number of objects with the row
sum, the Euler or Springer number.

The family cache, ``_family``, keeps each family at n as its objects
and their words.  A permutation is its own word; a tree's word is its
inorder word, which growth keeps beside the tree, so no check walks a
tree for a word or a pleaf, the word's first entry.  The words are what
the tree counts of the two family-count checks and the source statistic
of the omega rows read, what the psi rows compare their images with,
already sorted, and what keys the omega half of the conjugation
diagram.  A tree goes only to a map that takes one: ``omega``,
``omega_signed``, ``chuang_phi`` and the spine test's ``minimal_path``.

The conjugation diagram compares each signed map with its unsigned map
conjugated by the order isomorphism onto [n].  The psi half compares two
independent routes as inorder words: grafting the signed labels
directly, against relabeling onto [n], grafting and relabeling back.
The direct route runs on every signed object, and first, so a bad tree
raises there.  The conjugated route keys the unsigned map's result by
the object's rank pattern, in a lookup that lives for one n of one run,
so the unsigned map runs E_n times at n, not 2^n·E_n, and a map patched
between runs is seen.  The omega half's pattern is that of the tree's
cached word: inorder is injective on increasing binary trees, so the
pattern determines the relabeled tree.

Default desk-scale caps: unsigned checks run to n = 8, signed checks to
n = 6, the conjecture sweep to n = 100.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from . import bijections, cdindex, families, triangles
from .core import (
    Tree,
    _exact_int,
    _link_tree,
    _linked_inorder,
    _relabeled,
    _walk,
    inorder,
    minimal_path,
    perm_to_text,
    rtl_min_positions,
    tree_to_literal,
)
from .families import FamilyTag

DEFAULT_N_MAX_A = 8
DEFAULT_N_MAX_B = 6
DEFAULT_N_MAX_CONJECTURE = 100
EXTENDED_N_MAX_A = 9
EXTENDED_N_MAX_B = 7

PASS = "PASS"
FAIL = "FAIL"


@dataclass
class CheckReport:
    check_id: str
    params: dict
    status: str
    counts: dict = field(default_factory=dict)
    counterexample: str | None = None
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


class _Failure(Exception):
    def __init__(self, witness: str, counts: dict | None = None):
        self.witness = witness
        self.counts = counts or {}


def _report(check_id: str, params: dict, body: Callable[[], dict]) -> CheckReport:
    """Time ``body`` and report its counts; a ``_Failure`` or any other
    exception it raises becomes a FAIL report with a witness."""
    start = time.perf_counter()
    try:
        counts, status, witness = body(), PASS, None
    except _Failure as failure:
        counts, status, witness = failure.counts, FAIL, failure.witness
    except Exception as exc:
        counts, status, witness = {}, FAIL, f"{type(exc).__name__}: {exc}"
    return CheckReport(
        check_id, params, status, counts, witness, time.perf_counter() - start
    )


@lru_cache(maxsize=None)
def _family(tag: FamilyTag, n: int) -> tuple[tuple, tuple]:
    """The family at n as its objects and their words, both in the order
    of ``families.iter_family``.  A permutation is its own word; a tree's
    word is its inorder word, kept from growth, which starts with the
    tree's pleaf."""
    if tag not in families._TREE_TAGS:
        objects = tuple(families.iter_family(tag, n))
        return objects, objects
    pairs = families._tree_words(tag, n)
    return tuple(t for _, t in pairs), tuple(w for w, _ in pairs)


def _fail(witness: str):
    raise _Failure(witness)


def _run(cap: Callable, legs: Callable, n_max_a: int, n_max_b: int) -> dict:
    """For n = 1..cap, run each leg ``(stream, step, close)`` of ``legs(n)``:
    ``step`` takes each object and ``close`` their number, and either may
    be None.  A leg with no step has a sized stream, which is not walked."""
    objects = 0
    for n in range(1, cap(n_max_a, n_max_b) + 1):
        for stream, step, close in legs(n):
            if step is None:
                count = len(stream)
            else:
                count = 0
                for x in stream:
                    step(x)
                    count += 1
            if close is not None:
                close(count)
            objects += count
    return {"objects": objects}


def _count_leg(
    tag: FamilyTag, n: int, expected: dict[int, int] | None, shift: int = 0,
    member: str | None = None, total: int | None = None, label: str = "",
) -> tuple:
    """The leg over ``tag`` at n - shift.  Its step tests each object with
    the predicate ``member`` names on ``families``; its close compares the
    counts by statistic with ``expected`` less the shift, and the number
    of objects with ``total``.  Each is skipped when its argument is None."""
    size, label = n - shift, label or tag.value
    objects, words = _family(tag, size)
    step = None
    if member:
        holds = getattr(families, member)
        step = lambda x: holds(x) or _fail(
            f"{tag.value} word {perm_to_text(x)} fails {member}"
        )

    def close(count: int) -> None:
        if expected is not None:
            want = {k - shift: v for k, v in expected.items()}
            actual = Counter(map(itemgetter(families._stat_at(tag)), words))
            for k in sorted(set(want) | set(actual)):
                e, a = want.get(k, 0), actual[k]
                if e != a:
                    raise _Failure(f"{label}: n={size} k={k} expected={e} actual={a}")
        if total is not None and total != count:
            raise _Failure(f"{label}: n={size} row sum expected={total} actual={count}")

    return objects, step, close


def _entringer_families(n_max_a: int, n_max_b: int) -> dict:
    table = triangles.entringer_table(n_max_a)

    def legs(n: int) -> Iterator[tuple]:
        expected = {k: v for k, v in table.row(n) if v}
        # no bijection row targets alt, so no image set certifies it; its
        # count is the row sum, the Euler number
        yield _count_leg(
            FamilyTag.ALT, n, expected, 0, "is_alternating", table.row_sums[n - 1]
        )
        yield _count_leg(FamilyTag.TREE, n, expected)
        yield _count_leg(FamilyTag.ANDRE, n, expected)
        if n >= 2:
            yield _count_leg(FamilyTag.SIMSUN, n, expected, 1)

    return {**_run(lambda a, b: a, legs, n_max_a, n_max_b), "rows": n_max_a}


def _arnold_families(n_max_a: int, n_max_b: int) -> dict:
    table = triangles.arnold_table(n_max_b)

    def legs(n: int) -> Iterator[tuple]:
        expected = {k: v for k, v in table.row(n) if v}
        positive = {k: v for k, v in expected.items() if k > 0}
        # no bijection row targets alt-b, snake or andre-h, so no image
        # set certifies them; the snakes number the row sum, the Springer
        # number
        yield _count_leg(FamilyTag.ALT_B, n, expected, 0, "is_alternating")
        yield _count_leg(
            FamilyTag.SNAKE, n, positive, 0, "is_snake", table.row_sums[n - 1]
        )
        yield _count_leg(FamilyTag.TREE_B, n, expected)
        yield _count_leg(FamilyTag.ANDRE_B, n, expected)
        # last-entry counts of the signed Simsun family match the
        # forced-sign Andre family one size up, shifted by one
        yield _count_leg(FamilyTag.ANDRE_H, n, None, 0, "is_hetyei_andre")
        hetyei = Counter(map(itemgetter(-1), _family(FamilyTag.ANDRE_H, n)[1]))
        if n >= 2:
            label = "simsun-b vs andre-h"
            yield _count_leg(FamilyTag.SIMSUN_B, n, hetyei, 1, label=label)
        elif hetyei != {1: 1}:
            raise _Failure(f"andre-h: n=1 counts {dict(hetyei)}")

    return {**_run(lambda a, b: b, legs, n_max_a, n_max_b), "rows": n_max_b}


@dataclass(frozen=True)
class _Bijection:
    """One row of the bijection table; ``name`` is the map in witnesses.

    The map is an attribute name on ``bijections``, or for the psi rows a
    function here that reads the image from the grafting kernel.  The
    inverse and predicate are attribute names on ``bijections`` and
    ``families``.  Names are looked up when the row's leg is built.
    """

    name: str
    func: str | Callable[[object], object]
    source: FamilyTag
    target: FamilyTag
    image_set: str
    shift: int = 0
    member: str | None = None
    noun: str = ""
    inverse: str | None = None
    extra: Callable[[object, object], None] | None = None


def _bijection_legs(row: _Bijection, n: int) -> Iterator[tuple]:
    """The one leg of ``row`` at n, over the source family's indices: the
    step checks each image, and the close compares the sorted images with
    the target family's words, which come sorted."""
    func = getattr(bijections, row.func) if isinstance(row.func, str) else row.func
    member = getattr(families, row.member) if row.member else None
    inverse = getattr(bijections, row.inverse) if row.inverse else None
    source_at = families._stat_at(row.source)
    trees = families._TREE_TAGS
    # a tree image is compared as its inorder word, which starts with its
    # pleaf; inorder is injective on increasing binary trees
    stat_name, at = ("pleaf", 0) if row.target in trees else ("last entry", -1)
    text = tree_to_literal if row.source in trees else perm_to_text
    size, shift, extra, images = n - row.shift, row.shift, row.extra, []
    objects, words = _family(row.source, n)

    def step(i: int) -> None:
        x, source_word = objects[i], words[i]
        y = func(x)
        word = inorder(y) if isinstance(y, Tree) else y
        if size == 0:
            if y != ():
                raise _Failure(f"{row.name} of the singleton must be empty")
        else:
            if member is not None and not member(y):
                raise _Failure(f"{row.name}({text(x)}) not {row.noun}")
            if word[at] != source_word[source_at] - shift:
                raise _Failure(f"{row.name} {stat_name} mismatch on {text(x)}")
            if extra is not None:
                extra(x, y)
        if inverse is not None and inverse(y) != x:
            raise _Failure(f"{row.inverse} round trip failed on {text(x)}")
        images.append(word)

    def close(count: int) -> None:
        if size and sorted(images) != list(_family(row.target, size)[1]):
            raise _Failure(f"{row.name} images at n={n} are not {row.image_set}")

    yield range(len(objects)), step, close


def _spine_identity(t, w) -> None:
    # the spine identity count_hetyei_fast rests on
    if len(rtl_min_positions(w)) != len(minimal_path(t)):
        raise _Failure(f"omega suffix minima miss the spine of {tree_to_literal(t)}")


def _psi_image(p) -> Tree:
    """psi's tree of ``p`` from one grafting pass, which checks its steps.

    Each state but the last must end its minimal path at the first entry
    of the pair just placed; the last state's path ends at the pleaf,
    which the statistic check reads from the tree.
    """

    def step(i, _a, _b, _case, v, left, _right) -> None:
        if i > 1:
            while v in left:
                v = left[v]
            if v != p[2 * i - 2]:
                raise _Failure(
                    f"psi step invariant broken at i={i} on {perm_to_text(p)}"
                )

    return _link_tree(*bijections._graft_maps(p, step))


def _psi_word(p) -> tuple:
    # psi's tree of p as a checked inorder word; no Tree is built
    return _linked_inorder(*bijections._graft_maps(p))


def _psi_maps(p) -> tuple:
    # the grafting's child maps of p, checked as a tree by reading them
    maps = bijections._graft_maps(p)
    _linked_inorder(*maps)
    return maps


_BIJECTIONS = {
    "omega-bijection": _Bijection(
        "omega", "omega", FamilyTag.TREE, FamilyTag.ANDRE,
        "exactly the Andre permutations",
        member="is_andre", noun="Andre", inverse="omega_inv", extra=_spine_identity,
    ),
    "phi-bijection": _Bijection(
        "phi", "phi", FamilyTag.ANDRE, FamilyTag.SIMSUN,
        "exactly the Simsun permutations",
        shift=1, member="is_simsun", noun="Simsun", inverse="phi_inv",
    ),
    # psi_inv takes a tree, so psi-bijection links one; the signed row
    # compares words only
    "psi-bijection": _Bijection(
        "psi", _psi_image, FamilyTag.ALT, FamilyTag.TREE, "exactly the trees",
        inverse="psi_inv",
    ),
    "psi-signed-bijection": _Bijection(
        "psi_signed", _psi_word, FamilyTag.ALT_B, FamilyTag.TREE_B,
        "exactly the signed trees",
    ),
    "omega-signed-bijection": _Bijection(
        "omega_signed", "omega_signed", FamilyTag.TREE_B, FamilyTag.ANDRE_B,
        "the signed Andre family",
        member="is_signed_andre_b", noun="signed Andre",
    ),
    "phi-signed-bijection": _Bijection(
        "phi_signed", "phi_signed", FamilyTag.ANDRE_H, FamilyTag.SIMSUN_B,
        "the signed Simsun family",
        shift=1, member="is_signed_simsun", noun="signed Simsun",
    ),
}


def _conjugate(unsigned: Callable, x, word, seen: dict) -> tuple:
    """The word ``unsigned`` gives for ``x``, conjugated by the order
    isomorphism onto [n]: ``x`` is relabeled down by rank, and the word
    back by indexing the sorted labels.  ``word`` is ``x`` or a tree's
    inorder word, and its rank pattern keys ``seen``: ``unsigned`` runs,
    and a tree is rebuilt by rank, once per pattern, while the
    relabeling back runs for every ``x``."""
    ranked = sorted(word)
    rank = {v: i for i, v in enumerate(ranked, 1)}
    pattern = tuple([rank[v] for v in word])
    image = seen.get(pattern)
    if image is None:
        down = _relabeled(list(_walk(x)), rank) if isinstance(x, Tree) else pattern
        image = seen[pattern] = unsigned(down)
    return tuple([ranked[v - 1] for v in image])


def _conjugation_legs(n: int) -> Iterator[tuple]:
    # the two halves of the diagram at n, each with its own lookup; an
    # object of the omega half is a tree with its inorder word
    psi_seen, omega_seen = {}, {}
    yield _family(FamilyTag.ALT_B, n)[0], lambda p: (
        _psi_word(p) == _conjugate(_psi_word, p, p, psi_seen)
        or _fail(f"psi conjugation square fails on {perm_to_text(p)}")
    ), None
    yield zip(*_family(FamilyTag.TREE_B, n)), lambda tw: (
        bijections.omega_signed(tw[0])
        == _conjugate(bijections.omega, *tw, omega_seen)
        or _fail(f"omega conjugation square fails on {tree_to_literal(tw[0])}")
    ), None


def _scanned(n: int, count: int) -> None:
    # a scan of S_n must see exactly n! permutations
    if count != (size := factorial(n)):
        raise _Failure(f"permutations of [{n}]: {count} scanned, {size} expected")


# the checks that are neither bijection rows nor family counts: each
# one's cap, from (n_max_a, n_max_b), and its legs at n
_LEGS = {
    # psi_b's replay must end in the grafting's child maps, which are
    # checked as one tree, so equal maps are equal trees
    "psi-equality": (lambda a, b: a, lambda n: [(
        _family(FamilyTag.ALT, n)[0],
        lambda p: bijections._replay_maps(p) == _psi_maps(p)
        or _fail(f"psi_b and psi_c disagree on {perm_to_text(p)}"),
        None,
    )]),
    "chuang-factorization": (lambda a, b: a, lambda n: [(
        _family(FamilyTag.TREE, n)[0],
        lambda t: bijections.chuang_phi(t) == bijections.phi(bijections.omega(t))
        or _fail(f"direct tree-to-Simsun map disagrees on {tree_to_literal(t)}"),
        None,
    )]),
    "cd-preservation": (lambda a, b: a, lambda n: [(
        _family(FamilyTag.ANDRE, n)[0],
        lambda p: cdindex.reduced_variation_andre(p)
        == cdindex.reduced_variation_simsun(bijections.phi(p))
        or _fail(f"reduced variation not preserved on {perm_to_text(p)}"),
        None,
    )]),
    "andre-implies-simsun": (lambda a, b: a, lambda n: [(
        families.iter_permutations(n),
        lambda p: not families.is_andre(p) or families.is_simsun(p)
        or _fail(f"Andre permutation {perm_to_text(p)} is not Simsun"),
        partial(_scanned, n),
    )]),
    # the valley characterization is only asserted up to n = 7
    "valley-equivalence": (lambda a, b: min(a, 7), lambda n: [(
        families.iter_permutations(n),
        lambda p: families.is_andre(p) == families.is_andre_valley(p)
        or _fail(f"valley characterization disagrees on {perm_to_text(p)}"),
        partial(_scanned, n),
    )]),
    "conjugation-diagram": (lambda a, b: b, _conjugation_legs),
}


_CHECKS: dict[str, Callable[[int, int], dict]] = {
    **{
        cid: partial(
            _run,
            (lambda a, b: b) if row.source in families._SIGNED_TAGS
            else (lambda a, b: a),
            partial(_bijection_legs, row),
        )
        for cid, row in _BIJECTIONS.items()
    },
    **{cid: partial(_run, *check) for cid, check in _LEGS.items()},
    "entringer-families": _entringer_families,
    "arnold-families": _arnold_families,
}


def check_ids() -> tuple[str, ...]:
    """All theorem check identifiers, sorted."""
    return tuple(sorted(_CHECKS))


def run_checks(
    selection: Iterable[str] | None = None,
    n_max_a: int = DEFAULT_N_MAX_A,
    n_max_b: int = DEFAULT_N_MAX_B,
    force: bool = False,
) -> list[CheckReport]:
    """Run theorem checks and return one report per check, sorted by id.

    The caps convert exactly (``operator.index``): a float such as 2.5
    raises ``ValueError``, and so does a bare string for ``selection``,
    which would otherwise be read as a list of one-letter ids.
    """
    if isinstance(selection, str):
        raise ValueError(f"pass the check ids as a list, not the string {selection!r}")
    if selection is None:
        chosen = check_ids()
    else:
        chosen = tuple(sorted(set(selection)))
        unknown = [c for c in chosen if c not in _CHECKS]
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(map(repr, unknown))}")
    n_max_a = _exact_int(n_max_a, ValueError)
    n_max_b = _exact_int(n_max_b, ValueError)
    if n_max_a < 1 or n_max_b < 1:
        raise ValueError(
            f"check caps must be at least 1, got n_max_a={n_max_a}, n_max_b={n_max_b}"
        )
    families._guard("checking the unsigned families", n_max_a, EXTENDED_N_MAX_A, force)
    families._guard("checking the signed families", n_max_b, EXTENDED_N_MAX_B, force)
    caps = {"n_max_a": n_max_a, "n_max_b": n_max_b}
    return [
        _report(cid, dict(caps), partial(_CHECKS[cid], n_max_a, n_max_b))
        for cid in chosen
    ]


def check_conjecture(
    n_max: int = DEFAULT_N_MAX_CONJECTURE, force: bool = False
) -> list[CheckReport]:
    """Compare Arnold numbers against fast forced-sign Andre counts.

    For every 1 <= k <= n <= n_max the Arnold number S(n, k) is compared
    with the number of forced-sign Andre words of [n+1] ending in
    n+2-k.  One report per n; a FAIL carries the witness, either a
    counterexample to an open conjecture or the exception a count raised,
    and the sweep goes on with the next n.  The counts come from
    :func:`families.count_hetyei_fast`, which enumerates nothing; the
    sweep's own cap, n <= 100 unless ``force``, is the only guard here.
    ``n_max`` converts exactly, as the caps of :func:`run_checks` do.
    """
    n_max = _exact_int(n_max, ValueError)
    families._guard("conjecture sweep", n_max, DEFAULT_N_MAX_CONJECTURE, force)
    table = triangles.arnold_table(n_max)
    return [
        _report("conjecture", {"n": n}, partial(_sweep_row, table, n))
        for n in range(1, n_max + 1)
    ]


def _sweep_row(table, n: int) -> dict:
    for k in range(1, n + 1):
        lhs = table.value(n, k)
        rhs = families.count_hetyei_fast(n + 1, n + 2 - k)
        if lhs != rhs:
            raise _Failure(
                f"n={n} k={k}: arnold={lhs} forced-sign-andre"
                f"(n+1={n + 1}, last={n + 2 - k})={rhs}",
                {"compared": k},
            )
    return {"compared": n}
