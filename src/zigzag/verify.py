"""Exhaustive cross-checks tying triangles, families, and bijections together.

Every check compares two independently computed quantities over a full
range of objects and reports PASS or FAIL with counts and, on failure,
the smallest witness encountered.  Theorem checks and the open-conjecture
sweep are kept separate: a conjecture counterexample is a finding to
report, not a defect in this package.

The six bijection checks, omega, phi, psi and their signed versions, are
rows of one table run by :func:`_check_bijection`.  A row maps family F(n)
onto G(n - shift); each image is checked for membership in G, the
statistic carried over less the shift, the row's extra invariant and the
inverse round trip, and at each n the sorted images must be G(n - shift).
The six checks that test one object at a time share :func:`_check_objects`,
which walks n = 1..cap and runs every object of each clause's stream
through the clause's property; clauses take turns at each n.  The two
family-count checks compare each triangle row with counted statistics.

Default desk-scale caps: unsigned checks run to n = 8, signed checks to
n = 6, the conjecture sweep to n = 100.  A check that raises is reported as
a FAIL whose witness names the exception, so one broken check does not
end the run.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable

from . import bijections, cdindex, families, triangles
from .core import (
    inorder,
    minimal_path,
    order_relabel,
    perm_to_text,
    rtl_min_positions,
    tree_labels,
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
    def __init__(self, witness: str):
        self.witness = witness


@lru_cache(maxsize=None)
def _family(tag: FamilyTag, n: int) -> tuple:
    return tuple(families.iter_family(tag, n))


def _counts_by_stat(tag: FamilyTag, n: int) -> dict[int, int]:
    return dict(Counter(map(families._statistic(tag), _family(tag, n))))


def _expect(condition: bool, witness: Callable[[], str]) -> None:
    # the witness text is built only on failure
    if not condition:
        raise _Failure(witness())


def _compare_counts(
    label: str, tag: FamilyTag, n: int, expected: dict[int, int], shift: int = 0
) -> int:
    """Compare the statistic counts of ``tag`` at n - shift with
    ``expected`` less the shift; return the number of objects counted."""
    size = n - shift
    expected = {k - shift: v for k, v in expected.items()}
    actual = _counts_by_stat(tag, size)
    for k in sorted(set(expected) | set(actual)):
        e, a = expected.get(k, 0), actual.get(k, 0)
        _expect(e == a, lambda: f"{label}: n={size} k={k} expected={e} actual={a}")
    return sum(actual.values())


def _check_objects(n_max: int, *clauses: tuple[Callable, Callable, Callable]) -> dict:
    """Test every object of each clause ``(stream, holds, witness)`` for
    n = 1..n_max.  The clauses take turns at each n, so the failure
    reported is one at the smallest failing n."""
    objects = 0
    for n in range(1, n_max + 1):
        for stream, holds, witness in clauses:
            for x in stream(n):
                objects += 1
                if not holds(x):
                    raise _Failure(witness(x))
    return {"objects": objects}


# ---------------------------------------------------------------------------
# individual checks; each returns a counts dict or raises _Failure


def _check_entringer_families(n_max_a: int, n_max_b: int) -> dict:
    table = triangles.entringer_table(n_max_a)
    objects = 0
    for n in range(1, n_max_a + 1):
        expected = {k: v for k, v in table.row(n) if v}
        for tag in (FamilyTag.ALT, FamilyTag.TREE, FamilyTag.ANDRE):
            objects += _compare_counts(tag.value, tag, n, expected)
        if n >= 2:
            objects += _compare_counts("simsun", FamilyTag.SIMSUN, n, expected, 1)
    return {"objects": objects, "rows": n_max_a}


def _check_arnold_families(n_max_a: int, n_max_b: int) -> dict:
    table = triangles.arnold_table(n_max_b)
    objects = 0
    for n in range(1, n_max_b + 1):
        expected = {k: v for k, v in table.row(n) if v}
        positive = {k: v for k, v in expected.items() if k > 0}
        for tag, want in (
            (FamilyTag.ALT_B, expected),
            (FamilyTag.SNAKE, positive),
            (FamilyTag.TREE_B, expected),
            (FamilyTag.ANDRE_B, expected),
        ):
            objects += _compare_counts(tag.value, tag, n, want)
        # last-entry counts of the signed Simsun family match the
        # forced-sign Andre family one size up, shifted by one
        hetyei = _counts_by_stat(FamilyTag.ANDRE_H, n)
        objects += sum(hetyei.values())
        if n >= 2:
            label = "simsun-b vs andre-h"
            objects += _compare_counts(label, FamilyTag.SIMSUN_B, n, hetyei, 1)
        else:
            _expect(hetyei == {1: 1}, lambda: f"andre-h: n=1 counts {hetyei}")
    return {"objects": objects, "rows": n_max_b}


@dataclass(frozen=True)
class _Bijection:
    """One row of the bijection table; ``name`` is the map in witnesses.

    The map, inverse and predicate are attribute names on ``bijections``
    and ``families``, looked up when the check runs.
    """

    name: str
    func: str
    source: FamilyTag
    target: FamilyTag
    image_set: str
    shift: int = 0
    member: str | None = None
    noun: str = ""
    inverse: str | None = None
    extra: Callable[[object, object], None] | None = None


def _check_bijection(row: _Bijection, n_max_a: int, n_max_b: int) -> dict:
    func = getattr(bijections, row.func)
    member = getattr(families, row.member) if row.member else None
    inverse = getattr(bijections, row.inverse) if row.inverse else None
    source_stat = families._statistic(row.source)
    target_stat = families._statistic(row.target)
    trees = families._TREE_TAGS
    stat_name = "pleaf" if row.target in trees else "last entry"
    text = tree_to_literal if row.source in trees else perm_to_text
    # the trees are checked as they are linked, and inorder is injective
    # on increasing binary trees
    word = inorder if row.target in trees else tuple
    shift, extra = row.shift, row.extra
    objects = 0
    signed = row.source in families._SIGNED_TAGS
    for n in range(1, (n_max_b if signed else n_max_a) + 1):
        size = n - shift
        images = []
        for x in _family(row.source, n):
            y = func(x)
            objects += 1
            if size == 0:
                _expect(y == (), lambda: f"{row.name} of the singleton must be empty")
            else:
                if member is not None:
                    _expect(
                        member(y), lambda: f"{row.name}({text(x)}) not {row.noun}"
                    )
                _expect(
                    target_stat(y) == source_stat(x) - shift,
                    lambda: f"{row.name} {stat_name} mismatch on {text(x)}",
                )
                if extra is not None:
                    extra(x, y)
            if inverse is not None:
                _expect(
                    inverse(y) == x,
                    lambda: f"{row.inverse} round trip failed on {text(x)}",
                )
            images.append(y)
        if size:
            _expect(
                sorted(map(word, images))
                == sorted(map(word, _family(row.target, size))),
                lambda: f"{row.name} images at n={n} are not {row.image_set}",
            )
    return {"objects": objects}


def _spine_identity(t, w) -> None:
    # the spine identity count_hetyei_fast rests on
    _expect(
        len(rtl_min_positions(w)) == len(minimal_path(t)),
        lambda: f"omega suffix minima miss the spine of {tree_to_literal(t)}",
    )


def _graft_step_invariant(p, _t) -> None:
    for i, _a, _b, _case, v, left, _right in bijections._graft_states(p):
        while v in left:
            v = left[v]
        _expect(
            v == p[2 * i - 2],
            lambda: f"psi step invariant broken at i={i} on {perm_to_text(p)}",
        )


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
    "psi-bijection": _Bijection(
        "psi", "_psi_tree", FamilyTag.ALT, FamilyTag.TREE, "exactly the trees",
        inverse="psi_inv", extra=_graft_step_invariant,
    ),
    "psi-signed-bijection": _Bijection(
        "psi_signed", "psi_signed", FamilyTag.ALT_B, FamilyTag.TREE_B,
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


def _check_psi_equality(n_max_a: int, n_max_b: int) -> dict:
    return _check_objects(n_max_a, (
        partial(_family, FamilyTag.ALT),
        lambda p: bijections.psi_b(p) == bijections.psi(p),
        lambda p: f"psi_b and psi_c disagree on {perm_to_text(p)}",
    ))


def _check_chuang_factorization(n_max_a: int, n_max_b: int) -> dict:
    return _check_objects(n_max_a, (
        partial(_family, FamilyTag.TREE),
        lambda t: bijections.chuang_phi(t) == bijections.phi(bijections.omega(t)),
        lambda t: f"direct tree-to-Simsun map disagrees on {tree_to_literal(t)}",
    ))


def _check_cd_preservation(n_max_a: int, n_max_b: int) -> dict:
    return _check_objects(n_max_a, (
        partial(_family, FamilyTag.ANDRE),
        lambda p: cdindex.reduced_variation_andre(p)
        == cdindex.reduced_variation_simsun(bijections.phi(p)),
        lambda p: f"reduced variation not preserved on {perm_to_text(p)}",
    ))


def _check_andre_implies_simsun(n_max_a: int, n_max_b: int) -> dict:
    return _check_objects(n_max_a, (
        families.iter_permutations,
        lambda p: not families.is_andre(p) or families.is_simsun(p),
        lambda p: f"Andre permutation {perm_to_text(p)} is not Simsun",
    ))


def _check_valley_equivalence(n_max_a: int, n_max_b: int) -> dict:
    # the valley characterization is only asserted up to n = 7
    return _check_objects(min(n_max_a, 7), (
        families.iter_permutations,
        lambda p: families.is_andre(p) == families.is_andre_valley(p),
        lambda p: f"valley characterization disagrees on {perm_to_text(p)}",
    ))


def _conjugate(unsigned: Callable, x, labels) -> object:
    # the unsigned map conjugated by the order isomorphism onto [n]
    ident = range(1, len(labels) + 1)
    return order_relabel(unsigned(order_relabel(x, ident)), labels)


def _check_conjugation_diagram(n_max_a: int, n_max_b: int) -> dict:
    # each signed map must equal its conjugated unsigned map, signs
    # included; psi_signed grafts the signed labels directly, so its half
    # compares two independent routes
    return _check_objects(
        n_max_b,
        (
            partial(_family, FamilyTag.ALT_B),
            lambda p: bijections.psi_signed(p)
            == _conjugate(bijections._psi_tree, p, p),
            lambda p: f"psi conjugation square fails on {perm_to_text(p)}",
        ),
        (
            partial(_family, FamilyTag.TREE_B),
            lambda t: bijections.omega_signed(t)
            == _conjugate(bijections.omega, t, tree_labels(t)),
            lambda t: f"omega conjugation square fails on {tree_to_literal(t)}",
        ),
    )


_CHECKS: dict[str, Callable[[int, int], dict]] = {
    **{cid: partial(_check_bijection, row) for cid, row in _BIJECTIONS.items()},
    "entringer-families": _check_entringer_families,
    "arnold-families": _check_arnold_families,
    "psi-equality": _check_psi_equality,
    "chuang-factorization": _check_chuang_factorization,
    "cd-preservation": _check_cd_preservation,
    "andre-implies-simsun": _check_andre_implies_simsun,
    "valley-equivalence": _check_valley_equivalence,
    "conjugation-diagram": _check_conjugation_diagram,
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
    """Run theorem checks and return one report per check, sorted by id."""
    if selection is None:
        chosen = check_ids()
    else:
        chosen = tuple(sorted(set(selection)))
        unknown = [c for c in chosen if c not in _CHECKS]
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(unknown)}")
    if n_max_a < 1 or n_max_b < 1:
        raise ValueError(
            f"check caps must be at least 1, got n_max_a={n_max_a}, n_max_b={n_max_b}"
        )
    families._guard("checking the unsigned families", n_max_a, EXTENDED_N_MAX_A, force)
    families._guard("checking the signed families", n_max_b, EXTENDED_N_MAX_B, force)
    reports = []
    for check_id in chosen:
        params = {"n_max_a": n_max_a, "n_max_b": n_max_b}
        start = time.perf_counter()
        try:
            counts = _CHECKS[check_id](n_max_a, n_max_b)
            status, witness = PASS, None
        except _Failure as failure:
            counts, status, witness = {}, FAIL, failure.witness
        except Exception as exc:
            counts, status, witness = {}, FAIL, f"{type(exc).__name__}: {exc}"
        reports.append(
            CheckReport(
                check_id=check_id,
                params=params,
                status=status,
                counts=counts,
                counterexample=witness,
                elapsed=time.perf_counter() - start,
            )
        )
    return reports


def check_conjecture(
    n_max: int = DEFAULT_N_MAX_CONJECTURE, force: bool = False
) -> list[CheckReport]:
    """Compare Arnold numbers against fast forced-sign Andre counts.

    For every 1 <= k <= n <= n_max the Arnold number S(n, k) is compared
    with the number of forced-sign Andre words of [n+1] ending in
    n+2-k.  One report per n; a FAIL means a counterexample to an open
    conjecture and carries the witness.  The sweep cap is checked here, so
    the counts run past the enumeration guard of
    :func:`families.count_hetyei_fast`, which counts without enumerating.
    """
    families._guard("conjecture sweep", n_max, DEFAULT_N_MAX_CONJECTURE, force)
    table = triangles.arnold_table(n_max)
    reports = []
    for n in range(1, n_max + 1):
        start = time.perf_counter()
        status, witness = PASS, None
        compared = 0
        for k in range(1, n + 1):
            lhs = table.value(n, k)
            rhs = families.count_hetyei_fast(n + 1, n + 2 - k, force=True)
            compared += 1
            if lhs != rhs:
                status = FAIL
                witness = (
                    f"n={n} k={k}: arnold={lhs} forced-sign-andre"
                    f"(n+1={n + 1}, last={n + 2 - k})={rhs}"
                )
                break
        reports.append(
            CheckReport(
                check_id="conjecture",
                params={"n": n},
                status=status,
                counts={"compared": compared},
                counterexample=witness,
                elapsed=time.perf_counter() - start,
            )
        )
    return reports
