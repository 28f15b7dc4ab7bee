import inspect
import itertools
import json
import sys
from collections import Counter
from functools import lru_cache

import pytest

from zigzag.bijections import omega
from zigzag.cli import dispatch
from zigzag.core import (
    InvalidTreeError,
    inorder,
    order_relabel,
    perm_to_text,
    tree_from_literal,
    tree_to_literal,
)
from zigzag.families import GuardExceededError, iter_family
from zigzag import core, verify
from zigzag.verify import (
    DEFAULT_N_MAX_CONJECTURE,
    FAIL,
    PASS,
    CheckReport,
    check_conjecture,
    check_ids,
    run_checks,
)


def test_all_checks_pass_at_small_sizes():
    reports = run_checks(n_max_a=5, n_max_b=4)
    assert len(reports) == len(check_ids())
    assert all(r.status == PASS for r in reports)
    assert all(r.counterexample is None for r in reports)


def test_reports_sorted_and_serializable():
    reports = run_checks(["psi-equality", "entringer-families"], n_max_a=4, n_max_b=3)
    assert [r.check_id for r in reports] == ["entringer-families", "psi-equality"]
    payload = json.dumps([r.as_dict() for r in reports])
    assert "psi-equality" in payload


def test_selection_runs_only_requested(
):
    reports = run_checks(["cd-preservation"], n_max_a=4, n_max_b=3)
    assert [r.check_id for r in reports] == ["cd-preservation"]


def test_unknown_check_id():
    with pytest.raises(ValueError):
        run_checks(["no-such-check"])


@pytest.mark.parametrize(
    "selection,message",
    [
        ([""], "unknown check ids: ''"),
        ([" psi-equality", "x"], "unknown check ids: ' psi-equality', 'x'"),
    ],
)
def test_unknown_check_ids_are_named_by_repr(selection, message):
    with pytest.raises(ValueError) as exc:
        run_checks(selection)
    assert str(exc.value) == message


def test_size_caps_enforced():
    with pytest.raises(GuardExceededError):
        run_checks(["psi-equality"], n_max_a=10, n_max_b=3)
    with pytest.raises(GuardExceededError):
        run_checks(["psi-equality"], n_max_a=5, n_max_b=8)


@pytest.mark.parametrize("n_max_a, n_max_b", [(0, 0), (0, 3), (4, 0), (-1, 2)])
def test_caps_below_one_rejected(n_max_a, n_max_b):
    with pytest.raises(ValueError, match="at least 1"):
        run_checks(["psi-equality"], n_max_a=n_max_a, n_max_b=n_max_b)


def test_caps_convert_exactly():
    # a float cap is refused before any check runs, not reported as ten
    # failing checks
    with pytest.raises(ValueError, match=r"^2\.5 is not an integer$"):
        run_checks(None, 2.5, 2)
    with pytest.raises(ValueError, match=r"^2\.0 is not an integer$"):
        run_checks(["phi-bijection"], 3, 2.0)
    with pytest.raises(ValueError, match=r"^3\.5 is not an integer$"):
        check_conjecture(3.5)
    (report,) = run_checks(["phi-bijection"], True, True)
    assert report.status == PASS
    assert report.params == {"n_max_a": 1, "n_max_b": 1}
    assert [r.params for r in check_conjecture(True)] == [{"n": 1}]


def test_counts_are_reported():
    (report,) = run_checks(["psi-equality"], n_max_a=4, n_max_b=3)
    # one object per alternating permutation of sizes 1..4
    assert report.counts == {"objects": 1 + 1 + 2 + 5}


def test_smallest_case_compares_one_permutation():
    (report,) = run_checks(["psi-equality"], n_max_a=2, n_max_b=1)
    assert report.status == PASS
    assert report.counts == {"objects": 2}


def test_determinism():
    first = run_checks(["arnold-families"], n_max_a=4, n_max_b=4)
    second = run_checks(["arnold-families"], n_max_a=4, n_max_b=4)
    strip = lambda r: (r.check_id, r.params, r.status, r.counts, r.counterexample)
    assert [strip(r) for r in first] == [strip(r) for r in second]


def test_conjecture_sweep_small():
    reports = check_conjecture(4)
    assert [r.params["n"] for r in reports] == [1, 2, 3, 4]
    assert all(r.status == PASS for r in reports)
    assert [r.counts["compared"] for r in reports] == [1, 2, 3, 4]


def test_conjecture_default_sweep_reaches_one_hundred():
    reports = check_conjecture()
    assert DEFAULT_N_MAX_CONJECTURE == 100
    assert [r.params["n"] for r in reports] == list(range(1, 101))
    assert all(r.status == PASS for r in reports)
    assert [r.counts["compared"] for r in reports] == list(range(1, 101))


def test_conjecture_guard():
    with pytest.raises(GuardExceededError):
        check_conjecture(DEFAULT_N_MAX_CONJECTURE + 1)


def test_spine_identity_failure_names_the_tree(monkeypatch):
    monkeypatch.setattr(verify, "minimal_path", lambda t: ())
    (report,) = run_checks(["omega-bijection"], n_max_a=3, n_max_b=1)
    assert report.status == FAIL
    assert report.counterexample == "omega suffix minima miss the spine of 1"


def test_omega_check_counts_unchanged():
    (report,) = run_checks(["omega-bijection"], n_max_a=7, n_max_b=1)
    assert report.status == PASS
    assert report.counts == {"objects": 358}


def test_check_that_raises_is_a_fail_report(monkeypatch):
    def broken(n_max_a, n_max_b):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(verify._CHECKS, "psi-equality", broken)
    reports = run_checks(["psi-equality", "entringer-families"], n_max_a=4, n_max_b=3)
    by_id = {r.check_id: r for r in reports}
    assert by_id["psi-equality"].status == FAIL
    assert by_id["psi-equality"].counterexample == "ZeroDivisionError: division by zero"
    assert by_id["psi-equality"].counts == {}
    assert by_id["entringer-families"].status == PASS


def test_report_as_dict_shape():
    report = CheckReport("x", {"n": 1}, PASS, {"objects": 0}, None, 0.0)
    assert set(report.as_dict()) == {
        "check_id", "params", "status", "counts", "counterexample", "elapsed",
    }


def test_passing_checks_build_no_witness_text(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "perm_to_text", lambda p: calls.append(p) or "")
    checks = [
        "phi-bijection", "psi-equality", "cd-preservation", "andre-implies-simsun",
    ]
    reports = run_checks(checks, n_max_a=5, n_max_b=3)
    assert all(r.status == PASS for r in reports)
    assert calls == []


def test_failing_check_keeps_its_witness_text(monkeypatch):
    monkeypatch.setattr(verify.families, "is_andre", lambda p: False)
    (report,) = run_checks(["omega-bijection"], n_max_a=3, n_max_b=1)
    assert report.status == FAIL
    assert report.counterexample == "omega(1) not Andre"
    monkeypatch.setattr(verify.families, "is_simsun", lambda p: False)
    (report,) = run_checks(["phi-bijection"], n_max_a=3, n_max_b=1)
    assert report.counterexample == "phi(12) not Simsun"


def test_conjugation_diagram_compares_two_routes(monkeypatch):
    # the psi half grafts the signed labels directly.  Relabeling the
    # unsigned word back by absolute value instead of signed order is a
    # wrong route, and the check must see it.
    real = verify._psi_word

    def by_absolute_value(p):
        back = dict(zip(range(1, len(p) + 1), sorted(p, key=abs)))
        return tuple(back[v] for v in real(order_relabel(p, range(1, len(p) + 1))))

    (report,) = run_checks(["conjugation-diagram"], n_max_a=1, n_max_b=3)
    assert report.status == PASS
    monkeypatch.setattr(verify, "_psi_word", by_absolute_value)
    (report,) = run_checks(["conjugation-diagram"], n_max_a=1, n_max_b=3)
    assert report.status == FAIL
    assert report.counterexample == "psi conjugation square fails on -1 -2"


def test_conjugation_relabels_trees_as_order_relabel_does():
    # the omega half relabels each tree down by the rank dict of its
    # inorder word; order_relabel is the oracle
    for n in range(1, 6):
        for t in iter_family("tree-b", n):
            seen = []
            back = verify._conjugate(
                lambda down: seen.append(down) or omega(down), t, inorder(t), {}
            )
            assert seen == [order_relabel(t, range(1, n + 1))]
            assert back == omega(t)


def test_conjugation_diagram_runs_each_kernel_once_per_pattern(monkeypatch):
    # the direct routes run on every signed object, the unsigned kernels
    # once per rank pattern at each n: sum E_n = 25 patterns to n = 5.  A
    # word of [n] is its own pattern, so the psi half grafts each positive
    # word twice
    psi_args, omega_calls = Counter(), Counter()
    real_psi, real = verify._psi_word, verify.bijections

    def psi_word(p):
        psi_args[p] += 1
        return real_psi(p)

    def counted(name, func):
        def call(t):
            omega_calls[name] += 1
            return func(t)

        return call

    monkeypatch.setattr(verify, "_psi_word", psi_word)
    monkeypatch.setattr(real, "omega_signed", counted("direct", real.omega_signed))
    monkeypatch.setattr(real, "omega", counted("kernel", real.omega))
    (report,) = run_checks(["conjugation-diagram"], n_max_a=1, n_max_b=5)
    assert report.status == PASS
    assert report.counts == {"objects": 1228}
    signed = Counter(p for n in range(1, 6) for p in iter_family("alt-b", n))
    patterns = Counter(p for n in range(1, 6) for p in iter_family("alt", n))
    assert sum(signed.values()) == 614 and sum(patterns.values()) == 25
    assert psi_args == signed + patterns
    assert omega_calls == {"direct": 614, "kernel": 25}


@pytest.mark.parametrize(
    "tag, witness",
    [("alt-b", "psi conjugation square fails on {}"),
     ("tree-b", "omega conjugation square fails on {}")],
    ids=["psi", "omega"],
)
def test_conjugation_diagram_relabels_every_object_back(monkeypatch, tag, witness):
    # one object's sorted labels come back as a list that flips signs
    # when indexed: only the relabeling back indexes them, so only that
    # object's comparison can fail.  It is the first object at n = 3
    # whose rank pattern was met before, so its unsigned result comes
    # from the lookup.  A tree's word must not also be a word of the psi
    # half, which runs first
    seen, target = set(), None
    psi_words = set(iter_family("alt-b", 3)) if tag == "tree-b" else set()
    for x in iter_family(tag, 3):
        word = inorder(x) if tag == "tree-b" else x
        pattern = order_relabel(word, range(1, 4))
        if pattern in seen and word not in psi_words:
            target = word
            break
        seen.add(pattern)

    class Flipped(list):
        def __getitem__(self, i):
            return -list.__getitem__(self, i)

    def ranked(labels):
        return Flipped(sorted(labels)) if labels == target else sorted(labels)

    monkeypatch.setattr(verify, "sorted", ranked, raising=False)
    (report,) = run_checks(["conjugation-diagram"], n_max_a=1, n_max_b=3)
    assert report.status == FAIL
    text = perm_to_text(x) if tag == "alt-b" else tree_to_literal(x)
    assert report.counterexample == witness.format(text)


def test_no_pattern_lookup_outlives_a_run(monkeypatch):
    # a kernel patched between two runs in one process is seen by the
    # second: the first run's patterns do not carry over
    real = verify.bijections
    (report,) = run_checks(["conjugation-diagram"], n_max_a=1, n_max_b=4)
    assert report.status == PASS
    monkeypatch.setattr(real, "omega", lambda t: real.omega_signed(t)[::-1])
    (report,) = run_checks(["conjugation-diagram"], n_max_a=1, n_max_b=4)
    assert report.counterexample == "omega conjugation square fails on -2(-1)"
    monkeypatch.undo()
    real_psi = verify._psi_word
    # wrong on the words of [n] only, which the conjugated route grafts
    monkeypatch.setattr(
        verify, "_psi_word",
        lambda p: real_psi(p)[::-1] if min(p) > 0 else real_psi(p),
    )
    (report,) = run_checks(["conjugation-diagram"], n_max_a=1, n_max_b=4)
    assert report.counterexample == "psi conjugation square fails on -1 -2"


def test_psi_signed_image_set_is_compared(monkeypatch):
    # one image replaced by another with the same pleaf: only the image
    # set comparison can see it
    real = verify.bijections._graft_maps
    swapped = {(2, -3, 1): (2, -3, -1)}
    monkeypatch.setattr(
        verify.bijections, "_graft_maps", lambda p: real(swapped.get(p, p))
    )
    (report,) = run_checks(["psi-signed-bijection"], n_max_a=1, n_max_b=3)
    assert report.status == FAIL
    assert report.counterexample == (
        "psi_signed images at n=3 are not exactly the signed trees"
    )


def test_psi_bijection_grafts_each_word_once(monkeypatch):
    # the image, its pleaf and the step invariant come from one grafting
    # pass, and psi_inv grafts nothing
    calls = {"check": 0, "psi_inv": 0}
    real_graft, real_inv = verify.bijections._graft_maps, verify.bijections.psi_inv
    inside = []

    def graft(p, visit=None):
        calls["psi_inv" if inside else "check"] += 1
        return real_graft(p, visit)

    def psi_inv(t):
        inside.append(t)
        try:
            return real_inv(t)
        finally:
            inside.pop()

    monkeypatch.setattr(verify.bijections, "_graft_maps", graft)
    monkeypatch.setattr(verify.bijections, "psi_inv", psi_inv)
    (report,) = run_checks(["psi-bijection"], 5, 1)
    assert report.status == PASS
    assert report.counts == {"objects": 25}
    assert calls == {"check": 25, "psi_inv": 0}


_OBJECTS = {
    (4, 3): {
        "andre-implies-simsun": 33, "arnold-families": 90, "cd-preservation": 9,
        "chuang-factorization": 9, "conjugation-diagram": 44,
        "entringer-families": 35, "omega-bijection": 9,
        "omega-signed-bijection": 22, "phi-bijection": 9, "phi-signed-bijection": 5,
        "psi-bijection": 9, "psi-equality": 9, "psi-signed-bijection": 22,
        "valley-equivalence": 33,
    },
    (7, 5): {
        "andre-implies-simsun": 5913, "arnold-families": 2420,
        "cd-preservation": 358, "chuang-factorization": 358,
        "conjugation-diagram": 1228, "entringer-families": 1431,
        "omega-bijection": 358, "omega-signed-bijection": 614,
        "phi-bijection": 358, "phi-signed-bijection": 73, "psi-bijection": 358,
        "psi-equality": 358, "psi-signed-bijection": 614, "valley-equivalence": 5913,
    },
}


@pytest.mark.parametrize("caps", sorted(_OBJECTS))
def test_every_check_keeps_its_object_count(caps):
    reports = run_checks(n_max_a=caps[0], n_max_b=caps[1])
    assert all(r.status == PASS for r in reports)
    assert {r.check_id: r.counts["objects"] for r in reports} == _OBJECTS[caps]


def _never(real):
    return lambda x: False


def _none(real):
    return lambda x: None


def _nonempty(real):
    return lambda p: (1,) if len(p) == 1 else real(p)


def _replace(a, b):
    # object a takes the image of object b; the grafting kernel passes a
    # step visitor on
    return lambda real: lambda x, *rest: real(b if x == a else x, *rest)


_T = tree_from_literal
# (check, module, name, fault, witness); a replacement between objects
# with different statistics is a statistic fault, one between objects
# sharing a statistic is caught by the round trip where there is an
# inverse and by the image-set comparison where there is none
_BIJECTION_FAULTS = [
    ("omega-bijection", "families", "is_andre", _never, "omega(1) not Andre"),
    (
        "omega-bijection", "bijections", "omega",
        _replace(_T("1(2,3)"), _T("1(2(3))")),
        "omega last entry mismatch on 1(2,3)",
    ),
    (
        "omega-bijection", "bijections", "omega",
        _replace(_T("1(2(3),4)"), _T("1(2(3,4))")),
        "omega_inv round trip failed on 1(2(3),4)",
    ),
    (
        "omega-bijection", "bijections", "omega_inv", _none,
        "omega_inv round trip failed on 1",
    ),
    ("phi-bijection", "families", "is_simsun", _never, "phi(12) not Simsun"),
    (
        "phi-bijection", "bijections", "phi", _replace((1, 2, 3), (3, 1, 2)),
        "phi last entry mismatch on 123",
    ),
    (
        "phi-bijection", "bijections", "phi", _replace((1, 4, 2, 3), (4, 1, 2, 3)),
        "phi_inv round trip failed on 1423",
    ),
    (
        "phi-bijection", "bijections", "phi_inv", _none,
        "phi_inv round trip failed on 1",
    ),
    (
        "phi-bijection", "bijections", "phi", _nonempty,
        "phi of the singleton must be empty",
    ),
    (
        "psi-bijection", "bijections", "_graft_maps", _replace((2, 1, 3), (3, 1, 2)),
        "psi pleaf mismatch on 213",
    ),
    (
        "psi-bijection", "bijections", "_graft_maps",
        _replace((3, 1, 4, 2), (3, 2, 4, 1)),
        "psi_inv round trip failed on 3142",
    ),
    (
        "psi-bijection", "bijections", "psi_inv", _none,
        "psi_inv round trip failed on 1",
    ),
    (
        "psi-signed-bijection", "bijections", "_graft_maps",
        _replace((-1, -2), (1, -2)),
        "psi_signed pleaf mismatch on -1 -2",
    ),
    (
        "psi-signed-bijection", "bijections", "_graft_maps",
        _replace((-2, -3, -1), (-2, -3, 1)),
        "psi_signed images at n=3 are not exactly the signed trees",
    ),
    (
        "omega-signed-bijection", "families", "is_signed_andre_b", _never,
        "omega_signed(-1) not signed Andre",
    ),
    (
        "omega-signed-bijection", "bijections", "omega_signed",
        _replace(_T("-2(-1)"), _T("-2(1)")),
        "omega_signed last entry mismatch on -2(-1)",
    ),
    (
        "omega-signed-bijection", "bijections", "omega_signed",
        _replace(_T("-3(-2,-1)"), _T("-3(-2,1)")),
        "omega_signed images at n=3 are not the signed Andre family",
    ),
    (
        "phi-signed-bijection", "families", "is_signed_simsun", _never,
        "phi_signed(12) not signed Simsun",
    ),
    (
        "phi-signed-bijection", "bijections", "phi_signed",
        _replace((-3, 1, 2), (1, 2, 3)),
        "phi_signed last entry mismatch on -3 1 2",
    ),
    (
        "phi-signed-bijection", "bijections", "phi_signed",
        _replace((-3, 1, 2), (3, 1, 2)),
        "phi_signed images at n=3 are not the signed Simsun family",
    ),
    (
        "phi-signed-bijection", "bijections", "phi_signed", _nonempty,
        "phi_signed of the singleton must be empty",
    ),
]


@pytest.mark.parametrize(
    "check_id, module, name, fault, witness",
    _BIJECTION_FAULTS,
    ids=[f"{c[0]}-{c[2]}-{i}" for i, c in enumerate(_BIJECTION_FAULTS)],
)
def test_bijection_fault_gives_its_witness(
    monkeypatch, check_id, module, name, fault, witness
):
    target = getattr(verify, module)
    monkeypatch.setattr(target, name, fault(getattr(target, name)))
    (report,) = run_checks([check_id], n_max_a=4, n_max_b=3)
    assert report.status == FAIL
    assert report.counterexample == witness


def _reversed(real):
    return lambda x: real(x)[::-1]


def _stray_left_link(real):
    # every non-final state's leftmost path runs on past the pair's first
    # entry; the final state, and so the tree, stays right
    def graft(p, visit=None):
        def stray(i, a, b, case, root, left, right):
            if i > 1:
                left = {**left, p[2 * i - 2]: 0}
            visit(i, a, b, case, root, left, right)

        return real(p, stray if visit else None)

    return graft


# (check, module, name, fault, witness) for the checks outside _BIJECTIONS
_CHECK_FAULTS = [
    (
        "psi-equality", "bijections", "_replay_maps", _none,
        "psi_b and psi_c disagree on 1",
    ),
    (
        "chuang-factorization", "bijections", "chuang_phi", _none,
        "direct tree-to-Simsun map disagrees on 1",
    ),
    (
        "cd-preservation", "cdindex", "reduced_variation_simsun",
        lambda real: lambda s: "x",
        "reduced variation not preserved on 1",
    ),
    (
        "andre-implies-simsun", "families", "is_simsun", _never,
        "Andre permutation 1 is not Simsun",
    ),
    (
        "valley-equivalence", "families", "is_andre_valley", _never,
        "valley characterization disagrees on 1",
    ),
    (
        "conjugation-diagram", "bijections", "omega_signed", _reversed,
        "omega conjugation square fails on -2(-1)",
    ),
    (
        "psi-bijection", "bijections", "_graft_maps", _stray_left_link,
        "psi step invariant broken at i=2 on 21435",
    ),
    (
        "entringer-families", "families", "is_alternating", _never,
        "alt word 1 fails is_alternating",
    ),
    (
        "arnold-families", "families", "is_snake", _never,
        "snake word 1 fails is_snake",
    ),
    (
        "arnold-families", "families", "is_hetyei_andre", _never,
        "andre-h word 1 fails is_hetyei_andre",
    ),
]


@pytest.mark.parametrize(
    "check_id, module, name, fault, witness",
    _CHECK_FAULTS,
    ids=[f"{c[0]}-{c[2]}" for c in _CHECK_FAULTS],
)
def test_check_fault_gives_its_witness(
    monkeypatch, check_id, module, name, fault, witness
):
    target = getattr(verify, module)
    monkeypatch.setattr(target, name, fault(getattr(target, name)))
    (report,) = run_checks([check_id], n_max_a=5, n_max_b=3)
    assert report.status == FAIL
    assert report.counterexample == witness


# each fault gives one object the image of another with the same shape and
# different signs, which comparing relabeled shapes cannot see; since
# omega_signed is omega, in production only a divergence between the two
# can fail the omega half
_SIGN_FAULTS = [
    (
        "conjugation-diagram", "bijections", "omega_signed",
        _replace(_T("-2(-1)"), _T("-2(1)")),
        "omega conjugation square fails on -2(-1)",
    ),
    (
        "conjugation-diagram", "bijections", "_graft_maps",
        _replace((-1, -2), (1, -2)),
        "psi conjugation square fails on -1 -2",
    ),
]


@pytest.mark.parametrize(
    "check_id, module, name, fault, witness",
    _SIGN_FAULTS,
    # named for the signed map whose half each fault breaks
    ids=["omega_signed", "psi_signed"],
)
def test_conjugation_diagram_compares_signed_labels(
    monkeypatch, check_id, module, name, fault, witness
):
    test_check_fault_gives_its_witness(
        monkeypatch, check_id, module, name, fault, witness
    )


def test_conjugation_diagram_reports_the_smallest_failing_n(monkeypatch):
    # the psi half fails at n=3 and the omega half at n=2; the halves take
    # turns at each n, so the omega witness is the one reported
    real = verify.bijections
    omega_fault = _replace(_T("-2(-1)"), _T("-2(1)"))
    psi_fault = _replace((-2, -3, -1), (-2, -3, 1))
    monkeypatch.setattr(real, "_graft_maps", psi_fault(real._graft_maps))
    (report,) = run_checks(["conjugation-diagram"], n_max_a=1, n_max_b=3)
    assert report.counterexample == "psi conjugation square fails on -2 -3 -1"
    monkeypatch.setattr(real, "omega_signed", omega_fault(real.omega_signed))
    (report,) = run_checks(["conjugation-diagram"], n_max_a=1, n_max_b=3)
    assert report.status == FAIL
    assert report.counterexample == "omega conjugation square fails on -2(-1)"


def _failures(reports) -> dict:
    return {r.check_id: r.counterexample for r in reports if r.status == FAIL}


def test_up_down_alternation_fails_the_family_counts(monkeypatch):
    # is_alternating turned round to accept up-down words: the generators
    # do not call it and no bijection row targets alt or alt-b, so only
    # the membership tests of the family-count checks can see it
    def up_down(p):
        return all(
            p[i] < p[i + 1] if i % 2 == 0 else p[i] > p[i + 1]
            for i in range(len(p) - 1)
        )

    monkeypatch.setattr(verify.families, "is_alternating", up_down)
    assert _failures(run_checks(n_max_a=4, n_max_b=3)) == {
        "arnold-families": "alt-b word -1 -2 fails is_alternating",
        "entringer-families": "alt word 21 fails is_alternating",
    }


def test_short_permutation_stream_fails_the_s_n_scans(monkeypatch):
    # iter_permutations(n) yielding S_(n-2): every word it yields passes,
    # so only the n! count of each scan can see it
    monkeypatch.setattr(
        verify.families, "iter_permutations",
        lambda n: itertools.permutations(range(1, n - 1)),
    )
    witness = "permutations of [2]: 1 scanned, 2 expected"
    assert _failures(run_checks(n_max_a=4, n_max_b=3)) == {
        "andre-implies-simsun": witness,
        "valley-equivalence": witness,
    }


def test_sweep_row_whose_count_raises_is_a_fail_report(monkeypatch):
    real = verify.families.count_hetyei_fast

    def count(n, k):
        if n == 4:
            raise RuntimeError("boom")
        return real(n, k)

    monkeypatch.setattr(verify.families, "count_hetyei_fast", count)
    reports = check_conjecture(5)
    assert [r.status for r in reports] == [PASS, PASS, FAIL, PASS, PASS]
    assert reports[2].counterexample == "RuntimeError: boom"
    assert [r.counts for r in reports] == [
        {"compared": 1}, {"compared": 2}, {}, {"compared": 4}, {"compared": 5},
    ]


def test_sweep_mismatch_keeps_its_witness_and_count(monkeypatch):
    real = verify.families.count_hetyei_fast
    monkeypatch.setattr(
        verify.families, "count_hetyei_fast",
        lambda n, k: real(n, k) + ((n, k) == (4, 3)),
    )
    reports = check_conjecture(4)
    assert [r.status for r in reports] == [PASS, PASS, FAIL, PASS]
    assert reports[2].counts == {"compared": 2}
    assert reports[2].counterexample == (
        "n=3 k=2: arnold=4 forced-sign-andre(n+1=4, last=3)=5"
    )


# one mutant per module, pinned to the check that catches it at caps 6/4
# and to that check's witness: an edit (old, new) of the function's
# source, the first match only, or a function that stands in for it
_MODULE_MUTANTS = {
    # the previous row accumulated forwards
    "triangles": (
        "triangles", "_entringer_rows",
        ("accumulate(reversed(row))", "accumulate(row)"),
        "entringer-families", "alt: n=3 k=2 expected=0 actual=1",
    ),
    # the Springer sums started one entry late; the rows stay right, so
    # only the row-sum comparison sees it
    "triangles-arnold-sums": (
        "triangles", "_row_sum", ("row[n:]", "row[n + 1:]"),
        "arnold-families", "snake: n=1 row sum expected=0 actual=1",
    ),
    # the Euler sums read one row on: the sum of the next row, which
    # accumulates this one backwards
    "triangles-entringer-sums": (
        "triangles", "_row_sum", ("sum(row)", "sum(accumulate(reversed(row)))"),
        "entringer-families", "alt: n=2 row sum expected=2 actual=1",
    ),
    # the 0 appended to the word instead of prepended
    "cdindex": (
        "cdindex", "reduced_variation_simsun", ("(0, *s)", "(*s, 0)"),
        "cd-preservation", "ValueError: letter 'b' at position 1 survives reduction",
    ),
    # each moved suffix minimum left one too small
    "bijections": (
        "bijections", "phi_inv",
        ("s[mins[t - 1] - 1] + 1", "s[mins[t - 1] - 1]"),
        "phi-bijection", "phi_inv round trip failed on 123",
    ),
    # psi_b's swap chain writing the moved label's position under the
    # label that moved to the front
    "bijections-replay": (
        "bijections", "_replay_maps", ("at[k] = q", "at[j] = q"),
        "psi-equality", "psi_b and psi_c disagree on 41523",
    ),
    # core's tree reader, where bijections reads it, giving the inorder word
    "core": (
        "bijections", "_checked_reverse_inorder", inorder,
        "omega-bijection", "omega(1(2)) not Andre",
    ),
    # the split of a reverse inorder word back into child maps, which
    # omega_inv and psi_inv share, hanging the popped entry on the right
    "core-maps": (
        "bijections", "_min_split_maps", ("left[v] = popped", "right[v] = popped"),
        "psi-bijection", "psi_inv round trip failed on 21",
    ),
    # the valley rule turned round: the run before a valley must have
    # the larger minimum
    "families": (
        "families", "is_andre_valley",
        ("min(p[lo + 1 : i]) <= min(p[i + 1 : hi])",
         "min(p[lo + 1 : i]) >= min(p[i + 1 : hi])"),
        "valley-equivalence", "valley characterization disagrees on 213",
    ),
}


@pytest.mark.parametrize("name", sorted(_MODULE_MUTANTS))
def test_the_checks_catch_a_pinned_mutant_of_each_module(monkeypatch, name):
    module, attr, mutant, check_id, witness = _MODULE_MUTANTS[name]
    (report,) = run_checks([check_id], n_max_a=6, n_max_b=4)
    assert report.status == PASS
    target = getattr(verify, module)
    if isinstance(mutant, tuple):
        old, new = mutant
        source = inspect.getsource(getattr(target, attr))
        assert old in source
        namespace = dict(vars(target))
        exec(source.replace(old, new, 1), namespace)
        mutant = namespace[attr]
    monkeypatch.setattr(target, attr, mutant)
    (report,) = run_checks([check_id], n_max_a=6, n_max_b=4)
    assert report.status == FAIL
    assert report.counterexample == witness


@pytest.mark.parametrize(
    "name", ["triangles", "triangles-arnold-sums", "triangles-entringer-sums"]
)
def test_a_triangle_mutant_changes_the_cli_export_too(monkeypatch, capsys, name):
    # the CLI streams its rows through the same recurrence and row sums
    # that the tables collect, so what the checks catch, the export shows
    module, attr, (old, new), check_id, _ = _MODULE_MUTANTS[name]
    kind = check_id.split("-")[0]

    def exports():
        out = []
        for fmt in ("csv", "text"):
            assert dispatch(["triangle", kind, "--n", "6", "--format", fmt]) == 0
            out.append(capsys.readouterr().out)
        return out

    before = exports()
    monkeypatch.setattr(
        getattr(verify, module), attr, _mutant(getattr(verify, module), attr, old, new)
    )
    after = exports()
    assert after != before
    # the sum mutants leave every entry, so the CSV, alone
    assert (after[0] == before[0]) == name.endswith("-sums")


def _mutant(module, attr: str, old: str, new: str):
    source = inspect.getsource(getattr(module, attr))
    assert old in source
    namespace = dict(vars(module))
    exec(source.replace(old, new, 1), namespace)
    return namespace[attr]


def test_the_psi_checks_catch_a_pinned_mutant_of_the_map_walk(monkeypatch):
    # verify imports core's word reader by name, so the mutant goes where
    # verify looks it up: the walk returning the reverse inorder word
    mutant = _mutant(core, "_linked_inorder", "tuple(out)", "tuple(out[::-1])")
    monkeypatch.setattr(verify, "_linked_inorder", mutant)
    assert _failures(run_checks(n_max_a=6, n_max_b=4)) == {
        "psi-signed-bijection": "psi_signed pleaf mismatch on -1 -2",
    }


def test_a_map_walk_that_refuses_valid_maps_raises(monkeypatch):
    # the walk refusing every node with a left child: the namer of the
    # maps raises, so no second reader hands back the right word
    mutant = _mutant(core, "_linked_inorder", "if lk <= v or", "if lk or")
    maps = verify.bijections._graft_maps((2, 1, 4, 3))
    with pytest.raises(InvalidTreeError) as info:
        mutant(*maps)
    assert str(info.value) == "the child maps are not one tree rooted at 1"
    monkeypatch.setattr(verify, "_linked_inorder", mutant)
    assert _failures(run_checks(n_max_a=6, n_max_b=4)) == {
        "conjugation-diagram": (
            "InvalidTreeError: the child maps are not one tree rooted at -2"
        ),
        "psi-equality": "InvalidTreeError: the child maps are not one tree rooted at 1",
        "psi-signed-bijection": (
            "InvalidTreeError: the child maps are not one tree rooted at -2"
        ),
    }


def test_the_family_counts_catch_a_pinned_mutant_of_a_generator(monkeypatch):
    # the family cache keeps what earlier runs built, so the run gets a
    # cache of its own: the Andre insertion keeps descents, not ascents
    monkeypatch.setattr(verify, "_family", lru_cache(verify._family.__wrapped__))
    mutant = _mutant(
        verify.families, "_iter_bottom_up", "if w[j] < w[j + 1]", "if w[j] > w[j + 1]"
    )
    monkeypatch.setattr(verify.families, "_iter_bottom_up", mutant)
    (report,) = run_checks(["entringer-families"], n_max_a=6, n_max_b=4)
    assert report.counterexample == "andre: n=3 k=2 expected=1 actual=0"


def test_the_checks_catch_a_pinned_mutant_of_the_grown_words(monkeypatch):
    # growth puts a leaf's new child after the leaf in the word; the trees
    # stay right, so only the checks that read the kept words see it.  The
    # run gets a cache of its own, as above
    monkeypatch.setattr(verify, "_family", lru_cache(verify._family.__wrapped__))
    trees = set(iter_family("tree-b", 4))
    mutant = _mutant(
        verify.families, "_grown",
        "i = word.index(t.label)\n", "i = word.index(t.label) + 1\n",
    )
    monkeypatch.setattr(verify.families, "_grown", mutant)
    assert set(iter_family("tree-b", 4)) == trees
    assert _failures(run_checks(n_max_a=6, n_max_b=4)) == {
        "arnold-families": "tree-b: n=2 k=-2 expected=0 actual=2",
        "entringer-families": "tree: n=2 k=1 expected=0 actual=1",
        "omega-bijection": "omega last entry mismatch on 1(2)",
        "omega-signed-bijection": "omega_signed last entry mismatch on -2(-1)",
        "psi-bijection": "psi images at n=2 are not exactly the trees",
        "psi-signed-bijection": (
            "psi_signed images at n=2 are not exactly the signed trees"
        ),
    }


def test_a_cold_run_reads_the_tree_words_it_keeps(monkeypatch):
    # the checks read each tree's pleaf and inorder word from the words
    # growth keeps, so a cold run walks no tree for its pleaf, and reads
    # inorder only from psi-bijection's trees, which psi_inv takes, and
    # inside chuang_phi, one map of the factorization it checks
    monkeypatch.setattr(verify, "_family", lru_cache(verify._family.__wrapped__))
    walks = Counter()

    def counted(func):
        def call(t):
            walks[func.__name__, sys._getframe(1).f_code.co_name] += 1
            return func(t)

        return call

    walkers = (core.inorder, core.pleaf)
    for module in (core, verify.families, verify, verify.bijections, verify.cdindex):
        for name, value in list(vars(module).items()):
            if any(value is func for func in walkers):
                monkeypatch.setattr(module, name, counted(value))
    reports = run_checks(None, 7, 5)
    assert all(r.status == PASS for r in reports)
    (psi,) = [r for r in reports if r.check_id == "psi-bijection"]
    assert psi.counts == {"objects": 358}
    assert walks == {
        ("inorder", "_check_bijection"): 358,
        ("inorder", "chuang_phi"): 554,
    }
