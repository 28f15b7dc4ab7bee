import json

import pytest

from zigzag.core import Tree, order_relabel
from zigzag.families import GuardExceededError
from zigzag import verify
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


def test_size_caps_enforced():
    with pytest.raises(GuardExceededError):
        run_checks(["psi-equality"], n_max_a=10, n_max_b=3)
    with pytest.raises(GuardExceededError):
        run_checks(["psi-equality"], n_max_a=5, n_max_b=8)


@pytest.mark.parametrize("n_max_a, n_max_b", [(0, 0), (0, 3), (4, 0), (-1, 2)])
def test_caps_below_one_rejected(n_max_a, n_max_b):
    with pytest.raises(ValueError, match="at least 1"):
        run_checks(["psi-equality"], n_max_a=n_max_a, n_max_b=n_max_b)


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
    # psi_signed grafts the signed labels directly.  Relabeling the
    # unsigned tree back by absolute value instead of signed order is a
    # wrong route, and the check must see it.
    def by_absolute_value(p):
        back = dict(zip(range(1, len(p) + 1), sorted(p, key=abs)))

        def relabel(t):
            if t is None:
                return None
            return Tree(back[t.label], relabel(t.left), relabel(t.right))

        return relabel(verify.bijections.psi(order_relabel(p, range(1, len(p) + 1))))

    (report,) = run_checks(["conjugation-diagram"], n_max_a=1, n_max_b=3)
    assert report.status == PASS
    monkeypatch.setattr(verify.bijections, "psi_signed", by_absolute_value)
    (report,) = run_checks(["conjugation-diagram"], n_max_a=1, n_max_b=3)
    assert report.status == FAIL
    assert report.counterexample == "psi conjugation square fails on -1 -2"


def test_psi_signed_image_set_is_compared(monkeypatch):
    # one image replaced by another with the same pleaf: only the image
    # set comparison can see it
    real = verify.bijections.psi_signed
    swapped = {(2, -3, 1): (2, -3, -1)}
    monkeypatch.setattr(
        verify.bijections, "psi_signed", lambda p: real(swapped.get(p, p))
    )
    (report,) = run_checks(["psi-signed-bijection"], n_max_a=1, n_max_b=3)
    assert report.status == FAIL
    assert report.counterexample == (
        "psi_signed images at n=3 are not exactly the signed trees"
    )
