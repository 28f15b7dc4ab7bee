"""Tests of the benchmark itself: generators, references, tracing, output.

Run from the repository root: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import child
import gen
import spec
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import zigzag  # noqa: E402
from zigzag import cli  # noqa: E402,F401  (loads zigzag.cli for the runners)

BENCHMARK = spec.benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _is_down_up(p) -> bool:
    return all((p[i] > p[i + 1]) == (i % 2 == 0) for i in range(len(p) - 1))


def test_recurrences_match_oeis():
    assert [gen.euler(n) for n in range(13)] == list(gen.EULER_A000111)
    assert [gen.springer(n) for n in range(1, 11)] == list(gen.SPRINGER_A001586[1:])
    table = zigzag.entringer_table(9)
    assert all(gen.entringer(9)[n][k] == table.value(n, k) for n in range(1, 10) for k in range(1, n + 1))


def test_host_reference_counts_down_up_permutations():
    assert [child._down_up_ending(7, k) for k in range(1, 8)] == list(gen.entringer(7)[7][1:])
    assert [name for name, _, _ in child.reference()] == [f"k={k}" for k in range(1, 8)]


@pytest.mark.parametrize("n", range(1, 7))
def test_first_entry_weights_are_entringer_numbers(n):
    counts = {}
    for p in itertools.permutations(range(1, n + 1)):
        if _is_down_up(p):
            counts[p[0]] = counts.get(p[0], 0) + 1
    assert dict(gen.step_weights(n, None, True)) == counts
    assert all(gen.entringer(n)[n][k] == counts.get(k, 0) for k in range(1, n + 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_alternating_sampler_is_exactly_uniform(n):
    # the probability the sampler gives each down-up permutation, exactly
    for p in itertools.permutations(range(1, n + 1)):
        if not _is_down_up(p):
            continue
        remaining, prob, below = list(range(1, n + 1)), Fraction(1), None
        for i, v in enumerate(p):
            choices = dict(gen.step_weights(len(remaining), below, i % 2 == 0))
            r = remaining.index(v) + 1
            prob *= Fraction(choices.get(r, 0), sum(choices.values()))
            remaining.remove(v)
            below = sum(1 for u in remaining if u < v)
        assert prob == Fraction(1, gen.euler(n))
    rng = random.Random(n)
    for _ in range(200):
        p = gen.alternating(n, rng)
        assert sorted(p) == list(range(1, n + 1)) and _is_down_up(p)


def test_signed_inputs_and_trees():
    rng = random.Random(5)
    for n in range(1, 12):
        q = gen.signed_alternating(n, rng)
        assert sorted(abs(v) for v in q) == list(range(1, n + 1)) and _is_down_up(q)
        children = gen.random_tree_children(n, rng)
        tree = gen.build_tree(children, zigzag.Tree)
        zigzag.validate_tree(tree)
        assert gen.reverse_inorder(children) == zigzag.omega(tree)
        assert gen.pleaf(children) == zigzag.pleaf(tree)
        h = gen.forced_sign_andre(children, rng)
        assert zigzag.is_hetyei_andre(h)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload]
        + ["--seed", "3", "--seconds", "1", "--trace", str(trace), "--profile", "tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs():
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(tiny_runs, workload, trace):
    result = tiny_runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(units)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0


def test_traced_conjecture_sweep_makes_no_bijection_calls(tiny_runs):
    layers = {k: v["value"] for k, v in tiny_runs[("conjecture-sweep", 1)]["metrics"].items()}
    assert all(layers[f"bijections.{m}.calls"] == 0 for m in tracing.MAPS)
    assert layers["cdindex.calls"] == 0 and layers["verify.family_builds"] == 0
    assert layers["families.count_hetyei_s"] > 0


def test_traced_verify_sees_calls_through_from_imports(tiny_runs):
    layers = {k: v["value"] for k, v in tiny_runs[("verify-default", 1)]["metrics"].items()}
    # psi_c checks alternation through bijections' own is_alternating name
    assert layers["families.predicate_calls"] > 0
    assert layers["bijections.psi_inv.calls"] > 0
    assert layers["verify.family_builds"] > 0
    assert 0 < layers["families.yield_ratio"] <= 1
    for check in spec.VERIFY_CHECKS:
        assert 0 <= layers[f"verify.{check}.self_s"] <= layers[f"verify.{check}.s"]


def _fail_ratio(workload, cfg, tmp_path) -> float:
    runner = workloads.RUNNERS[workload][1]
    _, ops = runner(zigzag, cfg, tracing.NullTracer(), None, str(tmp_path))
    return sum(check() is not None for _, check in ops) / len(ops)


def test_wrong_reference_makes_fail_ratio_positive(tmp_path):
    cfg = copy.deepcopy(workloads.config("verify-default", "tiny"))
    assert _fail_ratio("verify-default", cfg, tmp_path) == 0
    cfg["objects"]["psi-equality"] += 1
    assert _fail_ratio("verify-default", cfg, tmp_path) == 1 / len(spec.VERIFY_CHECKS)

    cfg = copy.deepcopy(workloads.config("cli-export", "tiny"))
    assert _fail_ratio("cli-export", cfg, tmp_path) == 0
    cfg[2] = (cfg[2][0], "0" * 64)
    assert _fail_ratio("cli-export", cfg, tmp_path) == 1 / len(cfg)


def test_wrong_count_makes_conjecture_fail_ratio_positive(tmp_path, monkeypatch):
    cfg = workloads.config("conjecture-sweep", "tiny")
    assert _fail_ratio("conjecture-sweep", cfg, tmp_path) == 0
    # a reference table that disagrees with the program at one (n, k)
    wrong = dict(gen.arnold(cfg["n_max"]))
    wrong[(3, 2)] += 1
    monkeypatch.setattr(gen, "arnold", lambda n: wrong)
    assert _fail_ratio("conjecture-sweep", cfg, tmp_path) == 1 / 10
    monkeypatch.undo()
    # a sweep that compares without counting
    monkeypatch.setattr(zigzag.verify.families, "count_hetyei_fast", lambda n, k, force=False: 0)
    monkeypatch.setattr(zigzag.verify.triangles, "arnold_table", _zero_table)
    assert _fail_ratio("conjecture-sweep", cfg, tmp_path) == 1


def _zero_table(n_max):
    class Table:
        def value(self, n, k):
            return 0

    return Table()


def test_units_repeat_across_samples(tmp_path):
    for workload in WORKLOADS:
        cfg = workloads.config(workload, "tiny")
        inputs = workloads.maps_inputs(cfg, 3, zigzag.Tree) if workload == "maps-random" else None
        runner = workloads.RUNNERS[workload][1]
        names = [
            [name for name, _, _ in runner(zigzag, cfg, tracing.NullTracer(), inputs, str(tmp_path))[0]]
            for _ in range(2)
        ]
        assert names[0] == names[1] and len(set(names[0])) == len(names[0])


def test_tracer_self_time_subtracts_children():
    tr = tracing.Tracer()
    pred = tr.wrap("families.is_andre", lambda: sum(range(20000)))
    tr.call("verify.x", lambda: [pred() for _ in range(3)])
    layers = tr.summary(bytes_written=0)
    outer = tr.spans[0]
    assert [s[3] for s in tr.spans[1:]] == [0, 0, 0]
    assert layers["families.predicate_calls"] == 3
    assert layers["verify.x.self_s"] == pytest.approx(
        outer[2] - outer[1] - layers["families.predicate_s"]
    )
