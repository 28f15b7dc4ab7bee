"""The four workloads: inputs, timed bodies and reference checks.

A runner calls into ``zigzag`` through the tracer (a pass-through when
untraced), times every unit of work itself and returns

- ``units``: ``(name, seconds, items)`` per unit, in run order.  A unit
  is one check, one (n, k) count, one object or one command; every
  sample of a run has the same units, so ``run.py`` can compare a unit's
  time across samples;
- ``ops``: ``(label, check)`` per attempted operation, where ``check()``
  returns None or a description of what went wrong.

Checks run after the timed body and after peak RSS is read, so
reference work (parsing a 12 MB JSON file, say) shows in neither.  An
operation that raised carries its exception into its check.

References are independent of the code under test: hard-coded OEIS
numbers, the benchmark's own recurrences in :mod:`gen`, and pinned
object counts and output digests from the package as it stood when the
benchmark was added.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import time

import gen
from spec import PROFILES, VERIFY_CHECKS


def _failed(exc: BaseException):
    return lambda: f"raised {exc!r}"


# ---------------------------------------------------------------------------
# verify-default


def run_verify(zz, cfg, tr, inputs, out_dir):
    units, ops = [], []
    for cid in VERIFY_CHECKS:
        start = time.perf_counter()
        try:
            reports = tr.call(
                f"verify.{cid}", zz.verify.run_checks, [cid], cfg["n_max_a"], cfg["n_max_b"]
            )
        except Exception as exc:
            check = _failed(exc)
        else:
            check = _verify_check(reports, cid, cfg["objects"][cid])
        units.append((cid, time.perf_counter() - start, cfg["objects"][cid]))
        ops.append((cid, check))
    return units, ops


def _verify_check(reports, cid, expected):
    def check():
        if len(reports) != 1 or reports[0].check_id != cid:
            return f"expected one report for {cid}"
        r = reports[0]
        if r.status != "PASS":
            return f"{r.status}: {r.counterexample}"
        if r.counts.get("objects") != expected:
            return f"checked {r.counts.get('objects')} objects, reference {expected}"
        return None

    return check


# ---------------------------------------------------------------------------
# conjecture-sweep


def run_conjecture(zz, cfg, tr, inputs, out_dir):
    """One unit per ``count_hetyei_fast(n + 1, n + 2 - k)`` call.

    The call is wrapped where ``verify`` looks it up, so each count's
    value and time are recorded; the value is checked against the
    benchmark's own Arnold number S(n, k).  Everything else in the
    sweep (the Arnold table, the reports) is one more unit, "rest".
    """
    n_max = cfg["n_max"]
    reference = gen.arnold(n_max)
    fam = zz.verify.families
    count = fam.count_hetyei_fast
    calls = {}

    def recorded(n, k, *args, **kwargs):
        begun = time.perf_counter()
        value = count(n, k, *args, **kwargs)
        calls[(n - 1, n + 1 - k)] = (value, time.perf_counter() - begun)
        return value

    fam.count_hetyei_fast = recorded
    start = time.perf_counter()
    try:
        reports = tr.call(
            "verify.conjecture", zz.verify.check_conjecture, n_max, force=True
        )
    except Exception as exc:
        reports, error = [], exc
    else:
        error = None
    finally:
        fam.count_hetyei_fast = count
    total = time.perf_counter() - start
    units = [(f"n={n} k={k}", s, reference[(n, k)]) for (n, k), (_, s) in calls.items()]
    units.append(("rest", total - sum(s for _, s, _ in units), 0))
    by_n = {r.params.get("n"): r for r in reports}
    ops = []
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            if error:
                check = _failed(error)
            else:
                check = _conjecture_check(by_n.get(n), calls.get((n, k)), reference, n, k)
            ops.append((f"n={n} k={k}", check))
    return units, ops


def _conjecture_check(report, call, reference, n, k):
    def check():
        if report is None:
            return f"no report for n={n}"
        if report.status != "PASS":
            return f"{report.status}: {report.counterexample}"
        if report.counts.get("compared") != n:
            return f"compared {report.counts.get('compared')} of {n} values at n={n}"
        if call is None:
            return f"count_hetyei_fast({n + 1}, {n + 2 - k}) was not called"
        if call[0] != reference[(n, k)]:
            return f"counted {call[0]} words, Arnold number {reference[(n, k)]}"
        return None

    return check


# ---------------------------------------------------------------------------
# maps-random


def maps_inputs(cfg, seed: int, tree_cls) -> list[dict]:
    """Seeded random objects; the same seed gives the same list."""
    rng = random.Random(f"maps-random:{seed}")
    n = cfg["n"]
    out = []
    for _ in range(cfg["objects"]):
        children = gen.random_tree_children(n, rng)
        out.append(
            {
                "alt": gen.alternating(n, rng),
                "signed_alt": gen.signed_alternating(n, rng),
                "tree": gen.build_tree(children, tree_cls),
                "tree_pleaf": gen.pleaf(children),
                "hetyei": gen.forced_sign_andre(children, rng),
            }
        )
    return out


def _tree_pleaf(t) -> int:
    while t.left is not None:
        t = t.left
    return t.label


def _chain(zz, tr, obj) -> dict:
    b, cd, core = zz.bijections, zz.cdindex, zz.core
    p, q, h, tree = obj["alt"], obj["signed_alt"], obj["hetyei"], obj["tree"]
    r = {}
    r["psi_c"] = b.psi_c(p)[0]
    r["psi_b"] = b.psi_b(p)
    r["omega"] = b.omega(tree)
    r["omega_inv"] = b.omega_inv(r["omega"])
    r["phi"] = b.phi(r["omega"])
    r["phi_inv"] = b.phi_inv(r["phi"])
    r["chuang_phi"] = b.chuang_phi(tree)
    r["rv_andre"] = cd.reduced_variation_andre(r["omega"])
    r["rv_simsun"] = cd.reduced_variation_simsun(r["phi"])
    r["psi_signed"] = b.psi_signed(q)
    r["omega_signed"] = b.omega_signed(r["psi_signed"])
    r["phi_signed"] = b.phi_signed(h)
    r["texts"] = [
        tr.call("core.parse", core.perm_from_text, tr.call("core.format", core.perm_to_text, w))
        for w in (p, q, h)
    ]
    r["literal"] = tr.call(
        "core.parse", core.tree_from_literal, tr.call("core.format", core.tree_to_literal, tree)
    )
    return r


def _maps_check(obj, r):
    def check():
        p, q, h, tree = obj["alt"], obj["signed_alt"], obj["hetyei"], obj["tree"]
        props = {
            "pleaf(psi_c(p)) == p[0]": _tree_pleaf(r["psi_c"]) == p[0],
            "psi_b == psi_c": r["psi_b"] == r["psi_c"],
            "omega_inv(omega(t)) == t": r["omega_inv"] == tree,
            "phi_inv(phi(w)) == w": r["phi_inv"] == r["omega"],
            "chuang_phi == phi . omega": r["chuang_phi"] == r["phi"],
            "last(omega(t)) == pleaf(t)": r["omega"][-1] == obj["tree_pleaf"],
            "reduced variations equal": r["rv_andre"] == r["rv_simsun"],
            "pleaf(psi_signed(q)) == q[0]": _tree_pleaf(r["psi_signed"]) == q[0],
            "last(omega_signed(t)) == pleaf(t)": (
                r["omega_signed"][-1] == _tree_pleaf(r["psi_signed"])
            ),
            "last(phi_signed(h)) == last(h) - 1": (
                len(r["phi_signed"]) == len(h) - 1 and r["phi_signed"][-1] == h[-1] - 1
            ),
            "text round trips": r["texts"] == [p, q, h] and r["literal"] == tree,
        }
        broken = [name for name, ok in props.items() if not ok]
        return f"broken: {', '.join(broken)}" if broken else None

    return check


def run_maps(zz, cfg, tr, inputs, out_dir):
    units, ops = [], []
    for i, obj in enumerate(inputs):
        start = time.perf_counter()
        try:
            result = _chain(zz, tr, obj)
        except Exception as exc:
            check = _failed(exc)
        else:
            check = _maps_check(obj, result)
        units.append((f"object {i}", time.perf_counter() - start, 1))
        ops.append((f"object {i}", check))
    return units, ops


# ---------------------------------------------------------------------------
# cli-export


def cli_expected(argv: list[str]) -> tuple[str, int]:
    """(what to count, how many) for one export, from the benchmark's numbers.

    ``lines`` counts text lines, ``objects`` and ``rows`` the entries of
    the JSON document.  The andre-h count is S(n-1, n+1-k), the identity
    the conjecture sweep confirms by exhaustive count for words of length
    up to 8.
    """
    n = int(argv[argv.index("--n") + 1])
    if argv[0] == "triangle":
        if argv[1] == "entringer":
            return "lines", 1 + n * (n + 1) // 2
        return "rows", n
    family = argv[1]
    if family in ("andre", "tree"):
        count = gen.EULER_A000111[n]
    elif family == "snake":
        count = gen.SPRINGER_A001586[n]
    elif family == "andre-h":
        k = int(argv[argv.index("--k") + 1])
        count = gen.arnold(n - 1)[(n - 1, n + 1 - k)]
    else:
        raise ValueError(f"no reference count for {family}")
    return ("objects" if "json" in argv else "lines"), count


def _cli_check(argv, digest, path, code):
    def check():
        if code != 0:
            return f"exit code {code}"
        with open(path, "rb") as f:
            data = f.read()
        kind, want = cli_expected(argv)
        if kind == "lines":
            got = data.count(b"\n")
        elif kind == "rows":
            sums = [int(v) for v in re.findall(rb'"row_sum": (\d+)', data)]
            if sums != [gen.springer(m) for m in range(1, want + 1)]:
                return "row sums differ from the Springer numbers"
            got = len(sums)
        else:
            got = len(json.loads(data)[kind])
        if got != want:
            return f"{got} {kind}, reference {want}"
        if hashlib.sha256(data).hexdigest() != digest:
            return "output digest differs from the pinned one"
        return None

    return check


def run_cli(zz, cfg, tr, inputs, out_dir):
    units, ops = [], []
    for i, (argv, digest) in enumerate(cfg):
        path = os.path.join(out_dir, f"export-{i}.out")
        start = time.perf_counter()
        try:
            code = tr.call("cli.dispatch", zz.cli.dispatch, [*argv, "--output", path])
        except Exception as exc:
            check = _failed(exc)
        else:
            check = _cli_check(argv, digest, path, code)
        seconds = time.perf_counter() - start
        size = os.path.getsize(path) if os.path.exists(path) else 0
        units.append((f"export {i}", seconds, size))
        ops.append((" ".join(argv), check))
    return units, ops


# name -> (profile section, runner)
RUNNERS = {
    "verify-default": ("verify", run_verify),
    "conjecture-sweep": ("conjecture", run_conjecture),
    "maps-random": ("maps", run_maps),
    "cli-export": ("cli", run_cli),
}


def config(workload: str, profile: str):
    return PROFILES[profile][RUNNERS[workload][0]]


def operations(workload: str, profile: str) -> int:
    """Operations one sample attempts, for counting a lost sample."""
    cfg = config(workload, profile)
    if workload == "conjecture-sweep":
        return cfg["n_max"] * (cfg["n_max"] + 1) // 2
    if workload == "maps-random":
        return cfg["objects"]
    return len(VERIFY_CHECKS) if workload == "verify-default" else len(cfg)
