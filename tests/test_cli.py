import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from oracles import _map_json, _object_json
from zigzag import verify
from zigzag.bijections import psi_c
from zigzag.cli import _MAPS, SCHEMA, _build_parser, dispatch
from zigzag.core import Tree, perm_to_text, tree_to_literal
from zigzag.families import _SIGNED_TAGS, FamilyTag, iter_family


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_csv_contains_cited_row(capsys):
    code, out, _ = run(capsys, "triangle", "entringer", "--n", "7", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert "7,4,46" in lines


def test_triangle_text_row_sums(capsys):
    code, out, _ = run(capsys, "triangle", "arnold", "--n", "3")
    assert code == 0
    assert "n=3: 0 2 3 3 4 4 | 11" in out


def test_triangle_json_schema(capsys):
    code, out, _ = run(capsys, "triangle", "entringer", "--n", "3", "--format", "json")
    doc = json.loads(out)
    assert doc["schema"] == "zigzag/1"
    assert doc["rows"][2]["row_sum"] == 2


def test_triangle_boustrophedon(capsys):
    code, out, _ = run(
        capsys, "triangle", "entringer", "--n", "4", "--format", "boustrophedon"
    )
    assert code == 0
    assert "1 ← 1 ← 0" in out


def test_triangle_guard(capsys):
    code, _, err = run(capsys, "triangle", "entringer", "--n", "51")
    assert code == 2
    assert "force" in err


def test_enumerate_andre(capsys):
    code, out, _ = run(capsys, "enumerate", "andre", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["1234", "1423", "3124", "3412", "4123"]


def test_enumerate_refined(capsys):
    code, out, _ = run(capsys, "enumerate", "alt", "--n", "4", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["2143"]


def test_enumerate_trees(capsys):
    code, out, _ = run(capsys, "enumerate", "tree", "--n", "4")
    assert code == 0
    assert len(out.splitlines()) == 5
    assert "1(2(3(4)))" in out.splitlines()


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "tree", "--n", "2", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["objects"] == [{"label": 1, "left": {"label": 2, "left": None, "right": None}, "right": None}]


@pytest.mark.parametrize("tag", [t.value for t in FamilyTag])
def test_enumerate_json_matches_the_indenting_encoder(capsys, tag):
    # every k the family accepts at n <= 4, some of them matching nothing
    signed = FamilyTag(tag) in _SIGNED_TAGS
    for n in range(1, 5):
        ks = [None, *(k for k in range(-n, n + 1) if k > 0 or (signed and k))]
        for k in ks:
            argv = ["enumerate", tag, "--n", str(n), "--format", "json"]
            if k is not None:
                argv += ["--k", str(k)]
            code, out, _ = run(capsys, *argv)
            objects = [_object_json(obj) for obj in iter_family(tag, n, k)]
            doc = {"schema": SCHEMA, "family": tag, "n": n, "k": k, "objects": objects}
            assert code == 0
            assert out == json.dumps(doc, indent=2) + "\n", argv


def test_enumerate_json_of_an_empty_result(capsys):
    argv = ["enumerate", "alt", "--n", "3", "--k", "1", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (
        '{\n  "schema": "zigzag/1",\n  "family": "alt",\n  "n": 3,\n'
        '  "k": 1,\n  "objects": []\n}\n'
    )


def test_enumerate_json_refusal_writes_nothing(capsys):
    argv = ["enumerate", "alt", "--n", "3", "--k", "4", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: refinement k must satisfy 1 <= k <= 3, got 4\n"


def test_enumerate_guard_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "alt", "--n", "13")
    assert code == 2
    assert "force" in err


def test_map_phi(capsys):
    code, out, _ = run(capsys, "map", "phi", "--input", "684512937")
    assert code == 0
    assert out.strip() == "57341286"


def test_map_omega(capsys):
    code, out, _ = run(capsys, "map", "omega", "--input", "1(2(3(7,9)),4(5,6(8)))")
    assert code == 0
    assert out.strip() == "684512937"


def test_map_psi_trace(capsys):
    code, out, _ = run(capsys, "map", "psi", "--input", "748591623", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1(2(4(5(7,9),8)),3(6))"
    assert "i=2 a=9 b=- case=C2" in lines


def test_map_psi_trace_text_output_is_pinned(capsys):
    # pinned from psi_c as it stood when each step went through the
    # dataclass constructor; the other trace tests read the same step
    # objects on both sides, so only a pin sees how they are built
    digest = hashlib.sha256()
    lines = 0
    for p in iter_family("alt", 7):
        code, out, _ = run(
            capsys, "map", "psi", f"--input={perm_to_text(p)}", "--trace"
        )
        assert code == 0
        digest.update(out.encode())
        lines += out.count("\n")
    assert lines == 1088
    assert digest.hexdigest() == (
        "6e62c77922dc886e7c0dd5d82b24513313b9c1b6cab9572a2e630ff64183b5bb"
    )


@pytest.mark.parametrize(
    "name, literal", [("psi-b", "2143"), ("omega", "1(2,3)"), ("psi-signed", "1")]
)
def test_map_trace_is_psi_only(capsys, name, literal):
    code, out, err = run(capsys, "map", name, "--input", literal, "--trace")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: --trace applies only to map psi, not {name}"]


def test_map_signed(capsys):
    code, out, _ = run(
        capsys, "map", "psi-signed", "--input", "6 -3 9 -8 2 -1 7 -4 5"
    )
    assert code == 0
    assert out.strip() == "-8(-4(-3(6,9)),-1(2,5(7)))"


def test_map_leading_minus_input_equals_form(capsys):
    code, out, _ = run(capsys, "map", "omega-signed", "--input=-2(1,3)")
    assert code == 0
    assert out.strip() == "3 -2 1"


def test_map_json(capsys):
    code, out, _ = run(
        capsys, "map", "phi", "--input", "3412", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["map"] == "phi"
    assert doc["output"] == [2, 3, 1]


def test_map_phi_inv_reads_back_the_empty_word(capsys):
    # phi of the singleton prints a blank line, and phi-inv reads it back
    code, out, _ = run(capsys, "map", "phi", "--input", "1")
    assert (code, out) == (0, "\n")
    for blank in (out.strip(), "", "  "):
        code, out, err = run(capsys, "map", "phi-inv", "--input", blank)
        assert (code, out, err) == (0, "1\n", "")


def test_map_phi_inv_reads_back_the_empty_word_in_json(capsys):
    code, out, _ = run(capsys, "map", "phi", "--input", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["output"] == []
    code, out, _ = run(capsys, "map", "phi-inv", "--input", "", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["map"], doc["input"], doc["output"]) == ("phi-inv", [], [1])


# the family each map takes its inputs from
_MAP_SOURCES = {
    "omega": "tree",
    "omega-inv": "andre",
    "phi": "andre",
    "phi-inv": "simsun",
    "psi": "alt",
    "psi-b": "alt",
    "psi-inv": "tree",
    "psi-signed": "alt-b",
    "omega-signed": "tree-b",
    "phi-signed": "andre-h",
    "chuang-phi": "tree",
}


@pytest.mark.parametrize("name", sorted(_MAPS))
def test_map_json_matches_the_indenting_encoder(capsys, name):
    func, domain = _MAPS[name]
    render = tree_to_literal if domain == "tree" else perm_to_text
    for n in range(1, 6):
        for obj in iter_family(_MAP_SOURCES[name], n):
            argv = ["map", name, f"--input={render(obj)}", "--format", "json"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out == _map_json(name, obj, func(obj)), argv


def test_map_psi_trace_json_matches_the_indenting_encoder(capsys):
    for n in range(1, 6):
        for p in iter_family("alt", n):
            argv = ["map", "psi", f"--input={perm_to_text(p)}", "--trace"]
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0
            assert out == _map_json("psi", p, *psi_c(p)), argv


def test_map_json_of_the_empty_word_matches_the_indenting_encoder(capsys):
    for name, value, result in (("phi", (1,), ()), ("phi-inv", (), (1,))):
        argv = ["map", name, f"--input={perm_to_text(value)}", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == _map_json(name, value, result)


def test_map_json_of_a_1000_node_chain_matches_the_indenting_encoder(capsys):
    # the indenting encoder recurses once per tree level, so the oracle
    # needs a raised recursion limit; the CLI walks with a stack
    n = 1000
    identity = tuple(range(1, n + 1))
    argv = ["map", "omega-inv", f"--input={perm_to_text(identity)}", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    chain = Tree(n)
    for v in range(n - 1, 0, -1):
        chain = Tree(v, chain)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10 * n)
    try:
        expected = _map_json("omega-inv", identity, chain)
    finally:
        sys.setrecursionlimit(limit)
    assert out == expected


@pytest.mark.parametrize("name", ["phi", "psi", "psi-b", "omega-inv", "phi-signed"])
def test_map_other_than_phi_inv_refuses_blank_input(capsys, name):
    code, out, err = run(capsys, "map", name, "--input", " ")
    assert (code, out) == (2, "")
    assert err == "error: empty permutation text\n"


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (
            ["enumerate", "andre", "--n", "8"], 1385,
            "6e65df299904712c95e27425378418382f2a030f09202a910149142a9659477a",
        ),
        (
            ["enumerate", "snake", "--n", "6"], 2763,
            "39bb54f339eb18331a73eb71ac9780d2b2b75a280251b4c1656cdf6b48a4497e",
        ),
    ],
    ids=["andre-8", "snake-6"],
)
def test_enumerate_text_output_is_pinned(capsys, argv, lines, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_map_bad_input_is_usage_error(capsys):
    code, _, err = run(capsys, "map", "phi", "--input", "4312")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "name, literal",
    [
        ("omega", "2(5)"),
        ("chuang-phi", "3(7,9)"),
        ("psi-inv", "2(3)"),
        ("omega-signed", "-2(1,5)"),
    ],
)
def test_map_rejects_labels_other_than_one_to_n(capsys, name, literal):
    code, out, err = run(capsys, "map", name, f"--input={literal}")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} expects") and "exactly 1.." in err


def test_verify_json_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--checks", "psi-equality,chuang-factorization",
        "--n-max-a", "4", "--n-max-b", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["check_id"] for r in doc] == ["chuang-factorization", "psi-equality"]
    assert all(r["status"] == "PASS" for r in doc)


def test_verify_text_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--checks", "psi-equality",
        "--n-max-a", "3", "--n-max-b", "2", "--format", "text",
    )
    assert code == 0
    assert out.startswith("PASS  psi-equality")


def test_verify_caps_below_one_are_usage_errors(capsys):
    code, out, err = run(
        capsys, "verify", "--n-max-a", "0", "--n-max-b", "0",
        "--checks", "psi-equality", "--format", "text",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: check caps must be at least 1")


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--checks", "bogus")
    assert code == 2
    assert "unknown check" in err


def test_verify_check_ids_may_have_spaces_around_them(capsys):
    code, out, err = run(
        capsys,
        "verify", "--checks", " psi-equality, chuang-factorization ",
        "--n-max-a", "4", "--n-max-b", "3",
    )
    assert (code, err) == (0, "")
    assert [r["check_id"] for r in json.loads(out)] == [
        "chuang-factorization", "psi-equality"
    ]


def test_verify_unknown_check_is_named_in_quotes(capsys):
    code, out, err = run(capsys, "verify", "--checks", "psi-equality, bogus id")
    assert (code, out) == (2, "")
    assert err == "error: unknown check ids: 'bogus id'\n"


@pytest.mark.parametrize("checks", ["", "psi-equality,", " "])
def test_verify_empty_check_id_is_a_usage_error(capsys, checks):
    code, out, err = run(capsys, "verify", "--checks", checks)
    assert code == 2
    assert out == ""
    assert err == f"error: --checks names an empty check id: {checks!r}\n"


def test_verify_without_checks_runs_every_check(capsys, monkeypatch):
    from zigzag import cli

    seen = []
    monkeypatch.setattr(
        cli.verify, "run_checks", lambda selection, *a, **k: seen.append(selection) or []
    )
    code, _, _ = run(capsys, "verify")
    assert code == 0
    assert seen == [None]


def test_conjecture_pass(capsys):
    code, out, _ = run(capsys, "conjecture", "--n-max", "3", "--format", "text")
    assert code == 0
    assert out.count("PASS") == 3


def test_conjecture_default_sweep(capsys):
    code, out, _ = run(capsys, "conjecture", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 100
    assert all(line.startswith("PASS  conjecture n=") for line in lines)
    assert "n=100" in lines[-1]


def test_conjecture_past_the_cap_needs_force(capsys):
    code, out, err = run(capsys, "conjecture", "--n-max", "101")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_failure_exit_code(capsys, monkeypatch):
    from zigzag import cli, verify

    report = verify.CheckReport("psi-equality", {}, verify.FAIL, {}, "witness", 0.0)
    monkeypatch.setattr(cli.verify, "run_checks", lambda *a, **k: [report])
    code, out, _ = run(capsys, "verify", "--format", "text")
    assert code == 1
    assert "FAIL" in out and "witness" in out


def test_conjecture_counterexample_exit_code(capsys, monkeypatch):
    from zigzag import cli, verify

    report = verify.CheckReport(
        "conjecture", {"n": 3}, verify.FAIL, {"compared": 1}, "n=3 k=1: off", 0.0
    )
    monkeypatch.setattr(cli.verify, "check_conjecture", lambda *a, **k: [report])
    code, out, _ = run(capsys, "conjecture", "--format", "text")
    assert code == 3
    assert "counterexample: n=3 k=1: off" in out


def test_conjecture_row_whose_count_raises_exits_3(capsys, monkeypatch):
    from zigzag import verify

    real = verify.families.count_hetyei_fast

    def count(n, k):
        if n == 4:
            raise RuntimeError("boom")
        return real(n, k)

    monkeypatch.setattr(verify.families, "count_hetyei_fast", count)
    code, out, err = run(capsys, "conjecture", "--n-max", "5", "--format", "text")
    assert code == 3
    assert err == ""
    assert [line.split()[0] for line in out.splitlines()[:5]] == [
        "PASS", "PASS", "FAIL", "PASS", "PASS",
    ]
    assert out.splitlines()[-1] == "counterexample: RuntimeError: boom"


def test_map_psi_inv_at_the_guard(capsys):
    # one past the enumeration guard: map has no --force and needs none
    chain = "".join(f"{i}(" for i in range(1, 13)) + "13" + ")" * 12
    code, out, err = run(capsys, "map", "psi-inv", "--input", chain)
    assert code == 0
    assert err == ""
    assert out == "13 11 12 9 10 7 8 5 6 3 4 1 2\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["triangle"])
    assert exc.value.code == 2


def test_parser_reuse_keeps_the_defaults(capsys):
    assert _build_parser() is _build_parser()
    argv = ["enumerate", "alt", "--n", "4"]
    code, out, _ = run(capsys, *argv, "--k", "2", "--force", "--format", "json")
    assert code == 0
    assert json.loads(out)["objects"] == [[2, 1, 4, 3]]
    args = _build_parser().parse_args(argv)
    assert (args.k, args.force, args.format, args.output) == (None, False, "text", None)
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "2143\n3142\n3241\n4132\n4231\n")
    for bad in (["triangle"], [*argv, "--k", "x"], ["enumerate", "alt"]):
        with pytest.raises(SystemExit) as exc:
            dispatch(bad)
        assert exc.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "triangle", "entringer", "--n", "3",
        "--format", "csv", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert "3,2,1" in target.read_text().splitlines()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "andre", "--n", "13"], "enumeration of andre at n=13"),
        (["triangle", "entringer", "--n", "60"], "entringer triangle at n=60"),
        (["map", "phi", "--input", "1 1"], "duplicate value 1"),
        (["enumerate", "andre", "--n", "4", "--k", "9"], "refinement k must"),
        *(
            (["triangle", "entringer", "--n", "0", "--format", fmt],
             "--n must be at least 1")
            for fmt in ("text", "csv", "json", "boustrophedon")
        ),
    ],
    ids=[
        "guarded-family", "guarded-triangle", "bad-word", "bad-k",
        *(f"empty-triangle-{fmt}" for fmt in ("text", "csv", "json", "boustrophedon")),
    ],
)
def test_refused_command_leaves_the_output_file_alone(tmp_path, capsys, argv, message):
    target = tmp_path / "kept.txt"
    target.write_text("precious")
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert target.read_text() == "precious"


def test_output_to_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(
        capsys, "enumerate", "andre", "--n", "3", "--output", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "zigzag", "triangle", "entringer", "--n", "3"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "n=3: 0 1 1 | 2"


@pytest.mark.parametrize(
    "argv, first",
    [
        (["enumerate", "andre", "--n", "10"], b"1 2 3 4 5 6 7 8 9 10\n"),
        (["triangle", "entringer", "--n", "200", "--force", "--format", "csv"],
         b"n,k,value\n"),
    ],
    ids=["enumerate", "triangle"],
)
def test_closed_pipe_exits_141_without_a_traceback(argv, first):
    # the reader takes one line and closes the pipe, as `| head -1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "zigzag", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    line = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert (line, err) == (first, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "to_file, where", [(True, "/dev/full"), (False, "standard output")],
    ids=["output", "stdout"],
)
def test_full_device_exits_2_without_a_traceback(to_file, where):
    # every write to /dev/full fails with ENOSPC, at the flush or at close
    argv = [sys.executable, "-m", "zigzag", "triangle", "entringer", "--n", "5"]
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            argv + ["--output", "/dev/full"] if to_file else argv,
            stdout=subprocess.PIPE if to_file else full,
            stderr=subprocess.PIPE, text=True, env=_src_env(), timeout=60,
        )
    assert done.returncode == 2
    assert done.stderr == (
        f"error: cannot write {where}: {os.strerror(errno.ENOSPC)}\n"
    )
    assert done.stdout == ("" if to_file else None)


# pools for the seeded fuzz: every size is at most 6, so --force stays
# cheap; each pool mixes valid values with malformed or out-of-range ones
_FUZZ_NUMBERS = ["0", "-1", "-6", "x", "", "2.5", "1e2"]
_FUZZ_LITERALS = [
    "1 1", "0", "", "abc", "2 -3 1", "2(1)", "1(1)", "1(2,", "(", "1(,2)", "1(2,3)",
]
_FUZZ_FORMATS = {
    "triangle": ["text", "json", "csv", "boustrophedon"],
    "enumerate": ["text", "json"],
    "map": ["text", "json"],
    "verify": ["json", "text"],
    "conjecture": ["json", "text"],
}


def _fuzz_argv(rng, out_dir) -> list[str]:
    """One random argument list for ``dispatch``, valid or not."""
    def number(top=6):
        valid = rng.random() < 0.7
        return str(rng.randint(1, top)) if valid else rng.choice(_FUZZ_NUMBERS)

    def one_of(valid, bad):
        return rng.choice(valid if rng.random() < 0.8 else bad)

    command = one_of(sorted(_FUZZ_FORMATS), ["bogus", "--n"])
    if command == "triangle":
        argv = [command, one_of(["entringer", "arnold"], ["pascal"]), "--n", number()]
    elif command == "enumerate":
        tags = [t.value for t in FamilyTag]
        argv = [command, one_of(tags, ["bogus"]), "--n", number()]
        if rng.random() < 0.5:
            argv += ["--k", number()]
    elif command == "map":
        name = one_of(sorted(_MAPS), ["bogus"])
        if name in _MAPS and rng.random() < 0.6:
            render = tree_to_literal if _MAPS[name][1] == "tree" else perm_to_text
            objects = list(iter_family(_MAP_SOURCES[name], rng.randint(1, 5)))
            literal = render(rng.choice(objects))
        else:
            literal = rng.choice(_FUZZ_LITERALS)
        argv = [command, name, f"--input={literal}"]
        if rng.random() < 0.3:
            argv.append("--trace")
    elif command == "verify":
        ids = rng.sample(verify.check_ids() + ("bogus", "", " psi-equality"), 3)
        argv = [command, "--n-max-a", number(), "--n-max-b", number(4)]
        if rng.random() < 0.8:
            argv.append(f"--checks={','.join(ids[: rng.randint(1, 3)])}")
    elif command == "conjecture":
        argv = [command, "--n-max", number()]
    else:
        argv = [command]
    if rng.random() < 0.5:
        argv += ["--format", one_of(_FUZZ_FORMATS.get(command, ["text"]), ["xml", ""])]
    if rng.random() < 0.3:
        argv.append("--force")
    if rng.random() < 0.2:
        argv += ["--output", str(out_dir / one_of(["out.txt"], ["missing/out.txt"]))]
    return argv


def test_seeded_cli_fuzz_exits_cleanly(capsys, tmp_path):
    # every outcome is success, a usage or guard error, or a conjecture
    # FAIL; none is a traceback
    rng = random.Random(26)
    codes = Counter()
    for _ in range(400):
        argv = _fuzz_argv(rng, tmp_path)
        try:
            code = dispatch(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), argv
        assert "Traceback" not in out + err, argv
        codes[code] += 1
    assert codes[0] and codes[2]
