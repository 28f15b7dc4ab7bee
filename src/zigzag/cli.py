"""Command-line front end.

Subcommands: ``triangle``, ``enumerate``, ``map``, ``verify``,
``conjecture``.  Each command returns its exit code and its output as
text chunks of at most one row or one object, and :func:`dispatch`
writes every command's chunks through one path.  That path draws the
first chunk before it opens ``--output``, so a refused command leaves an
existing file untouched.

Exit codes: 0 success, 1 verification failure, 2 usage or guard error,
3 conjecture sweep FAIL (a counterexample, or a row whose count raised),
141 (128 + SIGPIPE) when the reader closes standard output before the
output ends, as ``zigzag enumerate andre --n 10 | head -2`` does.  Any
other failed write, such as to a full device, exits 2 with ``error:
cannot write`` and the path or standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence

from . import bijections, families, triangles, verify
from .core import (
    Tree,
    perm_from_text,
    perm_to_text,
    tree_from_literal,
    tree_labels,
    tree_spans_range,
    tree_to_json,
    tree_to_literal,
)

SCHEMA = "zigzag/1"
TRIANGLE_N_CAP = 50

_MAPS = {
    "omega": (bijections.omega, "tree"),
    "omega-inv": (bijections.omega_inv, "perm"),
    "phi": (bijections.phi, "perm"),
    "phi-inv": (bijections.phi_inv, "perm"),
    "psi": (bijections.psi, "perm"),
    "psi-b": (bijections.psi_b, "perm"),
    "psi-inv": (bijections.psi_inv, "tree"),
    "psi-signed": (bijections.psi_signed, "perm"),
    "omega-signed": (bijections.omega_signed, "tree"),
    "phi-signed": (bijections.phi_signed, "perm"),
    "chuang-phi": (bijections.chuang_phi, "tree"),
}


class _CliError(ValueError):
    """A usage error; like every ValueError it exits with code 2."""


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="zigzag",
        description="Entringer/Arnold triangles, zigzag families, and bijections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tri = sub.add_parser("triangle", help="print a number triangle")
    tri.add_argument("kind", choices=["entringer", "arnold"])
    tri.add_argument("--n", type=int, required=True, help="number of rows")
    tri.add_argument(
        "--format",
        choices=["text", "json", "csv", "boustrophedon"],
        default="text",
    )
    tri.add_argument("--force", action="store_true", help="override size guards")
    tri.add_argument("--output", help="write to file instead of stdout")

    enu = sub.add_parser("enumerate", help="stream a family of objects")
    enu.add_argument("family", choices=[t.value for t in families.FamilyTag])
    enu.add_argument("--n", type=int, required=True)
    enu.add_argument("--k", type=int, help="refinement value")
    enu.add_argument("--format", choices=["text", "json"], default="text")
    enu.add_argument("--force", action="store_true", help="override size guards")
    enu.add_argument("--output", help="write to file instead of stdout")

    mp = sub.add_parser("map", help="apply one of the bijections")
    mp.add_argument("name", choices=sorted(_MAPS))
    mp.add_argument("--input", required=True, help="permutation text or tree literal")
    mp.add_argument("--trace", action="store_true", help="print grafting steps (psi)")
    mp.add_argument("--format", choices=["text", "json"], default="text")
    mp.add_argument("--output", help="write to file instead of stdout")

    ver = sub.add_parser("verify", help="run the exhaustive theorem checks")
    ver.add_argument("--checks", help="comma-separated check ids (default: all)")
    ver.add_argument("--n-max-a", type=int, default=verify.DEFAULT_N_MAX_A)
    ver.add_argument("--n-max-b", type=int, default=verify.DEFAULT_N_MAX_B)
    ver.add_argument("--format", choices=["json", "text"], default="json")
    ver.add_argument("--force", action="store_true", help="override size caps")
    ver.add_argument("--output", help="write to file instead of stdout")

    con = sub.add_parser("conjecture", help="run the open-conjecture sweep")
    con.add_argument(
        "--n-max", type=int, default=verify.DEFAULT_N_MAX_CONJECTURE
    )
    con.add_argument("--format", choices=["json", "text"], default="json")
    con.add_argument("--force", action="store_true", help="override size caps")
    con.add_argument("--output", help="write to file instead of stdout")

    return parser


def _object_json(obj):
    if isinstance(obj, Tree):
        return tree_to_json(obj)
    return list(obj)


def _cmd_triangle(args) -> tuple[int, Iterable[str]]:
    families._guard(f"{args.kind} triangle", args.n, TRIANGLE_N_CAP, args.force)
    if args.n < 1:
        raise _CliError("--n must be at least 1")
    table = (
        triangles.entringer_table(args.n)
        if args.kind == "entringer"
        else triangles.arnold_table(args.n)
    )
    if args.format == "json":
        return 0, itertools.chain(triangles.json_chunks(table, SCHEMA), ("\n",))
    if args.format == "boustrophedon":
        return 0, map("{}\n".format, triangles.boustrophedon_lines(table))
    if args.format == "csv":
        return 0, triangles.csv_chunks(table)
    return 0, triangles.text_chunks(table)


def _perm_json_text(p) -> str:
    """``list(p)`` as ``json.dumps(..., indent=2)`` renders an entry of a
    list two levels deep."""
    if not p:
        return "[]"
    return "[\n      " + ",\n      ".join(map(str, p)) + "\n    ]"


def _tree_json_text(t: Tree) -> str:
    """``tree_to_json(t)`` as ``json.dumps(..., indent=2)`` renders an
    entry of a list two levels deep; the tree is walked with a stack."""
    out: list[str] = []
    # a pending node with the indent of its closing brace, or text to emit
    stack: list = [(t, "    ")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        cur, at = item
        inner = at + "  "
        out.append(f'{{\n{inner}"label": {cur.label},\n{inner}"left": ')
        stack.append(f"\n{at}}}")
        stack.append("null" if cur.right is None else (cur.right, inner))
        stack.append(f',\n{inner}"right": ')
        stack.append("null" if cur.left is None else (cur.left, inner))
    return "".join(out)


def _enumerate_json_chunks(args, stream, render: Callable) -> Iterator[str]:
    """The ``enumerate --format json`` document, one object per chunk.

    The chunks join to ``json.dumps(doc, indent=2)`` plus a newline, for
    the document whose ``objects`` list holds every object, without
    building the list or running the pure-Python indenting encoder.  The
    first chunk carries the first object, so arguments the family refuses
    raise before anything is written.
    """
    objs = iter(stream)
    first = next(objs, None)
    head = (
        f'{{\n  "schema": {json.dumps(SCHEMA)},\n'
        f'  "family": {json.dumps(args.family)},\n'
        f'  "n": {args.n},\n  "k": {json.dumps(args.k)},\n  "objects": ['
    )
    if first is None:
        yield head + "]\n}\n"
        return
    yield f"{head}\n    {render(first)}"
    for obj in objs:
        yield f",\n    {render(obj)}"
    yield "\n  ]\n}\n"


def _cmd_enumerate(args) -> tuple[int, Iterable[str]]:
    stream = families.iter_family(args.family, args.n, args.k, args.force)
    # the family fixes the kind of object, so its renderer is picked once
    tree = families.FamilyTag(args.family) in families._TREE_TAGS
    if args.format == "json":
        render = _tree_json_text if tree else _perm_json_text
        return 0, _enumerate_json_chunks(args, stream, render)
    render = tree_to_literal if tree else perm_to_text
    return 0, map("{}\n".format, map(render, stream))


def _check_tree_labels(name: str, t: Tree) -> None:
    # the library maps read any distinct labels; the CLI demands [n]
    labels = tree_labels(t)
    n = len(labels)
    if name == "omega-signed":
        if not tree_spans_range(t):
            raise _CliError(f"{name} expects |labels| exactly 1..{n}, got {labels}")
    elif labels != tuple(range(1, n + 1)):
        raise _CliError(f"{name} expects labels exactly 1..{n}, got {labels}")


def _cmd_map(args) -> tuple[int, Iterable[str]]:
    if args.trace and args.name != "psi":
        raise _CliError(f"--trace applies only to map psi, not {args.name}")
    func, domain = _MAPS[args.name]
    if domain == "tree":
        value = tree_from_literal(args.input)
        _check_tree_labels(args.name, value)
    elif args.name == "phi-inv" and not args.input.strip():
        # phi prints the empty Simsun word of a singleton as a blank line
        value = ()
    else:
        value = perm_from_text(args.input)
    trace = None
    if args.trace:
        result, trace = bijections.psi_c(value)
    else:
        result = func(value)
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "map": args.name,
            "input": _object_json(value),
            "output": _object_json(result),
        }
        if trace is not None:
            doc["trace"] = [
                {"i": s.index, "a": s.a, "b": s.b, "case": s.case}
                for s in trace.steps
            ]
        try:
            text = json.dumps(doc, indent=2)
        except RecursionError:
            # the encoder recurses once per tree level
            raise _CliError(
                "tree too deep for --format json; use --format text"
            ) from None
        return 0, (text + "\n",)
    render = tree_to_literal if isinstance(result, Tree) else perm_to_text
    lines = [render(result)]
    if trace is not None:
        lines.extend(trace.lines())
    return 0, map("{}\n".format, lines)


def _report_chunks(reports, fmt: str) -> list[str]:
    if fmt == "json":
        return [json.dumps([r.as_dict() for r in reports], indent=2) + "\n"]
    chunks = []
    for r in reports:
        label = r.check_id
        if "n" in r.params:
            label = f"{r.check_id} n={r.params['n']}"
        extra = f"  [{r.counterexample}]" if r.counterexample else ""
        chunks.append(f"{r.status}  {label}  ({r.elapsed:.2f}s){extra}\n")
    return chunks


def _cmd_verify(args) -> tuple[int, Iterable[str]]:
    selection = None
    if args.checks is not None:
        selection = [c.strip() for c in args.checks.split(",")]
        if not all(selection):
            raise _CliError(f"--checks names an empty check id: {args.checks!r}")
    reports = verify.run_checks(
        selection, args.n_max_a, args.n_max_b, force=args.force
    )
    code = 0 if all(r.status == verify.PASS for r in reports) else 1
    return code, _report_chunks(reports, args.format)


def _cmd_conjecture(args) -> tuple[int, Iterable[str]]:
    reports = verify.check_conjecture(args.n_max, force=args.force)
    chunks = _report_chunks(reports, args.format)
    failed = [r for r in reports if r.status != verify.PASS]
    chunks += [f"counterexample: {r.counterexample}\n" for r in failed]
    return (3 if failed else 0), chunks


def _opened(path: str | None):
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror}") from None


def _quiet_stdout() -> None:
    # Python flushes stdout once more at exit, which would fail again;
    # send that flush to the null device
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run the chosen command, and return the exit code."""
    args = _build_parser().parse_args(argv)
    handler = {
        "triangle": _cmd_triangle,
        "enumerate": _cmd_enumerate,
        "map": _cmd_map,
        "verify": _cmd_verify,
        "conjecture": _cmd_conjecture,
    }[args.command]
    try:
        code, chunks = handler(args)
        chunks = iter(chunks)
        # a stream the family refuses raises here, before --output is opened
        first = next(chunks, "")
        try:
            with _opened(args.output) as out:
                out.write(first)
                out.writelines(chunks)
                out.flush()
        except BrokenPipeError:
            # the reader closed the pipe
            _quiet_stdout()
            return 141
        except OSError as exc:
            # a failed write, flush or close, such as a full device
            if not args.output:
                _quiet_stdout()
            where = args.output or "standard output"
            raise _CliError(f"cannot write {where}: {exc.strerror}") from None
        return code
    except ValueError as exc:
        # usage, guard, and invalid permutation or tree errors alike
        message = str(exc)
        if isinstance(exc, families.GuardExceededError):
            # every command that can trip a guard takes --force
            message = message.replace("force=True", "--force")
        print(f"error: {message}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(dispatch())
