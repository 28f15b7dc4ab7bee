import ast
import importlib
import os
import pathlib
import sys
from functools import lru_cache

import oracles
import zigzag
from zigzag import verify

TESTS = pathlib.Path(__file__).parent


def _in_src(name: str) -> bool:
    module, _, qualname = name.partition(".")
    obj = importlib.import_module(f"zigzag.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return getattr(obj, "__module__", None) == f"zigzag.{module}"


def test_every_private_function_a_cold_run_executes_has_an_oracle_or_is_glue(
    monkeypatch,
):
    # the family cache starts empty, so the generators run too
    monkeypatch.setattr(verify, "_family", lru_cache(verify._family.__wrapped__))
    src, ran = os.path.dirname(zigzag.__file__), set()

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(src):
            # a nested function counts as the function it is defined in
            module = os.path.basename(code.co_filename)[: -len(".py")]
            ran.add((module, code.co_qualname.split(".<locals>")[0]))

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        verify.run_checks(None, 4, 3)
        verify.check_conjecture(12)
    finally:
        sys.setprofile(outer)
    private = {
        f"{module}.{qualname}"
        for module, qualname in ran
        if any(p.startswith("_") and not p.endswith("__") for p in qualname.split("."))
    }
    assert len(private) > 40
    assert private - oracles.REGISTRY.keys() - oracles.GLUE == set()
    # and no glue outlives the code that ran it
    assert oracles.GLUE - private == set()
    assert [n for n in [*oracles.REGISTRY, *oracles.GLUE] if not _in_src(n)] == []


def test_no_test_file_defines_an_oracle():
    # every oracle and sampler is defined once, in oracles.py, which pytest
    # imports to collect its doctests and so must hold no test
    def defined(tree):
        return {
            node.name
            for node in tree
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }

    here = defined(ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8")).body)
    assert not any(name.startswith("test") for name in here)
    for oracle in oracles.REGISTRY.values():
        assert oracle.__name__ in here or oracle.__module__.startswith("zigzag.")
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert defined(ast.walk(tree)) & here == set(), path.name
