import ast
import importlib.util
import os
import pathlib
import pkgutil
import sys
import types
from functools import lru_cache
from inspect import CO_OPTIMIZED

import pytest

import oracles
import zigzag
from zigzag import verify

TESTS = pathlib.Path(__file__).parent

_COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _resolved(name: str):
    module, _, qualname = name.partition(".")
    obj = importlib.import_module(f"zigzag.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return obj


def _in_src(name: str) -> bool:
    module = f"zigzag.{name.partition('.')[0]}"
    return getattr(_resolved(name), "__module__", None) == module


def _code_names() -> dict:
    """The (module, qualname) of every code object in the ``zigzag``
    modules, keyed by value, so that the loader's copies find the codes
    that run.  A code in a function counts as that function; one in a
    class body, or in a comprehension outside any function, is named
    under it, as ``co_qualname`` names it up to its first ``.<locals>``."""
    names = {}

    def walk(code, module, outer, inside):
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                name = outer if inside else f"{outer}.{c.co_name}".lstrip(".")
                names[c] = module, name
                # a def or a lambda opens a function, a comprehension does not
                opens = c.co_name not in _COMPREHENSIONS and c.co_flags & CO_OPTIMIZED
                walk(c, module, name, inside or opens)

    for module in ["", *(m.name for m in pkgutil.iter_modules(zigzag.__path__))]:
        spec = importlib.util.find_spec(f"zigzag.{module}".rstrip("."))
        walk(spec.loader.get_code(spec.name), module or "__init__", "", False)
    return names


def test_every_private_function_a_cold_run_executes_has_an_oracle_or_is_glue(
    monkeypatch,
):
    # the family cache starts empty, so the generators run too
    monkeypatch.setattr(verify, "_family", lru_cache(verify._family.__wrapped__))
    src, names, codes = os.path.dirname(zigzag.__file__), _code_names(), set()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            codes.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        verify.run_checks(None, 4, 3)
        verify.check_conjecture(12)
    finally:
        sys.setprofile(outer)
    if sys.version_info >= (3, 11):
        # the table names each code as its own qualified name does
        for code in codes:
            module = os.path.basename(code.co_filename)[: -len(".py")]
            assert names[code] == (module, code.co_qualname.split(".<locals>")[0])
    private = {
        f"{module}.{qualname}"
        for module, qualname in (names[code] for code in codes)
        if any(p.startswith("_") and not p.endswith("__") for p in qualname.split("."))
    }
    assert len(private) > 40
    assert private - oracles.REGISTRY.keys() - oracles.GLUE == set()
    # and no glue outlives the code that ran it
    assert oracles.GLUE - private == set()
    assert [n for n in [*oracles.REGISTRY, *oracles.GLUE] if not _in_src(n)] == []


def test_every_entry_has_cases_or_a_hand_test_and_every_stream_is_read():
    by_hand = [name for names in oracles.BY_HAND.values() for name in names]
    assert len(set(by_hand)) == len(by_hand)
    assert set(by_hand) - oracles.REGISTRY.keys() == set()
    read = []
    for name in oracles.REGISTRY:
        streams = [case.stream for case in oracles.cases(name)]
        if name in by_hand:
            assert not streams, f"{name} is compared by hand and by cases"
        else:
            assert streams, f"{name} names no case"
        assert len(set(streams)) == len(streams), f"{name} reads a stream twice"
        read += streams
    for test in oracles.BY_HAND:
        module, *path = test.split(".")
        obj = importlib.import_module(module)
        for part in path:
            obj = getattr(obj, part)
    assert set(read) - oracles.STREAMS.keys() == set(), "a case names an unknown stream"
    assert oracles.STREAMS.keys() - set(read) == set(), "no entry reads these streams"


@pytest.mark.parametrize(
    "name, case",
    [
        pytest.param(name, case, id=f"{name}-{case.stream}")
        for name in oracles.REGISTRY
        for case in oracles.cases(name)
    ],
)
def test_fast_path_agrees_with_its_oracle(name, case):
    fast, oracle = _resolved(name), oracles.REGISTRY[name][0]
    inputs = oracles.stream(case.stream)
    assert len(inputs) == oracles.STREAMS[case.stream][0]
    returned = 0
    for x in inputs:
        got = oracles.outcome(case.fast, fast, x)
        expected = oracles.outcome(case.oracle or case.fast, oracle, x)
        assert got == expected, f"{name} and its oracle first differ on {x!r}"
        returned += not isinstance(got, oracles.Raised)
    # a case on which every input raises would compare only refusals
    assert returned


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
    for oracle, *_cases in oracles.REGISTRY.values():
        assert oracle.__name__ in here or oracle.__module__.startswith("zigzag.")
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert defined(ast.walk(tree)) & here == set(), path.name
