"""In-memory spans around the public functions of each ``zigzag`` module.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing open span (-1 at top level).  A layer's self time is its span's
duration minus the durations of its direct children; spans on one
thread nest, so the children never overlap.

Names are wrapped where they are looked up:

- ``bijections``, ``cdindex`` and ``triangles`` functions are replaced on
  their own module, so calls from other modules, from inside the module
  (``psi_signed`` -> ``psi_c``) and from the benchmark all pass through.
- ``families`` functions are replaced only in the modules that import
  them: ``verify`` and ``cli`` get a copy of the ``families`` module with
  wrapped attributes, ``bijections`` and ``cdindex`` get wrapped globals
  in place of their ``from .families import`` names.  Calls inside
  ``families`` itself (``iter_family`` filtering through its predicate
  table, ``count_hetyei_fast`` calling ``is_andre``) stay unwrapped, so
  ``families.predicate_calls`` counts the calls the other layers make.

``iter_family`` returns a generator, so its wrapper returns a stream whose
every ``next()`` is a span: a stream's busy time is the time spent
producing objects, not the time its consumer holds it open.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import types

import gen

MAPS = (
    "psi_c",
    "psi_b",
    "psi_inv",
    "omega",
    "omega_inv",
    "phi",
    "phi_inv",
    "psi_signed",
    "omega_signed",
    "phi_signed",
    "chuang_phi",
)
PREDICATES = (
    "is_alternating",
    "is_snake",
    "is_andre",
    "is_andre_valley",
    "is_simsun",
    "is_signed_andre_b",
    "is_hetyei_andre",
    "is_signed_simsun",
)
_SIGNED = {"alt-b", "snake", "tree-b", "andre-b", "andre-h", "simsun-b"}
_TREES = {"tree", "tree-b"}


def candidates(tag: str, n: int) -> int:
    """Objects a stream scans: n! or 2^n n! permutations, or all trees."""
    base = gen.euler(n) if tag in _TREES else math.factorial(n)
    return base * 2**n if tag in _SIGNED else base


class NullTracer:
    """Calls straight through; the untraced runs use this."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans in memory; :meth:`install` puts it around ``zigzag``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.streams: list[dict] = []
        self.rows = 0

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_table(self, name, fn):
        """Like :meth:`wrap`, also counting the rows each call builds."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.rows += sig.bind(*args, **kwargs).arguments["n_max"]
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_stream(self, source: str, fn):
        sig = inspect.signature(fn)
        name = f"families.iter_family@{source}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            tag = str(getattr(bound["tag"], "value", bound["tag"]))
            record = {
                "source": source,
                "candidates": candidates(tag, bound["n"]),
                "objects": 0,
            }
            self.streams.append(record)
            return _Stream(self, name, fn(*args, **kwargs), record)

        return traced

    def install(self, zz) -> None:
        """Wrap the public functions of the imported ``zigzag`` modules.

        A name the package no longer has is skipped; its metrics read 0.
        """
        fam = zz.families
        for source, mod in (("verify", zz.verify), ("cli", zz.cli)):
            proxy = types.ModuleType(fam.__name__, fam.__doc__)
            proxy.__dict__.update(vars(fam))
            for pred in PREDICATES:
                if hasattr(fam, pred):
                    setattr(proxy, pred, self.wrap(f"families.{pred}", getattr(fam, pred)))
            proxy.iter_family = self.wrap_stream(source, fam.iter_family)
            proxy.count_hetyei_fast = self.wrap(
                "families.count_hetyei_fast", fam.count_hetyei_fast
            )
            mod.families = proxy
        for source, mod in (("bijections", zz.bijections), ("cdindex", zz.cdindex)):
            for name, value in list(vars(mod).items()):
                if name in PREDICATES and value is getattr(fam, name, None):
                    setattr(mod, name, self.wrap(f"families.{name}", value))
                elif name == "iter_family" and value is fam.iter_family:
                    setattr(mod, name, self.wrap_stream(source, value))
        for name in MAPS:
            if hasattr(zz.bijections, name):
                fn = getattr(zz.bijections, name)
                setattr(zz.bijections, name, self.wrap(f"bijections.{name}", fn))
        for name in ("reduced_variation_andre", "reduced_variation_simsun"):
            fn = getattr(zz.cdindex, name)
            setattr(zz.cdindex, name, self.wrap(f"cdindex.{name}", fn))
        for name in ("entringer_table", "arnold_table"):
            fn = getattr(zz.triangles, name)
            setattr(zz.triangles, name, self.wrap_table(f"triangles.{name}", fn))

    def dump(self, path: str) -> None:
        """Write the spans, one tab-separated line each."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tparent\tname\tstart\tend\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

    def summary(self, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1

        def pick(table, prefix):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        def per_call_us(name):
            return total.get(name, 0.0) / calls[name] * 1e6 if name in calls else 0.0

        objects = sum(s["objects"] for s in self.streams)
        scanned = sum(s["candidates"] for s in self.streams)
        verify_streams = [s for s in self.streams if s["source"] == "verify"]
        dispatch_s = total.get("cli.dispatch", 0.0)
        out = {
            "families.stream_s": pick(total, "families.iter_family@"),
            "families.objects": objects,
            "families.yield_ratio": objects / scanned if scanned else 0.0,
            "families.predicate_calls": sum(
                calls.get(f"families.{p}", 0) for p in PREDICATES
            ),
            "families.predicate_s": sum(
                total.get(f"families.{p}", 0.0) for p in PREDICATES
            ),
            "families.count_hetyei_s": total.get("families.count_hetyei_fast", 0.0),
            "triangles.build_s": pick(total, "triangles."),
            "triangles.rows": self.rows,
        }
        for name in MAPS:
            key = f"bijections.{name}"
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.self_s"] = own.get(key, 0.0)
            out[f"{key}.us_per_call"] = per_call_us(key)
        out["cdindex.calls"] = sum(v for k, v in calls.items() if k.startswith("cdindex."))
        out["cdindex.self_s"] = pick(own, "cdindex.")
        for name in total:
            if name.startswith("verify."):
                out[f"{name}.s"] = total[name]
                out[f"{name}.self_s"] = own[name]
        out["verify.family_builds"] = len(verify_streams)
        out["verify.family_build_s"] = total.get("families.iter_family@verify", 0.0)
        out["cli.self_s"] = own.get("cli.dispatch", 0.0)
        out["cli.bytes_written"] = bytes_written
        out["cli.mb_per_s"] = bytes_written / dispatch_s / 1e6 if dispatch_s else 0.0
        out["core.parse_us"] = per_call_us("core.parse")
        out["core.format_us"] = per_call_us("core.format")
        return out


class _Stream:
    """A traced generator: each ``next()`` is one span."""

    def __init__(self, tracer: Tracer, name: str, inner, record: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._record = record

    def __iter__(self):
        return self

    def __next__(self):
        obj = self._tracer.call(self._name, next, self._inner)
        self._record["objects"] += 1
        return obj
