"""Entringer and Arnold number triangles via boustrophedon recurrences.

Both triangles are computed row by row with exact Python integers, so
there is no overflow at any size.  The Entringer numbers E(n, k) are
indexed by 1 <= k <= n; their row sums are the Euler numbers.  The
Arnold numbers S(n, k) are indexed by 1 <= |k| <= n; the sums over
positive k are the Springer numbers.

Recurrences:

- E(1, 1) = 1, E(n, 1) = 0 for n >= 2, and
  E(n, k) = E(n, k-1) + E(n-1, n+1-k) for n >= k >= 2.
- S(1, 1) = S(1, -1) = 1, S(n, -n) = 0 for n >= 2, and per row
  S(n, k) = S(n, k-1) + S(n-1, -k)    for -1 >= k > -n,
  S(n, 1) = S(n, -1),
  S(n, k) = S(n, k-1) + S(n-1, -k+1)  for n >= k > 1.

So each row is the running sum of the previous row read backwards (the
Seidel-Entringer-Arnold boustrophedon), and that is how the tables are
built, one tuple per row with k ascending:

- Entringer row n is ``(0, *accumulate(reversed(prev)))``;
- Arnold row n, k = -n..-1 then 1..n, is
  ``accumulate((0, *reversed(prev_pos), 0, *reversed(prev_neg)))``.

The tests keep the entry-by-entry dict form of the recurrences above as
the oracle for these rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Iterator, Mapping

from .core import _exact_int

ENTRINGER = "entringer"
ARNOLD = "arnold"


@dataclass(frozen=True)
class TriangleTable:
    """A computed triangle: one tuple of entries per row, and row sums.

    ``rows[n - 1]`` holds row n with k ascending: E(n, 1..n), or
    S(n, -n..-1) followed by S(n, 1..n).
    """

    kind: str
    n_max: int
    rows: tuple[tuple[int, ...], ...] = field(repr=False)
    row_sums: tuple[int, ...]

    def value(self, n: int, k: int) -> int:
        if 1 <= n <= self.n_max:
            row = self.rows[n - 1]
            if 1 <= k <= n:  # the positive half ends the row
                return row[len(row) - n + k - 1]
            if -n <= k <= -1 and self.kind == ARNOLD:
                return row[n + k]
        raise KeyError((n, k))

    def row_ks(self, n: int) -> tuple[int, ...]:
        if self.kind == ENTRINGER:
            return tuple(range(1, n + 1))
        return tuple(range(-n, 0)) + tuple(range(1, n + 1))

    def row(self, n: int) -> tuple[tuple[int, int], ...]:
        """(k, value) pairs of row n with k ascending."""
        if not 1 <= n <= self.n_max:
            raise KeyError(n)
        return tuple(zip(self.row_ks(n), self.rows[n - 1]))

    @property
    def values(self) -> Mapping[tuple[int, int], int]:
        """Every entry keyed by (n, k), as a read-only mapping."""
        return MappingProxyType(
            {(n, k): v for n in range(1, self.n_max + 1) for k, v in self.row(n)}
        )


def entringer_table(n_max: int) -> TriangleTable:
    """Entringer numbers E(n, k) for 1 <= k <= n <= n_max."""
    n_max = _exact_int(n_max, ValueError)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = [(1,)]
    for _ in range(2, n_max + 1):
        rows.append((0, *accumulate(reversed(rows[-1]))))
    return TriangleTable(ENTRINGER, n_max, tuple(rows), tuple(map(sum, rows)))


def arnold_table(n_max: int) -> TriangleTable:
    """Arnold numbers S(n, k) for 1 <= |k| <= n <= n_max."""
    n_max = _exact_int(n_max, ValueError)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = [(1, 1)]
    for n in range(2, n_max + 1):
        prev = rows[-1]
        neg, pos = prev[: n - 1], prev[n - 1 :]
        rows.append(tuple(accumulate((0, *reversed(pos), 0, *reversed(neg)))))
    sums = tuple(sum(row[n:]) for n, row in enumerate(rows, 1))
    return TriangleTable(ARNOLD, n_max, tuple(rows), sums)


def euler_number(n: int) -> int:
    """Count of zigzag (down-up alternating) permutations of [n].

    >>> [euler_number(n) for n in range(1, 8)]
    [1, 1, 2, 5, 16, 61, 272]
    """
    return entringer_table(n).row_sums[n - 1]


def springer_number(n: int) -> int:
    """Count of snakes (positive-start signed zigzags) of [n].

    >>> [springer_number(n) for n in range(1, 7)]
    [1, 3, 11, 57, 361, 2763]
    """
    return arnold_table(n).row_sums[n - 1]


# ---------------------------------------------------------------------------
# renderings, one per export format.  CSV and text stream newline-terminated
# chunks of one row each; the JSON chunks, one row object each, join to
# ``json.dumps(..., indent=2)``, which ends without a newline.  The
# boustrophedon lines are centred on the widest row, so they come as one
# list.  The tests keep the line-by-line forms as oracles for the chunks.


def csv_chunks(table: TriangleTable) -> Iterator[str]:
    """CSV export with header ``n,k,value``; rows by n then k ascending."""
    yield "n,k,value\n"
    for n, row in enumerate(table.rows, 1):
        yield "".join(map(f"{n},{{}},{{}}\n".format, table.row_ks(n), row))


def csv_lines(table: TriangleTable) -> Iterator[str]:
    """The lines of :func:`csv_chunks`, without their newlines."""
    for chunk in csv_chunks(table):
        yield from chunk.splitlines()


def text_chunks(table: TriangleTable) -> Iterator[str]:
    """``n=N: entries | row sum``, one line per row."""
    for n, row in enumerate(table.rows, 1):
        yield f"n={n}: {' '.join(map(str, row))} | {table.row_sums[n - 1]}\n"


def json_chunks(table: TriangleTable, schema: str) -> Iterator[str]:
    """The JSON document, one row object per chunk.

    The chunks join to ``json.dumps({"schema": schema, "kind":
    table.kind, "rows": rows}, indent=2)`` exactly, where row n of
    ``rows`` is ``{"n": n, "values": [{"k": k, "value": v}, ...],
    "row_sum": s}``, without building the rows' dicts or the whole string.
    """
    import json  # here, so that importing the package does not load json

    yield (
        f'{{\n  "schema": {json.dumps(schema)},\n'
        f'  "kind": {json.dumps(table.kind)},\n  "rows": ['
    )
    entry = '        {{\n          "k": {},\n          "value": {}\n        }}'.format
    for n, row in enumerate(table.rows, 1):
        values = ",\n".join(map(entry, table.row_ks(n), row))
        yield (
            f'{"," if n > 1 else ""}\n    {{\n      "n": {n},\n      "values": [\n'
            f'{values}\n      ],\n      "row_sum": {table.row_sums[n - 1]}\n    }}'
        )
    yield "\n  ]\n}"


def _centered(rows: list[str]) -> list[str]:
    width = max(len(r) for r in rows)
    return [" " * ((width - len(r)) // 2) + r for r in rows]


def boustrophedon_lines(table: TriangleTable) -> list[str]:
    """Text rendering that snakes left and right like the recurrence.

    For the Entringer triangle, even rows read k ascending with right
    arrows and odd rows k descending with left arrows.  The Arnold
    triangle renders as the classical twin triangles, which alternate
    between the negative-k and positive-k halves of each row.
    """

    def snake(n: int, entries) -> str:
        # even rows read ascending with right arrows, odd rows descending
        if n % 2:
            return " ← ".join(map(str, reversed(entries)))
        return " → ".join(map(str, entries))

    if table.kind == ENTRINGER:
        return _centered([snake(n, row) for n, row in enumerate(table.rows, 1)])

    def half(first_sign: int) -> list[str]:
        # Rows alternate between the two signed halves of the triangle:
        # odd rows take sign `first_sign`, even rows the opposite.  Both
        # halves snake the other way round from the Entringer rows.
        lines = []
        for n, row in enumerate(table.rows, 1):
            negative = (first_sign if n % 2 else -first_sign) < 0
            lines.append(snake(n + 1, row[:n] if negative else row[n:]))
        return _centered(lines)

    return half(-1) + [""] + half(1)
