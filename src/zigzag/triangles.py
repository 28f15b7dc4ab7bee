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
Seidel-Entringer-Arnold boustrophedon), one tuple per row with k
ascending:

- Entringer row n is ``(0, *accumulate(reversed(prev)))``;
- Arnold row n, k = -n..-1 then 1..n, is
  ``accumulate((0, *reversed(prev_pos), 0, *reversed(prev_neg)))``.

Each triangle has one row stream, :func:`entringer_rows` and
:func:`arnold_rows`, which holds only the row it last made, and one
row-sum rule, :func:`_row_sum`.  The tables collect a stream whole;
:func:`euler_number` and :func:`springer_number` keep only its last row;
and the csv, text and json renderers read their rows once, from a
table's ``rows`` or from a stream, so an export from a stream holds one
row at a time.  The boustrophedon rendering centres its lines on the
widest one, so it holds them all.

The tests keep the entry-by-entry dict form of the recurrences above as
the oracle for these rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .core import _exact_int

ENTRINGER = "entringer"
ARNOLD = "arnold"

Row = tuple[int, ...]  # one row of a triangle, k ascending


@dataclass(frozen=True)
class TriangleTable:
    """A computed triangle: one tuple of entries per row, and row sums.

    ``rows[n - 1]`` holds row n with k ascending: E(n, 1..n), or
    S(n, -n..-1) followed by S(n, 1..n).
    """

    kind: str
    n_max: int
    rows: tuple[Row, ...] = field(repr=False)
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
        return tuple(_row_ks(self.kind, n))

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


def _row_ks(kind: str, n: int) -> Iterable[int]:
    if kind == ENTRINGER:
        return range(1, n + 1)
    return (*range(-n, 0), *range(1, n + 1))


def _row_sum(kind: str, n: int, row: Row) -> int:
    """The sum of row n: the Euler number, or the Springer number, which
    sums the positive half S(n, 1..n) that ends the row."""
    if kind == ENTRINGER:
        return sum(row)
    return sum(row[n:])


def _rows_wanted(n_max: int) -> int:
    n_max = _exact_int(n_max, ValueError)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return n_max


def entringer_rows(n_max: int) -> Iterator[Row]:
    """Rows 1..n_max of the Entringer triangle, each made from the one
    before it.  ``n_max`` is checked on the call, before any row."""
    return _entringer_rows(_rows_wanted(n_max))


def arnold_rows(n_max: int) -> Iterator[Row]:
    """Rows 1..n_max of the Arnold triangle, each made from the one
    before it.  ``n_max`` is checked on the call, before any row."""
    return _arnold_rows(_rows_wanted(n_max))


def _entringer_rows(n_max: int) -> Iterator[Row]:
    row = (1,)
    yield row
    for _ in range(2, n_max + 1):
        row = (0, *accumulate(reversed(row)))
        yield row


def _arnold_rows(n_max: int) -> Iterator[Row]:
    row = (1, 1)
    yield row
    for n in range(2, n_max + 1):
        neg, pos = row[: n - 1], row[n - 1 :]
        row = tuple(accumulate((0, *reversed(pos), 0, *reversed(neg))))
        yield row


def _table(kind: str, rows: Iterable[Row]) -> TriangleTable:
    rows = tuple(rows)
    sums = tuple(_row_sum(kind, n, row) for n, row in enumerate(rows, 1))
    return TriangleTable(kind, len(rows), rows, sums)


def entringer_table(n_max: int) -> TriangleTable:
    """Entringer numbers E(n, k) for 1 <= k <= n <= n_max."""
    return _table(ENTRINGER, entringer_rows(n_max))


def arnold_table(n_max: int) -> TriangleTable:
    """Arnold numbers S(n, k) for 1 <= |k| <= n <= n_max."""
    return _table(ARNOLD, arnold_rows(n_max))


def euler_number(n: int) -> int:
    """Count of zigzag (down-up alternating) permutations of [n].

    >>> [euler_number(n) for n in range(1, 8)]
    [1, 1, 2, 5, 16, 61, 272]
    """
    return _row_sum(ENTRINGER, n, deque(entringer_rows(n), maxlen=1).pop())


def springer_number(n: int) -> int:
    """Count of snakes (positive-start signed zigzags) of [n].

    >>> [springer_number(n) for n in range(1, 7)]
    [1, 3, 11, 57, 361, 2763]
    """
    return _row_sum(ARNOLD, n, deque(arnold_rows(n), maxlen=1).pop())


# ---------------------------------------------------------------------------
# renderings, one per export format.  Each takes the triangle's kind and
# its rows, a table's ``rows`` or a row stream, and reads them once.  CSV
# and text stream newline-terminated chunks of one row each; the JSON
# chunks, one row object each, join to ``json.dumps(..., indent=2)``,
# which ends without a newline.  The boustrophedon lines are centred on
# the widest row, so they come as one list.  The tests keep the
# line-by-line and table-reading forms as oracles for the chunks.


def csv_chunks(kind: str, rows: Iterable[Row]) -> Iterator[str]:
    """CSV export with header ``n,k,value``; rows by n then k ascending."""
    yield "n,k,value\n"
    for n, row in enumerate(rows, 1):
        yield "".join(map(f"{n},{{}},{{}}\n".format, _row_ks(kind, n), row))


def csv_lines(kind: str, rows: Iterable[Row]) -> Iterator[str]:
    """The lines of :func:`csv_chunks`, without their newlines."""
    for chunk in csv_chunks(kind, rows):
        yield from chunk.splitlines()


def text_chunks(kind: str, rows: Iterable[Row]) -> Iterator[str]:
    """``n=N: entries | row sum``, one line per row."""
    for n, row in enumerate(rows, 1):
        yield f"n={n}: {' '.join(map(str, row))} | {_row_sum(kind, n, row)}\n"


def json_chunks(kind: str, rows: Iterable[Row], schema: str) -> Iterator[str]:
    """The JSON document, one row object per chunk.

    The chunks join to ``json.dumps({"schema": schema, "kind": kind,
    "rows": objs}, indent=2)`` exactly, where row n of ``objs`` is
    ``{"n": n, "values": [{"k": k, "value": v}, ...], "row_sum": s}``,
    without building the rows' dicts or the whole string.
    """
    import json  # here, so that importing the package does not load json

    yield (
        f'{{\n  "schema": {json.dumps(schema)},\n'
        f'  "kind": {json.dumps(kind)},\n  "rows": ['
    )
    for n, row in enumerate(rows, 1):
        values = ",\n".join([
            f'        {{\n          "k": {k},\n          "value": {v}\n        }}'
            for k, v in zip(_row_ks(kind, n), row)
        ])
        yield (
            f'{"," if n > 1 else ""}\n    {{\n      "n": {n},\n      "values": [\n'
            f'{values}\n      ],\n      "row_sum": {_row_sum(kind, n, row)}\n    }}'
        )
    yield "\n  ]\n}"


def _centered(rows: list[str]) -> list[str]:
    width = max(len(r) for r in rows)
    return [" " * ((width - len(r)) // 2) + r for r in rows]


def boustrophedon_lines(kind: str, rows: Iterable[Row]) -> list[str]:
    """Text rendering that snakes left and right like the recurrence.

    For the Entringer triangle, even rows read k ascending with right
    arrows and odd rows k descending with left arrows.  The Arnold
    triangle renders as the classical twin triangles, which alternate
    between the negative-k and positive-k halves of each row.  The lines
    are centred on the widest one, so all of them are collected, unlike
    the other renderings.
    """

    def snake(n: int, entries) -> str:
        # even rows read ascending with right arrows, odd rows descending
        if n % 2:
            return " ← ".join(map(str, reversed(entries)))
        return " → ".join(map(str, entries))

    if kind == ENTRINGER:
        return _centered([snake(n, row) for n, row in enumerate(rows, 1)])

    # Rows alternate between the two signed halves of the triangle: the
    # first twin takes the negative half of odd rows and the positive
    # half of even ones, the second twin the other halves.  Both snake
    # the other way round from the Entringer rows.
    first: list[str] = []
    second: list[str] = []
    for n, row in enumerate(rows, 1):
        neg, pos = snake(n + 1, row[:n]), snake(n + 1, row[n:])
        first.append(neg if n % 2 else pos)
        second.append(pos if n % 2 else neg)
    return _centered(first) + [""] + _centered(second)
