import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from oracles import _old_rendering, dict_arnold, dict_entringer
from zigzag.cli import dispatch
from zigzag.triangles import (
    arnold_rows,
    arnold_table,
    boustrophedon_lines,
    csv_chunks,
    csv_lines,
    entringer_rows,
    entringer_table,
    euler_number,
    json_chunks,
    springer_number,
    text_chunks,
)


# each triangle's builder and the dict recurrence that is its oracle
ORACLES = {
    "entringer": (entringer_table, dict_entringer),
    "arnold": (arnold_table, dict_arnold),
}


# published triangle of E(n, k) for n <= 7, one row per n
ENTRINGER_ROWS = {
    1: (1,),
    2: (0, 1),
    3: (0, 1, 1),
    4: (0, 1, 2, 2),
    5: (0, 2, 4, 5, 5),
    6: (0, 5, 10, 14, 16, 16),
    7: (0, 16, 32, 46, 56, 61, 61),
}

# published triangle of S(n, k) for n <= 6, k = -n..-1 then 1..n
ARNOLD_ROWS = {
    1: (1, 1),
    2: (0, 1, 1, 2),
    3: (0, 2, 3, 3, 4, 4),
    4: (0, 4, 8, 11, 11, 14, 16, 16),
    5: (0, 16, 32, 46, 57, 57, 68, 76, 80, 80),
    6: (0, 80, 160, 236, 304, 361, 361, 418, 464, 496, 512, 512),
}


def test_entringer_rows_exact():
    t = entringer_table(7)
    for n, values in ENTRINGER_ROWS.items():
        assert tuple(v for _, v in t.row(n)) == values


def test_entringer_row_sums_are_the_entry_sums():
    t = entringer_table(7)
    assert t.row_sums == (1, 1, 2, 5, 16, 61, 272)
    for n, values in ENTRINGER_ROWS.items():
        assert t.row_sums[n - 1] == sum(values)


def test_entringer_first_column_vanishes():
    t = entringer_table(12)
    assert all(t.value(n, 1) == 0 for n in range(2, 13))


def test_entringer_top_two_entries_agree():
    t = entringer_table(20)
    for n in range(3, 21):
        assert t.value(n, n) == t.value(n, n - 1)


def test_entringer_row_eight():
    # frozen from an independent run of the recurrence
    t = entringer_table(8)
    assert tuple(v for _, v in t.row(8)) == (0, 61, 122, 178, 224, 256, 272, 272)
    assert t.row_sums[7] == 1385


def test_arnold_rows_exact():
    t = arnold_table(6)
    for n, values in ARNOLD_ROWS.items():
        assert tuple(v for _, v in t.row(n)) == values


def test_arnold_row_sums():
    t = arnold_table(6)
    assert t.row_sums == (1, 3, 11, 57, 361, 2763)


def test_arnold_boundary_symmetry():
    t = arnold_table(15)
    for n in range(1, 16):
        assert t.value(n, 1) == t.value(n, -1)


def test_arnold_negative_extreme_vanishes():
    t = arnold_table(10)
    assert all(t.value(n, -n) == 0 for n in range(2, 11))


def test_euler_and_springer_numbers():
    assert [euler_number(n) for n in range(1, 8)] == [1, 1, 2, 5, 16, 61, 272]
    assert [springer_number(n) for n in range(1, 7)] == [1, 3, 11, 57, 361, 2763]
    # frozen from direct filtering counts over S_9 and B_7
    assert euler_number(9) == 7936
    assert springer_number(7) == 24611


def test_exact_arithmetic_far_beyond_word_size():
    t = entringer_table(30)
    assert t.row_sums[24] > 2**64
    s = arnold_table(25)
    assert s.row_sums[21] > 2**64


def test_rejects_empty_tables():
    with pytest.raises(ValueError):
        entringer_table(0)
    with pytest.raises(ValueError):
        arnold_table(0)


@pytest.mark.parametrize("stream", [entringer_rows, arnold_rows])
@pytest.mark.parametrize(
    "n, message", [(0, "n_max must be >= 1"), (2.5, "2.5 is not an integer")]
)
def test_row_streams_refuse_on_the_call(stream, n, message):
    # a renderer yields its header before any row, so a stream that
    # refused only at its first row would let --output be truncated first
    with pytest.raises(ValueError) as info:
        stream(n)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build", [entringer_table, arnold_table, euler_number, springer_number]
)
@pytest.mark.parametrize("n", [2.5, 3.0])
def test_rejects_non_integer_sizes(build, n):
    with pytest.raises(ValueError) as info:
        build(n)
    assert str(info.value) == f"{n!r} is not an integer"


def test_csv_export():
    lines = list(csv_lines("entringer", entringer_table(7).rows))
    assert lines[0] == "n,k,value"
    assert "7,4,46" in lines
    assert len(lines) == 1 + 28
    arnold = list(csv_lines("arnold", arnold_rows(4)))
    assert "4,-3,4" in arnold


def test_json_rows():
    chunks = json_chunks("entringer", entringer_table(3).rows, "zigzag/1")
    doc = json.loads("".join(chunks))
    assert doc["rows"][2] == {
        "n": 3,
        "values": [{"k": 1, "value": 0}, {"k": 2, "value": 1}, {"k": 3, "value": 1}],
        "row_sum": 2,
    }


def test_entringer_boustrophedon_matches_display():
    lines = boustrophedon_lines("entringer", entringer_rows(4))
    lines = [line.strip() for line in lines]
    assert lines == [
        "1",
        "0 → 1",
        "1 ← 1 ← 0",
        "0 → 1 → 2 → 2",
    ]


def test_arnold_boustrophedon_matches_twin_triangles():
    lines = boustrophedon_lines("arnold", arnold_rows(4))
    lines = [line.strip() for line in lines]
    first = lines[: lines.index("")]
    second = lines[lines.index("") + 1 :]
    assert first == [
        "1",
        "2 ← 1",
        "0 → 2 → 3",
        "16 ← 16 ← 14 ← 11",
    ]
    assert second == [
        "1",
        "1 ← 0",
        "3 → 4 → 4",
        "11 ← 8 ← 4 ← 0",
    ]


@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_prefix_sum_rows_match_the_dict_recurrence(kind):
    build, oracle = ORACLES[kind]
    table, entries = build(60), oracle(60)
    assert dict(table.values) == entries
    for n in range(1, 61):
        assert table.row_sums[n - 1] == sum(entries[(n, k)] for k in range(1, n + 1))
        assert table.row(n) == tuple((k, entries[(n, k)]) for k in table.row_ks(n))
        assert all(table.value(n, k) == entries[(n, k)] for k in table.row_ks(n))


def test_values_is_read_only():
    t = entringer_table(3)
    with pytest.raises(TypeError):
        t.values[(1, 1)] = 2


# every (n, k) outside the triangle, including the negative ones a tuple
# index would wrap around to another entry
OUT_OF_RANGE = {
    "entringer": [(0, 1), (0, 0), (5, 1), (6, 1), (-1, 1), (-4, -1), (3, 0), (3, 4),
                  (2, -1), (4, -1), (4, -4), (1, -1)],
    "arnold": [(0, 1), (0, -1), (5, 1), (6, -1), (-1, 1), (-4, -4), (3, 0), (3, 4),
               (3, -4), (1, 2), (1, -2), (4, 5), (4, -5)],
}


@pytest.mark.parametrize(
    "kind,n,k", [(kind, n, k) for kind, cases in OUT_OF_RANGE.items() for n, k in cases]
)
def test_value_outside_the_triangle_is_a_key_error(kind, n, k):
    table = ORACLES[kind][0](4)
    with pytest.raises(KeyError):
        table.value(n, k)


@pytest.mark.parametrize("kind", sorted(ORACLES))
@pytest.mark.parametrize("n", [0, -1, -4, 5, 6])
def test_row_outside_the_triangle_is_a_key_error(kind, n):
    table = ORACLES[kind][0](4)
    with pytest.raises(KeyError):
        table.row(n)


# the library's renderers reading a whole table, by format
TABLE_RENDERERS = {
    "csv": csv_chunks,
    "text": text_chunks,
    "json": lambda kind, rows: [*json_chunks(kind, rows, "zigzag/1"), "\n"],
    "boustrophedon": lambda kind, rows: map(
        "{}\n".format, boustrophedon_lines(kind, rows)
    ),
}


# the sizes every export is compared with the one oracle at
SIZES = (*range(1, 13), 30, 50)


@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_json_chunks_join_to_json_dumps(kind):
    for n_max in SIZES:
        chunks = list(json_chunks(kind, ORACLES[kind][0](n_max).rows, "zigzag/1"))
        assert "".join(chunks) + "\n" == _old_rendering(kind, n_max, "json")
        assert len(chunks) == n_max + 2  # the head, one per row, the tail


@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_chunks_match_the_line_oracles_row_by_row(kind):
    for n_max in SIZES:
        rows = ORACLES[kind][0](n_max).rows
        rendered = {
            fmt: list(TABLE_RENDERERS[fmt](kind, rows))
            for fmt in ("csv", "text", "boustrophedon")
        }
        for fmt, chunks in rendered.items():
            assert all(c.endswith("\n") for c in chunks), fmt
            assert "".join(chunks) == _old_rendering(kind, n_max, fmt), fmt
        # one row per chunk, after the CSV header
        row_lines = [c.count("\n") for c in rendered["csv"]]
        assert row_lines == [1, *(len(rows[n - 1]) for n in range(1, n_max + 1))]
        assert len(rendered["text"]) == n_max
        lines = "".join(f"{line}\n" for line in csv_lines(kind, rows))
        assert lines == _old_rendering(kind, n_max, "csv")


@pytest.mark.parametrize("kind", sorted(ORACLES))
@pytest.mark.parametrize("fmt", ["text", "csv", "json", "boustrophedon"])
def test_cli_output_matches_the_old_rendering(kind, fmt):
    for n_max in SIZES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dispatch(["triangle", kind, "--n", str(n_max), "--format", fmt])
        assert code == 0
        assert buf.getvalue() == _old_rendering(kind, n_max, fmt), (kind, n_max, fmt)


# sha256 of the benchmark's large exports, copied from perfbench/spec.py
PINNED_EXPORTS = [
    (
        ["triangle", "entringer", "--n", "200", "--format", "csv", "--force"],
        "9f3721e31739cd8b4442f375d972b5a19ef7c81175f36ec4ad21c2ac129b6693",
    ),
    (
        ["triangle", "arnold", "--n", "100", "--format", "json", "--force"],
        "a6709c98cc0fb75cb7b1ae8151edc3a29caf69c2ea3ba7a63b097260cddbc99b",
    ),
    (
        ["enumerate", "andre", "--n", "8"],
        "6e65df299904712c95e27425378418382f2a030f09202a910149142a9659477a",
    ),
    (
        ["enumerate", "snake", "--n", "6"],
        "39bb54f339eb18331a73eb71ac9780d2b2b75a280251b4c1656cdf6b48a4497e",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    PINNED_EXPORTS,
    ids=["entringer-200-csv", "arnold-100-json", "andre-8", "snake-6"],
)
def test_large_exports_keep_their_pinned_digest(tmp_path, argv, digest):
    path = tmp_path / "export.out"
    assert dispatch([*argv, "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("kind", sorted(ORACLES))
@pytest.mark.parametrize("fmt", ["text", "csv", "json", "boustrophedon"])
def test_streamed_cli_output_matches_the_table_renderers(kind, fmt):
    for n_max in (1, 2, 7, 30, 50):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dispatch(["triangle", kind, "--n", str(n_max), "--format", fmt])
        assert code == 0
        expected = "".join(TABLE_RENDERERS[fmt](kind, ORACLES[kind][0](n_max).rows))
        assert buf.getvalue() == expected, (kind, n_max, fmt)


def test_a_streamed_export_holds_one_row(tmp_path):
    # a fresh interpreter, so no earlier test's allocations set the peak;
    # the whole 500-row table would add about 40 MiB
    script = textwrap.dedent(
        """
        import os, resource
        from zigzag import cli
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        code = cli.dispatch(["triangle", "entringer", "--n", "500", "--format",
                             "csv", "--force", "--output", os.devnull])
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(code, after - before)
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    code, growth_kib = map(int, result.stdout.split())
    assert code == 0
    assert growth_kib < 5 * 1024  # ru_maxrss is in KiB on Linux


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_row_sums_keep_only_the_last_row():
    table_peak = _traced_peak(lambda: entringer_table(300))
    assert _traced_peak(lambda: euler_number(300)) < table_peak / 5
    assert _traced_peak(lambda: springer_number(150)) < (
        _traced_peak(lambda: arnold_table(150)) / 5
    )
