"""Seeded inputs and independent reference numbers for the benchmark.

Everything here is computed from the benchmark's own recurrences, so
references do not depend on the code under test:

- Entringer numbers E(n, k) and Arnold numbers S(n, k) by their
  boustrophedon recurrences;
- uniform alternating permutations by boustrophedon sampling;
- signed alternating permutations, forced-sign Andre words and
  increasing 1-2 trees for the maps-random workload.

Trees are handed to ``zigzag`` as its own ``Tree`` records; the caller
passes that class in, so this module imports nothing from the package.
"""

from __future__ import annotations

import bisect
import random
from functools import lru_cache

# OEIS prefixes, hard-coded as references independent of any recurrence
EULER_A000111 = (1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765)
SPRINGER_A001586 = (1, 1, 3, 11, 57, 361, 2763, 24611, 250737, 2873041, 36581523)


@lru_cache(maxsize=None)
def entringer(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n; row m holds E(m, k) at index k for 0 <= k <= m.

    E(m, k) counts down-up permutations of [m] (p1 > p2 < p3 ...)
    whose first entry is k.
    """
    rows = [(1,)]
    for m in range(1, n + 1):
        row = [0] * (m + 1)
        if m == 1:
            row[1] = 1
        for k in range(2, m + 1):
            row[k] = row[k - 1] + rows[m - 1][m + 1 - k]
        rows.append(tuple(row))
    return tuple(rows)


def euler(n: int) -> int:
    """Number of down-up permutations of [n]; euler(0) = 1."""
    return sum(entringer(n)[n]) if n else 1


@lru_cache(maxsize=None)
def arnold(n: int) -> dict[tuple[int, int], int]:
    """Arnold numbers S(m, k) for 1 <= |k| <= m <= n."""
    s = {(1, 1): 1, (1, -1): 1}
    for m in range(2, n + 1):
        s[(m, -m)] = 0
        for k in range(-m + 1, 0):
            s[(m, k)] = s[(m, k - 1)] + s[(m - 1, -k)]
        s[(m, 1)] = s[(m, -1)]
        for k in range(2, m + 1):
            s[(m, k)] = s[(m, k - 1)] + s[(m - 1, -k + 1)]
    return s


def springer(n: int) -> int:
    """Sum of S(n, k) over k > 0: the number of snakes of [n]."""
    s = arnold(n)
    return sum(s[(n, k)] for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# boustrophedon sampling


def step_weights(m: int, below: int | None, down: bool) -> list[tuple[int, int]]:
    """(rank, weight) choices for the next entry among m remaining values.

    ``below`` is how many remaining values lie under the previous entry
    (None at the start).  A down-up suffix must start above the previous
    entry, an up-down suffix below it.  The weight of rank r is the
    number of ways to finish: E(m, r) for a down-up suffix and, by
    complement, E(m, m + 1 - r) for an up-down one.
    """
    row = entringer(m)[m]
    if down:
        lo = 1 if below is None else below + 1
        return [(r, row[r]) for r in range(lo, m + 1) if row[r]]
    return [(r, row[m + 1 - r]) for r in range(1, below + 1) if row[m + 1 - r]]


def _pick(choices: list[tuple[int, int]], rng: random.Random) -> int:
    total = sum(w for _, w in choices)
    x = rng.randrange(total)
    for r, w in choices:
        if x < w:
            return r
        x -= w
    raise AssertionError("weights exhausted")


def alternating(n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniformly random down-up permutation of [n]."""
    remaining = list(range(1, n + 1))
    out: list[int] = []
    below = None
    for i in range(n):
        r = _pick(step_weights(len(remaining), below, i % 2 == 0), rng)
        v = remaining.pop(r - 1)
        out.append(v)
        below = bisect.bisect_left(remaining, v)
    return tuple(out)


def signed_alternating(n: int, rng: random.Random) -> tuple[int, ...]:
    """A down-up word on a random sign set {±1, ..., ±n}.

    Every label set has the same number of alternating arrangements, so
    a uniform sign set with a uniform pattern is uniform overall.
    """
    labels = sorted(v if rng.random() < 0.5 else -v for v in range(1, n + 1))
    return tuple(labels[v - 1] for v in alternating(n, rng))


def random_tree_children(n: int, rng: random.Random) -> dict[int, list[int]]:
    """An increasing 1-2 tree on [n] by random slot insertion.

    Label m joins a uniformly chosen node with fewer than two children.
    Children lists are in insertion order, which is increasing order.
    """
    children: dict[int, list[int]] = {1: []}
    open_nodes = [1]
    for m in range(2, n + 1):
        at = open_nodes[rng.randrange(len(open_nodes))]
        children[at].append(m)
        if len(children[at]) == 2:
            open_nodes.remove(at)
        children[m] = []
        open_nodes.append(m)
    return children


def build_tree(children: dict[int, list[int]], tree_cls, root: int = 1):
    """Nested ``tree_cls(label, left, right)`` records, built bottom-up."""
    built = {}
    for v in sorted(children, reverse=True):
        kids = [built.pop(c) for c in children[v]]
        built[v] = tree_cls(v, *kids)
    return built[root]


def reverse_inorder(children: dict[int, list[int]], root: int = 1) -> tuple[int, ...]:
    """Right subtree, node, left subtree: an Andre permutation."""
    out: list[int] = []
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        v, visited = stack.pop()
        kids = children[v]
        if visited:
            out.append(v)
            continue
        if kids:
            stack.append((kids[0], False))
        stack.append((v, True))
        if len(kids) == 2:
            stack.append((kids[1], False))
    return tuple(out)


def suffix_minima(w: tuple[int, ...]) -> set[int]:
    """0-based positions i with w[i] < every later entry."""
    out = set()
    low = None
    for i in range(len(w) - 1, -1, -1):
        if low is None or w[i] < low:
            out.add(i)
            low = w[i]
    return out


def forced_sign_andre(children: dict[int, list[int]], rng: random.Random) -> tuple[int, ...]:
    """An Andre word with positive suffix minima and random other signs."""
    w = reverse_inorder(children)
    keep = suffix_minima(w)
    return tuple(v if i in keep or rng.random() < 0.5 else -v for i, v in enumerate(w))


def pleaf(children: dict[int, list[int]], root: int = 1) -> int:
    """End of the path that always takes the first (smaller) child."""
    v = root
    while children[v]:
        v = children[v][0]
    return v
