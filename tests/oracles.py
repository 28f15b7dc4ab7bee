"""The slow oracles of the fast paths, one per path, and their registry.

Each oracle's docstring names the ``zigzag`` function it stands beside
and what it follows: the definition, or the pass it replaced as it
stood.  ``REGISTRY`` maps each fast path (``module.qualname``) to its
oracle, and ``GLUE`` names the private functions that replace no slower
pass; ``test_oracles.py`` checks both.  pytest imports this module to
collect doctests, so it builds no table at import.
"""

from __future__ import annotations

import io
import itertools
import json
import operator
import random
from functools import lru_cache

from zigzag import core, families
from zigzag.bijections import psi, psi_c
from zigzag.cli import SCHEMA
from zigzag.core import (
    InvalidPermutationError, InvalidTreeError, Tree, TreeParseError, Word,
    _check_distinct, _check_node, _exact_ints, _link_tree, _tokenize_literal, _walk,
    ends_with_ascent, has_double_descent, inorder, minimal_path, node, order_relabel,
    rtl_min_positions, tree_labels, tree_to_json,
)
from zigzag.families import (
    FamilyTag, is_alternating, is_snake, iter_family, iter_permutations,
    refinement_statistic,
)
from zigzag.triangles import entringer_table

# core


def _perm_by_final_comparison(values) -> tuple[int, ...]:
    """core.perm_from_sequence as it stood: compare the entries with 1..n last."""
    entries = _exact_ints(values, InvalidPermutationError)
    if not entries:
        raise InvalidPermutationError("a permutation has length n >= 1")
    if set(entries).issuperset(range(1, len(entries) + 1)):
        return entries
    seen: set[int] = set()
    for v in entries:
        if v in seen:
            raise InvalidPermutationError(f"duplicate value {v}")
        seen.add(v)
    if seen != set(range(1, len(entries) + 1)):
        raise InvalidPermutationError(
            f"entries must be exactly 1..{len(entries)}, got {sorted(seen)}"
        )
    return entries


def _signed_perm_by_final_comparison(values) -> tuple[int, ...]:
    """core.signed_perm_from_sequence as it stood, in the same order."""
    entries = _exact_ints(values, InvalidPermutationError)
    if not entries:
        raise InvalidPermutationError("a signed permutation has length n >= 1")
    if set(map(abs, entries)).issuperset(range(1, len(entries) + 1)):
        return entries
    seen: set[int] = set()
    for v in entries:
        if v == 0:
            raise InvalidPermutationError("zero entries are not allowed")
        if abs(v) in seen:
            raise InvalidPermutationError(f"duplicate absolute value {abs(v)}")
        seen.add(abs(v))
    if seen != set(range(1, len(entries) + 1)):
        raise InvalidPermutationError(
            f"absolute values must be exactly 1..{len(entries)}, got {sorted(seen)}"
        )
    return entries


def _double_descent_by_index(w) -> bool:
    """core.has_double_descent as it stood, one test per index."""
    return any(w[i] > w[i + 1] > w[i + 2] for i in range(len(w) - 2))


def _node_by_node(t: Tree) -> None:
    """core.validate_tree as it stood: distinct labels, then each node in turn."""
    nodes = list(_walk(t))
    _check_distinct(cur.label for cur in nodes)
    for cur in nodes:
        _check_node(
            cur.label,
            None if cur.left is None else cur.left.label,
            None if cur.right is None else cur.right.label,
        )


def _linked_inorder_by_sorting(root, left, right):
    """core._linked_inorder as it stood: check nodes largest first, then walk."""
    labels = {root, *left.values(), *right.values()}
    for v in sorted(labels, reverse=True):
        _check_node(v, left.get(v), right.get(v))
    if (
        len(left) + len(right) != len(labels) - 1
        or not labels.issuperset(left)
        or not labels.issuperset(right)
    ):
        raise InvalidTreeError(f"the child maps are not one tree rooted at {root}")
    out = []
    stack = []
    v = root
    while True:
        while v in left:
            stack.append(v)
            v = left[v]
        out.append(v)
        v = right.get(v)
        while v is None:
            if not stack:
                return tuple(out)
            v = stack.pop()
            out.append(v)
            v = right.get(v)


def _parse_by_index(text: str) -> Tree:
    """core.tree_from_literal as it stood: nested loops over token indices."""
    tokens = _tokenize_literal(text)
    end = len(tokens)
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    labels: list[int] = []
    stack: list[tuple[int, dict[int, int]]] = []
    pos = 0
    while True:
        if pos == end:
            raise TreeParseError("unexpected end of tree literal")
        tok = tokens[pos]
        pos += 1
        try:
            label = int(tok)
        except ValueError:
            raise TreeParseError(f"expected a label, got {tok!r}") from None
        labels.append(label)
        if stack:
            parent, kids = stack[-1]
            kids[parent] = label
        if pos < end and tokens[pos] == "(":
            pos += 1
            stack.append((label, left))
            continue
        while stack:
            if pos == end:
                raise TreeParseError("unexpected end of tree literal")
            tok = tokens[pos]
            pos += 1
            if tok == "," and stack[-1][1] is left:
                stack[-1] = (stack[-1][0], right)
                break
            if tok != ")":
                raise TreeParseError(f"expected ')', got {tok!r}")
            stack.pop()
        else:
            break
    if pos != end:
        raise TreeParseError(f"trailing text in tree literal {text!r}")
    _check_distinct(labels)
    return _link_tree(labels[0], left, right)


def _literal_by_recursion(t: Tree) -> str:
    """core.tree_to_literal as a recursive rendering of the grammar."""
    if t.left is None:
        return str(t.label)
    left = _literal_by_recursion(t.left)
    if t.right is None:
        return f"{t.label}({left})"
    return f"{t.label}({left},{_literal_by_recursion(t.right)})"


def _json_by_recursion(t: Tree) -> dict:
    """core.tree_to_json as a recursive rendering of the document."""
    return {
        "label": t.label,
        "left": None if t.left is None else _json_by_recursion(t.left),
        "right": None if t.right is None else _json_by_recursion(t.right),
    }


def _bfs_key(t: Tree) -> tuple[int | None, ...]:
    """core.Tree.__hash__'s key as it stood: labels breadth first, None if absent."""
    key: list[int | None] = [t.label]
    order = [t]
    for cur in order:
        for child in (cur.left, cur.right):
            if child is None:
                key.append(None)
            else:
                key.append(child.label)
                order.append(child)
    return tuple(key)


# families


def _alternating_by_index(p):
    """families.is_alternating as it stood, one test per index."""
    return all(
        p[i] > p[i + 1] if i % 2 == 0 else p[i] < p[i + 1]
        for i in range(len(p) - 1)
    )


def _subwords_ok(p: Word, andre: bool) -> bool:
    """families._stack_scan by the definition: check every bottom-k subword."""
    for k in range(2, len(p) + 1):
        w = core.subword_smallest(p, k)
        if has_double_descent(w) or andre and not ends_with_ascent(w):
            return False
    return True


def _andre_by_subwords(p: Word) -> bool:
    """families.is_andre by the definition, through ``_subwords_ok``."""
    return _subwords_ok(p, True)


def _simsun_by_subwords(p: Word) -> bool:
    """families.is_simsun by the definition, through ``_subwords_ok``."""
    return _subwords_ok(p, False)


# through the subword definitions, so the generator oracle rests on no scan
_PREDICATES = {
    FamilyTag.ALT: is_alternating,
    FamilyTag.ALT_B: is_alternating,
    FamilyTag.SNAKE: is_snake,
    FamilyTag.ANDRE: _andre_by_subwords,
    FamilyTag.SIMSUN: _simsun_by_subwords,
    FamilyTag.ANDRE_B: _andre_by_subwords,
    FamilyTag.ANDRE_H: lambda p: families._forced_signs(p, _andre_by_subwords),
    FamilyTag.SIMSUN_B: lambda p: families._forced_signs(p, _simsun_by_subwords),
}


def iter_signed_permutations(n):
    """All 2^n n! signed permutations of [n], built and sorted, in signed order."""
    signs = itertools.product((1, -1), repeat=n)
    words = itertools.product(signs, iter_permutations(n))
    return iter(sorted(tuple(map(operator.mul, s, p)) for s, p in words))


def _filtered(tag, n, k=None):
    """families' permutation generators by the definitions (``_PREDICATES``)."""
    signed = tag in families._SIGNED_TAGS
    raw = iter_signed_permutations(n) if signed else iter_permutations(n)
    return [
        p
        for p in raw
        if _PREDICATES[tag](p) and (k is None or refinement_statistic(tag, p) == k)
    ]


def _from_inorder(word):
    # a word is a canonical inorder reading iff at every split the minimum is
    # last (single left child) or splits two sides whose minima increase
    if not word:
        return None
    i = word.index(min(word))
    if i == 0 and len(word) > 1:
        return None
    if 0 < i < len(word) - 1 and min(word[:i]) > min(word[i + 1 :]):
        return None
    left = _from_inorder(word[:i])
    right = _from_inorder(word[i + 1 :])
    if word[:i] and left is None or word[i + 1 :] and right is None:
        return None
    return Tree(word[i], left, right)


def _trees_by_inorder(tag: str, n: int) -> list[Tree]:
    """families' tree builders by the definition, read off the inorder words."""
    # for tree-b, each tree is relabelled in order onto the 2^n sign sets
    trees = [t for t in map(_from_inorder, iter_permutations(n)) if t is not None]
    if tag == "tree-b":
        trees = [
            order_relabel(t, [s * v for s, v in zip(signs, range(1, n + 1))])
            for signs in itertools.product((1, -1), repeat=n)
            for t in trees
        ]
    return sorted(trees, key=inorder)


def _hetyei_row_by_words(n: int) -> tuple[int, ...]:
    """families._HetyeiRows' count as it stood: weigh the Andre words one by one."""
    row = [0] * (n + 1)
    for w in families._iter_bottom_up(range(1, n + 1), andre=True):
        row[w[-1]] += 1 << (n - len(rtl_min_positions(w)))
    return tuple(row)


# bijections


def _shrink_by_skip(p: Word) -> Word:
    """bijections._shrink as it stood: entries off the suffix minima first."""
    n = len(p)
    if n == 1:
        return ()
    absw = tuple(abs(v) for v in p)
    mins = rtl_min_positions(absw)
    out: list[int] = [0] * (n - 1)
    skip = set(mins)
    for i in range(1, n):
        if i not in skip:
            v = p[i - 1]
            out[i - 1] = v - 1 if v > 0 else v + 1
    for t in range(1, len(mins)):
        out[mins[t - 1] - 1] = absw[mins[t] - 1] - 1
    return tuple(out)


def _phi_inv_by_skip(s: Word) -> Word:
    """bijections.phi_inv as it stood, for a nonempty Simsun word."""
    n = len(s) + 1
    mins = rtl_min_positions(s)
    out: list[int] = [0] * n
    skip = set(mins)
    for i in range(1, n):
        if i not in skip:
            out[i - 1] = s[i - 1] + 1
    out[mins[0] - 1] = 1
    for t in range(1, len(mins)):
        out[mins[t] - 1] = s[mins[t - 1] - 1] + 1
    out[n - 1] = s[mins[-1] - 1] + 1
    return tuple(out)


def _tree_maps(t: Tree):
    """bijections._min_split_maps as the walk fill of psi_inv that it replaced."""
    left, right, stack = {}, {}, [t]
    while stack:
        cur = stack.pop()
        for kids, child in ((left, cur.left), (right, cur.right)):
            if child is not None:
                kids[cur.label] = child.label
                stack.append(child)
    return t.label, left, right


def _graft_maps_by_path(p: Word, visit=None):
    """bijections._graft_maps as it stood: list the minimal path at each step."""
    n = len(p)
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    root = p[-1]
    if n % 2 == 0:
        left[root] = p[-2]
    for i in range((n - 1) // 2, 0, -1):
        x, y = p[2 * i - 2], p[2 * i - 1]
        path = [root]
        while path[-1] in left:
            path.append(left[path[-1]])
        a = min(v for v in path if v > y)
        parent = None if a == root else path[path.index(a) - 1]
        if a < x:
            chain = [a]
            while chain[-1] in right and right[chain[-1]] < x:
                chain.append(right[chain[-1]])
            b = chain[-1]
            hang = [left.get(v) for v in chain] + [right.get(b)]
            spine = [y, *chain, x]
            for u, v in zip(spine, spine[1:]):
                left[u] = v
            left.pop(x, None)
            right.pop(x, None)
            for v, s in zip(spine, hang):
                if s is None:
                    right.pop(v, None)
                else:
                    right[v] = s
            case, brec = "C1", b
        else:
            right[y] = a
            left[y] = x
            case, brec = "C2", None
        if parent is None:
            root = y
        else:
            left[parent] = y
        if visit is not None:
            visit(i, a, brec, case, root, left, right)
    return root, left, right


def _replay_maps_by_label(p: Word):
    """bijections._replay_maps as it stood: exchange labels on label-keyed maps."""
    n = len(p)
    word = list(p)
    at = {v: i for i, v in enumerate(word)}
    below = list(range(-1, n + 1))
    above = list(range(1, n + 3))
    steps = []
    s = 0
    while n - s > 2:
        k = word[s]
        j = below[k]
        if word[s + 1] == j:
            steps.append((True, j, k))
            lo, hi = below[j], above[k]
            above[lo], below[hi] = hi, lo
            s += 2
        else:
            steps.append((False, j, k))
            q = at[j]
            word[s], word[q] = j, k
            at[j], at[k] = s, q
    root = word[-1]
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    parent: dict[int, int] = {}
    if n - s == 2:
        left[root], parent[word[s]] = word[s], root
    for strip, j, k in reversed(steps):
        if strip:
            m = root
            while m < k:
                m = left[m]
            up = parent.get(m)
            left[j], right[j] = k, m
            parent[k] = parent[m] = j
            if up is None:
                root = j
            else:
                left[up], parent[j] = j, up
        elif parent[j] == parent[k]:
            ell = parent[j]
            kl, kr = left.pop(k, None), right.pop(k, None)
            left[j], parent[k] = k, j
            if kr is not None:
                right[j], parent[kr] = kr, j
            if kl is None:
                del right[ell]
            else:
                right[ell], parent[kl] = kl, ell
        else:
            # exchange the labels j and k, neither of them the root; j is a
            # leaf, so only k's child links move
            pj, pk = parent[j], parent[k]
            for u, old, new in ((pj, j, k), (pk, k, j)):
                kids = left if left[u] == old else right
                kids[u] = new
            parent[j], parent[k] = pk, pj
            for kids in (left, right):
                if k in kids:
                    c = kids[j] = kids.pop(k)
                    parent[c] = j
    return root, left, right


def _subtree(t: Tree, label: int) -> Tree | None:
    if t.label == label:
        return t
    for child in (t.left, t.right):
        if child is not None:
            found = _subtree(child, label)
            if found is not None:
                return found
    return None


def _parent_label(t: Tree, label: int) -> int | None:
    for child in (t.left, t.right):
        if child is not None:
            if child.label == label:
                return t.label
            found = _parent_label(child, label)
            if found is not None:
                return found
    return None


def _replace_subtree(t: Tree, at: int, new: Tree) -> Tree:
    if t.label == at:
        return new
    kids = [
        _replace_subtree(c, at, new) if c is not None and at in tree_labels(c) else c
        for c in (t.left, t.right)
    ]
    return node(t.label, *kids)


def _swap_labels(t: Tree, u: int, v: int) -> Tree:
    mapping = {u: v, v: u}

    def rebuild(cur: Tree) -> Tree:
        kids = [rebuild(c) for c in (cur.left, cur.right) if c is not None]
        return node(mapping.get(cur.label, cur.label), *kids)

    return rebuild(t)


def _psi_b(p: Word) -> Tree:
    """bijections.psi_b as it stood: the recursion on trees."""
    n = len(p)
    if n == 1:
        return Tree(1)
    if n == 2:
        return Tree(1, Tree(2))
    k = p[0]
    if p[1] == k - 1:
        reduced = order_relabel(p[2:], range(1, n - 1))
        small = _psi_b(reduced)
        target = [*range(1, k - 1), *range(k + 1, n + 1)]
        grown = order_relabel(small, target)
        m = min(v for v in minimal_path(grown) if v > k)
        spliced = node(k - 1, Tree(k), _subtree(grown, m))
        if m == grown.label:
            return spliced
        return _replace_subtree(grown, m, spliced)
    swapped = tuple(k if v == k - 1 else k - 1 if v == k else v for v in p)
    t = _psi_b(swapped)
    if _parent_label(t, k) == _parent_label(t, k - 1):
        ell = _parent_label(t, k)
        knode = _subtree(t, k)
        rebuilt = node(ell, node(k - 1, Tree(k), knode.right), knode.left)
        return _replace_subtree(t, ell, rebuilt)
    return _swap_labels(t, k - 1, k)


def _psi_table(n: int) -> dict[Tree, Word]:
    """bijections.psi_inv as it stood: look each tree up among psi's images."""
    return {psi(p): p for p in iter_family("alt", n, force=True)}


def _psi_signed_by_conjugation(p: Word) -> Tree:
    """bijections.psi_signed by definition: relabel onto [n], graft, relabel back."""
    tree = psi_c(order_relabel(p, range(1, len(p) + 1)))[0]
    return order_relabel(tree, sorted(p))


# cdindex


def _variation_by_index(w) -> str:
    """cdindex.variation as it stood, one letter per index."""
    return "".join("a" if w[i] < w[i + 1] else "b" for i in range(len(w) - 1))


def _reduce_by_loop(var: str, pair: str) -> str:
    """cdindex._reduce as it stood, letter by letter."""
    out = []
    i = 0
    while i < len(var):
        if var[i : i + 2] == pair:
            out.append("d")
            i += 2
        elif var[i] == "a":
            out.append("c")
            i += 1
        else:
            raise ValueError(f"letter 'b' at position {i + 1} survives reduction")
    return "".join(out)


# triangles and cli


def dict_entringer(n_max):
    """triangles._entringer_rows by the entry-by-entry recurrence."""
    e = {(1, 1): 1}
    for n in range(2, n_max + 1):
        e[(n, 1)] = 0
        for k in range(2, n + 1):
            e[(n, k)] = e[(n, k - 1)] + e[(n - 1, n + 1 - k)]
    return e


def dict_arnold(n_max):
    """triangles._arnold_rows by the entry-by-entry recurrence."""
    s = {(1, 1): 1, (1, -1): 1}
    for n in range(2, n_max + 1):
        s[(n, -n)] = 0
        for k in range(-n + 1, 0):
            s[(n, k)] = s[(n, k - 1)] + s[(n - 1, -k)]
        s[(n, 1)] = s[(n, -1)]
        for k in range(2, n + 1):
            s[(n, k)] = s[(n, k - 1)] + s[(n - 1, -k + 1)]
    return s


def _old_rendering(kind, n_max, fmt):
    """triangles' renderers as the CLI output from the dicts, before row streams."""
    e = (dict_arnold if kind == "arnold" else dict_entringer)(n_max)

    def ks(n):
        if kind == "arnold":
            return [*range(-n, 0), *range(1, n + 1)]
        return range(1, n + 1)

    sums = [sum(e[(n, k)] for k in range(1, n + 1)) for n in range(1, n_max + 1)]
    buf = io.StringIO()
    if fmt == "csv":
        print("n,k,value", file=buf)
        for n in range(1, n_max + 1):
            for k in ks(n):
                print(f"{n},{k},{e[(n, k)]}", file=buf)
    elif fmt == "json":
        rows = [
            {
                "n": n,
                "values": [{"k": k, "value": e[(n, k)]} for k in ks(n)],
                "row_sum": sums[n - 1],
            }
            for n in range(1, n_max + 1)
        ]
        doc = {"schema": "zigzag/1", "kind": kind, "rows": rows}
        print(json.dumps(doc, indent=2), file=buf)
    elif fmt == "text":
        for n in range(1, n_max + 1):
            cells = " ".join(str(e[(n, k)]) for k in ks(n))
            print(f"n={n}: {cells} | {sums[n - 1]}", file=buf)
    else:
        for line in _old_boustrophedon(kind, n_max, e):
            print(line, file=buf)
    return buf.getvalue()


def _old_boustrophedon(kind, n_max, e):
    def centered(rows):
        width = max(len(r) for r in rows)
        return [" " * ((width - len(r)) // 2) + r for r in rows]

    if kind == "entringer":
        rows = []
        for n in range(1, n_max + 1):
            ks = range(1, n + 1) if n % 2 == 0 else range(n, 0, -1)
            arrow = " → " if n % 2 == 0 else " ← "
            rows.append(arrow.join(str(e[(n, k)]) for k in ks))
        return centered(rows)

    def half(first_sign):
        rows = []
        for n in range(1, n_max + 1):
            sign = first_sign if n % 2 == 1 else -first_sign
            if sign < 0:
                ks = range(-n, 0) if n % 2 == 1 else range(-1, -n - 1, -1)
            else:
                ks = range(1, n + 1) if n % 2 == 1 else range(n, 0, -1)
            arrow = " → " if n % 2 == 1 else " ← "
            rows.append(arrow.join(str(e[(n, k)]) for k in ks))
        return centered(rows)

    return half(-1) + [""] + half(1)


def _object_json(obj):
    """cli's JSON renderers as the value cli._object_json gave json.dumps."""
    if isinstance(obj, Tree):
        return tree_to_json(obj)
    return list(obj)


def _map_json(name, value, result, trace=None) -> str:
    """cli._cmd_map's JSON document by the indenting encoder."""
    doc = {
        "schema": SCHEMA,
        "map": name,
        "input": _object_json(value),
        "output": _object_json(result),
    }
    if trace is not None:
        doc["trace"] = [
            {"i": s.index, "a": s.a, "b": s.b, "case": s.case} for s in trace.steps
        ]
    return json.dumps(doc, indent=2) + "\n"


# the shared input samplers


@lru_cache(maxsize=None)
def _entringer(n_max: int):
    return entringer_table(n_max)


def _sample_alternating(n: int, seed: int) -> tuple[int, ...]:
    """A uniformly random down-up permutation of [n], one entry at a time.

    A down-up word of size s whose first entry has rank k continues, after
    complementing the rest, as one of size s - 1 whose first entry has rank
    at least s + 1 - k; each rank is drawn with weight E(s, k)."""
    table = _entringer(n)
    rng = random.Random(seed)
    remaining = list(range(1, n + 1))
    flipped = False
    lo = 1
    out = []
    for s in range(n, 0, -1):
        ks = range(lo, s + 1)
        x = rng.randrange(sum(table.value(s, k) for k in ks))
        for k in ks:
            x -= table.value(s, k)
            if x < 0:
                break
        out.append(remaining.pop(s - k if flipped else k - 1))
        flipped = not flipped
        lo = s + 1 - k
    return tuple(out)


def _random_tree(n: int, seed) -> Tree:
    """A random increasing 1-2 tree on [n]: each new largest label hangs
    under a free slot chosen at random, so no table is needed at any n.
    ``seed`` may instead be a function that picks an index below its argument."""
    pick = seed if callable(seed) else random.Random(seed).randrange
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    slots = [(left, 1)]
    for v in range(2, n + 1):
        kids, u = slots.pop(pick(len(slots)))
        kids[u] = v
        if kids is left:
            slots.append((right, u))
        slots.append((left, v))
    return _link_tree(1, left, right)


# each fast path, as module.qualname, and its one oracle; the library's own
# order_relabel is the oracle of verify._conjugate's rank table
REGISTRY = {
    "core.perm_from_sequence": _perm_by_final_comparison,
    "core.signed_perm_from_sequence": _signed_perm_by_final_comparison,
    "core.has_double_descent": _double_descent_by_index,
    "core._checked_reverse_inorder": _node_by_node,
    "core._linked_inorder": _linked_inorder_by_sorting,
    "core.tree_from_literal": _parse_by_index,
    "core.tree_to_literal": _literal_by_recursion,
    "core.tree_to_json": _json_by_recursion,
    "core.Tree.__hash__": _bfs_key,
    "families.is_alternating": _alternating_by_index,
    "families._stack_scan": _subwords_ok,
    "families.is_andre": _andre_by_subwords,
    "families.is_simsun": _simsun_by_subwords,
    "families._iter_alternating": _filtered,
    "families._iter_bottom_up": _filtered,
    "families._free_signs": _filtered,
    "families._gen_trees": _trees_by_inorder,
    "families._grown": _trees_by_inorder,
    "families._HetyeiRows.__call__": _hetyei_row_by_words,
    "bijections._shrink": _shrink_by_skip,
    "bijections.phi_inv": _phi_inv_by_skip,
    "bijections._min_split_maps": _tree_maps,
    "bijections._graft_maps": _graft_maps_by_path,
    "bijections._replay_maps": _replay_maps_by_label,
    "bijections.psi_b": _psi_b,
    "bijections.psi_inv": _psi_table,
    "bijections.psi_signed": _psi_signed_by_conjugation,
    "cdindex.variation": _variation_by_index,
    "cdindex._reduce": _reduce_by_loop,
    "triangles._entringer_rows": dict_entringer,
    "triangles._arnold_rows": dict_arnold,
    "triangles.csv_chunks": _old_rendering,
    "triangles.text_chunks": _old_rendering,
    "triangles.json_chunks": _old_rendering,
    "triangles.boustrophedon_lines": _old_rendering,
    "cli._perm_json_text": _object_json,
    "cli._tree_json_text": _object_json,
    "cli._cmd_map": _map_json,
    "verify._conjugate": order_relabel,
}

# private functions that replace no slower pass: argument checks, guards,
# table lookups, tree linking and the check bodies of verify
GLUE = {
    "core._exact_int", "core._exact_ints", "core._link_tree", "core._relabeled",
    "core._walk",
    "families._check_k", "families._family_args", "families._forced_signs",
    "families._guard", "families._over_sign_sets", "families._stat_at",
    "families._tree_words",
    "bijections._one_to_n_reading",
    "triangles._row_ks", "triangles._row_sum", "triangles._rows_wanted",
    "triangles._table",
    "verify._arnold_families", "verify._bijection_legs",
    "verify._conjugation_legs", "verify._count_leg", "verify._entringer_families",
    "verify._family", "verify._psi_image", "verify._psi_maps", "verify._psi_word",
    "verify._report", "verify._run", "verify._scanned", "verify._spine_identity",
    "verify._sweep_row",
}
