"""Subshift presentations: forbidden-pattern SFTs and labeled-graph sofic shifts.

One-dimensional language questions are all answered on edge-labeled directed
graphs: SFTs over Z are compiled to their higher-block graphs, and every
language operation (membership, counting, determinization, equality) runs on
the trimmed essential graph, where finite walk labels are exactly the words
of the subshift's language.

Membership for Z^d SFTs with d >= 2 is exposed only as local admissibility
on finite windows (no global-extension claims).  Window counts are exact: a
binary SFT whose forbidden patterns are the odd-sum assignments on their
supports (the Ledrappier builtin, or any such SFT read from JSON) is counted
over F_2, every other SFT by a cell-by-cell transfer whose work,
|window| * a^(widest frontier + 1) with a the values that no one-cell
pattern forbids, is checked against a cap before any state is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BudgetExceededError, UnsupportedGroupError
from .groups import Element, FiniteSubset, Group, Zd
from .patterns import Alphabet, BINARY, Pattern, parse_word, render_word, word_to_pattern

DEFAULT_STATE_BUDGET = 1 << 17
DEFAULT_COUNT_CAP = 1 << 22


@dataclass(frozen=True)
class SFTPresentation:
    """A subshift of finite type given by forbidden patterns, its whole
    description.  If they are the odd-sum assignments on their supports over a
    binary alphabet (as for Ledrappier), window counts are exact over F_2."""

    group: Group
    alphabet: Alphabet
    forbidden: Tuple[Pattern, ...]

    def __post_init__(self):
        a = len(self.alphabet)
        for p in self.forbidden:
            if not p.support:
                raise ValueError("forbidden patterns need nonempty support")
            if len({self.group.check(g) for g in p.support}) != len(p.support):
                raise ValueError(f"forbidden pattern support repeats a cell: {p.support}")
            if not all(isinstance(v, int) and 0 <= v < a for v in p.values):
                raise ValueError(f"forbidden pattern values must lie in range({a}): {p.values}")


@dataclass(frozen=True)
class SoficPresentation1D:
    """A finite edge-labeled directed graph presenting a Z-subshift's language."""

    alphabet: Alphabet
    num_vertices: int
    edges: Tuple[Tuple[int, int, int], ...]  # (source, target, symbol index)

    def __post_init__(self):
        for u, v, sym in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError("edge endpoint out of range")
            if not (0 <= sym < len(self.alphabet)):
                raise ValueError("edge symbol out of range")
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))

    def is_deterministic(self) -> bool:
        seen = set()
        for u, _, sym in self.edges:
            if (u, sym) in seen:
                return False
            seen.add((u, sym))
        return True

    def is_essential(self) -> bool:
        outs = {u for u, _, _ in self.edges}
        ins = {v for _, v, _ in self.edges}
        return all(u in outs and u in ins for u in range(self.num_vertices))


def _live(n: int, first: List[int], heads: List[int], need_in=True, need_out=True) -> bytearray:
    """Flags of the greatest set of vertices 0..n-1 in which every vertex keeps
    an in-edge (``need_in``) and an out-edge (``need_out``) inside the set.

    The out-edges of ``u`` go to ``heads[first[u]:first[u + 1]]``; parallel
    edges and self-loops count.  Vertices are deleted from a queue while
    degree counters track the edges left, so the cost is linear in the graph.
    """
    rfirst = [0] * (n + 1)  # the reverse adjacency, by counting sort
    for v in heads:
        rfirst[v + 1] += 1
    rfirst = list(itertools.accumulate(rfirst))
    tails = [0] * len(heads)
    fill = rfirst[:n]
    for u in range(n):
        for e in range(first[u], first[u + 1]):
            v = heads[e]
            tails[fill[v]] = u
            fill[v] += 1
    indeg = [rfirst[v + 1] - rfirst[v] for v in range(n)]
    outdeg = [first[u + 1] - first[u] for u in range(n)]
    alive = bytearray(b"\x01") * n
    queue = [v for v in range(n) if (need_in and not indeg[v]) or (need_out and not outdeg[v])]
    for v in queue:
        alive[v] = 0
    for v in queue:  # the loop also visits the vertices appended below
        for e in range(first[v], first[v + 1]):
            w = heads[e]
            indeg[w] -= 1
            if need_in and not indeg[w] and alive[w]:
                alive[w] = 0
                queue.append(w)
        for e in range(rfirst[v], rfirst[v + 1]):
            u = tails[e]
            outdeg[u] -= 1
            if need_out and not outdeg[u] and alive[u]:
                alive[u] = 0
                queue.append(u)
    return alive


def trim(pres: SoficPresentation1D) -> SoficPresentation1D:
    """Essential part: drop every vertex that lies on no bi-infinite path."""
    if pres.is_essential():
        return pres
    n = pres.num_vertices
    first = [0] * (n + 1)
    for u, _, _ in pres.edges:  # edges are sorted, so grouped by source
        first[u + 1] += 1
    alive = _live(n, list(itertools.accumulate(first)), [v for _, v, _ in pres.edges])
    rename = list(itertools.accumulate(alive, initial=-1))
    return SoficPresentation1D(
        pres.alphabet,
        rename[-1] + 1,
        tuple(
            (rename[u + 1], rename[v + 1], s)
            for (u, v, s) in pres.edges
            if alive[u] and alive[v]
        ),
    )


# -- builtins ----------------------------------------------------------------


def full_shift(alphabet: Alphabet) -> SoficPresentation1D:
    return SoficPresentation1D(
        alphabet, 1, tuple((0, 0, s) for s in range(len(alphabet)))
    )


def golden_mean() -> SFTPresentation:
    """Binary sequences on Z with no factor 11."""
    group = Zd(1)
    return SFTPresentation(group, BINARY, (word_to_pattern(BINARY, "11"),))


def even_shift() -> SoficPresentation1D:
    """Binary sequences with an even number of 0s between consecutive 1s."""
    # vertex 0: even run position; vertex 1: mid odd run
    return SoficPresentation1D(BINARY, 2, ((0, 0, 1), (0, 1, 0), (1, 0, 0)))


def hard_ball(d: int) -> SFTPresentation:
    """No two adjacent 1s along any coordinate direction of Z^d."""
    group = Zd(d)
    forb = []
    for i in range(d):
        e_i = tuple(1 if j == i else 0 for j in range(d))
        forb.append(Pattern.from_dict(group, {group.identity: 1, e_i: 1}))
    return SFTPresentation(group, BINARY, tuple(forb))


def ledrappier() -> SFTPresentation:
    """Z^2 subshift with x(m,n) + x(m+1,n) + x(m,n+1) = 0 mod 2.

    The forbidden patterns are the 4 odd-sum assignments on the L-shape.
    """
    group = Zd(2)
    shape = ((0, 0), (1, 0), (0, 1))
    forb = []
    for vals in itertools.product((0, 1), repeat=3):
        if sum(vals) % 2 == 1:
            forb.append(Pattern.from_dict(group, dict(zip(shape, vals))))
    return SFTPresentation(group, BINARY, tuple(forb))


# -- SFT compilation over Z ----------------------------------------------------


def _forbidden_words(sft: SFTPresentation) -> List[Tuple[int, ...]]:
    a = len(sft.alphabet)
    words = set()
    for p in sft.forbidden:
        cells = [g[0] for g in p.support]
        lo, hi = min(cells), max(cells)
        width = hi - lo + 1
        fixed = {c - lo: v for c, v in zip(cells, p.values)}
        free = [i for i in range(width) if i not in fixed]
        for fill in itertools.product(range(a), repeat=len(free)):
            w = [0] * width
            for i, v in fixed.items():
                w[i] = v
            for i, v in zip(free, fill):
                w[i] = v
            words.add(tuple(w))
    return sorted(words)


def sft_to_sofic(sft: SFTPresentation, budget: int = DEFAULT_STATE_BUDGET) -> SoficPresentation1D:
    """Higher-block graph: vertices are allowed (m-1)-words, edges m-words."""
    if not isinstance(sft.group, Zd) or sft.group.d != 1:
        raise UnsupportedGroupError("graph compilation is for Z subshifts")
    a = len(sft.alphabet)
    forbidden = _forbidden_words(sft)
    m = max([1] + [len(w) for w in forbidden])
    if a ** (m - 1) > budget:
        raise BudgetExceededError("higher-block vertices", a ** (m - 1), budget)

    def clean(word):
        return not any(
            word[i : i + len(f)] == f
            for f in forbidden
            for i in range(len(word) - len(f) + 1)
        )

    vertices = [w for w in itertools.product(range(a), repeat=m - 1) if clean(w)]
    index = {w: i for i, w in enumerate(vertices)}
    edges = []
    for w in vertices:
        for s in range(a):
            nxt = (w + (s,))[1:]
            if nxt in index and clean(w + (s,)):
                edges.append((index[w], index[nxt], s))
    return trim(SoficPresentation1D(sft.alphabet, len(vertices), tuple(edges)))


def presentation_of(X, budget: int = DEFAULT_STATE_BUDGET) -> SoficPresentation1D:
    """A trimmed essential graph for a 1D subshift given in either form."""
    if isinstance(X, SoficPresentation1D):
        return trim(X)
    if isinstance(X, SFTPresentation):
        return sft_to_sofic(X, budget)
    raise TypeError(f"not a subshift presentation: {X!r}")


# -- determinization and language operations ----------------------------------


class SubsetAutomaton:
    """Deterministic automaton for the language, start = set of all vertices.

    Words of the language correspond bijectively to paths from the start
    state, which is what counting and comparison need.
    """

    def __init__(self, states, transitions, alphabet):
        self.states = states  # tuple of sorted vertex tuples
        self.transitions = transitions  # list of dict sym -> state index
        self.alphabet = alphabet

    @property
    def start(self) -> int:
        return 0


def subset_automaton(
    pres: SoficPresentation1D, budget: int = DEFAULT_STATE_BUDGET
) -> SubsetAutomaton:
    pres = trim(pres)
    if pres.num_vertices == 0:
        return SubsetAutomaton(((),), [{}], pres.alphabet)
    step = [dict() for _ in range(pres.num_vertices)]
    for u, v, sym in pres.edges:
        step[u].setdefault(sym, set()).add(v)
    start = tuple(range(pres.num_vertices))
    states = {start: 0}
    order = [start]
    transitions = []
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            trans = {}
            for sym in range(len(pres.alphabet)):
                target = set()
                for q in state:
                    target |= step[q].get(sym, set())
                if not target:
                    continue
                key = tuple(sorted(target))
                if key not in states:
                    if len(states) >= budget:
                        raise BudgetExceededError(
                            "determinization states", len(states) + 1, budget
                        )
                    states[key] = len(order)
                    order.append(key)
                    nxt.append(key)
                trans[sym] = states[key]
            transitions.append(trans)
        frontier = nxt
    # transitions were appended in BFS order of discovery, matching `order`
    return SubsetAutomaton(tuple(order), transitions, pres.alphabet)


def word_appears(X, word, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """Exact membership of a finite word in the subshift's language (1D)."""
    pres = presentation_of(X, budget)
    if not isinstance(word, tuple) or any(not isinstance(s, int) for s in word):
        word = parse_word(pres.alphabet, word)
    step = [dict() for _ in range(pres.num_vertices)]
    for u, v, sym in pres.edges:
        step[u].setdefault(sym, set()).add(v)
    current = set(range(pres.num_vertices))
    for sym in word:
        nxt = set()
        for q in current:
            nxt |= step[q].get(sym, set())
        if not nxt:
            return False
        current = nxt
    return True


def language_count(X, n: int, budget: int = DEFAULT_STATE_BUDGET) -> int:
    """Number of admissible words of length n, by transfer over the subset DFA."""
    if n < 0:
        raise ValueError("length must be >= 0")
    auto = subset_automaton(presentation_of(X, budget), budget)
    counts = {auto.start: 1}
    for _ in range(n):
        nxt: Dict[int, int] = {}
        for state, c in counts.items():
            for sym, target in auto.transitions[state].items():
                nxt[target] = nxt.get(target, 0) + c
        counts = nxt
    return sum(counts.values())


def determinize(X, budget: int = DEFAULT_STATE_BUDGET) -> SoficPresentation1D:
    """A deterministic (right-resolving) presentation of the same language."""
    auto = subset_automaton(presentation_of(X, budget), budget)
    edges = []
    for i, trans in enumerate(auto.transitions):
        for sym, j in sorted(trans.items()):
            edges.append((i, j, sym))
    return trim(SoficPresentation1D(auto.alphabet, len(auto.states), tuple(edges)))


def _merge_symbols(A: Alphabet, B: Alphabet) -> Tuple[Alphabet, Dict[int, int], Dict[int, int]]:
    names = list(A.symbols) + [s for s in B.symbols if s not in A.symbols]
    merged = Alphabet(tuple(names))
    mapA = {i: merged.index(s) for i, s in enumerate(A.symbols)}
    mapB = {i: merged.index(s) for i, s in enumerate(B.symbols)}
    return merged, mapA, mapB


def sofic_compare(X, Y, budget: int = DEFAULT_STATE_BUDGET):
    """Language comparison of two 1D subshifts.

    Returns (equal, only_in_X, only_in_Y) where the witnesses are the
    shortest (then lexicographically least) words in one language and not
    the other, as strings, or None.
    """
    autoX = subset_automaton(presentation_of(X, budget), budget)
    autoY = subset_automaton(presentation_of(Y, budget), budget)
    merged, mapX, mapY = _merge_symbols(autoX.alphabet, autoY.alphabet)
    transX = [{mapX[s]: t for s, t in d.items()} for d in autoX.transitions]
    transY = [{mapY[s]: t for s, t in d.items()} for d in autoY.transitions]

    start = (autoX.start, autoY.start)
    seen = {start}
    frontier = [(start, ())]
    only_x = None
    only_y = None
    while frontier and (only_x is None or only_y is None):
        nxt = []
        for (sx, sy), word in frontier:
            for sym in range(len(merged)):
                tx = transX[sx].get(sym)
                ty = transY[sy].get(sym)
                if tx is None and ty is None:
                    continue
                w = word + (sym,)
                if tx is None and only_y is None:
                    only_y = w
                    continue
                if ty is None and only_x is None:
                    only_x = w
                    continue
                if tx is None or ty is None:
                    continue
                state = (tx, ty)
                if state not in seen:
                    seen.add(state)
                    nxt.append((state, w))
        frontier = nxt
    return (
        (only_x is None and only_y is None),
        None if only_x is None else render_word(merged, only_x),
        None if only_y is None else render_word(merged, only_y),
    )


def sofic_equal(X, Y, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    equal, _, _ = sofic_compare(X, Y, budget)
    return equal


# -- irreducibility and mixing -------------------------------------------------


def _reach_masks(pres: SoficPresentation1D) -> List[int]:
    """Bitmask of vertices reachable (>= 0 steps) from each vertex."""
    n = pres.num_vertices
    adj = [0] * n
    for u, v, _ in pres.edges:
        adj[u] |= 1 << v
    masks = []
    for v in range(n):
        seen = 1 << v
        frontier = [v]
        while frontier:
            nxt = []
            for q in frontier:
                new = adj[q] & ~seen
                seen |= adj[q]
                while new:
                    bit = new & -new
                    nxt.append(bit.bit_length() - 1)
                    new ^= bit
            frontier = nxt
        masks.append(seen)
    return masks


def _subset_states(pres: SoficPresentation1D, budget: int) -> List[Tuple[int, ...]]:
    return list(subset_automaton(pres, budget).states)


def irreducible(X, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """Exact: for all words u, v of the language some uwv is admissible.

    End-sets of words are the forward subset-automaton states; the sets of
    vertices from which a word is readable are the states of the reversed
    automaton; u, v can be joined iff some end vertex of u reaches some
    start vertex of v in the graph.
    """
    pres = presentation_of(X, budget)
    if pres.num_vertices == 0:
        return True
    reach = _reach_masks(pres)
    fwd = _subset_states(pres, budget)
    reversed_pres = SoficPresentation1D(
        pres.alphabet, pres.num_vertices, tuple((v, u, s) for (u, v, s) in pres.edges)
    )
    bwd = _subset_states(reversed_pres, budget)
    starts = [sum(1 << q for q in state) for state in bwd]
    for end_state in fwd:
        reachable = 0
        for q in end_state:
            reachable |= reach[q]
        if any(reachable & mask == 0 for mask in starts):
            return False
    return True


def mixing_gap(X, budget: int = DEFAULT_STATE_BUDGET) -> Optional[int]:
    """Primitivity index of the presentation graph's adjacency matrix.

    A finite value k certifies a uniform mixing gap (all-positive A^k);
    None means the matrix is not primitive.  For non-SFT sofic inputs this
    is a certificate about the given presentation.
    """
    pres = presentation_of(X, budget)
    n = pres.num_vertices
    if n == 0:
        return None
    rows = [0] * n
    for u, v, _ in pres.edges:
        rows[u] |= 1 << v
    full = (1 << n) - 1
    power = list(rows)
    wielandt = (n - 1) * (n - 1) + 1 if n > 1 else 1
    for k in range(1, wielandt + 1):
        if all(r == full for r in power):
            return k
        nxt = []
        for u in range(n):
            acc = 0
            bits = power[u]
            while bits:
                bit = bits & -bits
                acc |= rows[bit.bit_length() - 1]
                bits ^= bit
            nxt.append(acc)
        power = nxt
    return None


# -- window admissibility over Z^d ----------------------------------------------


def _placements(
    group: Group, window: Sequence[Element], support: FiniteSubset
) -> List[Tuple[int, ...]]:
    """Window indices of every translate of ``support`` that lies inside the
    window, aligned with ``support``; a translate is found from the cell its
    first point moves to."""
    cells = {g: i for i, g in enumerate(window)}
    back = group.inverse(support[0])
    offsets = [group.mul(back, h) for h in support]
    placements = []
    for g in window:
        positions = []
        for r in offsets:
            i = cells.get(group.mul(g, r))
            if i is None:
                break
            positions.append(i)
        else:
            placements.append(tuple(positions))
    return placements


def _parity_shapes(sft: SFTPresentation) -> Optional[List[FiniteSubset]]:
    """The supports of a binary SFT forbidding exactly the odd-sum assignments
    on each of them, or None.  Such a shift is linear over F_2: a pattern is
    admissible iff every placed support sums to 0 mod 2."""
    if len(sft.alphabet) != 2 or not sft.forbidden:
        return None
    seen: Dict[FiniteSubset, set] = {}
    for p in sft.forbidden:
        seen.setdefault(p.support, set()).add(p.values)
    for support, values in seen.items():
        # 2^(k-1) distinct odd-sum 0/1 tuples of length k are all of them
        if len(values) != 1 << (len(support) - 1) or not all(
            sum(v) % 2 and set(v) <= {0, 1} for v in values
        ):
            return None
    return list(seen)


def _parity_rank_count(group: Group, window: FiniteSubset, shapes: List[FiniteSubset]) -> int:
    """2^(cells - rank) of the parity checks, by elimination on bitmask rows."""
    pivots = []
    for shape in shapes:
        for positions in _placements(group, window, shape):
            row = 0
            for p in positions:
                row ^= 1 << p
            for q in pivots:
                row = min(row, row ^ q)
            if row:
                pivots.append(row)
                pivots.sort(reverse=True)
    return 2 ** (len(window) - len(pivots))


def _embeddings(sft: SFTPresentation, window: FiniteSubset):
    """All (positions, values) placements of forbidden patterns inside the window."""
    return sorted(
        {(at, p.values) for p in sft.forbidden for at in _placements(sft.group, window, p.support)}
    )


def _cell_order(group: Group, window: FiniteSubset, placements):
    """The order in which the transfer adds the window's cells, the step of
    each cell, the last step that reads it, and the widest frontier: the most
    added cells that a placement not yet complete still reads.

    Over Z^d every axis order of the window is tried and the narrowest kept,
    ties going to the canonical order; other groups use the window order.
    """
    n = len(window)
    best = None
    for axes in itertools.permutations(range(group.d)) if isinstance(group, Zd) else [()]:
        order = sorted(range(n), key=lambda i: [window[i][k] for k in axes])
        rank = {i: t for t, i in enumerate(order)}
        end = dict(rank)
        for positions, _ in placements:
            last = max(rank[i] for i in positions)
            for i in positions:
                end[i] = max(end[i], last)
        size = [0] * (n + 1)  # cell i is in the frontier after steps rank[i]..end[i]-1
        for i in range(n):
            size[rank[i]] += 1
            size[end[i]] -= 1
        width = max(itertools.accumulate(size))
        if best is None or width < best[-1]:
            best = (order, rank, end, width)
    return best


def _transfer_count(sft: SFTPresentation, window: FiniteSubset, cap: int) -> int:
    """Cell-by-cell transfer: add the window's cells one at a time, counting
    the admissible assignments for each assignment of the frontier; every
    placement is checked at its last cell.  A state is an integer in which
    each frontier cell owns a bit field from the step that adds it to the
    last step that reads it.  A value that a one-cell pattern forbids is
    never tried, and no placement that needs one is kept."""
    a = len(sft.alphabet)
    banned = {p.values[0] for p in sft.forbidden if len(p.support) == 1}
    allowed = [v for v in range(a) if v not in banned]
    placements = [(at, vals) for at, vals in _embeddings(sft, window) if banned.isdisjoint(vals)]
    order, rank, end, width = _cell_order(sft.group, window, placements)
    work = len(window) * len(allowed) ** (width + 1)
    if work > cap:
        raise BudgetExceededError("window transfer", work, cap)
    bits = (a - 1).bit_length() or 1
    field = (1 << bits) - 1
    due = [[] for _ in order]
    for positions, values in placements:
        due[max(rank[i] for i in positions)].append((positions, values))
    shift = {}  # the slot of each frontier cell, as a bit offset
    free = [bits * k for k in range(width, -1, -1)]
    counts = {0: 1}
    for t, cell in enumerate(order):
        at = shift[cell] = free.pop()
        checks = []
        for positions, values in due[t]:
            mask = want = 0
            for i, v in zip(positions, values):
                mask |= field << shift[i]
                want |= v << shift[i]
            checks.append((mask, want))
        for i in [i for i in shift if end[i] == t]:
            free.append(shift.pop(i))
        keep = sum(field << s for s in shift.values())
        nxt: Dict[int, int] = {}
        for v in allowed:
            new = v << at
            for state, c in counts.items():
                state |= new
                for mask, want in checks:
                    if state & mask == want:
                        break
                else:
                    nxt[state & keep] = nxt.get(state & keep, 0) + c
        counts = nxt
    return sum(counts.values())


def locally_admissible_count(
    sft: SFTPresentation, window: FiniteSubset, cap: int = DEFAULT_COUNT_CAP
) -> int:
    """Patterns on the window violating no forbidden pattern fully inside it.

    A binary SFT whose forbidden patterns are the odd-sum assignments on their
    supports is counted by linear algebra over F_2; every other SFT by a
    cell-by-cell transfer over the window.  ``cap`` bounds the transfer's
    work, |window| * a^(widest frontier + 1) with a the values that no
    one-cell pattern forbids, and is checked before any state is built.
    """
    window = sft.group.canon(window)
    shapes = _parity_shapes(sft)
    if shapes is not None:
        return _parity_rank_count(sft.group, window, shapes)
    return _transfer_count(sft, window, cap)
