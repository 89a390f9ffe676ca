"""Subshift presentations: forbidden-pattern SFTs and labeled-graph sofic shifts.

One-dimensional language questions are all answered on edge-labeled directed
graphs: SFTs over Z are compiled to their higher-block graphs, and every
language operation (membership, counting, determinization, equality) runs on
the trimmed essential graph, where finite walk labels are exactly the words
of the subshift's language.  The compiler checks its budget on the a^(m-1)
higher-block vertices before any word is enumerated, and matches gapped
forbidden patterns in place, their gaps as wildcards.

Subset construction works on vertex sets held as ascending vertex tuples,
through one step table shared by ``subset_automaton``, ``word_appears`` and
``sofic_compare``; a step costs the edges it reads, not the size of the
graph.  ``subset_automaton`` builds the whole automaton in BFS discovery
order, which the Perron values depend on.  ``sofic_compare`` builds both
automata lazily inside its product BFS and stops once both witnesses are
settled, so a comparison with a full shift stops at the first missing word;
its budget counts the subsets it actually built on each side.

Irreducibility and mixing read the strongly connected components of the
trimmed graph (one Tarjan routine, which the Perron values use too): the
language is irreducible iff some component presents all of it, which
``sofic_compare`` tests; the adjacency matrix is primitive iff there is one
component and its period is 1.

Membership for Z^d SFTs with d >= 2 is exposed only as local admissibility
on finite windows (no global-extension claims).  Window counts are exact: a
binary SFT whose forbidden patterns are the odd-sum assignments on their
supports (the Ledrappier builtin, or any such SFT read from JSON) is counted
over F_2, every other SFT by a cell-by-cell transfer whose work,
|window| * a^(widest frontier + 1) with a the values that no one-cell
pattern forbids, is checked against a cap before any state is built.
"""

from __future__ import annotations

import functools
import itertools
import math
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


def sft_to_sofic(sft: SFTPresentation, budget: int = DEFAULT_STATE_BUDGET) -> SoficPresentation1D:
    """Higher-block graph: vertices are allowed (m-1)-words, edges m-words.

    A forbidden pattern is kept as its span and its cells, as offsets from
    its leftmost cell, and is matched in place: its gaps are wildcards.  m is
    the widest span, and a^(m-1) is checked against the budget before any
    word is enumerated.  Words grow one symbol at a time from the allowed
    words, so only the matches ending at the new symbol are checked.
    """
    if not isinstance(sft.group, Zd) or sft.group.d != 1:
        raise UnsupportedGroupError("graph compilation is for Z subshifts")
    a = len(sft.alphabet)
    rules = []
    for p in sft.forbidden:
        lo, hi = min(p.support)[0], max(p.support)[0]
        rules.append((hi - lo + 1, [(g - lo, v) for (g,), v in zip(p.support, p.values)]))
    m = max([1] + [span for span, _ in rules])
    if a ** (m - 1) > budget:
        raise BudgetExceededError("higher-block vertices", a ** (m - 1), budget)
    words = [()]
    for n in range(1, m + 1):
        vertices = words
        ending = [(n - span, cells) for span, cells in rules if span <= n]
        words = [
            w
            for w in (u + (s,) for u in vertices for s in range(a))
            if not any(all(w[i + c] == v for c, v in cells) for i, cells in ending)
        ]
    index = {w: i for i, w in enumerate(vertices)}
    edges = tuple((index[w[:-1]], index[w[1:]], w[-1]) for w in words)
    return trim(SoficPresentation1D(sft.alphabet, len(vertices), edges))


def presentation_of(X, budget: int = DEFAULT_STATE_BUDGET) -> SoficPresentation1D:
    """A trimmed essential graph for a 1D subshift given in either form."""
    if isinstance(X, SoficPresentation1D):
        return trim(X)
    if isinstance(X, SFTPresentation):
        return sft_to_sofic(X, budget)
    raise TypeError(f"not a subshift presentation: {X!r}")


# -- determinization and language operations ----------------------------------


def _subset_step(num_vertices: int, num_symbols: int, edges) -> List[List[Tuple[int, ...]]]:
    """The step table of the subset construction: ``step[s][q]`` is the
    ascending tuple of the vertices that an edge labeled ``s`` reaches from
    vertex ``q``, for edges (q, target, s) given in sorted order.  It holds
    one entry per edge and per (symbol, vertex)."""
    step: List[List[list]] = [[[] for _ in range(num_vertices)] for _ in range(num_symbols)]
    for u, v, sym in edges:
        step[sym][u].append(v)
    return [[tuple(targets) for targets in row] for row in step]


def _successor(row: Sequence[Tuple[int, ...]], state: Tuple[int, ...]) -> Tuple[int, ...]:
    """The vertex set, as an ascending tuple, that the step ``row`` of one
    symbol reaches from ``state``; () where no edge is read.  The cost is the
    number of edges read, whatever the size of the graph."""
    if len(state) == 1:
        return row[state[0]]  # already ascending and distinct
    return tuple(sorted(set(itertools.chain.from_iterable(map(row.__getitem__, state)))))


def _check_budget(built: int, budget: int) -> None:
    """Refuse to build one more subset state when ``built`` exist."""
    if built >= budget:
        raise BudgetExceededError("determinization states", built + 1, budget)


class SubsetAutomaton:
    """Deterministic automaton for the language, start = set of all vertices.

    ``states`` holds the vertex sets as ascending vertex tuples in BFS
    discovery order from the start, and ``transitions[i]`` maps each symbol
    readable from state i to the index of its target.  Words of the language
    correspond bijectively to paths from the start state, which is what
    counting and comparison need.
    """

    def __init__(self, states, transitions, alphabet):
        self.states = states
        self.transitions = transitions
        self.alphabet = alphabet

    @property
    def start(self) -> int:
        return 0


def subset_automaton(
    pres: SoficPresentation1D, budget: int = DEFAULT_STATE_BUDGET
) -> SubsetAutomaton:
    pres = trim(pres)
    step = _subset_step(pres.num_vertices, len(pres.alphabet), pres.edges)
    start = tuple(range(pres.num_vertices))
    index = {start: 0}
    states = [start]
    transitions = []
    for state in states:  # the list grows while it is read: BFS discovery order
        trans = {}
        for sym, row in enumerate(step):
            target = _successor(row, state)
            if not target:
                continue
            if target not in index:
                _check_budget(len(states), budget)
                index[target] = len(states)
                states.append(target)
            trans[sym] = index[target]
        transitions.append(trans)
    return SubsetAutomaton(tuple(states), transitions, pres.alphabet)


def word_appears(X, word, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """Exact membership of a finite word in the subshift's language (1D)."""
    pres = presentation_of(X, budget)
    if not isinstance(word, tuple) or any(not isinstance(s, int) for s in word):
        word = parse_word(pres.alphabet, word)
    if word and not 0 <= min(word) <= max(word) < len(pres.alphabet):
        return False  # no edge reads a symbol outside the alphabet
    step = _subset_step(pres.num_vertices, len(pres.alphabet), pres.edges)
    current = tuple(range(pres.num_vertices))
    for sym in word:
        current = _successor(step[sym], current)
        if not current:
            return False
    return True


def _word_counts(auto: SubsetAutomaton, longest: int) -> List[int]:
    """Numbers of words of each length 0..``longest``, by one transfer over
    the paths of the automaton from its start."""
    counts = {auto.start: 1}
    totals = [1]
    for _ in range(longest):
        nxt: Dict[int, int] = {}
        for state, c in counts.items():
            for target in auto.transitions[state].values():
                nxt[target] = nxt.get(target, 0) + c
        counts = nxt
        totals.append(sum(counts.values()))
    return totals


def language_count(X, n: int, budget: int = DEFAULT_STATE_BUDGET) -> int:
    """Number of admissible words of length n, by transfer over the subset DFA."""
    if n < 0:
        raise ValueError("length must be >= 0")
    return _word_counts(subset_automaton(presentation_of(X, budget), budget), n)[n]


def _automaton_graph(auto: SubsetAutomaton) -> SoficPresentation1D:
    """The trimmed graph of a subset automaton: a deterministic presentation."""
    edges = []
    for i, trans in enumerate(auto.transitions):
        for sym, j in sorted(trans.items()):
            edges.append((i, j, sym))
    return trim(SoficPresentation1D(auto.alphabet, len(auto.states), tuple(edges)))


def determinize(X, budget: int = DEFAULT_STATE_BUDGET) -> SoficPresentation1D:
    """A deterministic (right-resolving) presentation of the same language."""
    return _automaton_graph(subset_automaton(presentation_of(X, budget), budget))


def _merge_symbols(A: Alphabet, B: Alphabet) -> Tuple[Alphabet, Dict[int, int], Dict[int, int]]:
    names = list(A.symbols) + [s for s in B.symbols if s not in A.symbols]
    merged = Alphabet(tuple(names))
    mapA = {i: merged.index(s) for i, s in enumerate(A.symbols)}
    mapB = {i: merged.index(s) for i, s in enumerate(B.symbols)}
    return merged, mapA, mapB


def _reads_every_word(step, start: Tuple[int, ...]) -> bool:
    """Every symbol maps the start subset to itself, so every word over the
    alphabet is read from it (and the language is the full shift)."""
    return bool(start) and all(_successor(row, start) == start for row in step)


def _missing_words(stepX, startX, stepY, startY, budget: int):
    """Product BFS of two subset automata, each built only as far as its
    subsets are reached.  Yields (0, word) for a word that X reads and Y does
    not, and (1, word) for the converse, both at the first product state and
    symbol that reads them: shortest first, then least.  A subset counts
    against ``budget``, per side, when it is first reached."""
    builtX, builtY = {startX}, {startY}
    seen = {(startX, startY)}
    frontier = [(startX, startY, ())]
    while frontier:
        nxt = []
        for sx, sy, word in frontier:
            for sym, (rowX, rowY) in enumerate(zip(stepX, stepY)):
                tx, ty = _successor(rowX, sx), _successor(rowY, sy)
                if tx and ty:
                    if (tx, ty) in seen:
                        continue
                    seen.add((tx, ty))
                    if tx not in builtX:
                        _check_budget(len(builtX), budget)
                        builtX.add(tx)
                    if ty not in builtY:
                        _check_budget(len(builtY), budget)
                        builtY.add(ty)
                    nxt.append((tx, ty, word + (sym,)))
                elif tx or ty:
                    yield (0 if tx else 1), word + (sym,)
        frontier = nxt


def sofic_compare(X, Y, budget: int = DEFAULT_STATE_BUDGET):
    """Language comparison of two 1D subshifts.

    Returns (equal, only_in_X, only_in_Y) where the witnesses are the
    shortest (then lexicographically least) words in one language and not
    the other, as strings, or None.

    Both subset automata are built lazily, inside one product BFS over the
    merged alphabet, and the search stops once both witnesses are settled.
    A witness is settled as None at once when the other side's start subset
    is fixed by every symbol of the merged alphabet: that side then reads
    every word.  So a comparison with a full shift on a large enough
    alphabet stops at the first word missing from the other side.  The
    budget bounds the subsets built on each side.
    """
    presX, presY = presentation_of(X, budget), presentation_of(Y, budget)
    merged, mapX, mapY = _merge_symbols(presX.alphabet, presY.alphabet)
    stepX, stepY = (  # both graphs relabeled into the merged alphabet
        _subset_step(p.num_vertices, len(merged), ((u, v, m[s]) for u, v, s in p.edges))
        for p, m in ((presX, mapX), (presY, mapY))
    )
    startX, startY = tuple(range(presX.num_vertices)), tuple(range(presY.num_vertices))
    only: List[Optional[Tuple[int, ...]]] = [None, None]
    settled = [_reads_every_word(stepY, startY), _reads_every_word(stepX, startX)]
    if not all(settled):
        for side, word in _missing_words(stepX, startX, stepY, startY, budget):
            if not settled[side]:
                only[side], settled[side] = word, True
                if all(settled):
                    break
    only_x, only_y = (None if w is None else render_word(merged, w) for w in only)
    return only_x is None and only_y is None, only_x, only_y


def sofic_equal(X, Y, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    equal, _, _ = sofic_compare(X, Y, budget)
    return equal


# -- irreducibility and mixing -------------------------------------------------


def _strongly_connected_components(n: int, adj: List[List[int]]) -> List[List[int]]:
    """Tarjan, iterative; components in a deterministic order."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = [1]
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                visited[v] = True
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                u = adj[v][i]
                if not visited[u]:
                    work[-1] = (v, i + 1)
                    work.append((u, 0))
                    recurse = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if recurse:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def _components(pres: SoficPresentation1D) -> Tuple[List[List[int]], List[List[int]]]:
    """The successor lists of a graph and its strongly connected components."""
    adj: List[List[int]] = [[] for _ in range(pres.num_vertices)]
    for u, v, _ in pres.edges:
        adj[u].append(v)
    return adj, _strongly_connected_components(pres.num_vertices, adj)


def irreducible(X, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """Exact: for all words u, v of the language some uwv is admissible.

    The trimmed graph G is essential, so the language is irreducible iff
    some strongly connected component H with an edge presents the same
    language as G (Lind & Marcus, ch. 3-4): a word of X holding every word
    that each component misses, repeated more often than G has components,
    would keep one copy inside a single component.  An empty or strongly
    connected G answers at once; otherwise ``sofic_compare`` tests each
    component, stopping at the first word of G that the component misses.
    ``budget`` bounds the compile and the subsets each side of a compare
    builds.
    """
    pres = presentation_of(X, budget)
    _, comps = _components(pres)
    if len(comps) <= 1:
        return True
    refused = None
    for comp in comps:
        local = {u: k for k, u in enumerate(comp)}
        edges = tuple(
            (local[u], local[v], s) for u, v, s in pres.edges if u in local and v in local
        )
        if not edges:
            continue
        try:
            if sofic_compare(pres, SoficPresentation1D(pres.alphabet, len(comp), edges), budget)[0]:
                return True
        except BudgetExceededError as err:  # another component may still answer
            refused = err
    if refused is not None:
        raise refused
    return False


def mixing_gap(X, budget: int = DEFAULT_STATE_BUDGET) -> Optional[int]:
    """Primitivity index of the presentation graph's adjacency matrix.

    A finite value k certifies a uniform mixing gap (all-positive A^k);
    None means the matrix is not primitive.  The matrix is primitive iff
    the trimmed graph is one strongly connected component of period 1, the
    gcd of level(u) + 1 - level(v) over its edges, with BFS levels from
    vertex 0; only then are its powers taken, up to the first all-positive
    one.  For non-SFT sofic inputs this is a certificate about the given
    presentation.
    """
    pres = presentation_of(X, budget)
    n = pres.num_vertices
    adj, comps = _components(pres)
    if len(comps) != 1:
        return None
    level = [0] + [-1] * (n - 1)
    queue = [0]
    for u in queue:  # the list grows while it is read: BFS
        for v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    if math.gcd(*(level[u] + 1 - level[v] for u, v, _ in pres.edges)) != 1:
        return None
    full = (1 << n) - 1
    power = [1 << u for u in range(n)]  # the rows of A^0 as bitmasks
    for k in itertools.count(1):  # A^(k+1) = A A^k; a primitive A has an all-positive power
        power = [functools.reduce(int.__or__, [power[v] for v in succ]) for succ in adj]
        if power.count(full) == n:
            return k


# -- window admissibility over Z^d ----------------------------------------------


def _placements(
    group: Group, window: Sequence[Element], support: FiniteSubset
) -> List[Tuple[int, ...]]:
    """Window indices of every translate of ``support`` that lies inside the
    window, aligned with ``support``; a translate is found from the cell its
    first point moves to.  The window and the support must be checked
    elements of the group (``locally_admissible_count`` checks the window,
    the ``SFTPresentation`` constructor the supports): the products are taken
    with the unchecked ``group._mul``."""
    cells = {g: i for i, g in enumerate(window)}
    mul = group._mul
    back = group.inverse(support[0])
    offsets = [mul(back, h) for h in support]
    placements = []
    for g in window:
        positions = []
        for r in offsets:
            i = cells.get(mul(g, r))
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
    """2^(cells - rank) of the parity checks, by elimination on bitmask rows.

    One pivot is kept per leading bit.  A row is XORed with the pivot at its
    current leading bit until it is zero, or leads with a bit that has no
    pivot yet and becomes that bit's pivot.
    """
    pivots: Dict[int, int] = {}
    for shape in shapes:
        for positions in _placements(group, window, shape):
            row = sum(1 << p for p in positions)
            while row and (top := row.bit_length()) in pivots:
                row ^= pivots[top]
            if row:
                pivots[top] = row
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
    never tried, and no placement that needs one is kept.

    Every check due at a step reads the cell that step adds, so for each
    value v of that cell only the checks that want v there can match; the
    others are not tried."""
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
        checks: Dict[int, list] = {}  # by the value they want in the new cell
        for positions, values in due[t]:
            mask = want = 0
            for i, v in zip(positions, values):
                mask |= field << shift[i]
                want |= v << shift[i]
            checks.setdefault(want >> at & field, []).append((mask, want))
        for i in [i for i in shift if end[i] == t]:
            free.append(shift.pop(i))
        keep = sum(field << s for s in shift.values())
        nxt: Dict[int, int] = {}
        for v in allowed:
            new = v << at
            wanted = checks.get(v, ())
            for state, c in counts.items():
                state |= new
                for mask, want in wanted:
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
    window = sft.group.canon(map(sft.group.check, window))
    shapes = _parity_shapes(sft)
    if shapes is not None:
        return _parity_rank_count(sft.group, window, shapes)
    return _transfer_count(sft, window, cap)
