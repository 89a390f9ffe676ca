"""Shared worked-example automata, and reference implementations, used across
test modules."""

import pytest

from goelab.automaton import CellularAutomaton
from goelab.errors import BudgetExceededError
from goelab.groups import Zd
from goelab.patterns import Alphabet, BINARY, render_word, word_to_pattern
from goelab.subshift import (
    SFTPresentation,
    SoficPresentation1D,
    _merge_symbols,
    presentation_of,
    subset_automaton,
    trim,
)

Z = Zd(1)
A3 = Alphabet.of_size(3)


def make_golden_even_ca() -> CellularAutomaton:
    """The golden-mean-to-even-shift code: 00 -> 1, 01/10 -> 0 (11 unused)."""
    table = {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    return CellularAutomaton.from_local_rule(
        Z, BINARY, BINARY, ((0,), (1,)), lambda y: table[tuple(y)]
    )


def make_fiorenzi_even_ca() -> CellularAutomaton:
    """Width-5 rule fixing the even shift: 1 on 000*, 111*, and 00100."""

    def rule(y):
        if y[:3] in ((0, 0, 0), (1, 1, 1)) or tuple(y) == (0, 0, 1, 0, 0):
            return 1
        return 0

    return CellularAutomaton.from_local_rule(
        Z, BINARY, BINARY, tuple((c,) for c in range(5)), rule
    )


def make_fiorenzi_ternary_sft() -> SFTPresentation:
    """Ternary SFT forbidding 01 and 02: nonzero tails may only end in 0s."""
    return SFTPresentation(
        Z, A3, (word_to_pattern(A3, "01"), word_to_pattern(A3, "02"))
    )


def make_fiorenzi_ternary_ca() -> CellularAutomaton:
    """Memory {-1,0}: copies the cell unless it closes a nonzero run."""

    def rule(y):
        prev, cur = y
        if cur == 0 and prev in (1, 2):
            return prev
        return cur

    return CellularAutomaton.from_local_rule(Z, A3, A3, ((-1,), (0,)), rule)


@pytest.fixture
def golden_even_ca():
    return make_golden_even_ca()


@pytest.fixture
def fiorenzi_even_ca():
    return make_fiorenzi_even_ca()


@pytest.fixture
def fiorenzi_ternary():
    return make_fiorenzi_ternary_ca(), make_fiorenzi_ternary_sft()


# -- the eager language comparison, kept as the reference for the lazy one ------


def _eager_subset_transitions(pres, budget):
    """The whole subset automaton of a presentation, states as sorted vertex
    tuples in BFS order; returns its transitions, sym -> state index."""
    pres = trim(pres)
    if pres.num_vertices == 0:
        return [{}]
    step = [dict() for _ in range(pres.num_vertices)]
    for u, v, sym in pres.edges:
        step[u].setdefault(sym, set()).add(v)
    start = tuple(range(pres.num_vertices))
    states = {start: 0}
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
                        raise BudgetExceededError("determinization states", len(states) + 1, budget)
                    states[key] = len(states)
                    nxt.append(key)
                trans[sym] = states[key]
            transitions.append(trans)
        frontier = nxt
    return transitions


def eager_sofic_compare(X, Y, budget=1 << 17):
    """Both subset automata built in full, then a product BFS that runs until
    both witnesses are found or the product is exhausted."""
    presX, presY = presentation_of(X, budget), presentation_of(Y, budget)
    transX = _eager_subset_transitions(presX, budget)
    transY = _eager_subset_transitions(presY, budget)
    merged, mapX, mapY = _merge_symbols(presX.alphabet, presY.alphabet)
    transX = [{mapX[s]: t for s, t in d.items()} for d in transX]
    transY = [{mapY[s]: t for s, t in d.items()} for d in transY]
    seen = {(0, 0)}
    frontier = [((0, 0), ())]
    only_x = only_y = None
    while frontier and (only_x is None or only_y is None):
        nxt = []
        for (sx, sy), word in frontier:
            for sym in range(len(merged)):
                tx, ty = transX[sx].get(sym), transY[sy].get(sym)
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
                if (tx, ty) not in seen:
                    seen.add((tx, ty))
                    nxt.append(((tx, ty), w))
        frontier = nxt
    return (
        only_x is None and only_y is None,
        None if only_x is None else render_word(merged, only_x),
        None if only_y is None else render_word(merged, only_y),
    )


# -- irreducibility and mixing by subset automata and matrix powers, kept as the
# references for the component-based tests ------------------------------------


def _reach_masks(pres):
    """Bitmask of vertices reachable (>= 0 steps) from each vertex."""
    adj = [0] * pres.num_vertices
    for u, v, _ in pres.edges:
        adj[u] |= 1 << v
    masks = []
    for v in range(pres.num_vertices):
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


def subset_irreducible(X, budget=1 << 17):
    """u, v can be joined iff some end vertex of u reaches some start vertex
    of v: end sets are the forward subset-automaton states, start sets those
    of the reversed graph."""
    pres = presentation_of(X, budget)
    if pres.num_vertices == 0:
        return True
    reach = _reach_masks(pres)
    fwd = subset_automaton(pres, budget).states
    reversed_pres = SoficPresentation1D(
        pres.alphabet, pres.num_vertices, tuple((v, u, s) for (u, v, s) in pres.edges)
    )
    bwd = subset_automaton(reversed_pres, budget).states
    starts = [sum(1 << q for q in state) for state in bwd]
    for end_state in fwd:
        reachable = 0
        for q in end_state:
            reachable |= reach[q]
        if any(reachable & mask == 0 for mask in starts):
            return False
    return True


def wielandt_mixing_gap(X, budget=1 << 17):
    """The first all-positive power of the adjacency matrix, tried up to the
    Wielandt bound (n - 1)^2 + 1, or None."""
    pres = presentation_of(X, budget)
    n = pres.num_vertices
    if n == 0:
        return None
    rows = [0] * n
    for u, v, _ in pres.edges:
        rows[u] |= 1 << v
    full = (1 << n) - 1
    power = list(rows)
    for k in range(1, (n - 1) * (n - 1) + 2):
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
