"""Shared worked-example automata, and reference implementations, used across
test modules."""

import itertools

import pytest

from goelab import decide1d
from goelab.automaton import CellularAutomaton
from goelab.errors import BudgetExceededError
from goelab.groups import Zd
from goelab.patterns import Alphabet, BINARY, render_word, word_to_pattern
from goelab.subshift import (
    SFTPresentation,
    SoficPresentation1D,
    _cell_order,
    _live,
    _merge_symbols,
    full_shift,
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


# -- the pre-injectivity and injectivity searches as two separate routines, with
# their own backward anchor search, kept as the references for the one pair
# search ------------------------------------------------------------------------


def _pair_syms(steps):
    return tuple(a for a, _ in steps), tuple(b for _, b in steps)


def nearest_in(pg, targets, state):
    """The least state of ``targets`` at the least distance back from
    ``state``: a backward BFS over sorted predecessors."""
    if state in targets:
        return state
    seen = {state}
    frontier = [state]
    while frontier:
        nxt = []
        for s in frontier:
            for prev in sorted(t for t, _, _ in pg.edges(s, forward=False)):
                if prev in targets:
                    return prev
                if prev not in seen:
                    seen.add(prev)
                    nxt.append(prev)
        frontier = sorted(nxt)
    raise RuntimeError("inconsistent pair graph: no anchor found")


def separate_decide_preinjective(ca, X=None, budget=decide1d.DEFAULT_PAIR_BUDGET):
    """Sync tails, the reach restriction, then a witness from the anchor."""
    ca = decide1d.normalize_interval(ca)
    pres = presentation_of(X, budget) if X is not None else full_shift(ca.input_alphabet)
    pg = decide1d._PairGraph(decide1d.DeBruijnLift(ca, pres, budget), budget)
    left_inf, right_inf = pg.sync_tails()
    if not left_inf or not right_inf:
        return decide1d.Verdict(True, detail=(("note", "empty domain"),))
    to_right = decide1d._reach(pg, right_inf, forward=False)
    found = decide1d._first_diff_edge(
        pg, decide1d._reach(pg, left_inf & to_right, within=to_right), to_right
    )
    if found is None:
        return decide1d.Verdict(True)
    src, a1, a2, tgt = found
    anchor = nearest_in(pg, left_inf, src)
    lcycle, lstem = decide1d._walk_to_cycle(pg, anchor, left_inf, sync_only=True, forward=False)
    _, pre_steps = decide1d._bridge(pg, {anchor}, {src})
    goal, mid_steps = decide1d._bridge(pg, {tgt}, right_inf)
    rcycle, rstem = decide1d._walk_to_cycle(pg, goal, right_inf, sync_only=True, forward=True)
    alphabet = ca.input_alphabet
    c1, c2 = _pair_syms(pre_steps + [(a1, a2)] + mid_steps)
    witness = {
        "type": "diamond",
        "left_period": render_word(alphabet, _pair_syms(lcycle)[0]),
        "left_pad": render_word(alphabet, _pair_syms(lstem)[0]),
        "center": [render_word(alphabet, c1), render_word(alphabet, c2)],
        "right_pad": render_word(alphabet, _pair_syms(rstem)[0]),
        "right_period": render_word(alphabet, _pair_syms(rcycle)[0]),
    }
    if not decide1d.verify_diamond_witness(ca, pres, witness):
        raise RuntimeError(f"diamond witness failed re-verification: {witness!r}")
    return decide1d.Verdict(False, witness, detail=(("witness_verified", True),))


def separate_decide_injective(ca, X=None, budget=decide1d.DEFAULT_PAIR_BUDGET):
    """The eager core of every pair state, then a witness from its edge."""
    ca = decide1d.normalize_interval(ca)
    pres = presentation_of(X, budget) if X is not None else full_shift(ca.input_alphabet)
    pg = decide1d._PairGraph(decide1d.DeBruijnLift(ca, pres, budget), budget)
    total = pg.n * pg.n
    first, heads = [0], []
    for s in range(total):
        heads += [t for t, _, _ in pg.edges(s)]
        first.append(len(heads))
    alive = set(itertools.compress(range(total), _live(total, first, heads)))
    found = decide1d._first_diff_edge(pg, alive, alive)
    if found is None:
        return decide1d.Verdict(True)
    src, a1, a2, tgt = found
    lcycle, lstem = decide1d._walk_to_cycle(pg, src, alive, sync_only=False, forward=False)
    rcycle, rstem = decide1d._walk_to_cycle(pg, tgt, alive, sync_only=False, forward=True)
    alphabet = ca.input_alphabet

    def both(steps):
        s1, s2 = _pair_syms(steps)
        return [render_word(alphabet, s1), render_word(alphabet, s2)]

    witness = {
        "type": "config_pair",
        "left_period": both(lcycle),
        "left_pad": both(lstem),
        "center": both([(a1, a2)]),
        "right_pad": both(rstem),
        "right_period": both(rcycle),
    }
    if not decide1d.verify_injectivity_witness(ca, pres, witness):
        raise RuntimeError(f"injectivity witness failed re-verification: {witness!r}")
    return decide1d.Verdict(False, witness, detail=(("witness_verified", True),))


# -- the subshift ME check with a dict of flag sets per pair state, kept as the
# reference for the search over (pair state, dirty) states -------------------------


def reference_me_check_subshift(ca, X, p1, p2, budget=decide1d.DEFAULT_PAIR_BUDGET):
    """Exact ME test over a sofic domain (None: the full shift) for patterns
    on a common interval: some pair of domain configurations carries p1/p2
    and agrees elsewhere (MEP-1), and every such pair has equal images (MEP-2)."""
    if p1.support != p2.support:
        raise ValueError("ME patterns need a common support")
    cells = [g[0] for g in p1.support]
    if cells != list(range(cells[0], cells[0] + len(cells))):
        raise ValueError("the subshift ME check needs an interval support")
    ca, pres = decide1d._domain(ca, X, budget)
    lift = decide1d.DeBruijnLift(ca, pres, budget)
    left_inf, right_inf = decide1d._PairGraph(lift, budget).sync_tails()
    n = lift.num_states
    lift_out = lift.out

    def step(frontier, want1, want2):
        nxt = {}
        for state, flags in frontier.items():
            i, j = divmod(state, n)
            for a1, o1, t1 in lift_out[i]:
                if want1 is not None and a1 != want1:
                    continue
                for a2, o2, t2 in lift_out[j]:
                    if want2 is not None and a2 != want2:
                        continue
                    if want1 is None and a1 != a2:
                        continue
                    bad = o1 != o2
                    got = nxt.setdefault(t1 * n + t2, set())
                    for f in flags:
                        got.add(f or bad)
        return nxt

    frontier = {s: {False} for s in sorted(left_inf)}
    for v1, v2 in zip(p1.values, p2.values):
        frontier = step(frontier, v1, v2)
        if not frontier:
            return False  # the patterns do not jointly embed: (MEP-1) fails
    for _ in range(len(ca.memory_set) - 1):
        frontier = step(frontier, None, None)
        if not frontier:
            return False
    clean = any(s in right_inf and False in flags for s, flags in frontier.items())
    dirty = any(s in right_inf and True in flags for s, flags in frontier.items())
    return clean and not dirty


# -- the Perron power iteration with one sum per row, kept as the reference for
# the column passes of entropy._spectral_radius -------------------------------------


def reference_spectral_radius(rows):
    """Largest eigenvalue of a nonnegative irreducible integer matrix, by power
    iteration on M + I until the min/max Collatz ratios are within 1e-9;
    row i of M is ``rows[i]``, its (column, count) pairs in ascending column
    order."""
    n = len(rows)
    if n == 0:
        return 0.0
    v = [1.0] * n
    for _ in range(100000):
        w = []
        for i, row in enumerate(rows):
            total = 0  # left to right, as sum() added floats through Python 3.11
            for j, c in row:
                total += c * v[j]
            w.append(total + v[i])
        ratios = [w[i] / v[i] for i in range(n)]
        lo, hi = min(ratios), max(ratios)
        norm = max(w)
        v = [x / norm for x in w]
        if hi - lo < 1e-9:
            return (lo + hi) / 2.0 - 1.0
    raise RuntimeError("power iteration failed to bracket the spectral radius")


# -- the window placements on checked group arithmetic, and the transfer that
# tries every due check on every value, kept as the references for the
# placements on ``_mul`` and the transfer that filters the checks by value -------


def reference_placements(group, window, support):
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


def reference_transfer_count(sft, window, cap):
    """Cell-by-cell transfer over the window, every check due at a step tried
    on every state; the window must be canonically ordered."""
    a = len(sft.alphabet)
    banned = {p.values[0] for p in sft.forbidden if len(p.support) == 1}
    allowed = [v for v in range(a) if v not in banned]
    embeddings = sorted(
        {(at, p.values) for p in sft.forbidden
         for at in reference_placements(sft.group, window, p.support)}
    )
    placements = [(at, vals) for at, vals in embeddings if banned.isdisjoint(vals)]
    order, rank, end, width = _cell_order(sft.group, window, placements)
    work = len(window) * len(allowed) ** (width + 1)
    if work > cap:
        raise BudgetExceededError("window transfer", work, cap)
    bits = (a - 1).bit_length() or 1
    field = (1 << bits) - 1
    due = [[] for _ in order]
    for positions, values in placements:
        due[max(rank[i] for i in positions)].append((positions, values))
    shift = {}
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
        nxt = {}
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
