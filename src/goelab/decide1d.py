"""Exact decisions for cellular automata over Z: surjectivity, injectivity,
pre-injectivity, with re-verified witnesses.

Everything runs on the de Bruijn lift of a sofic presentation of the domain:
lift states are length-(W-1) edge paths, lift edges consume one domain symbol
and emit one output symbol, so paths of length n correspond to domain words
of length n + W - 1 and their output labels spell the image word.

Pre-injectivity and injectivity are one search on the product of the lift with
itself restricted to equal output labels.  Edges where the two consumed domain
symbols agree are "sync" edges.  Two distinct configurations with one image
exist iff some unequal-symbol edge lies between a state with a left-infinite
tail and a state with a right-infinite tail; the search takes the least such
edge, joins it to the tails by shortest paths and walks the tails out to
cycles.  The two decisions differ only in the tails they accept: sync tails
for a diamond (the tails realize the shared part of two almost-equal
configurations), any infinite path for injectivity.  This works verbatim for
nondeterministic presentations, where a configuration does not determine its
presentation path.

Every phase is linear in the part of the pair graph it touches.  Pair edges
are generated on demand from the lift edges grouped by output symbol, and the
pair graph is never stored whole: only injectivity keeps all edge targets, as
flat integer lists.  One queue-based deletion with degree counters
(``subshift._live``) finds the sync tails and the injectivity core.
Pre-injectivity explores only the states that co-reach a right sync tail.
The lift's state count is checked against the budget before the lift is
built, and a witness that fails its re-verification is an internal error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .automaton import CellularAutomaton, minimal_memory_set
from .errors import BudgetExceededError, GroupMismatchError
from .groups import Zd
from .patterns import Pattern, _check_me_pair, parse_word, render_word, values_to_index
from .subshift import (
    SoficPresentation1D,
    _live,
    full_shift,
    presentation_of,
    sofic_compare,
    trim,
    word_appears,
)

DEFAULT_PAIR_BUDGET = 1 << 22
_PREIMAGE_CAP = 1 << 24  # inputs the brute-force preimage counters may enumerate


def normalize_interval(ca: CellularAutomaton) -> CellularAutomaton:
    """Reduce to the minimal memory set, then pad it to its spanning interval."""
    if not isinstance(ca.group, Zd) or ca.group.d != 1:
        raise GroupMismatchError("the 1D engine needs a cellular automaton over Z")
    minimal = minimal_memory_set(ca)
    kept = [g[0] for g in minimal.memory_set]
    cells = kept or [0]
    lo, hi = min(cells), max(cells)
    interval = tuple((c,) for c in range(lo, hi + 1))
    if interval == minimal.memory_set:
        return minimal
    a = len(minimal.input_alphabet)
    positions = [c - lo for c in kept]  # where the kept cells sit in the interval

    def rule(window):
        return minimal.table[values_to_index(a, [window[p] for p in positions])]

    return CellularAutomaton.from_local_rule(
        minimal.group, minimal.input_alphabet, minimal.output_alphabet, interval, rule
    )


def slide(ca: CellularAutomaton, word: Sequence[int]) -> Tuple[int, ...]:
    """Sliding evaluation of an interval-memory CA on a finite word."""
    w = len(ca.memory_set)
    return tuple(ca.local_rule(word[i : i + w]) for i in range(len(word) - w + 1))


class DeBruijnLift:
    """Window lift of a domain presentation under an interval-memory CA.

    ``out[s]`` lists ``(domain_symbol, output_symbol, target_state)`` sorted,
    so every traversal below is deterministic; ``windows[s]`` holds the W - 1
    domain symbols state ``s`` remembers.  The state count, a sum of path
    counts, is checked against ``budget`` before any state is built.
    """

    def __init__(
        self, ca: CellularAutomaton, pres: SoficPresentation1D, budget: int = DEFAULT_PAIR_BUDGET
    ):
        if ca.input_alphabet != pres.alphabet:
            raise ValueError("domain alphabet does not match the automaton input")
        w = len(ca.memory_set)
        pres = trim(pres)
        edges = pres.edges
        leaving: List[List[int]] = [[] for _ in range(pres.num_vertices)]
        for k, (u, _, _) in enumerate(edges):
            leaving[u].append(k)
        paths = [1] * pres.num_vertices  # path counts from each vertex, one edge longer per round
        for _ in range(w - 1):
            paths = [sum(paths[edges[k][1]] for k in ks) for ks in leaving]
        if sum(paths) > budget:
            raise BudgetExceededError("de Bruijn lift states", sum(paths), budget)
        # a state is a vertex when w == 1, else a path of w - 1 edges
        if w == 1:
            states = [(v,) for v in range(pres.num_vertices)]
        else:
            states = [(k,) for k in range(len(edges))]
            for _ in range(w - 2):
                states = [p + (k,) for p in states for k in leaving[edges[p[-1]][1]]]
        index = {p: i for i, p in enumerate(states)}
        self.num_states = len(states)
        self.windows = [() if w == 1 else tuple(edges[k][2] for k in p) for p in states]
        self.out: List[List[Tuple[int, int, int]]] = []
        for p, window in zip(states, self.windows):
            lst = []
            for k in leaving[p[0] if w == 1 else edges[p[-1]][1]]:
                _, v, sym = edges[k]
                target = index[(v,) if w == 1 else p[1:] + (k,)]
                lst.append((sym, ca.local_rule(window + (sym,)), target))
            lst.sort()
            self.out.append(lst)


def _domain(ca: CellularAutomaton, X, budget: int):
    """``(ca, pres)``: the rule on its minimal interval and its domain X
    compiled at ``budget``, where None is the full shift on the input alphabet."""
    ca = normalize_interval(ca)
    return ca, presentation_of(X, budget) if X is not None else full_shift(ca.input_alphabet)


def image_presentation(
    ca: CellularAutomaton, X=None, budget: int = DEFAULT_PAIR_BUDGET
) -> SoficPresentation1D:
    """A presentation of the image subshift tau(X) (X defaults to the full shift)."""
    ca, pres = _domain(ca, X, budget)
    lift = DeBruijnLift(ca, pres, budget)
    edges = []
    for src, lst in enumerate(lift.out):
        for _, out_sym, target in lst:
            edges.append((src, target, out_sym))
    return trim(SoficPresentation1D(ca.output_alphabet, lift.num_states, tuple(edges)))


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Verdict:
    answer: bool
    witness: Optional[dict] = None
    detail: Tuple[Tuple[str, object], ...] = ()

    def to_json(self) -> dict:
        out = {"answer": self.answer, "witness": self.witness}
        out.update(dict(self.detail))
        return out


_TRUE = Verdict(True)  # every positive answer without a witness or detail


# -- surjectivity ---------------------------------------------------------------


def decide_surjective(
    ca: CellularAutomaton, X=None, Y=None, budget: int = DEFAULT_PAIR_BUDGET
) -> Verdict:
    """True iff tau(X) = Y; on False the witness is the shortest, then least,
    word of Y's language missing from the image language (a Garden of Eden
    word).

    ``sofic_compare`` builds the image's subset automaton only as far as its
    product search with Y reaches.  When Y is the full shift on the output
    alphabet (the default), no image word can be missing from Y, so the
    search stops at the first Garden of Eden word; a surjective rule still
    needs every subset reachable in the image.  ``budget`` bounds the SFT
    compiles, the lift and, per side, the subsets built.
    """
    image = image_presentation(ca, X, budget)
    codomain = presentation_of(Y, budget) if Y is not None else full_shift(ca.output_alphabet)
    equal, only_img, only_cod = sofic_compare(image, codomain, budget)
    if only_img is not None:
        raise ValueError(
            f"image is not contained in the codomain (extra word {only_img!r})"
        )
    if equal:
        return _TRUE
    return Verdict(False, {"type": "goe_word", "word": only_cod})


# -- the pair graph --------------------------------------------------------------


class _PairGraph:
    """Product of the lift with itself, restricted to equal output labels.

    State ``i * n + j`` pairs lift states i and j.  Its edges are generated on
    demand from the lift edges grouped by output symbol, so a decision touches
    only the part of the graph it explores.
    """

    def __init__(self, lift: DeBruijnLift, budget: int = DEFAULT_PAIR_BUDGET):
        n = lift.num_states
        if n * n > budget:
            raise BudgetExceededError("pair-graph states", n * n, budget)
        self.n = n
        self.windows = lift.windows
        back: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
        for s, lst in enumerate(lift.out):
            for a, o, t in lst:
                back[t].append((a, o, s))
        # per direction: the lift edges at each state, and the same by output
        self._fwd = (lift.out, [_by_output(lst) for lst in lift.out])
        self._bwd = (back, [_by_output(lst) for lst in back])
        # a state reading one symbol twice puts ties into the product order
        self._ties = [len({a for a, _, _ in lst}) < len(lst) for lst in lift.out]

    def edges(self, s: int, forward: bool = True) -> List[Tuple[int, int, int]]:
        """Pair edges out of (``forward``) or into state ``s``, as
        (other_end, sym1, sym2); out-edges come in (sym1, sym2, target)
        order.  Nothing is stored: every call pairs the lift edges anew."""
        n = self.n
        i, j = divmod(s, n)
        lifted, by_out = self._fwd if forward else self._bwd
        partners = by_out[j]
        out = [
            (t1 * n + t2, a1, a2)
            for a1, o1, t1 in lifted[i]
            for a2, t2 in partners.get(o1, ())
        ]
        if forward and self._ties[i]:
            out.sort(key=lambda e: (e[1], e[2], e[0]))
        return out

    def sync_tails(self) -> Tuple[set, set]:
        """States with a left-infinite (resp. right-infinite) path of sync
        (equal-symbol) edges.

        Both sides of a sync path read the same symbols, so W - 1 steps in,
        both lift states remember the same window.  Left tails therefore lie
        among the equal-window pairs, and right tails are the states with a
        sync path into an equal-window right tail.
        """
        n = self.n
        by_window: Dict[Tuple[int, ...], List[int]] = {}
        for i, window in enumerate(self.windows):
            by_window.setdefault(window, []).append(i)
        states = [i * n + j for group in by_window.values() for i in group for j in group]
        local = {s: k for k, s in enumerate(states)}
        first, heads = [0], []
        for s in states:  # sync edges keep windows equal
            heads += [local[t] for t, a1, a2 in self.edges(s) if a1 == a2]
            first.append(len(heads))
        left = _live(len(states), first, heads, need_out=False)
        right = _live(len(states), first, heads, need_in=False)
        right_inf = set(itertools.compress(states, right))
        return set(itertools.compress(states, left)), _reach(
            self, right_inf, forward=False, sync_only=True
        )


def _by_output(edges) -> Dict[int, List[Tuple[int, int]]]:
    """(symbol, output, end) lift edges as output -> [(symbol, end)], in order."""
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for a, o, t in edges:
        groups.setdefault(o, []).append((a, t))
    return groups


def _reach(pg: _PairGraph, seeds: set, forward=True, sync_only=False, within=None) -> set:
    """States reachable from (``forward``) or co-reachable to ``seeds`` along
    pair edges, or sync edges only, without leaving ``within``."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for s, a1, a2 in pg.edges(todo.pop(), forward):
            if s not in seen and (a1 == a2 or not sync_only) and (within is None or s in within):
                seen.add(s)
                todo.append(s)
    return seen


def _first_diff_edge(pg: _PairGraph, sources: set, cotargets: set):
    """Canonically least (src, sym1, sym2, tgt) unequal-symbol edge from
    ``sources`` into ``cotargets``."""
    for src in sorted(sources):
        for tgt, a1, a2 in pg.edges(src):
            if a1 != a2 and tgt in cotargets:
                return src, a1, a2, tgt
    return None


def _walk_to_cycle(pg: _PairGraph, start: int, alive: set, sync_only: bool, forward: bool):
    """Follow canonical edges, least by (sym1, sym2, other end) with the other
    end in ``alive``, from ``start`` until a state repeats.

    Returns (cycle_steps, stem_steps) in forward order; a forward stem starts
    at ``start`` and a backward one ends there.  Steps are (sym1, sym2) pairs.
    """
    state, labels, seen = start, [], {start: 0}
    while True:
        a1, a2, state = min(
            (a1, a2, s) for s, a1, a2 in pg.edges(state, forward)
            if s in alive and (a1 == a2 or not sync_only)
        )
        labels.append((a1, a2))
        if state in seen:
            k = seen[state]
            if forward:
                return labels[k:], labels[:k]
            return labels[k:][::-1], labels[:k][::-1]
        seen[state] = len(labels)


def _bridge(pg: _PairGraph, sources: set, goals: set, forward: bool = True):
    """Shortest path from ``sources`` to ``goals`` (or, not ``forward``, from
    ``goals`` into ``sources``) as (goal_state, steps in forward order), by BFS
    over state-ordered frontiers.  Forward, edges are tried in (sym1, sym2,
    target) order, so the steps are canonical; backward, predecessors are
    tried in state order, so only the goal (the least nearest) is."""
    hit = sorted(sources & goals)
    if hit:
        return hit[0], []
    parent = {s: None for s in sorted(sources)}
    frontier = sorted(sources)
    while frontier:
        nxt = []
        for s in frontier:
            edges = pg.edges(s, forward)
            for tgt, a1, a2 in edges if forward else sorted(edges):
                if tgt in parent:
                    continue
                parent[tgt] = (s, (a1, a2))
                if tgt in goals:
                    steps = []
                    cur = tgt
                    while parent[cur] is not None:
                        prev, syms = parent[cur]
                        steps.append(syms)
                        cur = prev
                    return tgt, steps[::-1] if forward else steps
                nxt.append(tgt)
        frontier = sorted(nxt)
    raise RuntimeError("inconsistent pair graph: no bridge found")


# -- pre-injectivity and injectivity ------------------------------------------------


def _pair_search(ca: CellularAutomaton, X, budget: int, sync: bool):
    """The least pair of distinct configurations with one image, as
    ``(ca, pres, parts)`` with one ``[word1, word2]`` per witness part, or
    ``parts`` None if there is none.  ``sync`` asks for a diamond (sync
    tails); then an empty domain returns None.  Otherwise the tails are the
    injectivity core, which is closed both ways: the anchor is the edge's
    source and both bridges are empty."""
    ca, pres = _domain(ca, X, budget)
    pg = _PairGraph(DeBruijnLift(ca, pres, budget), budget)
    if sync:
        left, right = pg.sync_tails()
        if not left or not right:
            return None
        # every state of a diamond path co-reaches the right tails, so the
        # search never leaves the states that do
        targets = _reach(pg, right, forward=False)
        sources = _reach(pg, left & targets, within=targets)
    else:
        total = pg.n * pg.n
        first, heads = [0], []
        for s in range(total):
            heads += [t for t, _, _ in pg.edges(s)]
            first.append(len(heads))
        core = set(itertools.compress(range(total), _live(total, first, heads)))
        left = right = sources = targets = core
    found = _first_diff_edge(pg, sources, targets)
    if found is None:
        return ca, pres, None
    src, a1, a2, tgt = found

    # ... (left cycle)^inf stem bridge [a1|a2] bridge stem (right cycle)^inf;
    # the anchor's backward path is not canonical, so its bridge is walked anew
    anchor, _ = _bridge(pg, {src}, left, forward=False)
    lcycle, lstem = _walk_to_cycle(pg, anchor, left, sync, forward=False)
    _, pre_steps = _bridge(pg, {anchor}, {src})
    goal, mid_steps = _bridge(pg, {tgt}, right)
    rcycle, rstem = _walk_to_cycle(pg, goal, right, sync, forward=True)
    alphabet = ca.input_alphabet
    return ca, pres, [
        [render_word(alphabet, tuple(step[k] for step in steps)) for k in (0, 1)]
        for steps in (lcycle, lstem, pre_steps + [(a1, a2)] + mid_steps, rstem, rcycle)
    ]


_WITNESS_PARTS = ("left_period", "left_pad", "center", "right_pad", "right_period")


def decide_preinjective(
    ca: CellularAutomaton, X=None, budget: int = DEFAULT_PAIR_BUDGET
) -> Verdict:
    """True iff there is no diamond (two distinct almost-equal configurations
    of the domain with the same image)."""
    found = _pair_search(ca, X, budget, sync=True)
    if found is None:
        return Verdict(True, detail=(("note", "empty domain"),))
    ca, pres, parts = found
    if parts is None:
        return _TRUE
    # the flanks are sync paths: both configurations read the same words there
    witness = {"type": "diamond"}
    witness.update((k, p if k == "center" else p[0]) for k, p in zip(_WITNESS_PARTS, parts))
    if not verify_diamond_witness(ca, pres, witness):
        raise RuntimeError(f"diamond witness failed re-verification: {witness!r}")
    return Verdict(False, witness, detail=(("witness_verified", True),))


def decide_injective(
    ca: CellularAutomaton, X=None, budget: int = DEFAULT_PAIR_BUDGET
) -> Verdict:
    """True iff no two distinct domain configurations share an image."""
    ca, pres, parts = _pair_search(ca, X, budget, sync=False)
    if parts is None:
        return _TRUE
    witness = {"type": "config_pair", **dict(zip(_WITNESS_PARTS, parts))}
    if not verify_injectivity_witness(ca, pres, witness):
        raise RuntimeError(f"injectivity witness failed re-verification: {witness!r}")
    return Verdict(False, witness, detail=(("witness_verified", True),))


def verify_diamond_witness(ca: CellularAutomaton, X, witness: dict) -> bool:
    """Re-verify a diamond witness by direct sliding evaluation.

    The two assembled words share their flanks, so every output position is
    either inside the compared interior or has its window in the common
    flank; interior equality is therefore conclusive.
    """
    return _verify_pair(
        ca, X, [witness[k] if k == "center" else [witness[k]] * 2 for k in _WITNESS_PARTS]
    )


def verify_injectivity_witness(ca: CellularAutomaton, X, witness: dict) -> bool:
    """Empirical re-check of an eventually periodic equal-image pair: both
    words admissible, words distinct, all comparable outputs equal over
    several repetitions of both periods."""
    return _verify_pair(ca, X, [witness[k] for k in _WITNESS_PARTS])


def _verify_pair(ca: CellularAutomaton, X, parts) -> bool:
    """Both words of an eventually periodic pair, given as (word1, word2) for
    each of the witness parts in order, are admissible and distinct and have
    equal outputs, with each period repeated past every window and state.
    ``X`` is read as in the decisions, at their default budget; a pair with
    an empty period describes no configurations."""
    ca, pres = _domain(ca, X, DEFAULT_PAIR_BUDGET)
    alphabet = ca.input_alphabet
    w = len(ca.memory_set)
    (lp1, lp2), (lpad1, lpad2), (c1, c2), (rpad1, rpad2), (rp1, rp2) = [
        (parse_word(alphabet, one), parse_word(alphabet, two)) for one, two in parts
    ]
    if not lp1 or not rp1:
        return False
    if len(lp1) != len(lp2) or len(rp1) != len(rp2) or len(lpad1) != len(lpad2):
        return False
    pad = pres.num_vertices * w + w
    reps_l = max(2, pad // len(lp1) + 1)
    reps_r = max(2, pad // len(rp1) + 1)
    s1 = lp1 * reps_l + lpad1 + c1 + rpad1 + rp1 * reps_r
    s2 = lp2 * reps_l + lpad2 + c2 + rpad2 + rp2 * reps_r
    if s1 == s2 or len(s1) != len(s2):
        return False
    if not (word_appears(pres, s1) and word_appears(pres, s2)):
        return False
    return slide(ca, s1) == slide(ca, s2)


# -- mutual erasability on subshift domains ------------------------------------------


def me_check_subshift(
    ca: CellularAutomaton,
    X,
    p1: Pattern,
    p2: Pattern,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> bool:
    """Exact ME test over a sofic domain (None: the full shift) for patterns
    on a common interval: some pair of domain configurations carries p1/p2
    and agrees elsewhere (MEP-1), and every such pair has equal images (MEP-2)."""
    _check_me_pair(ca.input_alphabet, p1, p2)
    cells = [g[0] for g in p1.support]
    if cells != list(range(cells[0], cells[0] + len(cells))):
        raise ValueError("the subshift ME check needs an interval support")
    ca, pres = _domain(ca, X, budget)
    lift = DeBruijnLift(ca, pres, budget)
    left_inf, right_inf = _PairGraph(lift, budget).sync_tails()
    n = lift.num_states
    # (pair state, images differed yet): one step per pattern cell reading
    # its two symbols, then W - 1 steps reading one symbol twice
    frontier = {(s, False) for s in left_inf}
    steps = list(zip(p1.values, p2.values)) + [None] * (len(ca.memory_set) - 1)
    for want in steps:
        frontier = {
            (t1 * n + t2, dirty or o1 != o2)
            for s, dirty in frontier
            for a1, o1, t1 in lift.out[s // n]
            for a2, o2, t2 in lift.out[s % n]
            if (a1, a2) == want or (want is None and a1 == a2)
        }
        if not frontier:
            return False  # the patterns do not jointly embed: (MEP-1) fails
    return {dirty for s, dirty in frontier if s in right_inf} == {False}


# -- preimage counting ----------------------------------------------------------------


def count_preimages(ca: CellularAutomaton, word) -> int:
    """Number of words of length |w| + |S| - 1 mapping onto w by sliding
    evaluation over the full shift (brute-force, used as an oracle; refuses
    more than ``_PREIMAGE_CAP`` candidates)."""
    ca = normalize_interval(ca)
    target = parse_word(ca.output_alphabet, word)
    w = len(ca.memory_set)
    a = len(ca.input_alphabet)
    length = len(target) + w - 1
    total = a**length
    if total > _PREIMAGE_CAP:
        raise BudgetExceededError("preimage enumeration", total, _PREIMAGE_CAP)
    count = 0
    for candidate in itertools.product(range(a), repeat=length):
        if slide(ca, candidate) == target:
            count += 1
    return count


def preimage_histogram(ca: CellularAutomaton, length: int):
    """count_preimages for every output word of the given length at once:
    enumerate all inputs of length ``length + W - 1`` and histogram their
    images."""
    ca = normalize_interval(ca)
    w = len(ca.memory_set)
    a = len(ca.input_alphabet)
    total = a ** (length + w - 1)
    if total > _PREIMAGE_CAP:
        raise BudgetExceededError("preimage enumeration", total, _PREIMAGE_CAP)
    counts: Dict[Tuple[int, ...], int] = {}
    for candidate in itertools.product(range(a), repeat=length + w - 1):
        img = slide(ca, candidate)
        counts[img] = counts.get(img, 0) + 1
    return counts
