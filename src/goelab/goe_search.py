"""Finite-window searches over Z^d full shifts: Garden of Eden patterns,
mutually erasable pairs, the counting bound, and greedy tilings.

For d >= 2 surjectivity is undecidable, so these searches are semi-decision
procedures with explicit budgets: a found witness is conclusive (and is
conclusive for *both* properties at once, surjectivity and pre-injectivity
being equivalent over Z^d), while exhausting the budget yields an honest
``unknown``.  Window schedules, enumeration order, and tie-breaks are all
canonical, so results are reproducible and independent of how work is split.

Each search walks ``window_schedule`` and probes each window for the
least-index pattern missing from its image set (GOE) or the least-index
distinct ME pair, one kernel per window.  Image sets are bit-parallel: a
set of inputs is an integer bitset over their indices, each window cell
gets one such mask per output value, and a depth-first walk over the cells
intersects them, so the inner loops are big-integer ANDs and ORs.  ME
classes are refined by output cell and extension, adding integer place
values and reading the rule table, and exiting early once every class is a
singleton.  The three searches share one walk, ``_dovetail``, which counts
the windows it saw up to the witness and tallies its refusals: ``goe``
(image set over budget), ``gate`` (more than ``max_patterns_for_pairs``
patterns) and ``me`` (ME extensions over budget).  Each search reads its
counts from that tally:

- ``find_goe_pattern``: scanned = seen - goe, skipped = goe.
- ``find_me_pair``: scanned = seen - gate, skipped = gate + me.
- ``semi_decide``: scanned = seen.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from .automaton import CellularAutomaton
from .errors import BudgetExceededError, GroupMismatchError
from .groups import FiniteSubset, Zd
from .patterns import Pattern, _check_me_pair


@dataclass(frozen=True)
class SearchBudget:
    """Deterministic limits for the window dovetail."""

    max_window_cells: int = 12
    max_candidates: int = 1 << 16
    max_patterns_for_pairs: int = 64

    def __post_init__(self):
        if self.max_window_cells < 1 or self.max_candidates < 1:
            raise ValueError("budgets must be positive")


def window_schedule(d: int, budget: SearchBudget) -> Iterator[FiniteSubset]:
    """Origin-anchored boxes in nondecreasing cell count, cubes first among
    equal counts, then lexicographic side lengths."""
    # extend prefixes of side lengths with the cells left, as Zd.ball does
    sides = [((), budget.max_window_cells)]
    for _ in range(d):
        sides = [(dims + (m,), left // m) for dims, left in sides for m in range(1, left + 1)]
    order = sorted((math.prod(dims), len(set(dims)) > 1, dims) for dims, _ in sides)
    for _, _, dims in order:
        yield _box(d, dims)


def _reads(group: Zd, cells, S: FiniteSubset) -> list:
    """g*S for each cell g, in memory-set order; elements are checked once."""
    S = [group.check(s) for s in S]
    mul = group._mul
    return [[mul(g, s) for s in S] for g in map(group.check, cells)]


@functools.lru_cache(maxsize=32)
def _digit_masks(a: int, n: int) -> tuple:
    """masks[k][v]: the bitset of the input indices below a^n whose digit k
    (place a^(n-1-k)) is v.  Digit 0 is a run of place ones in each period of
    a * place bits, copied a times per round up to a^n bits; digit v is that
    mask shifted by v * place."""
    total = a**n
    masks = []
    for k in range(n):
        place = a ** (n - 1 - k)
        mask, span = (1 << place) - 1, a * place
        while span < total:
            mask = sum(mask << j * span for j in range(a))  # the copies are disjoint
            span *= a
        masks.append(tuple(mask << v * place for v in range(a)))
    return tuple(masks)


def image_pattern_set(
    ca: CellularAutomaton, window: FiniteSubset, max_candidates: int = 1 << 16
) -> set:
    """Exactly { tau(x)|_window : x } as a set of value tuples; exhaustive
    over the inputs on window*S, which suffice by locality.  Sets of inputs
    are bitsets over their indices: each window cell gets one mask per
    output value (the inputs whose reads it maps there), and a depth-first
    walk over the cells ANDs one value mask per cell, dropping a prefix
    whose mask is empty; the leaves are the image set."""
    group = ca.group
    if not isinstance(group, Zd):
        raise GroupMismatchError("finite-window search needs Z^d")
    window = group.canon(window)
    a = len(ca.input_alphabet)
    reads = _reads(group, window, ca.memory_set)
    inputs = group.canon(itertools.chain.from_iterable(reads))
    total = a ** len(inputs)
    if total > max_candidates:
        raise BudgetExceededError("image enumeration", total, max_candidates)
    position = {h: k for k, h in enumerate(inputs)}
    digits = _digit_masks(a, len(inputs))
    everything = (1 << total) - 1
    value_masks = []
    for cell_reads in reads:
        # leaf t holds the inputs whose reads spell t in memory-set order
        leaves = [everything]
        for h in cell_reads:
            leaves = [m & d for m in leaves for d in digits[position[h]]]
        by_value = [0] * len(ca.output_alphabet)
        for t, m in enumerate(leaves):
            by_value[ca.table[t]] |= m
        value_masks.append(by_value)
    images = set()
    stack = [((), everything)]
    while stack:
        prefix, mask = stack.pop()
        if len(prefix) == len(value_masks):
            images.add(prefix)
        else:
            stack.extend(
                (prefix + (v,), both)
                for v, m in enumerate(value_masks[len(prefix)])
                if (both := mask & m)
            )
    return images


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    """Result of a budgeted window search; ``found`` is None on exhaustion."""

    found: Optional[object]  # a Pattern, or a pair of them for find_me_pair
    windows_scanned: int
    budget: SearchBudget
    skipped_windows: int = 0

    @property
    def unknown(self) -> bool:
        return self.found is None


def _goe_on(
    ca: CellularAutomaton, window: FiniteSubset, budget: SearchBudget
) -> Optional[Pattern]:
    """Least-index pattern not in the window's image set, or None; may raise BudgetExceededError."""
    images = image_pattern_set(ca, window, budget.max_candidates)
    # product order is pattern index order
    values = itertools.product(range(len(ca.output_alphabet)), repeat=len(window))
    missing = next((v for v in values if v not in images), None)
    return None if missing is None else Pattern(window, missing)


def _dovetail(ca: CellularAutomaton, budget: SearchBudget, probes: tuple, error: str):
    """Walk ``window_schedule``, trying the named probes ("goe", "me") on each
    window in that order, the ME probe only within the pattern gate, up to the
    first witness.  Returns (probe, witness, windows seen, refusals)."""
    group = ca.group
    if not isinstance(group, Zd):
        raise GroupMismatchError(error)
    a = len(ca.input_alphabet)
    refused = collections.Counter()
    for seen, window in enumerate(window_schedule(group.d, budget), 1):
        for probe in probes:
            if probe == "me" and a ** len(window) > budget.max_patterns_for_pairs:
                refused["gate"] += 1
                continue
            try:
                found = (_goe_on if probe == "goe" else _me_on)(ca, window, budget)
            except BudgetExceededError:
                refused[probe] += 1
                continue
            if found is not None:
                return probe, found, seen, refused
    return None, None, seen, refused


def find_goe_pattern(
    ca: CellularAutomaton, budget: SearchBudget = SearchBudget()
) -> SearchOutcome:
    """Smallest-window Garden of Eden pattern within budget, least pattern
    index first; None means no GOE pattern on any scheduled window (which for
    d >= 2 is *not* a surjectivity proof)."""
    _, found, seen, refused = _dovetail(ca, budget, ("goe",), "finite-window search needs Z^d")
    return SearchOutcome(found, seen - refused["goe"], budget, refused["goe"])


# -- mutually erasable patterns -------------------------------------------------


def _me_groups(
    ca: CellularAutomaton, window: FiniteSubset, patterns: list, max_candidates: int
) -> list:
    """ME classes of two or more among ``patterns`` (value tuples on the
    window) as ascending index lists, [] once every class is a singleton.
    The a^|free| joint extensions are budgeted before any work."""
    group = ca.group
    S = ca.memory_set
    out_region = group.set_product(window, group.set_inverse(S))
    reads = _reads(group, out_region, S)
    at = {g: i for i, g in enumerate(window)}
    a = len(ca.input_alphabet)
    total = a ** len({h for cells in reads for h in cells if h not in at})
    if total > max_candidates:
        raise BudgetExceededError("ME extension enumeration", total, max_candidates)
    places = [a**k for k in reversed(range(len(S)))]
    classes = [list(range(len(patterns)))]
    for cells in reads:
        inside = [(at[h], w) for h, w in zip(cells, places) if h in at]
        extensions = [0]
        for w in (w for h, w in zip(cells, places) if h not in at):
            extensions = [x + v * w for x in extensions for v in range(a)]
        split: dict = {}
        for c, members in enumerate(classes):
            for p in members:
                b = sum(patterns[p][i] * w for i, w in inside)
                split.setdefault((c, tuple([ca.table[b + x] for x in extensions])), []).append(p)
        classes = [m for m in split.values() if len(m) > 1]
        if not classes:
            return []
    return classes


def me_check(ca: CellularAutomaton, p1: Pattern, p2: Pattern,
             max_candidates: int = 1 << 20) -> bool:
    """Exact ME test on the full shift over Z^d.

    True iff every pair of configurations equal to p1/p2 on the common
    support and to each other elsewhere has equal images.  Outputs can only
    differ on window*S^-1 and those windows live inside window*S^-1*S, so
    the extensions there suffice.  Each output cell and its own extensions
    refine the class of the two, which stops once they are split.  (The
    classical majority-vote ME pair is quoted on words 00000/00100; their
    support here is the full five-cell interval.)
    """
    _check_me_pair(ca.input_alphabet, p1, p2)
    if not isinstance(ca.group, Zd):
        raise GroupMismatchError("me_check needs Z^d")
    if p1.values == p2.values:
        return True
    return bool(_me_groups(ca, p1.support, [p1.values, p2.values], max_candidates))


def _me_on(
    ca: CellularAutomaton, window: FiniteSubset, budget: SearchBudget
) -> Optional[Tuple[Pattern, Pattern]]:
    """Least-index distinct ME pair on the window, or None; may raise BudgetExceededError."""
    patterns = list(itertools.product(range(len(ca.input_alphabet)), repeat=len(window)))
    # a lone pattern has no pair, and then no budget applies
    groups = _me_groups(ca, window, patterns, budget.max_candidates) if patterns[1:] else []
    if not groups:
        return None
    i, j = min(c[:2] for c in groups)  # the least pair in combinations order
    return Pattern(window, patterns[i]), Pattern(window, patterns[j])


def find_me_pair(
    ca: CellularAutomaton, budget: SearchBudget = SearchBudget()
) -> SearchOutcome:
    """Distinct ME pair on the smallest scheduled window containing one,
    least index pair first."""
    _, found, seen, refused = _dovetail(ca, budget, ("me",), "finite-window search needs Z^d")
    return SearchOutcome(found, seen - refused["gate"], budget, refused["gate"] + refused["me"])


# -- the counting bound -----------------------------------------------------------


def n0_bound(a: int, k: int, d: int, r: int, max_bits: int = 1 << 22) -> int:
    """Least n with (a^(k^d) - 1)^(n^d) < a^((n k - 2 r)^d).

    Once the inequality holds it holds for every larger n (in log form the
    right side is ((k - 2r/n)^d, strictly increasing in n), so the first
    success is the bound.  Exact big-integer evaluation, guarded by a bit
    budget.
    """
    if a < 2 or k < 1 or d < 1 or r < 1:
        raise ValueError("need a >= 2 and k, d, r >= 1")
    lhs_base = a ** (k**d) - 1
    n = 2 * r // k + 1  # the least n with n k > 2 r
    while True:
        rhs_exp = (n * k - 2 * r) ** d
        lhs_exp = n**d
        bits = rhs_exp * a.bit_length() + lhs_exp * lhs_base.bit_length()
        if bits > max_bits:
            raise BudgetExceededError("n0 big-integer evaluation", bits, max_bits)
        if lhs_base**lhs_exp < a**rhs_exp:
            return n
        n += 1


def holds_at(a: int, k: int, d: int, r: int, n: int) -> bool:
    """Direct evaluation of the counting inequality at n."""
    if n * k <= 2 * r:
        return False
    return (a ** (k**d) - 1) ** (n**d) < a ** ((n * k - 2 * r) ** d)


# -- the combined semi-decision -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class SemiVerdict:
    status: str  # "not_surjective" | "not_preinjective" | "unknown"
    witness: Optional[object]
    windows_scanned: int
    budget: SearchBudget
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "windows_scanned": self.windows_scanned,
            "budget": {
                "max_window_cells": self.budget.max_window_cells,
                "max_candidates": self.budget.max_candidates,
            },
        }
        if self.note:
            out["note"] = self.note
        return out


# results share their windows, and equal verdicts are one object
_box = functools.lru_cache(maxsize=256)(lambda d, dims: Zd(d).box(dims))
_verdict = functools.lru_cache(maxsize=1024)(SemiVerdict)


def semi_decide(
    ca: CellularAutomaton, budget: SearchBudget = SearchBudget()
) -> SemiVerdict:
    """Dovetail the GOE and ME searches window by window; either witness is
    conclusive for both negatives, and budget exhaustion is an explicit
    unknown."""
    probe, found, seen, _ = _dovetail(ca, budget, ("goe", "me"), "semi_decide needs Z^d")
    if probe is not None:
        status = "not_surjective" if probe == "goe" else "not_preinjective"
        return _verdict(status, found, seen, budget)
    note = "exact decision available over Z via decide1d" if ca.group.d == 1 else ""
    return _verdict("unknown", None, seen, budget, note)


# -- tilings ------------------------------------------------------------------------


def greedy_tiling(
    group: Zd, E: FiniteSubset, window: FiniteSubset
) -> Tuple[FiniteSubset, FiniteSubset]:
    """Greedy maximal set of centers T in the window with the translates tE
    pairwise disjoint and inside the window; returns (T, E E^-1).

    Maximality gives the covering certificate: every g in the window with
    gE inside the window lies in some t E E^-1.
    """
    if not E:
        raise ValueError("E must be nonempty")
    E = group.canon(E)
    window = group.canon(window)
    inside = set(window)
    covered: set = set()
    centers = []
    for g, translate in zip(window, _reads(group, window, E)):
        if inside.issuperset(translate) and covered.isdisjoint(translate):
            centers.append(g)
            covered.update(translate)
    return tuple(centers), group.set_product(E, group.set_inverse(E))


def tiling_cover_certificate(
    group: Zd, E: FiniteSubset, window: FiniteSubset, centers: FiniteSubset
) -> bool:
    """Check the boundary-adjusted covering: interior centers are covered by
    the sets t E E^-1."""
    E = group.canon(E)
    window_set = set(window)
    e_prime = group.set_product(E, group.set_inverse(E))
    covered = set(itertools.chain.from_iterable(_reads(group, centers, e_prime)))
    reads = zip(window, _reads(group, window, E))
    return covered.issuperset(g for g, cells in reads if window_set.issuperset(cells))
