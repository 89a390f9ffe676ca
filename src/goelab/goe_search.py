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
distinct ME pair.  The searches count windows by separate conventions:

- ``find_goe_pattern``: a window whose image set is over budget is skipped,
  every other window is scanned.
- ``find_me_pair``: a window with more than ``max_patterns_for_pairs``
  patterns is skipped; every other window is scanned, and one that then
  turns out over the ME extension budget is also counted as skipped.
- ``semi_decide``: every scheduled window up to the witness is scanned,
  whatever its budgets allowed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from .automaton import CellularAutomaton
from .errors import BudgetExceededError, GroupMismatchError
from .groups import FiniteSubset, Zd
from .patterns import Pattern, index_to_values, values_to_index


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
    group = Zd(d)
    boxes = []
    max_side = budget.max_window_cells
    for dims in itertools.product(range(1, max_side + 1), repeat=d):
        cells = 1
        for m in dims:
            cells *= m
        if cells <= budget.max_window_cells:
            is_cube = 0 if len(set(dims)) == 1 else 1
            boxes.append((cells, is_cube, dims))
    for _, _, dims in sorted(boxes):
        yield group.box(dims)


def _window_positions(group: Zd, window: FiniteSubset, S: FiniteSubset):
    """Support of the inputs feeding a window, plus per-cell window offsets."""
    inputs = group.set_product(window, S)
    pos = {g: i for i, g in enumerate(inputs)}
    offsets = [
        [pos[group.mul(g, s)] for s in S] for g in window
    ]
    return inputs, offsets


def image_pattern_set(
    ca: CellularAutomaton, window: FiniteSubset, max_candidates: int = 1 << 16
) -> set:
    """Exactly { tau(x)|_window : x } as a set of value tuples; exhaustive
    over the inputs on window*S, which suffice by locality."""
    group = ca.group
    if not isinstance(group, Zd):
        raise GroupMismatchError("finite-window search needs Z^d")
    window = group.canon(window)
    a = len(ca.input_alphabet)
    inputs, offsets = _window_positions(group, window, ca.memory_set)
    total = a ** len(inputs)
    if total > max_candidates:
        raise BudgetExceededError("image enumeration", total, max_candidates)
    table = ca.table
    images = set()
    for assignment in itertools.product(range(a), repeat=len(inputs)):
        img = tuple(
            table[values_to_index(a, [assignment[k] for k in offs])]
            for offs in offsets
        )
        images.add(img)
    return images


@dataclass(frozen=True)
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
    """Least-index pattern on the window missing from the image set, or None;
    raises BudgetExceededError when the image set is over budget."""
    images = image_pattern_set(ca, window, budget.max_candidates)
    b = len(ca.output_alphabet)
    total = b ** len(window)
    if len(images) == total:
        return None
    indices = {values_to_index(b, img) for img in images}
    k = next(k for k in range(total) if k not in indices)
    return Pattern(window, index_to_values(b, len(window), k))


def find_goe_pattern(
    ca: CellularAutomaton, budget: SearchBudget = SearchBudget()
) -> SearchOutcome:
    """Smallest-window Garden of Eden pattern within budget, least pattern
    index first; None means no GOE pattern on any scheduled window (which for
    d >= 2 is *not* a surjectivity proof)."""
    group = ca.group
    if not isinstance(group, Zd):
        raise GroupMismatchError("finite-window search needs Z^d")
    scanned = 0
    skipped = 0
    for window in window_schedule(group.d, budget):
        try:
            found = _goe_on(ca, window, budget)
        except BudgetExceededError:
            skipped += 1
            continue
        scanned += 1
        if found is not None:
            return SearchOutcome(found, scanned, budget, skipped)
    return SearchOutcome(None, scanned, budget, skipped)


# -- mutually erasable patterns -------------------------------------------------


def me_check(ca: CellularAutomaton, p1: Pattern, p2: Pattern,
             max_candidates: int = 1 << 20) -> bool:
    """Exact ME test on the full shift over Z^d.

    True iff every pair of configurations equal to p1/p2 on the common
    support and to each other elsewhere has equal images.  Outputs can only
    differ on window*S^-1 and those windows live inside window*S^-1*S, so
    enumerating the joint extension there is sufficient.  (The classical
    majority-vote ME pair is quoted on words 00000/00100; their support here
    is the full five-cell interval.)
    """
    if p1.support != p2.support:
        raise ValueError("ME patterns need a common support")
    group = ca.group
    if not isinstance(group, Zd):
        raise GroupMismatchError("me_check needs Z^d")
    if p1.values == p2.values:
        return True
    window = p1.support
    S = ca.memory_set
    out_region = group.set_product(window, group.set_inverse(S))
    in_region, offsets = _window_positions(group, out_region, S)
    inside = set(window)
    free_idx = [i for i, g in enumerate(in_region) if g not in inside]
    a = len(ca.input_alphabet)
    total = a ** len(free_idx)
    if total > max_candidates:
        raise BudgetExceededError("ME extension enumeration", total, max_candidates)
    values1 = dict(zip(window, p1.values))
    values2 = dict(zip(window, p2.values))
    base1 = [values1.get(g, 0) for g in in_region]
    base2 = [values2.get(g, 0) for g in in_region]
    for fill in itertools.product(range(a), repeat=len(free_idx)):
        for i, v in zip(free_idx, fill):
            base1[i] = v
            base2[i] = v
        for offs in offsets:
            w1 = values_to_index(a, [base1[k] for k in offs])
            w2 = values_to_index(a, [base2[k] for k in offs])
            if ca.table[w1] != ca.table[w2]:
                return False
    return True


def _me_on(
    ca: CellularAutomaton, window: FiniteSubset, budget: SearchBudget
) -> Optional[Tuple[Pattern, Pattern]]:
    """Least-index distinct pair on the window that me_check accepts, or None;
    raises BudgetExceededError when the ME extensions are over budget.  That
    budget depends on the window and the memory set only, so the first
    over-budget pair decides the whole window."""
    a = len(ca.input_alphabet)
    n = len(window)
    patterns = [Pattern(window, index_to_values(a, n, i)) for i in range(a**n)]
    for p1, p2 in itertools.combinations(patterns, 2):
        if me_check(ca, p1, p2, budget.max_candidates):
            return p1, p2
    return None


def find_me_pair(
    ca: CellularAutomaton, budget: SearchBudget = SearchBudget()
) -> SearchOutcome:
    """Distinct ME pair on the smallest scheduled window containing one,
    least index pair first."""
    group = ca.group
    if not isinstance(group, Zd):
        raise GroupMismatchError("finite-window search needs Z^d")
    a = len(ca.input_alphabet)
    scanned = 0
    skipped = 0
    for window in window_schedule(group.d, budget):
        if a ** len(window) > budget.max_patterns_for_pairs:
            skipped += 1
            continue
        scanned += 1
        try:
            found = _me_on(ca, window, budget)
        except BudgetExceededError:
            skipped += 1
            continue
        if found is not None:
            return SearchOutcome(found, scanned, budget, skipped)
    return SearchOutcome(None, scanned, budget, skipped)


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
    n = 2 * r // k + 1
    while n * k <= 2 * r:
        n += 1
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


@dataclass(frozen=True)
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


def semi_decide(
    ca: CellularAutomaton, budget: SearchBudget = SearchBudget()
) -> SemiVerdict:
    """Dovetail the GOE and ME searches window by window; either witness is
    conclusive for both negatives, and budget exhaustion is an explicit
    unknown."""
    group = ca.group
    if not isinstance(group, Zd):
        raise GroupMismatchError("semi_decide needs Z^d")
    a = len(ca.input_alphabet)
    scanned = 0
    for window in window_schedule(group.d, budget):
        scanned += 1
        try:
            goe = _goe_on(ca, window, budget)
        except BudgetExceededError:
            goe = None
        if goe is not None:
            return SemiVerdict("not_surjective", goe, scanned, budget)
        if a ** len(window) > budget.max_patterns_for_pairs:
            continue
        try:
            pair = _me_on(ca, window, budget)
        except BudgetExceededError:
            continue
        if pair is not None:
            return SemiVerdict("not_preinjective", pair, scanned, budget)
    note = ""
    if group.d == 1:
        note = "exact decision available over Z via decide1d"
    return SemiVerdict("unknown", None, scanned, budget, note)


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
    for g in window:
        translate = [group.mul(g, e) for e in E]
        if all(t in inside for t in translate) and not any(
            t in covered for t in translate
        ):
            centers.append(g)
            covered.update(translate)
    e_prime = group.set_product(E, group.set_inverse(E))
    return tuple(centers), e_prime


def tiling_cover_certificate(
    group: Zd, E: FiniteSubset, window: FiniteSubset, centers: FiniteSubset
) -> bool:
    """Check the boundary-adjusted covering: interior centers are covered by
    the sets t E E^-1."""
    E = group.canon(E)
    window_set = set(window)
    e_prime = group.set_product(E, group.set_inverse(E))
    covered = set()
    for t in centers:
        covered.update(group.mul(t, x) for x in e_prime)
    for g in window:
        if all(group.mul(g, e) in window_set for e in E) and g not in covered:
            return False
    return True
