"""Entropy of subshifts and images: window counts along Folner sequences,
exact Perron values for 1D sofic shifts, and the entropy inequalities as
finite-scale checks.

Conventions: natural logarithm everywhere (reports also render log2); the
1D Folner window F_n is {0..n}, i.e. words of length n+1.  Estimates are the
finite quantities log|X_{F_n}| / |F_n|; the exact spectral value is computed
separately and no claim is made about abstract limits.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul, truediv
from typing import List, Optional, Sequence, Tuple

from .automaton import CellularAutomaton
from .decide1d import _domain, decide_surjective, image_presentation
from .errors import UnsupportedGroupError
from .goe_search import greedy_tiling
from .groups import Zd
from .patterns import Alphabet
from .subshift import (
    DEFAULT_STATE_BUDGET,
    SFTPresentation,
    SoficPresentation1D,
    _automaton_graph,
    _components,
    _word_counts,
    determinize,
    language_count,
    locally_admissible_count,
    presentation_of,
    subset_automaton,
)

_PERRON_TOL = 1e-9  # width of the Collatz bracket that ends the power iteration


@dataclass(frozen=True, slots=True)
class EntropyEstimate:
    """Window-count series: rows (n, count, cells, estimate in nats)."""

    rows: Tuple[Tuple[int, int, int, float], ...]

    def to_json(self) -> dict:
        return {
            "method": "count",
            "rows": [
                {
                    "n": n,
                    "count": count,
                    "cells": cells,
                    "nats": nats,
                    "bits": nats / math.log(2),
                }
                for n, count, cells, nats in self.rows
            ],
        }


def _group_of(X) -> Zd:
    """The Z^d a subshift presentation lives on."""
    if isinstance(X, SoficPresentation1D):
        return Zd(1)
    if not isinstance(X, SFTPresentation):
        raise TypeError(f"not a subshift presentation: {X!r}")
    if not isinstance(X.group, Zd):
        raise UnsupportedGroupError("entropy windows need Z^d")
    return X.group


def _count_on(X, window) -> int:
    """|X_window|: the exact language count on an interval of Z, the local
    admissibility count on a window of Z^d for d >= 2."""
    if _group_of(X).d >= 2:
        return locally_admissible_count(X, window)
    cells = sorted(g[0] for g in window)
    if cells and cells[-1] - cells[0] + 1 != len(cells):
        raise ValueError("windows over Z must be intervals")
    return language_count(X, len(cells))


def pattern_count_entropy(X, ns: Sequence[int]) -> EntropyEstimate:
    """Exact window counts and the per-cell log estimates along F_n.

    1D counts are exact language counts; for d >= 2 the count is the local
    admissibility count of ``subshift.locally_admissible_count``.
    """
    group = _group_of(X)
    rows = []
    for n in ns:
        window = group.box((n + 1,) * group.d)
        count = _count_on(X, window)
        rows.append((n, count, len(window), math.log(count) / len(window)))
    return EntropyEstimate(tuple(rows))


# -- Perron value for 1D ------------------------------------------------------


def _spectral_radius(rows: List[List[Tuple[int, int]]]) -> float:
    """Largest eigenvalue of a nonnegative irreducible integer matrix with a
    certified bracket: power iteration on M + I until the min/max Collatz
    ratios are within ``_PERRON_TOL``.

    Row i of M is ``rows[i]``, its nonzero entries as (column, count) pairs
    in ascending column order.  They are stored by column position: for
    each k below the widest row, ``cols[k]`` holds the k-th column of every
    row and ``counts[k]`` its count as a float, and a shorter row points at
    a trailing ``0.0`` slot of the vector.  A step is then a few C-level
    passes, products for k = 0 first and each later k added in turn.  Each
    row adds the same nonzero products in the same order as a dense loop
    from left to right (a pad adds an exact zero, as do the dense loop's
    other terms) and no ``sum()`` is taken, whose float algorithm changed in
    Python 3.12, so the result depends neither on the storage nor on the
    Python version.
    """
    n = len(rows)
    if n == 0:
        return 0.0
    width = max(map(len, rows))
    cols = [[row[k][0] if k < len(row) else n for row in rows] for k in range(width)]
    counts = [[float(row[k][1]) if k < len(row) else 0.0 for row in rows] for k in range(width)]
    v = [1.0] * n + [0.0]
    for _ in range(100000):
        get = v.__getitem__
        acc = map(mul, counts[0], map(get, cols[0]))
        for col, cnt in zip(cols[1:], counts[1:]):
            acc = map(add, acc, map(mul, cnt, map(get, col)))
        w = list(map(add, acc, v))  # the maps chained above run here, row by row
        ratios = list(map(truediv, w, v))
        lo, hi = min(ratios), max(ratios)
        norm = max(w)
        v = list(map(truediv, w, repeat(norm, n)))
        v.append(0.0)
        if hi - lo < _PERRON_TOL:
            return (lo + hi) / 2.0 - 1.0
    raise RuntimeError("power iteration failed to bracket the spectral radius")


def perron_entropy(X) -> float:
    """log of the spectral radius of the determinized, trimmed presentation,
    bracketed to within ``_PERRON_TOL``.

    On a non-strongly-connected graph the value is the maximum over the
    strongly connected components.  Returns -inf for an empty language.
    The iteration runs over the sparse rows stored as columns, padded to
    the widest row, which has at most |A| entries in a deterministic graph:
    O(n |A|) per step and memory, never an n x n matrix.  Its floats are
    those of the dense loop from left to right, bit for bit and on every
    Python version: the same products in the same order, exact-zero pads,
    and no ``sum()`` (see ``_spectral_radius``).
    """
    return _graph_entropy(determinize(presentation_of(X)))


def _graph_entropy(pres: SoficPresentation1D) -> float:
    """log of the spectral radius of a deterministic presentation."""
    adj, comps = _components(pres)  # adj[u]: the head of each edge out of u, ascending
    best = 0.0
    for comp in comps:
        if len(comp) == 1 and comp[0] not in adj[comp[0]]:
            continue
        local = {u: k for k, u in enumerate(comp)}
        rows = [sorted(Counter(local[v] for v in adj[u] if v in local).items()) for u in comp]
        best = max(best, _spectral_radius(rows))
    if best <= 0.0:
        return float("-inf")
    return math.log(best)


# -- inequalities -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ImageEntropyReport:
    rows: Tuple[Tuple[int, int, int], ...]  # (n, image count, domain count on F_n S)
    violations: int
    domain_perron: Optional[float]
    image_perron: Optional[float]

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_json(self) -> dict:
        return {
            "rows": [
                {"n": n, "image_count": ic, "domain_count_on_FnS": dc}
                for n, ic, dc in self.rows
            ],
            "violations": self.violations,
            "domain_perron": self.domain_perron,
            "image_perron": self.image_perron,
        }


def image_entropy_check(
    ca: CellularAutomaton, X=None, ns: Sequence[int] = range(1, 11)
) -> ImageEntropyReport:
    """Verify |tau(X)_{F_n}| <= |X_{F_n S}| for each n and compare the exact
    Perron values of image and domain (Z only).

    Each subset automaton is built once: one transfer over it counts the
    words of every length needed, and the Perron iteration reads it too.
    """
    ns = list(ns)
    if any(n + 1 < 0 for n in ns):
        raise ValueError("length must be >= 0")
    ca, domain = _domain(ca, X, DEFAULT_STATE_BUDGET)
    image = image_presentation(ca, domain)
    w = len(ca.memory_set)
    image_auto, domain_auto = subset_automaton(image), subset_automaton(domain)
    longest = max(ns, default=0)
    image_counts = _word_counts(image_auto, longest + 1)
    domain_counts = _word_counts(domain_auto, longest + w)  # F_n S is an interval of n+w cells
    rows = []
    violations = 0
    for n in ns:
        img_count, dom_count = image_counts[n + 1], domain_counts[n + w]
        rows.append((n, img_count, dom_count))
        if img_count > dom_count:
            violations += 1
    return ImageEntropyReport(
        tuple(rows),
        violations,
        _graph_entropy(_automaton_graph(domain_auto)),
        _graph_entropy(_automaton_graph(image_auto)),
    )


@dataclass(frozen=True)
class SurjectionSweepReport:
    trials: int
    all_non_surjective: bool
    witnesses: Tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "all_non_surjective": self.all_non_surjective,
            "witnesses": list(self.witnesses),
        }


def no_surjection_bigger_alphabet_check(
    a: int, b: int, trials: int = 25, seed: int = 0
) -> SurjectionSweepReport:
    """Random CA from an a-symbol to a b-symbol full shift with a < b, on
    interval memory sets of 1 to 3 cells, are never surjective; any
    counterexample is a fatal bug."""
    if not a < b:
        raise ValueError("need a < b")
    rng = random.Random(seed)
    A, B = Alphabet.of_size(a), Alphabet.of_size(b)
    group = Zd(1)
    witnesses = []
    ok = True
    for _ in range(trials):
        width = rng.randint(1, 3)
        lo = rng.randint(-1, 0)
        S = tuple((c,) for c in range(lo, lo + width))
        table = tuple(rng.randrange(b) for _ in range(a**width))
        ca = CellularAutomaton(group, A, B, S, table)
        verdict = decide_surjective(ca)
        if verdict.answer:
            ok = False
            witnesses.append("SURJECTIVE(bug)")
        else:
            witnesses.append(verdict.witness["word"])
    return SurjectionSweepReport(trials, ok, tuple(witnesses))


@dataclass(frozen=True)
class TilingBoundReport:
    applicable: bool
    rows: Tuple[Tuple[int, int, float, float], ...]  # (n, |T|, lhs nats, rhs nats)
    holds: bool

    def to_json(self) -> dict:
        return {
            "applicable": self.applicable,
            "holds": self.holds,
            "rows": [
                {"n": n, "tiles": t, "log_count": lhs, "bound": rhs}
                for n, t, lhs, rhs in self.rows
            ],
        }


def tiling_entropy_bound_check(
    X, E, ns: Sequence[int]
) -> TilingBoundReport:
    """Finite-scale tiling inequality: with T the greedy tile centers inside
    F_n, check log|X_{F_n}| <= |F_n^*| log|A| + sum_t log|X_{tE}|.

    Degenerate when the per-tile hypothesis X_E != A^E fails (full shift):
    reported as not applicable.  Over Z the tile must be an interval.
    """
    group = _group_of(X)
    E = group.canon(map(group.check, E))
    a = len(X.alphabet)
    tile_count = _count_on(X, E)  # window counts are shift invariant: |X_tE| = |X_E|
    if tile_count >= a ** len(E):
        return TilingBoundReport(False, (), True)
    log_tile = math.log(tile_count)
    rows = []
    holds = True
    for n in ns:
        window = group.box((n + 1,) * group.d)
        T, _ = greedy_tiling(group, E, window)
        tiled = set()
        for t in T:
            tiled.update(group._mul(t, e) for e in E)
        f_star = len(window) - len(tiled)
        lhs = math.log(_count_on(X, window))
        rhs = f_star * math.log(a)
        for _ in T:  # summed per tile: len(T) * log_tile can round differently
            rhs += log_tile
        rows.append((n, len(T), lhs, rhs))
        if lhs > rhs + 1e-12:
            holds = False
    return TilingBoundReport(True, tuple(rows), holds)
