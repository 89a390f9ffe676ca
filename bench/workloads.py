"""The benchmark's workloads: seeded instance generation, one operation per
instance, and the output checks.

Each workload draws its instances in batches with a fixed mix, so every run
sees the same share of each rule class whatever the seed.  Batch ``k`` comes
from its own random stream seeded by (seed, k).  Operations call goelab only
through module attributes, looked up at call time, so the tracer's wrappers
see them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, List, Optional

from goelab import automaton as am
from goelab import decide1d as d1
from goelab import entropy as en
from goelab import goe_search as gs
from goelab import subshift as sub
from goelab.groups import Zd
from goelab.patterns import Alphabet

import oracles


@dataclass
class Instance:
    label: str  # class of the instance, e.g. "leftperm-2x8-full"
    ca: Any = None
    domain: str = "full"  # for the oracles: full, golden_mean, even_shift
    subject: Any = None  # a subshift, for the window-count operations
    n: int = 0
    extra: dict = field(default_factory=dict)


def _stream(seed: int, batch: int) -> random.Random:
    return random.Random(seed * 1_000_003 + batch)


def _interval(width: int):
    return tuple((c,) for c in range(width))


def _true_width(table, a: int, width: int) -> bool:
    """The rule reads both end cells, so its memory set really spans ``width``."""
    return oracles.depends_on(table, a, width, 0) and oracles.depends_on(table, a, width, width - 1)


def _random_table(rng: random.Random, a: int, width: int):
    while True:
        table = tuple(rng.randrange(a) for _ in range(a**width))
        if width == 1 or _true_width(table, a, width):
            return table


def _left_permutive_table(rng: random.Random, width: int):
    """f(x0..x_{w-1}) = x0 xor g(x1..x_{w-1}); surjective by construction."""
    half = 1 << (width - 1)
    while True:
        g = [rng.randrange(2) for _ in range(half)]
        table = tuple(((k >> (width - 1)) & 1) ^ g[k & (half - 1)] for k in range(2 * half))
        if _true_width(table, 2, width):
            return table


def _ca_1d(a: int, table, width: int):
    alphabet = Alphabet.of_size(a)
    return am.CellularAutomaton(Zd(1), alphabet, alphabet, _interval(width), table)


def image_subset_states(table, a: int, width: int, limit: int) -> int:
    """States of the subset automaton of the image's de Bruijn presentation,
    counted by the benchmark itself up to ``limit + 1``; used only to
    stratify the sample."""
    n = a ** (width - 1)
    step = [[0] * a for _ in range(n)]  # step[window prefix][output] -> bitmask of next prefixes
    for u in range(n):
        for s in range(a):
            k = u * a + s
            step[u][table[k]] |= 1 << (k % n)
    # successor masks of whole bytes of a state mask, one table per byte position
    chunks = []
    for out in range(a):
        per_out = []
        for base in range(0, n, 8):
            succ = [0] * 256
            for b in range(1, 256):
                low = (b & -b).bit_length() - 1
                succ[b] = succ[b & (b - 1)] | (step[base + low][out] if base + low < n else 0)
            per_out.append(succ)
        chunks.append(per_out)
    start = (1 << n) - 1
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for mask in frontier:
            for per_out in chunks:
                target = 0
                for i, succ in enumerate(per_out):
                    target |= succ[(mask >> (8 * i)) & 255]
                if target and target not in seen:
                    seen.add(target)
                    nxt.append(target)
                    if len(seen) > limit:
                        return len(seen)
        frontier = nxt
    return len(seen)


def _stratified_table(rng: random.Random, a: int, width: int, stratum):
    """A random true-width table whose image automaton size lies in ``stratum``
    (any size when None)."""
    while True:
        table = _random_table(rng, a, width)
        if stratum is None or stratum[0] <= image_subset_states(table, a, width, stratum[1]) <= stratum[1]:
            return table


class Workload:
    name = ""
    why = ""
    mix: tuple = ()
    pool_batches = 1  # batches generated in set-up; the timed loop cycles through them
    trace_batches = 1  # fixed work of the traced run, so its counts repeat exactly

    def batch(self, rng: random.Random) -> List[Instance]:
        raise NotImplementedError

    def generate(self, seed: int, batches: int) -> List[List[Instance]]:
        return [self.batch(_stream(seed, k)) for k in range(batches)]

    def run(self, inst: Instance):
        raise NotImplementedError

    def check(self, inst: Instance, result) -> Optional[str]:
        """None if the output is right, else the name of the failed check."""
        raise NotImplementedError

    def decided(self, inst: Instance, result) -> bool:
        return True

    def describe(self) -> dict:
        return {"mix": list(self.mix)}


# -- z1-decide ------------------------------------------------------------------------


class Z1Decide(Workload):
    name = "z1-decide"
    why = (
        "exact 1D decisions: pair graph on left-permutive rules, full image DFA and product BFS "
        "on random ones, SFT compilation and trim on golden/even domains"
    )
    # (class, alphabet size, width, domain); one operation each per batch.
    # Random width-6 rules are drawn from the middle of their image-automaton
    # sizes: the tail reaches 3e5 states and would set a run's time alone.
    mix = (
        ("leftperm", 2, 3, "full"), ("leftperm", 2, 4, "full"), ("leftperm", 2, 5, "full"),
        ("leftperm", 2, 6, "full"), ("leftperm", 2, 7, "full"), ("leftperm", 2, 7, "full"),
        ("leftperm", 2, 8, "full"),
        ("random", 2, 3, "full"), ("random", 2, 4, "full"), ("random", 2, 5, "full"),
        ("random", 2, 6, "full"), ("random", 2, 6, "full"),
        # three ternary width-3 rules hold the median inside one tight class
        ("random", 3, 2, "full"), ("random", 3, 3, "full"), ("random", 3, 3, "full"), ("random", 3, 3, "full"),
        ("random", 2, 3, "golden_mean"), ("random", 2, 4, "golden_mean"), ("random", 2, 5, "golden_mean"),
        ("random", 2, 3, "even_shift"), ("random", 2, 4, "even_shift"), ("random", 2, 5, "even_shift"),
    )
    strata = {6: (500, 2000)}  # width -> image-automaton states, for full-shift random rules
    pool_batches = 45
    trace_batches = 8
    # full-shift GOE words are also counted by brute force up to this many inputs
    brute_force_cap = 1 << 11

    def batch(self, rng):
        out = []
        for kind, a, width, domain in self.mix:
            if kind == "leftperm":
                table = _left_permutive_table(rng, width)
            elif domain == "full":
                table = _stratified_table(rng, a, width, self.strata.get(width))
            else:
                table = _random_table(rng, a, width)
            out.append(Instance(f"{kind}-{a}x{width}-{domain}", _ca_1d(a, table, width), domain,
                                extra={"a": a, "width": width, "table": table, "leftperm": kind == "leftperm"}))
        return out

    def describe(self):
        return {**super().describe(), "strata": self.strata}

    def _subshift(self, domain):
        return None if domain == "full" else getattr(sub, domain)()

    def run(self, inst):
        X = self._subshift(inst.domain)
        return (
            d1.decide_surjective(inst.ca, X),
            d1.decide_preinjective(inst.ca, X),
            d1.decide_injective(inst.ca, X),
        )

    def check(self, inst, result):
        surj, pre, inj = result
        a, width, table = inst.extra["a"], inst.extra["width"], inst.extra["table"]
        full = inst.domain == "full"
        checks = {
            "moore-myhill": not full or surj.answer == pre.answer,
            "injective-implies-surjective": not full or not inj.answer or surj.answer,
            "injective-implies-preinjective": not inj.answer or pre.answer,
            "left-permutive-is-surjective": not inst.extra["leftperm"] or (surj.answer and pre.answer),
            "surjective-is-balanced": not (full and surj.answer) or oracles.balanced(table, a, width),
            "preinjective-witness-verified": pre.answer or dict(pre.detail).get("witness_verified") is True,
            "injective-witness-verified": inj.answer or dict(inj.detail).get("witness_verified") is True,
        }
        problem = oracles.first_problem(checks)
        if problem or surj.answer:
            return problem
        word = tuple(int(ch) for ch in surj.witness["word"])
        dfa = oracles.domain_dfa(inst.domain, a)
        if oracles.has_preimage(table, a, width, word, dfa):
            return "goe-word-has-preimage"
        if full and a ** (len(word) + width - 1) <= self.brute_force_cap:
            if d1.count_preimages(inst.ca, surj.witness["word"]) != 0:
                return "goe-word-count-preimages"
        return None


# -- z1-entropy -----------------------------------------------------------------------


class Z1Entropy(Workload):
    name = "z1-entropy"
    why = (
        "whole image DFA with no early exit, dense Perron iteration and the 2D row-DP window "
        "counter; never builds a pair graph or calls goe_search"
    )
    # (class, width or Folner size, subset-automaton stratum); one operation each
    # per batch.  The strata keep the classes apart in cost: the median falls on
    # the fixed window counts and the top tenth inside the width-5 images.
    mix = (
        ("image", 3, None), ("image", 3, None),
        ("image", 4, (14, 26)), ("image", 4, (14, 26)),
        ("ledrappier", 25, None), ("ledrappier", 25, None),
        ("hard_ball2", 7, None), ("hard_ball2", 7, None),
        ("image", 5, (130, 170)), ("image", 5, (130, 170)), ("image", 5, (130, 170)),
    )
    ns = range(1, 9)  # as the analyze verb calls image_entropy_check
    pool_batches = 40
    trace_batches = 5

    def batch(self, rng):
        out = []
        for kind, size, stratum in self.mix:
            if kind == "image":
                table = _stratified_table(rng, 2, size, stratum)
                out.append(Instance(f"image-2x{size}", _ca_1d(2, table, size), extra={"width": size, "table": table}))
            elif kind == "hard_ball2":
                out.append(Instance(f"hard_ball2-n{size}", subject=sub.hard_ball(2), n=size))
            else:
                out.append(Instance(f"ledrappier-n{size}", subject=sub.ledrappier(), n=size))
        return out

    def run(self, inst):
        if inst.ca is not None:
            return en.image_entropy_check(inst.ca, None, self.ns)
        return en.pattern_count_entropy(inst.subject, [inst.n])

    def check(self, inst, result):
        if inst.ca is None:
            (n, count, cells, nats), = result.rows
            side = n + 1
            want = 2 ** (2 * n + 1) if inst.label.startswith("ledrappier") else oracles.hard_ball_count(side, side)
            return None if count == want and cells == side * side else "window-count"
        width, table = inst.extra["width"], inst.extra["table"]
        small = [(n, ic, dc) for n, ic, dc in result.rows if n <= 3]
        checks = {
            "no-violations": result.violations == 0,
            "rows": [row[0] for row in result.rows] == list(self.ns),
            "domain-counts": all(dc == 2 ** (n + width) for n, _, dc in result.rows),
            "image-counts": all(ic == oracles.distinct_images(table, 2, width, n + width) for n, ic, _ in small),
            "domain-perron": abs(result.domain_perron - math.log(2)) < 1e-9,
            "image-below-domain": result.image_perron <= result.domain_perron + 1e-9,
        }
        return oracles.first_problem(checks)


# -- z2-search ------------------------------------------------------------------------


SHAPES = {
    3: ((0, 0), (0, 1), (1, 0)),  # L
    4: ((0, 0), (0, 1), (1, 0), (1, 1)),  # 2x2 square
    5: ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)),  # von Neumann cross
}


class Z2Search(Workload):
    name = "z2-search"
    why = (
        "SearchBudget(6 cells, 1<<12 candidates, 16 pair patterns); half biased, half permutive "
        "rules on 3/4/5-cell sets; skips = image_set_over_budget, not windows_scanned"
    )
    budget_fields = {"max_window_cells": 6, "max_candidates": 1 << 12, "max_patterns_for_pairs": 16}
    # (class, memory-set size); one operation each per batch
    mix = tuple((kind, k) for k in (3, 4, 5) for kind in ("permutive", "permutive", "biased", "biased"))
    pool_batches = 40
    trace_batches = 5

    def __init__(self):
        self.budget = gs.SearchBudget(**self.budget_fields)

    def batch(self, rng):
        out = []
        for kind, k in self.mix:
            S = SHAPES[k]
            n = 1 << k
            if kind == "permutive":
                # permutive in the lexicographically largest cell, which is read
                # last: f = x_last xor g(rest); surjective, hence pre-injective
                g = [rng.randrange(2) for _ in range(n // 2)]
                table = tuple((i & 1) ^ g[i >> 1] for i in range(n))
            else:
                # unbalanced, so not surjective (balance theorem); the budget
                # decides whether the search finds the witness
                ones = rng.choice([c for c in range(1, n) if c <= n // 4 or c >= n - n // 4])
                picked = set(rng.sample(range(n), ones))
                table = tuple(1 if i in picked else 0 for i in range(n))
            ca = am.CellularAutomaton(Zd(2), Alphabet.of_size(2), Alphabet.of_size(2), S, table)
            out.append(Instance(f"{kind}-{k}", ca, extra={"permutive": kind == "permutive"}))
        return out

    def run(self, inst):
        return gs.semi_decide(inst.ca, self.budget)

    def decided(self, inst, result):
        return result.status != "unknown"

    def check(self, inst, result):
        ca = inst.ca
        if result.status == "unknown":
            return None
        if inst.extra["permutive"]:
            return "permutive-reported-" + result.status
        if result.status == "not_surjective":
            p = result.witness
            if p.values in gs.image_pattern_set(ca, p.support, self.budget.max_candidates):
                return "goe-in-image_pattern_set"
            if p.values in oracles.image_patterns(ca.table, 2, ca.memory_set, p.support):
                return "goe-in-image"
            return None
        p1, p2 = result.witness
        ok = p1.support == p2.support and p1.values != p2.values and oracles.mutually_erasable(
            ca.table, 2, ca.memory_set, p1.support, p1.values, p2.values
        )
        return None if ok else "me-pair"

    def describe(self):
        return {**super().describe(), "budget": self.budget_fields, "shapes": SHAPES}


# -- paper-suite ----------------------------------------------------------------------


class PaperSuite(Workload):
    name = "paper-suite"
    why = (
        "the 48 suite rows cold in a fresh process per pass, 1 thread; the only workload reaching "
        "suite, linear_ca and freegroup_lab"
    )
    mix = ("48 rows of goelab.suite.ROWS, in order, each through run_suite(row name)",)
    min_passes = 3

    def generate(self, seed, batches):
        """The rows are fixed, whatever the seed; loading them imports the suite."""
        from goelab import suite

        return [list(suite.ROWS) for _ in range(batches)]


WORKLOADS = {w.name: w for w in (Z1Decide, Z1Entropy, Z2Search, PaperSuite)}
