"""Independent checks for the benchmark's outputs.

Everything here works from the generated rule tables and small automata of
its own; nothing calls into goelab, so a check cannot share a defect with the
code it checks.  Tables are indexed big-endian over the window, as goelab's
rule files are.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence, Tuple

# Domain languages as DFAs over {0, 1} (or the full shift over any alphabet):
# delta[state][symbol] -> state or None; state 0 starts.  Every accepted word
# extends on both sides, so these are the factor languages of the shifts.
GOLDEN = [[0, 1], [0, None]]  # last symbol 0 / 1; no factor 11
EVEN = [[0, 1], [2, 1], [1, None]]  # no 1 yet / even run of 0s / odd run of 0s


def domain_dfa(domain: str, a: int):
    return {"full": [[0] * a], "golden_mean": GOLDEN, "even_shift": EVEN}[domain]


def index(a: int, window: Sequence[int]) -> int:
    k = 0
    for v in window:
        k = k * a + v
    return k


def slide(table, a: int, width: int, word: Sequence[int]) -> Tuple[int, ...]:
    return tuple(table[index(a, word[i : i + width])] for i in range(len(word) - width + 1))


def depends_on(table, a: int, width: int, position: int) -> bool:
    """Whether the local rule reads the window cell at ``position``."""
    for window in itertools.product(range(a), repeat=width):
        base = table[index(a, window)]
        for v in range(a):
            changed = window[:position] + (v,) + window[position + 1 :]
            if table[index(a, changed)] != base:
                return True
    return False


def has_preimage(table, a: int, width: int, word: Sequence[int], dfa) -> bool:
    """Whether some domain word slides onto ``word`` (a DP over windows)."""
    frontier = {(0, ())}
    for _ in range(width - 1):
        frontier = {
            (dfa[q][s], u + (s,)) for q, u in frontier for s in range(a) if dfa[q][s] is not None
        }
    for out in word:
        nxt = set()
        for q, u in frontier:
            for s in range(a):
                q2 = dfa[q][s]
                if q2 is not None and table[index(a, u + (s,))] == out:
                    nxt.add((q2, (u + (s,))[1:]))
        if not nxt:
            return False
        frontier = nxt
    return True


def balanced(table, a: int, width: int) -> bool:
    """Every output symbol has a^(width-1) windows (Hedlund: surjective => balanced)."""
    return all(table.count(v) == a ** (width - 1) for v in range(a))


def distinct_images(table, a: int, width: int, length: int) -> int:
    """Number of distinct images of full-shift words of ``length`` input symbols."""
    return len({slide(table, a, width, w) for w in itertools.product(range(a), repeat=length)})


def hard_ball_count(rows: int, cols: int) -> int:
    """Binary rows x cols arrays with no two adjacent 1s along either axis."""
    ok = [r for r in range(1 << cols) if r & (r >> 1) == 0]
    counts = {r: 1 for r in ok}
    for _ in range(rows - 1):
        counts = {r1: sum(c for r0, c in counts.items() if r0 & r1 == 0) for r1 in ok}
    return sum(counts.values())


# -- Z^2 windows ---------------------------------------------------------------------


def _add(g, s):
    return tuple(x + y for x, y in zip(g, s))


def image_patterns(table, a: int, memory_set, window) -> set:
    """All images on ``window``, by enumerating the inputs on window * S."""
    cells = sorted({_add(g, s) for g in window for s in memory_set})
    pos = {c: i for i, c in enumerate(cells)}
    reads = [[pos[_add(g, s)] for s in memory_set] for g in window]
    images = set()
    for x in itertools.product(range(a), repeat=len(cells)):
        images.add(tuple(table[index(a, [x[k] for k in r])] for r in reads))
    return images


def mutually_erasable(table, a: int, memory_set, window, v1, v2) -> bool:
    """Every pair of configurations equal to v1 / v2 on ``window`` and equal
    elsewhere has equal images; only outputs in window * S^-1 can differ."""
    inverse = [tuple(-c for c in s) for s in memory_set]
    outputs = sorted({_add(g, s) for g in window for s in inverse})
    region = sorted({_add(g, s) for g in outputs for s in memory_set})
    fixed = set(window)
    free = [c for c in region if c not in fixed]
    pos = {c: i for i, c in enumerate(region)}
    reads = [[pos[_add(g, s)] for s in memory_set] for g in outputs]
    x1 = [0] * len(region)
    x2 = [0] * len(region)
    for g, a1, a2 in zip(window, v1, v2):
        x1[pos[g]], x2[pos[g]] = a1, a2
    for fill in itertools.product(range(a), repeat=len(free)):
        for c, v in zip(free, fill):
            x1[pos[c]] = x2[pos[c]] = v
        for r in reads:
            if table[index(a, [x1[k] for k in r])] != table[index(a, [x2[k] for k in r])]:
                return False
    return True


def first_problem(checks: Dict[str, bool]) -> Optional[str]:
    """Name of the first failed check, or None."""
    for name, ok in checks.items():
        if not ok:
            return name
    return None
