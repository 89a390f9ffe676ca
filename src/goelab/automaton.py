"""Cellular automata as dense local-rule tables over a finite memory set.

A cellular automaton is determined by its memory set S and the table of its
local rule A^S -> B: entry k is the output on the pattern with index k over
S (mixed radix, most significant digit at the first memory-set point in
canonical order). The configuration image is tau(x)(g) = mu(s -> x(g s)).

Tables rather than closures: tables serialize, compose by exhaustive
evaluation, and expose exactly which coordinates the rule depends on, which
is what the minimal-memory-set computation needs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .errors import BudgetExceededError, GroupMismatchError
from .groups import Element, FiniteSubset, Group, Zd
from .patterns import (
    Alphabet,
    BINARY,
    FiniteConfig,
    Pattern,
    PeriodicConfig,
    index_to_values,
    values_to_index,
)

_TABULATION_CAP = 2**24  # table entries from_local_rule may tabulate


@dataclass(frozen=True)
class CellularAutomaton:
    group: Group
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    memory_set: FiniteSubset
    table: Tuple[int, ...]

    def __post_init__(self):
        a = len(self.input_alphabet)
        if len(self.table) != a ** len(self.memory_set):
            raise ValueError(
                f"table length {len(self.table)} != {a}^{len(self.memory_set)}"
            )
        if any(not (0 <= v < len(self.output_alphabet)) for v in self.table):
            raise ValueError("table entry out of output-alphabet range")
        S = self.group.canon(map(self.group.check, self.memory_set))
        object.__setattr__(self, "memory_set", S)

    @classmethod
    def from_local_rule(
        cls,
        group: Group,
        input_alphabet: Alphabet,
        output_alphabet: Alphabet,
        memory_set: Sequence[Element],
        rule: Callable[[Tuple[int, ...]], int],
    ) -> "CellularAutomaton":
        """Tabulate ``rule`` (window values in canonical memory-set order),
        at most ``_TABULATION_CAP`` entries."""
        S = group.canon(memory_set)
        a = len(input_alphabet)
        total = a ** len(S)
        if total > _TABULATION_CAP:
            raise BudgetExceededError("rule tabulation", total, _TABULATION_CAP)
        table = tuple(
            rule(index_to_values(a, len(S), k)) for k in range(total)
        )
        return cls(group, input_alphabet, output_alphabet, S, table)

    def local_rule(self, window: Sequence[int]) -> int:
        return self.table[values_to_index(len(self.input_alphabet), window)]


def identity_ca(group: Group, alphabet: Alphabet) -> CellularAutomaton:
    """The identity map, memory set {1_G}."""
    return CellularAutomaton(
        group, alphabet, alphabet, (group.identity,), tuple(range(len(alphabet)))
    )


# -- application -------------------------------------------------------------


def apply_to_pattern(ca: CellularAutomaton, p: Pattern) -> Pattern:
    """Image pattern on the interior {g : gS inside supp(p)}; may be empty."""
    group = ca.group
    mul = group._mul
    values = dict(zip(map(group.check, p.support), p.values))
    out = {}
    for g in values:
        window = []
        for s in ca.memory_set:
            v = values.get(mul(g, s))
            if v is None:
                break
            window.append(v)
        else:
            out[g] = ca.local_rule(window)
    return Pattern.from_dict(group, out)


def apply_to_finite_config(ca: CellularAutomaton, x: FiniteConfig) -> FiniteConfig:
    """Exact image; the deviation support is contained in supp(x) S^-1."""
    group = ca.group
    mul = group._mul
    inverses = [group.inverse(s) for s in ca.memory_set]
    values = dict(zip(map(group.check, x.support), x.deviation.values))
    bg = x.background
    out_bg = ca.local_rule([bg] * len(ca.memory_set))
    cells = {}
    for h in values:
        for s in inverses:
            g = mul(h, s)
            if g in cells:
                continue
            window = [values.get(mul(g, t), bg) for t in ca.memory_set]
            cells[g] = ca.local_rule(window)
    return FiniteConfig.make(group, out_bg, cells)


def apply_to_periodic(ca: CellularAutomaton, x: PeriodicConfig) -> PeriodicConfig:
    """Torus evaluation with coordinates mod L (Z^d only)."""
    if not isinstance(ca.group, Zd):
        raise GroupMismatchError("periodic configurations require Z^d")
    out = []
    for coords in itertools.product(*(range(L) for L in x.periods)):
        window = [
            x.value_at(tuple(c + s for c, s in zip(coords, shift)))
            for shift in ca.memory_set
        ]
        out.append(ca.local_rule(window))
    return PeriodicConfig(x.periods, tuple(out))


# -- structure ---------------------------------------------------------------


def compose(outer: CellularAutomaton, inner: CellularAutomaton) -> CellularAutomaton:
    """The composite outer . inner, with memory set S_outer * S_inner."""
    if outer.group != inner.group:
        raise GroupMismatchError("composition needs a common group")
    if outer.input_alphabet != inner.output_alphabet:
        raise ValueError("alphabet chain mismatch: inner output != outer input")
    group = inner.group
    S = group.set_product(outer.memory_set, inner.memory_set)
    pos = {g: i for i, g in enumerate(S)}
    # the window positions each outer cell's inner rule reads
    reads = [
        [pos[group._mul(s, t)] for t in inner.memory_set] for s in outer.memory_set
    ]

    def rule(window):
        mids = [inner.local_rule([window[i] for i in at]) for at in reads]
        return outer.local_rule(mids)

    return CellularAutomaton.from_local_rule(
        group, inner.input_alphabet, outer.output_alphabet, S, rule
    )


def _depends_on(ca: CellularAutomaton, position: int) -> bool:
    a = len(ca.input_alphabet)
    width = len(ca.memory_set)
    stride = a ** (width - 1 - position)
    for k in range(len(ca.table)):
        digit = (k // stride) % a
        if digit and ca.table[k] != ca.table[k - digit * stride]:
            return True
    return False


def minimal_memory_set(ca: CellularAutomaton) -> CellularAutomaton:
    """Drop every memory-set point the table provably does not depend on.

    The result is extensionally equal to the input and its memory set is the
    unique minimal one (intersection of any two memory sets is a memory set).
    A constant rule ends up with the empty memory set.
    """
    keep = [i for i in range(len(ca.memory_set)) if _depends_on(ca, i)]
    if len(keep) == len(ca.memory_set):
        return ca
    a = len(ca.input_alphabet)
    S = tuple(ca.memory_set[i] for i in keep)

    def rule(window):
        full = [0] * len(ca.memory_set)
        for j, i in enumerate(keep):
            full[i] = window[j]
        return ca.table[values_to_index(a, full)]

    return CellularAutomaton.from_local_rule(
        ca.group, ca.input_alphabet, ca.output_alphabet, S, rule
    )


# -- Wolfram numbering -------------------------------------------------------


def wolfram_rule(n: int) -> CellularAutomaton:
    """Elementary rule n on Z: memory set {-1,0,1}, table bit k of n at the
    k-th window counting 000, 001, ..., 111."""
    if not 0 <= n <= 255:
        raise ValueError("rule number must be in 0..255")
    group = Zd(1)
    S = ((-1,), (0,), (1,))
    table = tuple((n >> k) & 1 for k in range(8))
    return CellularAutomaton(group, BINARY, BINARY, S, table)


def wolfram_number(ca: CellularAutomaton) -> int:
    """Inverse of wolfram_rule on elementary automata (minimal S within {-1,0,1})."""
    if not isinstance(ca.group, Zd) or ca.group.d != 1:
        raise ValueError("Wolfram numbering is defined over Z")
    if len(ca.input_alphabet) != 2 or len(ca.output_alphabet) != 2:
        raise ValueError("Wolfram numbering needs binary alphabets")
    minimal = minimal_memory_set(ca)
    allowed = {(-1,), (0,), (1,)}
    if not set(minimal.memory_set) <= allowed:
        raise ValueError("not an elementary automaton: memory set exceeds {-1,0,1}")
    n = 0
    for k in range(8):
        bits = index_to_values(2, 3, k)  # values at -1, 0, 1
        window = [bits[g[0] + 1] for g in minimal.memory_set]
        n |= minimal.local_rule(window) << k
    return n


# -- self-tests --------------------------------------------------------------


def equivariance_spot_check(
    ca: CellularAutomaton,
    trials: int = 100,
    seed: int = 0,
    apply_config: Optional[Callable[[CellularAutomaton, FiniteConfig], FiniteConfig]] = None,
) -> Tuple[bool, Optional[dict]]:
    """Check tau(g x) = g tau(x) on random finite configurations.

    Every table-defined automaton is equivariant by construction, so a False
    here (with its witness) indicates a corrupted application routine; the
    ``apply_config`` hook exists so tests can inject one.
    """
    apply_config = apply_config or apply_to_finite_config
    group = ca.group
    rng = random.Random(seed)
    shifts = group.ball(3)
    domain = group.ball(2)
    a = len(ca.input_alphabet)
    for trial in range(trials):
        g = shifts[rng.randrange(len(shifts))]
        if isinstance(group, Zd) and trial % 2 == 1:
            periods = tuple(rng.randint(2, 5) for _ in range(group.d))
            size = 1
            for L in periods:
                size *= L
            x = PeriodicConfig(periods, tuple(rng.randrange(a) for _ in range(size)))
            left = apply_to_periodic(ca, x.translate(g))
            right = apply_to_periodic(ca, x).translate(g)
        else:
            cells = {h: rng.randrange(a) for h in domain if rng.random() < 0.5}
            x = FiniteConfig.make(group, rng.randrange(a), cells)
            left = apply_config(ca, x.translate(group, g))
            right = apply_config(ca, x).translate(group, g)
        if left != right:
            return False, {"trial": trial, "shift": g, "config": x}
    return True, None
