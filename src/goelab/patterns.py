"""Alphabets, patterns, finitely supported and periodic configurations.

A pattern is a finitely supported partial map from the group into an
alphabet, stored as a canonically ordered support plus one symbol index per
support point. All search loops run over mixed-radix pattern *indices*
(index 0 is the all-first-symbol pattern, most significant digit at the
first support point), so enumeration order is fixed once and for all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

from .errors import BudgetExceededError
from .groups import Element, FiniteSubset, Group

# Guard against accidentally starting astronomically large loops.
DEFAULT_ENUMERATION_CAP = 2**32


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct symbol names."""

    symbols: Tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must not be empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    @classmethod
    def of_size(cls, a: int) -> "Alphabet":
        """The alphabet {"0", "1", ..., str(a-1)}."""
        return cls(tuple(str(i) for i in range(a)))

    def __len__(self):
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None


BINARY = Alphabet(("0", "1"))


def render_word(alphabet: Alphabet, syms: Sequence[int]):
    """Symbol names of a word, joined when all names are one character."""
    names = [alphabet.symbols[s] for s in syms]
    if all(len(n) == 1 for n in alphabet.symbols):
        return "".join(names)
    return names


def parse_word(alphabet: Alphabet, value) -> Tuple[int, ...]:
    """Inverse of render_word; accepts joined strings or name lists."""
    if isinstance(value, (list, tuple)):
        return tuple(alphabet.index(s) if isinstance(s, str) else s for s in value)
    return tuple(alphabet.index(ch) for ch in value)


@dataclass(frozen=True, slots=True)
class Pattern:
    """A map support -> symbol indices, values aligned with the support order."""

    support: FiniteSubset
    values: Tuple[int, ...]

    def __post_init__(self):
        if len(self.support) != len(self.values):
            raise ValueError("support and values must have equal length")

    def __len__(self):
        return len(self.support)

    def as_dict(self) -> Dict[Element, int]:
        return dict(zip(self.support, self.values))

    def value_at(self, g: Element) -> int:
        return self.as_dict()[g]

    @classmethod
    def from_dict(cls, group: Group, mapping: Dict[Element, int]) -> "Pattern":
        support = group.canon(mapping)
        return cls(support, tuple(mapping[g] for g in support))


def _check_me_pair(alphabet: Alphabet, p1: Pattern, p2: Pattern) -> None:
    """The input checks both ME tests make before any work: a common support
    and values that are symbol indices of the automaton's input alphabet."""
    if p1.support != p2.support:
        raise ValueError("ME patterns need a common support")
    a = len(alphabet)
    for v in p1.values + p2.values:
        if not (isinstance(v, int) and 0 <= v < a):
            raise ValueError(f"ME pattern value {v!r} is not a symbol index in range({a})")


def translate_pattern(group: Group, g: Element, p: Pattern) -> Pattern:
    """The shifted pattern gp with support g*supp(p) and gp(gh) = p(h)."""
    g = group.check(g)
    moved = {group._mul(g, group.check(h)): v for h, v in zip(p.support, p.values)}
    return Pattern.from_dict(group, moved)


# -- words on Z ------------------------------------------------------------


def word_to_pattern(alphabet: Alphabet, word: str, offset: int = 0) -> Pattern:
    """A word over {m..m+len(word)-1} on the line (the word/pattern bridge)."""
    support = tuple((offset + i,) for i in range(len(word)))
    return Pattern(support, tuple(alphabet.index(ch) for ch in word))


def pattern_to_word(alphabet: Alphabet, p: Pattern) -> Tuple[str, int]:
    """Inverse bridge; requires an interval support on Z."""
    if not p.support:
        return "", 0
    cells = [g[0] for g in p.support]
    lo = cells[0]
    if cells != list(range(lo, lo + len(cells))):
        raise ValueError("pattern support is not an interval")
    return "".join(alphabet.symbols[v] for v in p.values), lo


# -- canonical enumeration ---------------------------------------------------


def pattern_count(alphabet: Alphabet, support: Sequence[Element]) -> int:
    return len(alphabet) ** len(support)


def index_to_values(a: int, width: int, k: int) -> Tuple[int, ...]:
    """Mixed-radix digits of k, most significant first."""
    digits = [0] * width
    for pos in range(width - 1, -1, -1):
        digits[pos] = k % a
        k //= a
    return tuple(digits)


def values_to_index(a: int, values: Sequence[int]) -> int:
    k = 0
    for v in values:
        k = k * a + v
    return k


def index_to_pattern(alphabet: Alphabet, support: FiniteSubset, k: int) -> Pattern:
    return Pattern(tuple(support), index_to_values(len(alphabet), len(support), k))


def pattern_index(alphabet: Alphabet, p: Pattern) -> int:
    return values_to_index(len(alphabet), p.values)


def enumerate_patterns(alphabet: Alphabet, support: FiniteSubset) -> Iterator[Pattern]:
    """All |A|^|support| patterns in index order; refuses to start past
    ``DEFAULT_ENUMERATION_CAP``."""
    total = pattern_count(alphabet, support)
    if total > DEFAULT_ENUMERATION_CAP:
        raise BudgetExceededError("pattern enumeration", total, DEFAULT_ENUMERATION_CAP)
    support = tuple(support)
    for vals in itertools.product(range(len(alphabet)), repeat=len(support)):
        yield Pattern(support, vals)


# -- configurations ----------------------------------------------------------


@dataclass(frozen=True)
class FiniteConfig:
    """A configuration almost equal to a constant: background plus deviations.

    Every deviation value differs from the background, so the representation
    is unique and equality of configurations is equality of fields.
    """

    background: int
    deviation: Pattern

    def __post_init__(self):
        if any(v == self.background for v in self.deviation.values):
            raise ValueError("deviation values must differ from the background")

    @classmethod
    def make(cls, group: Group, background: int, cells: Dict[Element, int]) -> "FiniteConfig":
        kept = {group.check(g): v for g, v in cells.items() if v != background}
        return cls(background, Pattern.from_dict(group, kept))

    @property
    def support(self) -> FiniteSubset:
        return self.deviation.support

    def value_at(self, g: Element) -> int:
        return self.deviation.as_dict().get(g, self.background)

    def translate(self, group: Group, g: Element) -> "FiniteConfig":
        return FiniteConfig(self.background, translate_pattern(group, g, self.deviation))


@dataclass(frozen=True)
class PeriodicConfig:
    """A Z^d configuration with period vector L, stored as a dense torus array.

    Cells are row-major over coordinates (0..L_1-1, ..., 0..L_d-1).
    """

    periods: Tuple[int, ...]
    cells: Tuple[int, ...]

    def __post_init__(self):
        size = 1
        for L in self.periods:
            if L < 1:
                raise ValueError("periods must be >= 1")
            size *= L
        if len(self.cells) != size:
            raise ValueError("cell array size must equal the product of the periods")

    def _flat(self, coords: Sequence[int]) -> int:
        idx = 0
        for c, L in zip(coords, self.periods):
            idx = idx * L + (c % L)
        return idx

    def value_at(self, g: Element) -> int:
        return self.cells[self._flat(g)]

    def translate(self, g: Element) -> "PeriodicConfig":
        """The shifted configuration gx with (gx)(h) = x(h - g)."""
        dims = [range(L) for L in self.periods]
        out = []
        for coords in itertools.product(*dims):
            shifted = tuple(c - gc for c, gc in zip(coords, g))
            out.append(self.value_at(shifted))
        return PeriodicConfig(self.periods, tuple(out))
