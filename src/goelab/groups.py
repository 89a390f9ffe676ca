"""The acting groups: Z^d and free groups F_k, with their finite-subset algebra.

Group elements are plain tuples of ints:

* ``Zd(d)``: a coordinate vector of length ``d``, e.g. ``(1, -2)``.
* ``FreeGroup(k)``: a reduced word of nonzero signed letters, generator ``i``
  is ``i`` and its inverse is ``-i``, e.g. ``(1, -2, 1)`` for ``a b' a``.
  Words are kept reduced at all times (no adjacent ``x, -x``).

Finite subsets are duplicate-free tuples sorted under the group's canonical
total order (lexicographic on vectors, shortlex on words), which makes every
enumeration downstream deterministic.

Elements are validated at the boundary: in constructors (a memory set, a
forbidden pattern, a group-ring element), in the JSON readers, and in the
public group methods (``mul``, ``inverse``, ``translate``,
``folner_defect``), each of which checks every argument once.
``set_product`` checks its arguments and takes each product with the
checked ``mul``.  ``_mul`` is the bare arithmetic, for elements already
checked; the kernels check their inputs once at entry and call it in their
inner loops.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .errors import GroupMismatchError, UnsupportedGroupError

Element = Tuple[int, ...]
FiniteSubset = Tuple[Element, ...]

DEFAULT_GENERATOR_NAMES = "abcdefghijklmnopqrstuvwxyz"


class Group:
    """Common interface of ``Zd`` and ``FreeGroup``."""

    identity: Element

    def contains(self, g) -> bool:
        raise NotImplementedError

    def check(self, g) -> Element:
        if not self.contains(g):
            raise GroupMismatchError(f"{g!r} is not an element of {self}")
        return tuple(g)

    def mul(self, g: Element, h: Element) -> Element:
        raise NotImplementedError

    def _mul(self, g: Element, h: Element) -> Element:
        """The product of two elements already checked."""
        raise NotImplementedError

    def inverse(self, g: Element) -> Element:
        raise NotImplementedError

    def sort_key(self, g: Element):
        raise NotImplementedError

    def ball(self, n: int) -> FiniteSubset:
        """Word-metric ball of radius n around the identity, canonically ordered."""
        raise NotImplementedError

    # -- finite-subset algebra -------------------------------------------

    def canon(self, elems: Iterable[Element]) -> FiniteSubset:
        """Canonically ordered duplicate-free tuple."""
        return tuple(sorted(set(elems), key=self.sort_key))

    def set_product(self, A: Iterable[Element], B: Iterable[Element]) -> FiniteSubset:
        A = [self.check(a) for a in A]
        B = [self.check(b) for b in B]
        return self.canon(self.mul(a, b) for a in A for b in B)

    def set_inverse(self, A: Iterable[Element]) -> FiniteSubset:
        return self.canon(self.inverse(a) for a in A)

    def translate(self, g: Element, A: Iterable[Element]) -> FiniteSubset:
        g = self.check(g)
        return self.canon(self._mul(g, self.check(a)) for a in A)

    def _length(self, g: Element) -> int:
        """Word length of an element already checked."""
        raise NotImplementedError

    def sphere_size(self, n: int) -> int:
        """Number of elements at distance exactly n, counted in B_n."""
        return list(map(self._length, self.ball(n))).count(n)

    def folner_defect(self, F: Sequence[Element], g: Element) -> Fraction:
        """Exact isoperimetric ratio |F \\ Fg| / |F|."""
        if not F:
            raise ValueError("defect of the empty set is undefined")
        g = self.check(g)
        Fset = {self.check(f) for f in F}
        Fg = {self._mul(f, g) for f in Fset}
        return Fraction(len(Fset - Fg), len(Fset))

    def ball_sizes(self, n_max: int) -> list:
        """|B_0|, |B_1|, ..., |B_n_max|."""
        return [len(self.ball(n)) for n in range(n_max + 1)]

    def growth_rate_estimate(self, n_max: int):
        """Rows (n, |B_n|, |B_n|**(1/n)) for n = 1..n_max."""
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        sizes = self.ball_sizes(n_max)
        return [(n, sizes[n], sizes[n] ** (1.0 / n)) for n in range(1, n_max + 1)]


class Zd(Group):
    """The free abelian group Z^d in additive notation."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.identity = (0,) * d

    def __repr__(self):
        return f"Zd({self.d})"

    def __eq__(self, other):
        return isinstance(other, Zd) and other.d == self.d

    def __hash__(self):
        return hash(("Zd", self.d))

    def contains(self, g) -> bool:
        return (
            isinstance(g, tuple)
            and len(g) == self.d
            and all(isinstance(c, int) for c in g)
        )

    def mul(self, g, h):
        return self._mul(self.check(g), self.check(h))

    def _mul(self, g, h):
        return tuple(map(operator.add, g, h))

    def inverse(self, g):
        self.check(g)
        return tuple(-a for a in g)

    def _length(self, g):
        return sum(map(abs, g))

    def sort_key(self, g):
        return g

    def folner_set(self, n: int) -> FiniteSubset:
        """The cube {-n..n}^d, the standard Folner sequence for Z^d."""
        if n < 0:
            raise ValueError("radius must be >= 0")
        return tuple(itertools.product(range(-n, n + 1), repeat=self.d))

    def ball(self, n: int) -> FiniteSubset:
        if n < 0:
            raise ValueError("radius must be >= 0")
        # extend prefixes by one coordinate at a time with the radius left;
        # each prefix list stays in lexicographic order
        points = [((), n)]
        for _ in range(self.d):
            points = [(g + (c,), r - abs(c)) for g, r in points for c in range(-r, r + 1)]
        return tuple(g for g, _ in points)

    def box(self, dims: Sequence[int]) -> FiniteSubset:
        """The origin-anchored box {0..dims[i]-1} in each axis."""
        if len(dims) != self.d or any(m < 1 for m in dims):
            raise ValueError(f"need {self.d} positive side lengths")
        return tuple(itertools.product(*(range(m) for m in dims)))


class FreeGroup(Group):
    """The free group of rank k >= 2 on named generators, elements as reduced words."""

    def __init__(self, rank: int, names: Sequence[str] | None = None):
        if rank < 2:
            raise ValueError("rank must be >= 2")
        if names is None:
            names = tuple(DEFAULT_GENERATOR_NAMES[:rank])
        names = tuple(names)
        if len(names) != rank or len(set(names)) != rank:
            raise ValueError("need rank distinct generator names")
        if any(len(s) != 1 or not s.islower() for s in names):
            raise ValueError("generator names must be single lowercase letters")
        self.rank = rank
        self.names = names
        self.identity = ()

    def __repr__(self):
        return f"FreeGroup({self.rank})"

    def __eq__(self, other):
        return (
            isinstance(other, FreeGroup)
            and other.rank == self.rank
            and other.names == self.names
        )

    def __hash__(self):
        return hash(("Free", self.rank, self.names))

    def contains(self, g) -> bool:
        if not isinstance(g, tuple):
            return False
        for i, letter in enumerate(g):
            if not isinstance(letter, int) or letter == 0 or abs(letter) > self.rank:
                return False
            if i > 0 and g[i - 1] == -letter:
                return False  # not reduced
        return True

    def mul(self, g, h):
        return self._mul(self.check(g), self.check(h))

    def _mul(self, g, h):
        out = list(g)
        for letter in h:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def inverse(self, g):
        self.check(g)
        return tuple(-letter for letter in reversed(g))

    _length = staticmethod(len)  # a reduced word's length is its word length

    def sort_key(self, g):
        # shortlex with the letters ordered a, a', b, b', ...
        return (len(g), tuple([2 * abs(x) + (x < 0) for x in g]))

    def ball(self, n: int) -> FiniteSubset:
        """Shortlex-ordered reduced words of length <= n."""
        if n < 0:
            raise ValueError("radius must be >= 0")
        letters = [x for i in range(1, self.rank + 1) for x in (i, -i)]
        words = [()]
        frontier = [()]
        for _ in range(n):
            nxt = []
            for w in frontier:
                for letter in letters:
                    if w and w[-1] == -letter:
                        continue
                    nxt.append(w + (letter,))
            words.extend(nxt)
            frontier = nxt
        return tuple(words)

    def ball_sizes(self, n_max: int) -> list:
        """Sphere-by-sphere counting without materializing the big balls."""
        sizes = [1]
        sphere = 0
        for n in range(1, n_max + 1):
            sphere = 2 * self.rank if n == 1 else sphere * (2 * self.rank - 1)
            sizes.append(sizes[-1] + sphere)
        return sizes

    def word_to_str(self, g) -> str:
        """Caps-as-inverse rendering: (1, -2) -> "aB"."""
        self.check(g)
        out = []
        for letter in g:
            name = self.names[abs(letter) - 1]
            out.append(name if letter > 0 else name.upper())
        return "".join(out)

    def word_from_str(self, s: str) -> Element:
        word = []
        for ch in s:
            name = ch.lower()
            if name not in self.names:
                raise GroupMismatchError(f"unknown generator letter {ch!r}")
            idx = self.names.index(name) + 1
            word.append(idx if ch.islower() else -idx)
        g = tuple(word)
        if not self.contains(g):
            raise GroupMismatchError(f"word {s!r} is not reduced")
        return g

    def folner_set(self, n: int):
        raise UnsupportedGroupError("free groups have no Folner sequence of balls")
