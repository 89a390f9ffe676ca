"""Linear cellular automata over prime-field vector alphabets, represented
as matrices over the group ring F_p[G].

The realization convention is fixed once and documented here:

    tau(x)(g) = sum over s in S of  M_s . x(g s)   (mod p),

where M_s is the d x d matrix of s-coefficients of the entries.  Under this
convention the adjoint (entrywise transpose + involution g -> g^-1)
satisfies the pairing identity  <tau(x), y> = <x, tau*(y)>  for finitely
supported x, y, which is what pins the dictionary; the pairing test below
exercises it exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .automaton import CellularAutomaton
from .decide1d import decide_preinjective, decide_surjective
from .errors import BudgetExceededError, GroupMismatchError
from .groups import Element, FiniteSubset, Group, Zd
from .patterns import Alphabet, index_to_values, values_to_index

Vector = Tuple[int, ...]

_LINEAR_TABULATION_CAP = 1 << 20  # table entries to_cellular_automaton may tabulate
_KERNEL_CAP = 1 << 22  # matrix entries of the linear system kernel_finite_support solves


@functools.lru_cache(maxsize=None)  # make() runs in the inner loops of the ring arithmetic
def _check_prime(p: int) -> int:
    """The field arithmetic below (inverses mod p) is sound only for prime p."""
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be a prime >= 2, not {p}")
    return p


@dataclass(frozen=True)
class GroupRingElement:
    """Finitely supported map G -> F_p, no stored zeros, canonical order."""

    group: Group
    p: int
    coeffs: Tuple[Tuple[Element, int], ...]

    @classmethod
    def make(cls, group: Group, p: int, coeffs: Dict[Element, int]) -> "GroupRingElement":
        _check_prime(p)
        cleaned = {}
        for g, c in coeffs.items():
            c %= p
            if c:
                cleaned[group.check(g)] = c
        support = group.canon(cleaned)
        return cls(group, p, tuple((g, cleaned[g]) for g in support))

    @classmethod
    def zero(cls, group: Group, p: int) -> "GroupRingElement":
        return cls.make(group, p, {})

    @classmethod
    def delta(cls, group: Group, p: int, g: Element) -> "GroupRingElement":
        return cls.make(group, p, {g: 1})

    def support(self) -> FiniteSubset:
        return tuple(g for g, _ in self.coeffs)

    def at(self, g: Element) -> int:
        return dict(self.coeffs).get(g, 0)

    def is_zero(self) -> bool:
        return not self.coeffs


def add(r: GroupRingElement, s: GroupRingElement) -> GroupRingElement:
    _match(r, s)
    out = dict(r.coeffs)
    for g, c in s.coeffs:
        out[g] = out.get(g, 0) + c
    return GroupRingElement.make(r.group, r.p, out)


def convolution(r: GroupRingElement, s: GroupRingElement) -> GroupRingElement:
    """(r s)(g) = sum over g1 g2 = g of r(g1) s(g2)."""
    _match(r, s)
    out: Dict[Element, int] = {}
    for g1, c1 in r.coeffs:
        for g2, c2 in s.coeffs:
            g = r.group.mul(g1, g2)
            out[g] = out.get(g, 0) + c1 * c2
    return GroupRingElement.make(r.group, r.p, out)


def involution(r: GroupRingElement) -> GroupRingElement:
    """r*(g) = r(g^-1)."""
    return GroupRingElement.make(
        r.group, r.p, {r.group.inverse(g): c for g, c in r.coeffs}
    )


def _match(r: GroupRingElement, s: GroupRingElement):
    if r.group != s.group or r.p != s.p:
        raise GroupMismatchError("group-ring operands disagree in group or prime")


@dataclass(frozen=True)
class MatrixCA:
    """A d x d matrix over F_p[G]; realizes a linear CA on (F_p^d)^G."""

    group: Group
    p: int
    d: int
    entries: Tuple[Tuple[GroupRingElement, ...], ...]

    def __post_init__(self):
        _check_prime(self.p)
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.entries) != self.d or any(len(row) != self.d for row in self.entries):
            raise ValueError("entries must form a d x d matrix")
        for row in self.entries:
            for e in row:
                if e.group != self.group or e.p != self.p:
                    raise GroupMismatchError("matrix entry over the wrong ring")

    @classmethod
    def make(cls, group: Group, p: int, rows: Sequence[Sequence[GroupRingElement]]) -> "MatrixCA":
        return cls(group, p, len(rows), tuple(tuple(row) for row in rows))

    def memory_set(self) -> FiniteSubset:
        support = {self.group.identity}
        for row in self.entries:
            for e in row:
                support.update(e.support())
        return self.group.canon(support)

    def coefficient_matrix(self, s: Element) -> List[List[int]]:
        """The d x d matrix of s-coefficients M_s."""
        return [[e.at(s) for e in row] for row in self.entries]


def matrix_multiply(M: MatrixCA, N: MatrixCA) -> MatrixCA:
    if M.group != N.group or M.p != N.p or M.d != N.d:
        raise GroupMismatchError("matrix product needs matching rings and sizes")
    rows = []
    for i in range(M.d):
        row = []
        for j in range(M.d):
            acc = GroupRingElement.zero(M.group, M.p)
            for k in range(M.d):
                acc = add(acc, convolution(M.entries[i][k], N.entries[k][j]))
            row.append(acc)
        rows.append(row)
    return MatrixCA.make(M.group, M.p, rows)


def adjoint(M: MatrixCA) -> MatrixCA:
    """Entrywise transpose plus involution; swaps pre-injectivity and
    surjectivity of the realized automata."""
    rows = [
        [involution(M.entries[j][i]) for j in range(M.d)] for i in range(M.d)
    ]
    return MatrixCA.make(M.group, M.p, rows)


# -- vector alphabet --------------------------------------------------------------


def vector_alphabet(p: int, d: int) -> Alphabet:
    """F_p^d as p^d symbols named by digit strings, first coordinate first."""
    symbols = tuple(
        "".join(str(c) for c in vec) for vec in itertools.product(range(p), repeat=d)
    )
    return Alphabet(symbols)


def to_cellular_automaton(M: MatrixCA) -> CellularAutomaton:
    """Tabulate the linear rule as an ordinary dense-table automaton, at
    most ``_LINEAR_TABULATION_CAP`` entries."""
    S = M.memory_set()
    p, d = M.p, M.d
    alphabet = vector_alphabet(p, d)
    a = len(alphabet)
    total = a ** len(S)
    if total > _LINEAR_TABULATION_CAP:
        raise BudgetExceededError("linear rule tabulation", total, _LINEAR_TABULATION_CAP)
    mats = [M.coefficient_matrix(s) for s in S]

    def rule(window):
        acc = [0] * d
        for mat, sym in zip(mats, window):
            vec = index_to_values(p, d, sym)
            for i in range(d):
                row = mat[i]
                acc[i] += sum(row[j] * vec[j] for j in range(d))
        return values_to_index(p, [c % p for c in acc])

    return CellularAutomaton.from_local_rule(M.group, alphabet, alphabet, S, rule)


# -- direct linear application (independent of the table path) ---------------------


def apply_linear(M: MatrixCA, x: Dict[Element, Vector]) -> Dict[Element, Vector]:
    """tau(x)(g) = sum_s M_s x(g s) on a finitely supported configuration."""
    group = M.group
    mul = group._mul
    S = M.memory_set()
    mats = [M.coefficient_matrix(s) for s in S]
    inverses = [group.inverse(s) for s in S]
    out: Dict[Element, Vector] = {}
    candidates = {mul(h, s) for h in map(group.check, x) for s in inverses}
    for g in sorted(candidates, key=group.sort_key):
        acc = [0] * M.d
        for s, mat in zip(S, mats):
            vec = x.get(mul(g, s))
            if vec is None:
                continue
            for i in range(M.d):
                acc[i] += sum(mat[i][j] * vec[j] for j in range(M.d))
        vec = tuple(c % M.p for c in acc)
        if any(vec):
            out[g] = vec
    return out


def pairing(p: int, x: Dict[Element, Vector], y: Dict[Element, Vector]) -> int:
    """<x, y> = sum_g x(g) . y(g) mod p (finite because x is)."""
    total = 0
    for g, vec in x.items():
        other = y.get(g)
        if other:
            total += sum(a * b for a, b in zip(vec, other))
    return total % p


# -- kernels over F_p ----------------------------------------------------------------


def _kernel_basis(rows: List[List[int]], p: int, ncols: int) -> List[List[int]]:
    """Kernel of the matrix with the given rows over F_p, by Gauss-Jordan."""
    rows = [list(r) for r in rows]
    pivots: Dict[int, List[int]] = {}
    for row in rows:
        for col, piv in pivots.items():
            factor = row[col] % p
            if factor:
                for j in range(ncols):
                    row[j] = (row[j] - factor * piv[j]) % p
        lead = next((j for j in range(ncols) if row[j] % p), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p) if p > 2 else row[lead]
        row = [(c * inv) % p for c in row]
        for col, piv in list(pivots.items()):
            factor = piv[lead] % p
            if factor:
                pivots[col] = [(a - factor * b) % p for a, b in zip(piv, row)]
        pivots[lead] = row
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for col, piv in pivots.items():
            vec[col] = (-piv[f]) % p
        basis.append(vec)
    return basis


def kernel_finite_support(M: MatrixCA, radius: int) -> List[Dict[Element, Vector]]:
    """Basis of configurations supported in the ball B_R with tau(x) = 0;
    refuses a system of more than ``_KERNEL_CAP`` matrix entries.

    Sound as a global statement: a configuration supported in B_R has zero
    image everywhere iff it vanishes on B_R S^-1, since windows not meeting
    B_R read only zeros.  An empty basis certifies that no diamond of the
    realized automaton has support inside B_R.
    """
    group = M.group
    S = M.memory_set()
    domain = group.ball(radius)
    out_region = group.set_product(domain, group.set_inverse(S))
    d, p = M.d, M.p
    ncols = len(domain) * d
    nrows = len(out_region) * d
    if ncols * nrows > _KERNEL_CAP:
        raise BudgetExceededError("kernel solve", ncols * nrows, _KERNEL_CAP)
    col_of = {g: k for k, g in enumerate(domain)}
    mats = [M.coefficient_matrix(s) for s in S]
    rows = []
    for g in out_region:
        blocks = []
        for s, mat in zip(S, mats):
            h = group._mul(g, s)
            if h in col_of:
                blocks.append((col_of[h], mat))
        for i in range(d):
            row = [0] * ncols
            for k, mat in blocks:
                for j in range(d):
                    row[k * d + j] = (row[k * d + j] + mat[i][j]) % p
            rows.append(row)
    basis = _kernel_basis(rows, p, ncols)
    configs = []
    for vec in basis:
        config: Dict[Element, Vector] = {}
        for g, k in col_of.items():
            v = tuple(vec[k * d + j] % p for j in range(d))
            if any(v):
                config[g] = v
        configs.append(config)
    return configs


# -- the duality report ----------------------------------------------------------------


@dataclass(frozen=True)
class DualityReport:
    pre_injective: bool
    surjective: bool
    adjoint_pre_injective: bool
    adjoint_surjective: bool

    @property
    def holds(self) -> bool:
        return (
            self.pre_injective == self.adjoint_surjective
            and self.surjective == self.adjoint_pre_injective
        )

    def to_json(self) -> dict:
        return {
            "pre_injective": self.pre_injective,
            "surjective": self.surjective,
            "adjoint_pre_injective": self.adjoint_pre_injective,
            "adjoint_surjective": self.adjoint_surjective,
            "duality_holds": self.holds,
        }


def duality_check(M: MatrixCA) -> DualityReport:
    """Decide all four properties over Z and assert the adjoint duality;
    a violation here is a fatal bug, not an expected outcome."""
    if not isinstance(M.group, Zd) or M.group.d != 1:
        raise GroupMismatchError("duality_check decides over Z only")
    tau = to_cellular_automaton(M)
    tau_star = to_cellular_automaton(adjoint(M))
    return DualityReport(
        decide_preinjective(tau).answer,
        decide_surjective(tau).answer,
        decide_preinjective(tau_star).answer,
        decide_surjective(tau_star).answer,
    )
