"""The two classical counterexamples over the free group F_2: a surjective
automaton that is not pre-injective (majority-threshold rule) and a
pre-injective one that is not surjective (projection rule over the Klein
four-group alphabet).

Free-group properties are not decided here; everything is a finite
certificate, exact for the radius it names, and every report says so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .automaton import CellularAutomaton, apply_to_finite_config, apply_to_pattern
from .groups import FreeGroup
from .linear_ca import GroupRingElement, MatrixCA, kernel_finite_support, to_cellular_automaton
from .patterns import BINARY, FiniteConfig, Pattern, index_to_values

F2 = FreeGroup(2)


def muller_moore_ca() -> CellularAutomaton:
    """Threshold rule on {0,1}^F2: output 1 iff at least three of the five
    cells {g, ga, ga^-1, gb, gb^-1} hold a 1."""
    S = F2.canon([F2.identity, (1,), (-1,), (2,), (-2,)])
    return CellularAutomaton.from_local_rule(
        F2, BINARY, BINARY, S, lambda window: 1 if sum(window) >= 3 else 0
    )


@dataclass(frozen=True)
class DiamondReport:
    radius: int
    images_equal_globally: bool
    equal_on_ball: bool
    structural_bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.images_equal_globally and self.equal_on_ball and self.structural_bound_ok

    def to_json(self) -> dict:
        return {
            "radius": self.radius,
            "images_equal_globally": self.images_equal_globally,
            "equal_on_ball": self.equal_on_ball,
            "structural_bound_ok": self.structural_bound_ok,
            "certificate": f"exact for supports within radius {self.radius}; "
            "window argument covers all farther cells",
        }


def verify_ex1_diamond(radius: int = 2) -> DiamondReport:
    """The all-zero configuration and the single 1 at the identity form a
    diamond for the threshold rule: both images are the zero configuration.

    Finite-configuration application is globally exact, and structurally the
    two inputs share every window at distance > 1 from the identity.
    """
    ca = muller_moore_ca()
    x1 = FiniteConfig.make(F2, 0, {})
    x2 = FiniteConfig.make(F2, 0, {F2.identity: 1})
    y1 = apply_to_finite_config(ca, x1)
    y2 = apply_to_finite_config(ca, x2)
    globally_equal = y1 == y2 and y1 == FiniteConfig.make(F2, 0, {})
    ball = F2.ball(radius)
    equal_on_ball = all(y1.value_at(g) == y2.value_at(g) for g in ball)
    # cells whose window sees the identity all lie within distance 1
    touched = F2.set_product((F2.identity,), F2.set_inverse(ca.memory_set))
    structural = all(len(g) <= 1 for g in touched)
    return DiamondReport(radius, globally_equal, equal_on_ball, structural)


def ex1_preimage(target: Pattern) -> Pattern:
    """Predecessor construction: given y on the ball B_n, the configuration
    x(1_G) = 0, x(h) = y(h with its last letter dropped) on B_{n+1} maps onto
    y on B_{n-1} (in fact on B_n)."""
    values = target.as_dict()
    n = max((len(g) for g in target.support), default=0)
    if set(target.support) != set(F2.ball(n)):
        raise ValueError("target must be supported on a ball")
    domain = F2.ball(n + 1)
    cells = {}
    for h in domain:
        cells[h] = 0 if h == F2.identity else values[h[:-1]]
    return Pattern.from_dict(F2, cells)


@dataclass(frozen=True)
class PreimageReport:
    target_radius: int
    verified_radius: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "target_radius": self.target_radius,
            "verified_radius": self.verified_radius,
            "ok": self.ok,
            "certificate": "re-application of the rule agrees with the target "
            f"on the ball of radius {self.verified_radius}",
        }


def verify_ex1_preimage(target: Pattern) -> PreimageReport:
    """Build the predecessor preimage and re-apply the rule to check it."""
    ca = muller_moore_ca()
    n = max((len(g) for g in target.support), default=0)
    x = ex1_preimage(target)
    image = apply_to_pattern(ca, x).as_dict()
    want = target.as_dict()
    check_on = F2.ball(n - 1) if n >= 1 else ()
    ok = all(image[g] == want[g] for g in check_on)
    return PreimageReport(n, max(n - 1, 0), ok)


def random_ball_pattern(radius: int, seed: int) -> Pattern:
    rng = random.Random(seed)
    return Pattern.from_dict(F2, {g: rng.randrange(2) for g in F2.ball(radius)})


def muller_myhill_ca() -> MatrixCA:
    """The projection rule over F_2 with alphabet (Z/2Z)^2:

        tau(x)(g) = p(x(ga)) + p(x(ga^-1)) + q(x(gb)) + q(x(gb^-1)),

    with p(alpha, beta) = (alpha, 0) and q(alpha, beta) = (beta, 0).  As a
    matrix: row 1 = (delta_a + delta_{a^-1},  delta_b + delta_{b^-1}),
    row 2 = 0; the image lies in (Z/2Z x {0})^G, so the rule is not
    surjective, while its finite-support kernel is trivial.
    """
    gre = GroupRingElement.make
    a_pair = gre(F2, 2, {(1,): 1, (-1,): 1})
    b_pair = gre(F2, 2, {(2,): 1, (-2,): 1})
    zero = GroupRingElement.zero(F2, 2)
    return MatrixCA.make(F2, 2, [[a_pair, b_pair], [zero, zero]])


@dataclass(frozen=True)
class Ex2Report:
    radius: int
    second_coordinate_zero: bool
    kernel_dimension: int

    @property
    def ok(self) -> bool:
        return self.second_coordinate_zero and self.kernel_dimension == 0

    def to_json(self) -> dict:
        return {
            "radius": self.radius,
            "second_coordinate_zero": self.second_coordinate_zero,
            "kernel_dimension": self.kernel_dimension,
            "certificate": "kernel triviality is exact for supports within "
            f"radius {self.radius}; it certifies pre-injectivity at that "
            "scale, not the full statement",
        }


def verify_ex2(radius: int = 2) -> Ex2Report:
    """Bundle the structural non-surjectivity check (second output coordinate
    identically zero) with the finite-support kernel certificate."""
    M = muller_myhill_ca()
    ca = to_cellular_automaton(M)
    second_zero = all(
        index_to_values(2, 2, out)[1] == 0 for out in ca.table
    )
    basis = kernel_finite_support(M, radius)
    return Ex2Report(radius, second_zero, len(basis))
