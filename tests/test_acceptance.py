"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Tolerances and time budgets are pinned here; everything else is exact
integer/rational arithmetic.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from goelab.automaton import CellularAutomaton, wolfram_rule
from goelab.decide1d import (
    count_preimages,
    decide_injective,
    decide_preinjective,
    decide_surjective,
    me_check_subshift,
    preimage_histogram,
)
from goelab.entropy import (
    image_entropy_check,
    pattern_count_entropy,
    perron_entropy,
)
from goelab.freegroup_lab import (
    random_ball_pattern,
    verify_ex1_diamond,
    verify_ex1_preimage,
    verify_ex2,
)
from goelab.goe_search import holds_at, image_pattern_set, me_check, n0_bound
from goelab.groups import FreeGroup, Zd
from goelab.linear_ca import (
    GroupRingElement,
    MatrixCA,
    adjoint,
    apply_linear,
    duality_check,
    pairing,
)
from goelab.patterns import Alphabet, BINARY, Pattern, word_to_pattern
from goelab.subshift import (
    even_shift,
    golden_mean,
    ledrappier,
    locally_admissible_count,
)
from goelab.suite import run_suite
from conftest import (
    make_fiorenzi_even_ca,
    make_fiorenzi_ternary_ca,
    make_fiorenzi_ternary_sft,
    make_golden_even_ca,
)

Z = Zd(1)
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


class Gate:
    def __init__(self, number, name, limit_seconds):
        self.number = number
        self.name = name
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.name}]: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_moore_myhill_sweep():
    with Gate(1, "Moore-Myhill sweep over all 256 elementary rules", 10):
        for n in range(256):
            ca = wolfram_rule(n)
            assert (
                decide_surjective(ca).answer == decide_preinjective(ca).answer
            ), f"Rule {n}"


def test_criterion_02_rule_102():
    with Gate(2, "Rule 102 trio and preimage counts", 1):
        ca = wolfram_rule(102)
        assert decide_surjective(ca).answer is True
        assert decide_preinjective(ca).answer is True
        assert decide_injective(ca).answer is False
        for length in range(1, 11):
            hist = preimage_histogram(ca, length)
            assert len(hist) == 2**length  # every word is reached
            assert set(hist.values()) == {2}  # with exactly two preimages


def test_criterion_03_rule_232():
    with Gate(3, "Rule 232 witnesses", 1):
        ca = wolfram_rule(232)
        verdict = decide_surjective(ca)
        assert verdict.answer is False
        assert len(verdict.witness["word"]) <= 5
        # 01001 independently verifies as Garden of Eden
        assert count_preimages(ca, "01001") == 0
        assert (0, 1, 0, 0, 1) not in image_pattern_set(
            ca, tuple((i,) for i in range(5))
        )
        assert decide_preinjective(ca).answer is False
        p1 = word_to_pattern(BINARY, "00000")
        p2 = word_to_pattern(BINARY, "00100")
        assert me_check(ca, p1, p2)


def test_criterion_04_golden_to_even():
    with Gate(4, "golden-to-even code", 1):
        ca = make_golden_even_ca()
        X, Y = golden_mean(), even_shift()
        assert decide_preinjective(ca, X).answer is True
        assert decide_surjective(ca, X, Y).answer is True
        assert decide_injective(ca, X).answer is False


def test_criterion_05_fiorenzi_examples():
    with Gate(5, "even-shift and ternary counterexamples", 2):
        sigma = make_fiorenzi_even_ca()
        X = even_shift()
        assert decide_surjective(sigma, X, X).answer is True
        assert decide_preinjective(sigma, X).answer is False
        support = tuple((i,) for i in range(13))
        p = Pattern(support, tuple(1 if i in (6, 9) else 0 for i in range(13)))
        q = Pattern(support, tuple(1 if i in (7, 8, 9) else 0 for i in range(13)))
        assert me_check_subshift(sigma, X, p, q)

        tau = make_fiorenzi_ternary_ca()
        T = make_fiorenzi_ternary_sft()
        assert decide_injective(tau, T).answer is True
        verdict = decide_surjective(tau, T, T)
        assert verdict.answer is False
        assert verdict.witness["word"] == "120"


def test_criterion_06_entropy_values():
    with Gate(6, "Perron values and Ledrappier series", 5):
        assert abs(perron_entropy(golden_mean()) - LOG_PHI) <= 1e-9
        assert abs(perron_entropy(even_shift()) - LOG_PHI) <= 1e-9
        series = pattern_count_entropy(ledrappier(), range(1, 11))
        for n, count, cells, nats in series.rows:
            assert count == 2 ** (2 * n + 1)
            assert abs(nats - (2 * n + 1) * math.log(2) / (n + 1) ** 2) < 1e-12
        # exhaustive verification of the counts for n <= 3
        led = ledrappier()
        for n in range(1, 4):
            window = Zd(2).box((n + 1, n + 1))
            brute = 0
            placements = []
            cells = {g: i for i, g in enumerate(window)}
            for pat in led.forbidden:
                for g in window:
                    spots = []
                    for h in pat.support:
                        t = (g[0] + h[0], g[1] + h[1])
                        if t not in cells:
                            break
                        spots.append(cells[t])
                    else:
                        placements.append((spots, pat.values))
            for assign in itertools.product((0, 1), repeat=len(window)):
                ok = not any(
                    all(assign[s] == v for s, v in zip(spots, values))
                    for spots, values in placements
                )
                brute += ok
            assert brute == 2 ** (2 * n + 1)
            assert locally_admissible_count(led, window) == brute


def test_criterion_07_image_entropy():
    with Gate(7, "image window counts and Rule 232 image entropy", 10):
        rng = random.Random(1234)
        for _ in range(50):
            width = rng.randint(1, 3)
            a = rng.choice((2, 3))
            alphabet = Alphabet.of_size(a)
            S = tuple((c,) for c in range(width))
            table = tuple(rng.randrange(a) for _ in range(a**width))
            ca = CellularAutomaton(Z, alphabet, alphabet, S, table)
            report = image_entropy_check(ca, ns=range(1, 11))
            assert report.violations == 0
        report = image_entropy_check(wolfram_rule(232))
        assert report.image_perron < math.log(2) - 0.01


def test_criterion_08_counting_bound():
    with Gate(8, "window counting bound", 5):
        assert n0_bound(2, 1, 1, 1) == 3
        assert n0_bound(2, 2, 1, 1) == 5
        rng = random.Random(4321)
        for _ in range(100):
            d = rng.choice((1, 2))
            k = 1 if d == 2 else rng.randint(1, 3)
            a = rng.randint(2, 4)
            r = rng.randint(1, 3)
            n0 = n0_bound(a, k, d, r)
            assert holds_at(a, k, d, r, n0)
            assert not holds_at(a, k, d, r, n0 - 1)


def test_criterion_09_group_geometry():
    with Gate(9, "free-group spheres and Folner defects", 5):
        F2 = FreeGroup(2)
        for n in range(1, 9):
            assert F2.sphere_size(n) == 4 * 3 ** (n - 1)
        for n in range(1, 7):
            assert F2.folner_defect(F2.ball(n), (1,)) >= Fraction(1, 4)
        Z2 = Zd(2)
        for n in range(1, 11):
            got = Z2.folner_defect(Z2.folner_set(n), (1, 0))
            assert got == Fraction(1, 2 * n + 1)


def test_criterion_10_free_group_examples():
    with Gate(10, "free-group counterexample certificates", 10):
        for radius in range(2, 6):
            assert verify_ex1_diamond(radius).ok
        for n in (1, 2, 3, 4):
            for trial in range(100):
                target = random_ball_pattern(n, seed=10_000 * n + trial)
                assert verify_ex1_preimage(target).ok
        for radius in (1, 2, 3):
            report = verify_ex2(radius)
            assert report.second_coordinate_zero
            assert report.kernel_dimension == 0


def test_criterion_11_linear_duality():
    with Gate(11, "adjoint duality and pairing identity", 10):
        one_plus_u = GroupRingElement.make(Z, 2, {(0,): 1, (1,): 1})
        M = MatrixCA.make(Z, 2, [[one_plus_u]])
        report = duality_check(M)
        assert report.holds and report.pre_injective and report.surjective

        rng = random.Random(99)
        cases = [(2, 1)] * 3 + [(3, 1)] * 3 + [(2, 2)] * 3 + [(3, 2)]
        for p, d in cases:
            rows = [
                [
                    GroupRingElement.make(
                        Z, p, {(c,): rng.randrange(p) for c in (-1, 0, 1)}
                    )
                    for _ in range(d)
                ]
                for _ in range(d)
            ]
            matrix = MatrixCA.make(Z, p, rows)
            assert duality_check(matrix).holds

        N = adjoint(M)
        for trial in range(100):
            x = {
                (rng.randint(-5, 5),): (rng.randrange(2),)
                for _ in range(rng.randint(1, 4))
            }
            y = {
                (rng.randint(-5, 5),): (rng.randrange(2),)
                for _ in range(rng.randint(1, 4))
            }
            x = {g: v for g, v in x.items() if any(v)}
            y = {g: v for g, v in y.items() if any(v)}
            assert pairing(2, apply_linear(M, x), y) == pairing(
                2, x, apply_linear(N, y)
            )


def test_criterion_12_deterministic_reports():
    with Gate(12, "byte-identical suite reports", 120):
        first = json.dumps(run_suite(), indent=2, sort_keys=True)
        second = json.dumps(run_suite(), indent=2, sort_keys=True)
        assert first == second
