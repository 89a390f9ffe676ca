import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from goelab.automaton import (
    CellularAutomaton,
    apply_to_finite_config,
    apply_to_pattern,
    wolfram_rule,
)
from goelab.errors import GroupMismatchError, UnsupportedGroupError
from goelab.goe_search import image_pattern_set
from goelab.groups import FreeGroup, Zd
from goelab.patterns import BINARY, FiniteConfig, Pattern, translate_pattern
from goelab.subshift import SFTPresentation, hard_ball, locally_admissible_count


F2 = FreeGroup(2)
LETTERS = (1, -1, 2, -2)


def reduce_brute(letters):
    out = []
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


words = st.lists(st.sampled_from(LETTERS), max_size=8).map(reduce_brute)
vectors = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


def test_zd_mul_inverse():
    Z2 = Zd(2)
    assert Z2.mul((1, 2), (3, -1)) == (4, 1)
    assert Z2.inverse((4, 1)) == (-4, -1)


def test_free_mul_cancellation():
    assert F2.mul((1, 2), (-2, 1)) == (1, 1)  # (a b)(b^-1 a) = a a
    assert F2.inverse((1, 2, -1)) == (1, -2, -1)  # (a b a^-1)^-1 = a b^-1 a^-1


def test_mixed_operands_rejected():
    with pytest.raises(GroupMismatchError):
        Zd(2).mul((1, 2, 3), (0, 0))
    with pytest.raises(GroupMismatchError):
        F2.mul((1, -1), (2,))  # unreduced word is not a group element
    with pytest.raises(GroupMismatchError):
        F2.mul((3,), (1,))  # letter outside the rank


@given(words, words, words)
def test_free_group_laws(g, h, k):
    assert F2.mul(F2.mul(g, h), k) == F2.mul(g, F2.mul(h, k))
    assert F2.mul(g, F2.identity) == g
    assert F2.mul(g, F2.inverse(g)) == F2.identity
    assert F2.inverse(F2.mul(g, h)) == F2.mul(F2.inverse(h), F2.inverse(g))


@given(vectors, vectors)
def test_zd_group_laws(g, h):
    Z2 = Zd(2)
    assert Z2.mul(g, h) == Z2.mul(h, g)
    assert Z2.mul(g, Z2.inverse(g)) == Z2.identity


def test_set_product_interval():
    Z = Zd(1)
    assert Z.set_product([(0,), (1,)], [(0,), (1,)]) == ((0,), (1,), (2,))
    assert Z.set_inverse([(-1,), (0,), (1,)]) == ((-1,), (0,), (1,))


def test_set_product_free():
    got = F2.set_product([F2.identity, (1,)], [(2,)])
    assert got == F2.canon([(2,), (1, 2)])


def test_translate_preserves_size():
    A = F2.ball(2)
    for g in [(1,), (2, 1), (-1, 2)]:
        assert len(F2.translate(g, A)) == len(A)


def test_set_inverse_involution():
    A = F2.ball(2)[:7]
    assert F2.set_inverse(F2.set_inverse(A)) == F2.canon(A)


@pytest.mark.parametrize("d,n,size", [(1, 2, 5), (2, 1, 9), (3, 0, 1)])
def test_folner_cube_sizes(d, n, size):
    assert len(Zd(d).folner_set(n)) == size == (2 * n + 1) ** d


def test_folner_set_rejected_for_free():
    with pytest.raises(UnsupportedGroupError):
        F2.folner_set(3)


def test_zd_ball_is_one_norm():
    ball = Zd(1).ball(3)
    assert ball == tuple((i,) for i in range(-3, 4))
    ball2 = Zd(2).ball(2)
    assert all(abs(x) + abs(y) <= 2 for x, y in ball2)
    assert len(ball2) == 13


def test_zd_ball_is_the_filtered_cube_in_order():
    for d in range(1, 5):
        for n in range(4):
            cube = itertools.product(range(-n, n + 1), repeat=d)
            assert Zd(d).ball(n) == tuple(g for g in cube if sum(map(abs, g)) <= n)
    # the cube at d = 8 has 5,764,801 points; the ball is enumerated directly
    assert len(Zd(8).ball(3)) == 833


def test_sphere_sizes_are_ball_differences():
    for group in (Zd(1), Zd(2), Zd(3), F2, FreeGroup(3)):
        sizes = [len(group.ball(n)) for n in range(5)]
        assert [group.sphere_size(n) for n in range(5)] == [1] + [
            b - a for a, b in zip(sizes, sizes[1:])
        ]
        with pytest.raises(ValueError):
            group.sphere_size(-1)
    assert [Zd(2).sphere_size(n) for n in range(1, 5)] == [4, 8, 12, 16]


def brute_sphere_words(n):
    return [
        w
        for w in itertools.product(LETTERS, repeat=n)
        if all(w[i] != -w[i + 1] for i in range(n - 1))
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_free_sphere_sizes(n):
    # exhaustive reduced-word enumeration vs the closed form 4 * 3^(n-1)
    assert F2.sphere_size(n) == 4 * 3 ** (n - 1)
    if n <= 6:
        assert F2.sphere_size(n) == len(brute_sphere_words(n))


def test_free_ball_two_has_17_elements():
    assert len(F2.ball(2)) == 1 + 4 + 12 == 17


def test_ball_shortlex_order():
    ball = F2.ball(2)
    lengths = [len(g) for g in ball]
    assert lengths == sorted(lengths)
    assert ball[0] == F2.identity
    assert ball[1:5] == ((1,), (-1,), (2,), (-2,))


def test_sort_key_gives_the_letter_pair_shortlex_order():
    # the key with one (|letter|, inverse?) pair per letter, replaced by one int
    def pair_key(g):
        return (len(g), tuple((abs(c), 0 if c > 0 else 1) for c in g))

    F3 = FreeGroup(3)
    ball = F3.ball(4)
    shuffled = random.Random(4).sample(ball, len(ball))
    assert sorted(shuffled, key=F3.sort_key) == sorted(shuffled, key=pair_key) == list(ball)


Z2 = Zd(2)
SQUARE = CellularAutomaton(Z2, BINARY, BINARY, Z2.box((2, 2)), (0,) * 16)
Z_RULE = wolfram_rule(110)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Z2.mul((0, 0), (1,)),
        lambda: F2.mul((1,), (2, -2)),
        lambda: F2.inverse((1, -1)),
        lambda: Z2.translate((1, 0), [(0, 0), (0, 0, 0)]),
        lambda: Z2.translate((1,), [(0, 0)]),
        lambda: Z2.set_product([(0, 0)], [(1, 1), [0, 1]]),
        lambda: F2.set_product([(1, 1)], [(3,)]),
        lambda: Z2.folner_defect([(0, 0), (1,)], (1, 0)),
        lambda: Z2.folner_defect([(0, 0)], (1, 0, 0)),
        lambda: translate_pattern(Z2, (1, 0), Pattern(((0, 0), (1,)), (1, 0))),
        lambda: translate_pattern(Z2, (1,), Pattern(((0, 0),), (1,))),
        lambda: apply_to_pattern(SQUARE, Pattern(((0, 0), (0, 1, 0)), (1, 0))),
        lambda: apply_to_finite_config(Z_RULE, FiniteConfig(0, Pattern(((0,), (1, 1)), (1, 1)))),
        lambda: locally_admissible_count(hard_ball(2), ((0, 0), (0, 1, 0))),
        lambda: locally_admissible_count(SFTPresentation(Z2, BINARY, ()), ((0, 0), (1,))),
        lambda: image_pattern_set(SQUARE, ((0, 0), (1,))),
    ],
    ids=[
        "zd-mul", "free-mul", "free-inverse", "translate-set", "translate-by",
        "zd-set-product", "free-set-product", "defect-set", "defect-by",
        "translate-pattern-support", "translate-pattern-by", "apply-to-pattern",
        "apply-to-finite-config", "window-count", "window-count-no-forbidden",
        "image-pattern-set",
    ],
)
def test_a_malformed_element_is_refused_at_each_public_entry_point(call):
    with pytest.raises(GroupMismatchError):
        call()


def test_interval_defect_is_one_over_n():
    Z = Zd(1)
    for n in (1, 2, 5, 10):
        F = tuple((i,) for i in range(n))
        assert Z.folner_defect(F, (1,)) == Fraction(1, n)


def test_cube_defect_exact():
    Z2 = Zd(2)
    for n in (1, 2, 5):
        got = Z2.folner_defect(Z2.folner_set(n), (1, 0))
        assert got == Fraction(2 * n + 1, (2 * n + 1) ** 2) == Fraction(1, 2 * n + 1)


def test_free_ball_defect_stays_large():
    # the nonvanishing defect is the finite-scale face of nonamenability
    for n in range(1, 7):
        assert F2.folner_defect(F2.ball(n), (1,)) >= Fraction(1, 4)


def test_defect_of_empty_set_rejected():
    with pytest.raises(ValueError):
        Zd(1).folner_defect((), (1,))


def test_zd_defect_monotone_to_zero():
    Z = Zd(1)
    defects = [Z.folner_defect(Z.folner_set(n), (1,)) for n in range(1, 51)]
    assert all(b <= a for a, b in zip(defects, defects[1:]))
    assert defects[-1] == Fraction(1, 101)


def test_growth_estimates():
    rows = F2.growth_rate_estimate(11)
    assert [r[1] for r in rows[:3]] == [5, 17, 53]
    assert abs(rows[-1][2] - 3.0) < 0.2  # gamma = 3; estimates decrease to it
    zd_rows = Zd(2).growth_rate_estimate(20)
    assert zd_rows[-1][2] <= 1.5
    assert zd_rows[-1][2] < zd_rows[4][2]
    assert Zd(1).growth_rate_estimate(1)[0][1] == 3


def test_free_ball_sizes_match_enumeration():
    # the sphere recurrence against actual word enumeration
    sizes = F2.ball_sizes(6)
    assert sizes == [len(F2.ball(n)) for n in range(7)]
