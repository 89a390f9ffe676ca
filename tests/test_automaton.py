import itertools
import random

import pytest

from goelab.automaton import (
    CellularAutomaton,
    apply_to_finite_config,
    apply_to_pattern,
    apply_to_periodic,
    compose,
    equivariance_spot_check,
    identity_ca,
    minimal_memory_set,
    wolfram_number,
    wolfram_rule,
)
from goelab.errors import GroupMismatchError
from goelab.groups import FreeGroup, Zd
from goelab.patterns import (
    BINARY,
    FiniteConfig,
    Pattern,
    PeriodicConfig,
    word_to_pattern,
    pattern_to_word,
)

Z = Zd(1)


def random_elementary(rng):
    return wolfram_rule(rng.randrange(256))


def test_table_validation():
    with pytest.raises(ValueError):
        CellularAutomaton(Z, BINARY, BINARY, ((0,),), (0, 1, 1))
    with pytest.raises(ValueError):
        CellularAutomaton(Z, BINARY, BINARY, ((0,),), (0, 2))


def test_memory_set_from_another_group_is_refused():
    # once accepted: apply_to_periodic then zipped the 2D torus coordinates
    # with 1D shifts and returned cells (1, 1, 1, 1) with no error
    with pytest.raises(GroupMismatchError):
        CellularAutomaton(Zd(2), BINARY, BINARY, ((0,), (1,)), (0, 1, 1, 0))
    with pytest.raises(GroupMismatchError):
        CellularAutomaton(FreeGroup(2), BINARY, BINARY, ((1, -1),), (0, 1))


def test_rule_102_table_is_mod2_sum():
    ca = wolfram_rule(102)
    # the published table: 000,001,010,011,100,101,110,111
    assert [ca.local_rule(w) for w in itertools.product((0, 1), repeat=3)] == [
        0, 1, 1, 0, 0, 1, 1, 0,
    ]


def test_rule_232_is_majority():
    ca = wolfram_rule(232)
    for w in itertools.product((0, 1), repeat=3):
        assert ca.local_rule(w) == (1 if sum(w) >= 2 else 0)


def test_apply_rule_102_word():
    ca = minimal_memory_set(wolfram_rule(102))  # memory {0, 1}
    out = apply_to_pattern(ca, word_to_pattern(BINARY, "0011"))
    assert pattern_to_word(BINARY, out) == ("010", 0)


def test_apply_identity_fixes_patterns():
    ca = identity_ca(Z, BINARY)
    p = word_to_pattern(BINARY, "0110")
    assert apply_to_pattern(ca, p) == p


def test_apply_rule_232_word():
    ca = wolfram_rule(232)
    out = apply_to_pattern(ca, word_to_pattern(BINARY, "00100"))
    assert pattern_to_word(BINARY, out) == ("000", 1)


def test_interior_may_be_empty():
    ca = wolfram_rule(232)
    out = apply_to_pattern(ca, word_to_pattern(BINARY, "01"))
    assert out.support == ()


def test_finite_config_rule_102():
    ca = minimal_memory_set(wolfram_rule(102))
    x = FiniteConfig.make(Z, 0, {(0,): 1})
    y = apply_to_finite_config(ca, x)
    assert y.background == 0
    assert y.deviation.as_dict() == {(-1,): 1, (0,): 1}


def test_finite_config_majority_erases_single_one():
    ca = wolfram_rule(232)
    x = FiniteConfig.make(Z, 0, {(0,): 1})
    assert apply_to_finite_config(ca, x) == FiniteConfig.make(Z, 0, {})


def test_periodic_rule_102():
    ca = minimal_memory_set(wolfram_rule(102))
    x = PeriodicConfig((2,), (0, 1))
    assert apply_to_periodic(ca, x).cells == (1, 1)


def test_support_bound_on_random_configs():
    # supp(tau(x)) sits inside supp(x) S^-1
    rng = random.Random(0)
    for _ in range(200):
        ca = random_elementary(rng)
        cells = {(rng.randint(-6, 6),): 1 for _ in range(rng.randint(0, 4))}
        x = FiniteConfig.make(Z, 0, cells)
        y = apply_to_finite_config(ca, x)
        allowed = set(
            Z.set_product(x.support, Z.set_inverse(ca.memory_set))
        )
        assert set(y.support) <= allowed


def test_compose_rule_102_square():
    ca = wolfram_rule(102)
    square = minimal_memory_set(compose(ca, ca))
    assert square.memory_set == ((0,), (2,))
    for x, z in itertools.product((0, 1), repeat=2):
        assert square.local_rule((x, z)) == (x + z) % 2


def test_compose_matches_sequential_application():
    rng = random.Random(1)
    for _ in range(10):
        outer, inner = random_elementary(rng), random_elementary(rng)
        combo = compose(outer, inner)
        for k in range(2**7):
            word = tuple((k >> i) & 1 for i in range(7))
            p = Pattern(tuple((i,) for i in range(7)), word)
            two_steps = apply_to_pattern(outer, apply_to_pattern(inner, p))
            one_step = apply_to_pattern(combo, p)
            assert one_step == two_steps


def test_compose_identity_is_identity():
    ca = wolfram_rule(110)
    combo = minimal_memory_set(compose(identity_ca(Z, BINARY), ca))
    assert combo.table == minimal_memory_set(ca).table


def test_compose_alphabet_mismatch():
    from goelab.patterns import Alphabet

    inner = CellularAutomaton(Z, BINARY, Alphabet.of_size(3), ((0,),), (0, 2))
    with pytest.raises(ValueError):
        compose(wolfram_rule(102), inner)


def test_minimal_memory_set_examples():
    # a rule reading only the center: Rule 204 is the identity
    assert minimal_memory_set(wolfram_rule(204)).memory_set == ((0,),)
    r102 = minimal_memory_set(wolfram_rule(102))
    assert r102.memory_set == ((0,), (1,))
    assert minimal_memory_set(r102) is r102  # already minimal: unchanged
    # constant rules depend on nothing
    assert minimal_memory_set(wolfram_rule(0)).memory_set == ()


def test_minimal_memory_extensionally_equal():
    # on the interior visible to the original memory set, outputs agree;
    # the reduced rule may legitimately compute more cells
    rng = random.Random(2)
    for _ in range(20):
        ca = random_elementary(rng)
        small = minimal_memory_set(ca)
        for k in range(2**5):
            word = tuple((k >> i) & 1 for i in range(5))
            p = Pattern(tuple((i,) for i in range(5)), word)
            full = apply_to_pattern(ca, p).as_dict()
            reduced = apply_to_pattern(small, p).as_dict()
            assert all(reduced[g] == v for g, v in full.items())


def test_restriction_compatibility():
    # restricting the input then applying equals applying then restricting
    ca = wolfram_rule(110)
    p = word_to_pattern(BINARY, "0110100")
    sub = word_to_pattern(BINARY, "11010", 1)
    inner = apply_to_pattern(ca, sub)
    outer = apply_to_pattern(ca, p)
    outer_restricted = {g: v for g, v in outer.as_dict().items() if g in set(inner.support)}
    assert outer_restricted == inner.as_dict()


def test_wolfram_table_matches_published_examples():
    assert wolfram_number(wolfram_rule(102)) == 102
    assert wolfram_number(wolfram_rule(232)) == 232


def test_wolfram_round_trip_all_rules():
    for n in range(256):
        assert wolfram_number(wolfram_rule(n)) == n


def test_wolfram_number_rejects_wide_rules():
    wide = CellularAutomaton.from_local_rule(
        Z, BINARY, BINARY, tuple((c,) for c in range(-2, 3)),
        lambda w: (w[0] + w[4]) % 2,
    )
    with pytest.raises(ValueError):
        wolfram_number(wide)


def test_wolfram_rule_range():
    with pytest.raises(ValueError):
        wolfram_rule(256)


def test_equivariance_spot_check_clean():
    ok, witness = equivariance_spot_check(wolfram_rule(102), trials=100)
    assert ok and witness is None
    ok, _ = equivariance_spot_check(identity_ca(Z, BINARY), trials=20)
    assert ok


def test_equivariance_catches_corrupted_apply():
    # a corruption pinned to the absolute origin cannot commute with shifts
    def corrupted(ca, x):
        y = apply_to_finite_config(ca, x)
        cells = y.deviation.as_dict()
        if (0,) in cells:
            del cells[(0,)]
            return FiniteConfig.make(Z, y.background, cells)
        return y

    ok, witness = equivariance_spot_check(
        wolfram_rule(102), trials=100, apply_config=corrupted
    )
    assert not ok and witness is not None


def test_compose_on_the_plane():
    # composition on Z^2, checked on all 3x3 windows
    Z2 = Zd(2)
    rng = random.Random(3)
    S = Z2.canon([(0, 0), (1, 0), (0, 1)])
    for _ in range(3):
        t1 = tuple(rng.randrange(2) for _ in range(8))
        t2 = tuple(rng.randrange(2) for _ in range(8))
        inner = CellularAutomaton(Z2, BINARY, BINARY, S, t1)
        outer = CellularAutomaton(Z2, BINARY, BINARY, S, t2)
        combo = compose(outer, inner)
        window = Z2.box((3, 3))
        for k in range(2**9):
            p = Pattern(window, tuple((k >> i) & 1 for i in range(9)))
            assert apply_to_pattern(combo, p) == apply_to_pattern(
                outer, apply_to_pattern(inner, p)
            )


def test_free_group_automaton_window_order():
    F2 = FreeGroup(2)
    S = F2.canon([F2.identity, (1,), (-1,), (2,), (-2,)])
    ca = CellularAutomaton.from_local_rule(
        F2, BINARY, BINARY, S, lambda w: 1 if sum(w) >= 3 else 0
    )
    assert len(ca.table) == 32
    assert sum(ca.table) == 16  # C(5,3) + C(5,4) + C(5,5)
