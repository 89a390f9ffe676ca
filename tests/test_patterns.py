import pytest
from hypothesis import given, strategies as st

from goelab.errors import BudgetExceededError
from goelab.groups import FreeGroup, Zd
from goelab.jsonio import pattern_from_json, pattern_to_json
from goelab.patterns import (
    Alphabet,
    BINARY,
    FiniteConfig,
    Pattern,
    PeriodicConfig,
    enumerate_patterns,
    index_to_pattern,
    pattern_index,
    pattern_to_word,
    translate_pattern,
    word_to_pattern,
)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("0", "0"))
    assert Alphabet.of_size(3).symbols == ("0", "1", "2")


def test_translate_interval_word():
    Z = Zd(1)
    p = word_to_pattern(BINARY, "01")
    q = translate_pattern(Z, (3,), p)
    assert q.support == ((3,), (4,))
    assert q.values == (0, 1)


def test_translate_single_cell_z2():
    Z2 = Zd(2)
    p = Pattern.from_dict(Z2, {(0, 0): 1})
    q = translate_pattern(Z2, (1, 1), p)
    assert q == Pattern.from_dict(Z2, {(1, 1): 1})


def test_translate_identity_and_action_law():
    F2 = FreeGroup(2)
    p = Pattern.from_dict(F2, {F2.identity: 1, (1,): 0, (2, -1): 1})
    assert translate_pattern(F2, F2.identity, p) == p
    g, h = (1, 2), (-2,)
    lhs = translate_pattern(F2, g, translate_pattern(F2, h, p))
    rhs = translate_pattern(F2, F2.mul(g, h), p)
    assert lhs == rhs


def test_word_bridge_examples():
    p = word_to_pattern(BINARY, "01001")
    assert p.support == tuple((i,) for i in range(5))
    assert pattern_to_word(BINARY, p) == ("01001", 0)
    assert word_to_pattern(BINARY, "") == Pattern((), ())


@given(st.text(alphabet="01", max_size=12), st.integers(-5, 5))
def test_word_bridge_round_trip(word, offset):
    p = word_to_pattern(BINARY, word, offset)
    got_word, got_offset = pattern_to_word(BINARY, p)
    assert got_word == word
    if word:
        assert got_offset == offset


def test_bridge_rejects_gaps():
    p = Pattern.from_dict(Zd(1), {(0,): 1, (2,): 0})
    with pytest.raises(ValueError):
        pattern_to_word(BINARY, p)


def test_enumeration_order_binary():
    support = ((0,), (1,))
    words = [
        pattern_to_word(BINARY, p)[0] for p in enumerate_patterns(BINARY, support)
    ]
    assert words == ["00", "01", "10", "11"]


def test_enumeration_count_and_round_trip():
    A3 = Alphabet.of_size(3)
    support = tuple((i,) for i in range(4))
    pats = list(enumerate_patterns(A3, support))
    assert len(pats) == 81
    assert len(set(pats)) == 81
    for k, p in enumerate(pats):
        assert pattern_index(A3, p) == k
        assert index_to_pattern(A3, support, k) == p


def test_enumeration_cap():
    support = tuple((i,) for i in range(40))
    with pytest.raises(BudgetExceededError):
        list(enumerate_patterns(BINARY, support))


def test_finite_config_normalization_idempotent():
    Z = Zd(1)
    cells = {(0,): 1, (1,): 0, (2,): 1}
    x = FiniteConfig.make(Z, 0, cells)
    assert x.support == ((0,), (2,))  # background cells dropped
    again = FiniteConfig.make(Z, x.background, x.deviation.as_dict())
    assert again == x


def test_finite_config_rejects_background_deviation():
    with pytest.raises(ValueError):
        FiniteConfig(0, Pattern(((0,),), (0,)))


def test_periodic_config_torus():
    x = PeriodicConfig((2,), (0, 1))
    assert x.value_at((0,)) == 0
    assert x.value_at((5,)) == 1
    assert x.value_at((-1,)) == 1
    shifted = x.translate((1,))
    assert shifted.cells == (1, 0)


def test_pattern_json_round_trip():
    Z2 = Zd(2)
    p = Pattern.from_dict(Z2, {(0, 0): 0, (1, 0): 1})
    obj = pattern_to_json(Z2, BINARY, p)
    assert obj == {"support": [[0, 0], [1, 0]], "values": ["0", "1"]}
    assert pattern_from_json(Z2, BINARY, obj) == p
    q = pattern_from_json(Zd(1), BINARY, {"word": "01", "offset": 2})
    assert q == word_to_pattern(BINARY, "01", 2)
