import hashlib
import itertools
import json
import random
import signal

import pytest
from hypothesis import given, strategies as st

from goelab.errors import BudgetExceededError
from goelab.groups import FreeGroup, Zd
from goelab.jsonio import sofic_from_json, sofic_to_json
from goelab.patterns import Alphabet, BINARY, Pattern, word_to_pattern
from goelab.subshift import (
    SFTPresentation,
    SoficPresentation1D,
    _live,
    _parity_shapes,
    determinize,
    even_shift,
    full_shift,
    golden_mean,
    hard_ball,
    irreducible,
    language_count,
    ledrappier,
    locally_admissible_count,
    mixing_gap,
    sft_to_sofic,
    sofic_compare,
    sofic_equal,
    trim,
    word_appears,
)


# definition-level membership oracles, independent of the graph machinery


def golden_ok(word: str) -> bool:
    return "11" not in word


def even_ok(word: str) -> bool:
    # every 0-run flanked by 1s on both sides must have even length
    runs = word.split("1")
    inner = runs[1:-1] if word.count("1") >= 2 else []
    return all(len(r) % 2 == 0 for r in inner)


def all_words(n):
    return ("".join(w) for w in itertools.product("01", repeat=n))


def period2():
    return SFTPresentation(
        Zd(1), BINARY, (word_to_pattern(BINARY, "00"), word_to_pattern(BINARY, "11"))
    )


def test_builtin_shapes():
    g = golden_mean()
    assert len(g.forbidden) == 1
    assert g.forbidden[0] == word_to_pattern(BINARY, "11")
    hb = hard_ball(2)
    assert len(hb.forbidden) == 2
    led = ledrappier()
    # the four odd-sum assignments on the L-shape
    assert len(led.forbidden) == 4
    assert all(sum(p.values) % 2 == 1 for p in led.forbidden)


def test_golden_counts_match_the_recurrence_and_brute_force():
    X = golden_mean()
    counts = [language_count(X, n) for n in range(1, 11)]
    assert counts[:4] == [2, 3, 5, 8]
    assert all(counts[i + 2] == counts[i + 1] + counts[i] for i in range(8))
    for n in range(1, 11):
        assert counts[n - 1] == sum(golden_ok(w) for w in all_words(n))


def test_even_counts_match_the_recurrence_and_brute_force():
    X = even_shift()
    counts = [language_count(X, n) for n in range(1, 11)]
    assert counts[:2] == [2, 4]
    assert all(counts[i + 2] == 1 + counts[i + 1] + counts[i] for i in range(8))
    for n in range(1, 11):
        assert counts[n - 1] == sum(even_ok(w) for w in all_words(n))


def test_word_appears_matches_definition():
    X = even_shift()
    assert not word_appears(X, "101")
    assert word_appears(X, "010")  # a lone 1 has no second 1 to pair with
    assert word_appears(X, "0110")
    for n in range(1, 9):
        for w in all_words(n):
            assert word_appears(X, w) == even_ok(w)


def test_full_shift_counts():
    A3 = Alphabet.of_size(3)
    X = full_shift(A3)
    assert [language_count(X, n) for n in range(4)] == [1, 3, 9, 27]


def test_period2_counts():
    X = period2()
    assert [language_count(X, n) for n in range(1, 6)] == [2, 2, 2, 2, 2]


def test_sft_compilation_presents_the_same_language():
    compiled = sft_to_sofic(golden_mean())
    assert compiled.is_essential()
    for n in range(1, 8):
        for w in all_words(n):
            assert word_appears(compiled, w) == golden_ok(w)


def compile_battery():
    """Seeded random SFTs over Z: binary and ternary, with 0-3 forbidden
    patterns of 1-3 cells drawn from -2..5, so supports are shifted and gapped."""
    z1 = Zd(1)
    rng = random.Random(9)
    cases = []
    for i in range(400):
        a = 2 + i % 2
        forbidden = []
        for _ in range(rng.randint(0, 3)):
            cells = rng.sample(range(-2, 6), rng.randint(1, 3))
            forbidden.append(Pattern.from_dict(z1, {(c,): rng.randrange(a) for c in cells}))
        cases.append(SFTPresentation(z1, Alphabet.of_size(a), tuple(forbidden)))
    return cases


def compiled_or_refused(X):
    try:
        return repr(sft_to_sofic(X, budget=1 << 10))
    except BudgetExceededError as e:
        return f"refused {e.what} {e.requested}"


# sha256 of compiled_or_refused over compile_battery(), one line each, recorded
# while gapped patterns were still expanded into words
PINNED_COMPILE_DIGEST = "edd6ba7bdf6522bbf74b9ac43966fc7ad0c8aac5df6e3009ae57efaef9f5b773"


def test_pinned_compile_digest():
    rows = [compiled_or_refused(X) for X in compile_battery()]
    assert sum(row.startswith("refused") for row in rows) > 10
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == PINNED_COMPILE_DIGEST


def test_compile_budget_is_checked_before_any_word_is_built():
    far = SFTPresentation(Zd(1), BINARY, (Pattern.from_dict(Zd(1), {(0,): 1, (60,): 1}),))

    def too_slow(signum, frame):
        raise AssertionError("sft_to_sofic enumerated words before checking its budget")

    # an alarm turns a word-by-word expansion of the gap into a quick failure
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(BudgetExceededError) as info:
            sft_to_sofic(far)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert info.value.what == "higher-block vertices"
    assert info.value.requested == 2**60


def naive_live(n, edges, need_in, need_out):
    """Delete vertices missing an in- or out-edge until nothing changes."""
    alive = set(range(n))
    while True:
        keep = {
            u
            for u in alive
            if (not need_in or any(s in alive for s, t in edges if t == u))
            and (not need_out or any(t in alive for s, t in edges if s == u))
        }
        if keep == alive:
            return alive
        alive = keep


multigraphs = st.integers(0, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20)
        if n
        else st.just([]),
    )
)


@given(multigraphs, st.booleans(), st.booleans())
def test_live_matches_the_naive_fixpoint(graph, need_in, need_out):
    # random multigraphs: self-loops, parallel edges and empty graphs included
    n, edges = graph
    edges = sorted(edges)
    first = [0] * (n + 1)
    for u, _ in edges:
        first[u + 1] += 1
    flags = _live(n, list(itertools.accumulate(first)), [v for _, v in edges], need_in, need_out)
    assert len(flags) == n
    assert {v for v in range(n) if flags[v]} == naive_live(n, edges, need_in, need_out)


def test_trim_drops_stranded_vertices():
    # vertex 2 is a dead end and must disappear
    pres = SoficPresentation1D(
        BINARY, 3, ((0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 2, 1))
    )
    trimmed = trim(pres)
    assert trimmed.num_vertices == 2
    assert trimmed.is_essential()


def test_determinize_even_small_and_faithful():
    D = determinize(even_shift())
    assert D.is_deterministic()
    assert D.num_vertices <= 3
    for n in range(1, 9):
        for w in all_words(n):
            assert word_appears(D, w) == even_ok(w)


def test_determinize_preserves_language_on_golden():
    D = determinize(golden_mean())
    assert D.is_deterministic()
    for n in range(1, 9):
        for w in all_words(n):
            assert word_appears(D, w) == golden_ok(w)


def test_sofic_equal_same_language_different_presentations():
    # the 2-block and 3-block compilations present the same subshift
    two_block = sft_to_sofic(golden_mean())
    with_longer_word = SFTPresentation(
        Zd(1), BINARY, (word_to_pattern(BINARY, "11"), word_to_pattern(BINARY, "111"))
    )
    three_block = sft_to_sofic(with_longer_word)
    assert sofic_equal(two_block, three_block)


def test_sofic_compare_golden_vs_even():
    equal, only_g, only_e = sofic_compare(golden_mean(), even_shift())
    assert not equal
    assert only_e == "11"  # shortest even-shift word the golden mean forbids
    assert only_g == "101"  # shortest golden word the even shift forbids


def test_irreducible_builtins():
    assert irreducible(golden_mean())
    assert irreducible(even_shift())
    assert irreducible(period2())
    frozen = SFTPresentation(
        Zd(1), BINARY, (word_to_pattern(BINARY, "01"), word_to_pattern(BINARY, "10"))
    )
    assert not irreducible(frozen)  # {0^inf, 1^inf}: 0 and 1 cannot be joined


def test_mixing_gaps():
    gap = mixing_gap(golden_mean())
    assert gap is not None and gap <= 2
    assert mixing_gap(period2()) is None
    # the certificate for the even presentation; numerically equal to the
    # gluing radius 2 quoted for it
    assert mixing_gap(even_shift()) == 2
    assert mixing_gap(full_shift(BINARY)) == 1


def brute_locally_admissible(sft, window):
    placements = []
    group = sft.group
    cells = {g: i for i, g in enumerate(window)}
    for p in sft.forbidden:
        anchor = p.support[0]
        for g in window:
            shift = group.mul(g, group.inverse(anchor))
            spots = []
            for h in p.support:
                t = group.mul(shift, h)
                if t not in cells:
                    break
                spots.append(cells[t])
            else:
                placements.append((spots, p.values))
    count = 0
    for assign in itertools.product(range(len(sft.alphabet)), repeat=len(window)):
        if not any(
            all(assign[s] == v for s, v in zip(spots, values))
            for spots, values in placements
        ):
            count += 1
    return count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ledrappier_counts_exhaustive(n):
    X = ledrappier()
    window = Zd(2).box((n + 1, n + 1))
    got = locally_admissible_count(X, window)
    assert got == 2 ** (2 * n + 1)
    assert got == brute_locally_admissible(X, window)


def test_hard_ball_line_window():
    X = hard_ball(1)
    window = tuple((i,) for i in range(4))
    assert locally_admissible_count(X, window) == 8  # golden-mean count |X_4|


def test_hard_ball_plane_window_vs_brute():
    X = hard_ball(2)
    window = Zd(2).box((3, 3))
    got = locally_admissible_count(X, window)
    assert got == brute_locally_admissible(X, window)


def test_full_shift_window_count():
    empty = SFTPresentation(Zd(2), BINARY, ())
    window = Zd(2).box((2, 3))
    assert locally_admissible_count(empty, window) == 2**6


def test_locally_admissible_budget():
    # 64 cells, frontier 8: 64 * 2^9 extensions, refused before any state is built
    window = Zd(2).box((8, 8))
    with pytest.raises(BudgetExceededError) as info:
        locally_admissible_count(hard_ball(2), window, cap=1 << 10)
    assert info.value.what == "window transfer"
    assert info.value.requested == 64 * 2**9


def test_transfer_matches_brute_force():
    # random SFTs on random non-box windows; the supports are shifted, so
    # their first point is often not the identity
    rng = random.Random(6)
    shifted = 0
    for i in range(150):
        group = Zd(1 + i % 3)
        a = 2 if i % 4 else 3
        X = random_sft(rng, group, a, 1 + i % 3)
        shifted += any(p.support[0] != group.identity for p in X.forbidden)
        box = group.box({1: (10,), 2: (4, 3), 3: (3, 2, 2)}[group.d])
        window = tuple(rng.sample(box, rng.randint(0, 10 if a == 2 else 6)))
        assert locally_admissible_count(X, window) == brute_locally_admissible(X, window)
    assert shifted > 50
    # other groups add the cells in window order
    F = FreeGroup(2)
    X = SFTPresentation(
        F, BINARY, tuple(Pattern.from_dict(F, {(): 1, (g,): 1}) for g in (1, 2))
    )
    for window in (F.ball(1), tuple(rng.sample(F.ball(2), 10))):
        assert locally_admissible_count(X, window) == brute_locally_admissible(X, window)


def test_transfer_counts_wide_windows():
    z2 = Zd(2)
    above = SFTPresentation(z2, BINARY, (Pattern.from_dict(z2, {(0, 0): 1, (0, 1): 1}),))
    assert locally_admissible_count(above, z2.box((16, 2))) == 3**16
    # placements 4 columns apart: only rows first keep the frontier narrow
    apart = SFTPresentation(z2, BINARY, (Pattern.from_dict(z2, {(0, 0): 1, (4, 0): 1}),))
    assert locally_admissible_count(apart, z2.box((6, 12))) == 36**12


def test_transfer_drops_values_a_one_cell_pattern_forbids():
    z2 = Zd(2)

    def sft(a, *patterns):
        forbidden = tuple(Pattern.from_dict(z2, p) for p in patterns)
        return SFTPresentation(z2, Alphabet.of_size(a), forbidden)

    # sized over all three values, this window's work is 40,920,957 > DEFAULT_COUNT_CAP
    ternary = sft(3, {(0, 0): 1}, {(0, 0): 2, (1, 3): 2})
    binary = sft(2, {(0, 0): 1, (1, 3): 1})
    box = z2.box((7, 11))
    assert locally_admissible_count(ternary, box) == 1528823808000000000
    assert locally_admissible_count(binary, box) == 1528823808000000000
    only_zero = sft(2, {(0, 0): 1}, {(0, 0): 1, (1, 3): 1})
    assert locally_admissible_count(only_zero, z2.box((16, 16))) == 1
    nothing = sft(3, {(0, 0): 0}, {(0, 0): 1}, {(0, 0): 2}, {(0, 0): 1, (0, 1): 2})
    assert locally_admissible_count(nothing, z2.box((3, 3))) == 0


@pytest.mark.parametrize(
    "group, pattern",
    [
        (Zd(1), Pattern(((0,), (0,)), (0, 1))),  # a repeated cell
        (Zd(1), Pattern(((0,), (1,)), (1, 5))),  # a value outside the alphabet
        (Zd(1), Pattern(((0,),), (-1,))),
        (Zd(2), Pattern(((0,),), (1,))),  # not an element of Z^2
    ],
)
def test_sft_rejects_invalid_forbidden_patterns(group, pattern):
    with pytest.raises(ValueError):
        SFTPresentation(group, BINARY, (pattern,))


def random_support(rng, d, height):
    """1-3 cells of a 3-wide, height-tall box, moved by up to one step per axis."""
    span = [range(3)] + [range(height)] * (d - 1)
    cells = rng.sample(list(itertools.product(*span)), rng.randint(1, 3))
    shift = tuple(rng.randint(-1, 1) for _ in range(d))
    return [tuple(c + s for c, s in zip(g, shift)) for g in cells]


def random_sft(rng, group, a, height):
    forbidden = []
    for _ in range(rng.randint(1, 3)):
        support = random_support(rng, group.d, height)
        forbidden.append(Pattern.from_dict(group, {g: rng.randrange(a) for g in support}))
    return SFTPresentation(group, Alphabet.of_size(a), tuple(forbidden))


def odd_sum_sft(group, supports):
    """The binary SFT forbidding every odd-sum assignment on each support."""
    forbidden = [
        Pattern.from_dict(group, dict(zip(support, values)))
        for support in supports
        for values in itertools.product((0, 1), repeat=len(support))
        if sum(values) % 2
    ]
    return SFTPresentation(group, BINARY, tuple(forbidden))


def count_battery():
    """(sft, window) cases reaching every window counter: the Ledrappier,
    hard-ball and odd-sum shifts, and seeded random binary and ternary SFTs
    over Z and Z^2 with supports up to 3 rows high, on boxes and on boxes
    missing their last cell."""
    z1, z2, z3 = Zd(1), Zd(2), Zd(3)
    cases = []
    led = ledrappier()
    for n in range(1, 27, 3):
        cases.append((led, z2.box((n, n))))
    for dims in ((3, 9), (9, 3), (26, 2), (1, 7)):
        cases += [(led, z2.box(dims)), (led, z2.box(dims)[:-1])]
    cases += [(hard_ball(1), z1.box((n,))) for n in range(1, 13)]
    cases += [(hard_ball(2), z2.box((w, h))) for w in range(1, 7) for h in range(1, 7)]
    cases.append((hard_ball(2), z2.box((3, 4))[:-1]))
    cases += [(hard_ball(3), z3.box(dims)) for dims in ((2, 2, 2), (2, 2, 3), (1, 3, 4))]
    rng = random.Random(2026)
    for i in range(160):
        a = 2 if i % 4 else 3
        height = 1 + i % 3
        X = random_sft(rng, z2, a, height)
        small = 12 if a == 2 else 6  # keeps the ternary enumerations small
        boxes = [(w, h) for w in range(1, 5) for h in range(1, 5) if w * h <= small]
        for dims in rng.sample(boxes, 2):
            cases.append((X, z2.box(dims)))
        cases.append((X, z2.box((3, 3) if a == 2 else (2, 3))[:-1]))
        if height <= 2:
            cases.append((X, z2.box((5, 4) if a == 2 else (4, 3))))
    for i in range(30):
        a = 2 if i % 3 else 3
        X = random_sft(rng, z1, a, 1)
        cases += [(X, z1.box((n,))) for n in (1, 4, 10 if a == 2 else 6)]
    for i in range(40):
        group = z2 if i % 4 else z1
        supports = [random_support(rng, group.d, 1 + i % 3) for _ in range(rng.randint(1, 2))]
        X = odd_sum_sft(group, supports)
        for dims in ((3, 3), (2, 5), (4, 3)) if group.d == 2 else ((4,), (7,), (12,)):
            cases += [(X, group.box(dims)), (X, group.box(dims)[:-1])]
    return cases


# sha256 of the counts of count_battery(), one repr per line, recorded before
# the window counters were reworked
PINNED_COUNT_DIGEST = "243f6f210fec4f0bf83fb8abf61e0cf6d82f0c170f4cfb834635a91db6114816"


def test_pinned_window_count_digest():
    rows = [repr(locally_admissible_count(X, window)) for X, window in count_battery()]
    assert len(rows) == 986
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == PINNED_COUNT_DIGEST


def test_parity_structure_is_read_from_the_forbidden_patterns():
    z2 = Zd(2)
    L = ((0, 0), (0, 1), (1, 0))
    assert _parity_shapes(ledrappier()) == [L]
    three_of_four = SFTPresentation(z2, BINARY, ledrappier().forbidden[:3])
    ternary = SFTPresentation(z2, Alphabet.of_size(3), ledrappier().forbidden)
    for X in (hard_ball(2), golden_mean(), SFTPresentation(z2, BINARY, ()), three_of_four, ternary):
        assert _parity_shapes(X) is None


def test_ledrappier_read_from_json_gets_the_exact_counter():
    from goelab.jsonio import subshift_from_json, subshift_to_json

    X = subshift_from_json(json.loads(json.dumps(subshift_to_json(ledrappier()))))
    assert locally_admissible_count(X, Zd(2).box((26, 26))) == 2**51


def test_ledrappier_box_count_has_its_closed_form():
    # the (n-1)^2 L-shaped checks of an n x n box are independent
    assert locally_admissible_count(ledrappier(), Zd(2).box((60, 60))) == 2**119


def test_parity_counter_matches_brute_force():
    z1 = Zd(1)
    # translates anchored left of the window still count when they fit
    X = odd_sum_sft(z1, [((1,), (2,))])
    assert locally_admissible_count(X, z1.box((4,))) == 2
    rng = random.Random(11)
    for i in range(60):
        group = Zd(1 + i % 2)
        supports = [random_support(rng, group.d, 3) for _ in range(rng.randint(1, 3))]
        X = odd_sum_sft(group, supports)
        assert _parity_shapes(X) is not None
        box = group.box((4, 3) if group.d == 2 else (10,))
        window = tuple(sorted(rng.sample(box, rng.randint(1, len(box)))))
        assert locally_admissible_count(X, window) == brute_locally_admissible(X, window)


@pytest.mark.parametrize(
    "window",
    [
        ((0, 0), (0, 1), (2, 0), (2, 1)),  # columns 0 and 2
        ((0, 0), (1, 0), (0, 2), (1, 2)),  # rows 0 and 2
        ((0, 0), (0, 1), (1, 0), (1, 1), (3, 0), (3, 1)),
        (),
    ],
)
def test_product_windows_count_only_what_fits(window):
    for X in (hard_ball(2), SFTPresentation(Zd(2), Alphabet.of_size(3), hard_ball(2).forbidden)):
        assert locally_admissible_count(X, window) == brute_locally_admissible(X, window)


def test_sofic_json_round_trip():
    pres = even_shift()
    obj = sofic_to_json(pres)
    assert sofic_from_json(obj) == pres
