import collections
import hashlib
import itertools
import random
import tracemalloc

import pytest

from goelab import goe_search
from goelab.automaton import CellularAutomaton, identity_ca, wolfram_rule
from goelab.decide1d import count_preimages, decide_preinjective, decide_surjective
from goelab.errors import BudgetExceededError
from goelab.goe_search import (
    SearchBudget,
    find_goe_pattern,
    find_me_pair,
    greedy_tiling,
    holds_at,
    image_pattern_set,
    me_check,
    n0_bound,
    semi_decide,
    tiling_cover_certificate,
    window_schedule,
)
from goelab.groups import Zd
from goelab.patterns import (
    BINARY,
    Alphabet,
    Pattern,
    index_to_values,
    values_to_index,
    word_to_pattern,
)

Z = Zd(1)
Z2 = Zd(2)


def interval(n):
    return tuple((i,) for i in range(n))


def majority5_z2():
    """Threshold-3 vote on the von Neumann neighborhood of Z^2."""
    S = Z2.canon([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    return CellularAutomaton.from_local_rule(
        Z2, BINARY, BINARY, S, lambda w: 1 if sum(w) >= 3 else 0
    )


def xor3_z2():
    S = Z2.canon([(0, 0), (1, 0), (0, 1)])
    return CellularAutomaton.from_local_rule(
        Z2, BINARY, BINARY, S, lambda w: sum(w) % 2
    )


def test_window_schedule_is_cube_first_nondecreasing():
    budget = SearchBudget(max_window_cells=9)
    windows = list(window_schedule(2, budget))
    sizes = [len(w) for w in windows]
    assert sizes == sorted(sizes)
    four_cells = [w for w in windows if len(w) == 4]
    assert four_cells[0] == Z2.box((2, 2))  # the square precedes 1x4 and 4x1


def product_filter_schedule(d, budget):
    """The side tuples of window_schedule, found by filtering every tuple."""
    boxes = []
    for dims in itertools.product(range(1, budget.max_window_cells + 1), repeat=d):
        cells = 1
        for m in dims:
            cells *= m
        if cells <= budget.max_window_cells:
            boxes.append((cells, 0 if len(set(dims)) == 1 else 1, dims))
    return [Zd(d).box(dims) for _, _, dims in sorted(boxes)]


def test_window_schedule_builds_only_the_boxes_within_budget():
    for d, largest in ((1, 16), (2, 16), (3, 16), (4, 12), (5, 8), (6, 6)):
        for cells in range(1, largest + 1):
            budget = SearchBudget(max_window_cells=cells)
            assert list(window_schedule(d, budget)) == product_filter_schedule(d, budget)
    # filtering all 12^8 side tuples would take minutes
    assert sum(1 for _ in window_schedule(8, SearchBudget())) == 649


def test_image_pattern_set_identity():
    images = image_pattern_set(identity_ca(Z, BINARY), interval(3))
    assert len(images) == 8


def test_image_pattern_set_rule_232_misses_the_goe_word():
    images = image_pattern_set(wolfram_rule(232), interval(5))
    assert (0, 1, 0, 0, 1) not in images
    assert (0, 0, 0, 0, 0) in images


def test_image_pattern_set_rule_102_full():
    images = image_pattern_set(wolfram_rule(102), interval(7))
    assert len(images) == 128


def test_find_goe_pattern_rule_232():
    outcome = find_goe_pattern(wolfram_rule(232))
    assert outcome.found is not None
    assert len(outcome.found.support) <= 5
    word = "".join(str(v) for v in outcome.found.values)
    assert count_preimages(wolfram_rule(232), word) == 0


def test_find_goe_pattern_rule_102_unknown():
    outcome = find_goe_pattern(
        wolfram_rule(102), SearchBudget(max_window_cells=8)
    )
    assert outcome.unknown


def test_find_goe_pattern_z2_majority_recorded():
    budget = SearchBudget(max_window_cells=16, max_candidates=1 << 16)
    first = find_goe_pattern(majority5_z2(), budget)
    second = find_goe_pattern(majority5_z2(), budget)
    assert (first.found, first.windows_scanned) == (second.found, second.windows_scanned)
    # deep windows are skipped under this candidate budget, honestly recorded
    assert first.skipped_windows > 0 or first.found is not None


def test_image_pattern_set_projects_under_restriction():
    # the image set on a sub-window is exactly the projection
    ca = wolfram_rule(232)
    big = image_pattern_set(ca, interval(5))
    small = image_pattern_set(ca, interval(4))
    assert {img[:4] for img in big} == small


def test_me_check_rule_232_classical_pair():
    ca = wolfram_rule(232)
    p1 = word_to_pattern(BINARY, "00000")
    p2 = word_to_pattern(BINARY, "00100")
    assert me_check(ca, p1, p2)


def test_me_check_rule_102_rejects_all_distinct_pairs():
    ca = wolfram_rule(102)
    support = interval(3)
    pats = [
        Pattern(support, vals) for vals in itertools.product((0, 1), repeat=3)
    ]
    for i, p1 in enumerate(pats):
        for p2 in pats[i + 1 :]:
            assert not me_check(ca, p1, p2)


def test_me_check_reflexive():
    ca = wolfram_rule(232)
    p = word_to_pattern(BINARY, "0110")
    assert me_check(ca, p, p)


def test_find_me_pair_rule_232_canonical():
    outcome = find_me_pair(wolfram_rule(232))
    assert outcome.found is not None
    p1, p2 = outcome.found
    assert len(p1.support) == 5
    assert p1.values == (0, 0, 0, 0, 0)
    assert p2.values == (0, 0, 1, 0, 0)


def test_find_me_pair_rule_102_none():
    outcome = find_me_pair(
        wolfram_rule(102), SearchBudget(max_window_cells=6)
    )
    assert outcome.unknown


def test_find_me_pair_identity_none():
    outcome = find_me_pair(
        identity_ca(Z, BINARY), SearchBudget(max_window_cells=5)
    )
    assert outcome.unknown


# -- the counting bound ---------------------------------------------------------------


def test_n0_values():
    assert n0_bound(2, 1, 1, 1) == 3  # 1 < 2^(n-2) iff n >= 3
    assert n0_bound(2, 2, 1, 1) == 5  # 3^n < 2^(2n-2) first holds at n = 5


def test_n0_boundary_behavior_random():
    rng = random.Random(21)
    for _ in range(100):
        d = rng.choice((1, 2))
        k = 1 if d == 2 else rng.randint(1, 3)
        a = rng.randint(2, 4)
        r = rng.randint(1, 3)
        n0 = n0_bound(a, k, d, r)
        assert holds_at(a, k, d, r, n0)
        assert not holds_at(a, k, d, r, n0 - 1)
        for j in range(1, 5):
            assert holds_at(a, k, d, r, n0 + j)


def test_n0_bit_budget():
    with pytest.raises(BudgetExceededError):
        n0_bound(2, 3, 2, 2, max_bits=1 << 10)


# -- semi-decision ----------------------------------------------------------------------


def test_semi_decide_rule_232():
    verdict = semi_decide(wolfram_rule(232))
    assert verdict.status == "not_surjective"  # the GOE check runs first per window
    word = "".join(str(v) for v in verdict.witness.values)
    assert count_preimages(wolfram_rule(232), word) == 0


def test_semi_decide_rule_102_unknown_with_note():
    verdict = semi_decide(wolfram_rule(102), SearchBudget(max_window_cells=8))
    assert verdict.status == "unknown"
    assert "decide1d" in verdict.note
    assert decide_surjective(wolfram_rule(102)).answer


def test_semi_decide_z2_xor_recorded():
    budget = SearchBudget(max_window_cells=9, max_candidates=1 << 14)
    first = semi_decide(xor3_z2(), budget)
    second = semi_decide(xor3_z2(), budget)
    assert first.status == second.status
    assert first.status in ("unknown", "not_surjective", "not_preinjective")


def test_semi_decide_never_contradicts_decide1d():
    rng = random.Random(31)
    for _ in range(50):
        width = rng.randint(1, 3)
        S = tuple((c,) for c in range(width))
        table = tuple(rng.randrange(2) for _ in range(2**width))
        ca = CellularAutomaton(Z, BINARY, BINARY, S, table)
        verdict = semi_decide(ca, SearchBudget(max_window_cells=6))
        if verdict.status == "not_surjective":
            assert not decide_surjective(ca).answer
        elif verdict.status == "not_preinjective":
            assert not decide_preinjective(ca).answer


def test_me_goe_duality_at_proof_scale():
    """An ME pair on a side-5 window forces a GOE pattern on side n*k - 2r
    with n the counting bound; for (2,5,1,1) that window is astronomically
    out of budget, which is recorded, and the direct witness stands in."""
    ca = wolfram_rule(232)
    pair = find_me_pair(ca)
    assert pair.found is not None and len(pair.found[0].support) == 5
    n = n0_bound(2, 5, 1, 1)
    side = n * 5 - 2
    budget = SearchBudget()
    out_of_budget = side > budget.max_window_cells
    assert out_of_budget  # the bound is loose by design
    assert find_goe_pattern(ca, budget).found is not None  # direct check instead


# -- tilings -----------------------------------------------------------------------------


def test_greedy_tiling_line():
    E = ((0,), (1,))
    window = interval(10)
    T, e_prime = greedy_tiling(Z, E, window)
    assert T == ((0,), (2,), (4,), (6,), (8,))
    assert e_prime == ((-1,), (0,), (1,))
    assert tiling_cover_certificate(Z, E, window, T)


def test_greedy_tiling_identity_tile():
    window = interval(4)
    T, e_prime = greedy_tiling(Z, (Z.identity,), window)
    assert T == window
    assert e_prime == (Z.identity,)


def test_greedy_tiling_cross_z2():
    E = Z2.canon([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    window = Z2.box((6, 6))
    T, e_prime = greedy_tiling(Z2, E, window)
    # translates must be pairwise disjoint
    seen = set()
    for t in T:
        cells = {Z2.mul(t, e) for e in E}
        assert not cells & seen
        seen |= cells
    assert tiling_cover_certificate(Z2, E, window, T)


# -- pinned search outputs -----------------------------------------------------------------
#
# Digests of every search output recorded with the original inline scan loops;
# the loops may change, these bytes may not.  The Z^2 rules use the three
# memory-set shapes and the budget of the benchmark's z2-search workload, so
# the 4- and 5-cell shapes reach ME windows whose extensions are over budget.

Z2_SHAPES = {
    3: ((0, 0), (0, 1), (1, 0)),
    4: ((0, 0), (0, 1), (1, 0), (1, 1)),
    5: ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)),
}
Z2_BUDGET = SearchBudget(6, 1 << 12, 16)


def z2_rule(rng, cells, kind):
    n = 1 << cells
    if kind == "permutive":  # surjective: f = x_last xor g(rest)
        g = [rng.randrange(2) for _ in range(n // 2)]
        table = [(i & 1) ^ g[i >> 1] for i in range(n)]
    elif kind == "biased":  # unbalanced, hence not surjective
        ones = rng.choice([c for c in range(1, n) if c <= n // 4 or c >= n - n // 4])
        picked = set(rng.sample(range(n), ones))
        table = [1 if i in picked else 0 for i in range(n)]
    else:
        table = [rng.randrange(2) for _ in range(n)]
    return CellularAutomaton(Z2, BINARY, BINARY, Z2_SHAPES[cells], tuple(table))


def pinned_search_rules():
    rng = random.Random(4)
    z1 = []
    for _ in range(30):
        width = rng.randint(2, 3)
        table = tuple(rng.randrange(2) for _ in range(2**width))
        z1.append(CellularAutomaton(Z, BINARY, BINARY, interval(width), table))
    kinds = ("permutive", "biased", "random")
    z2 = [z2_rule(rng, cells, kinds[i % 3]) for cells in Z2_SHAPES for i in range(20)]
    small = SearchBudget(max_window_cells=5, max_patterns_for_pairs=32)
    return {
        "eca": ([wolfram_rule(k) for k in (0, 30, 90, 102, 110, 184, 232)], small),
        "z1": (z1, small),
        "z2": (z2, Z2_BUDGET),
    }


def search_rows(search, cas, budget):
    if search is semi_decide:
        return [
            repr((v.to_json(), v.witness))
            for v in (semi_decide(ca, budget) for ca in cas)
        ]
    return [
        repr((o.found, o.windows_scanned, o.skipped_windows))
        for o in (search(ca, budget) for ca in cas)
    ]


PINNED_SEARCH_DIGESTS = {
    ("eca", "find_goe_pattern"): "7453f41ffb4d965aafa244dab78da25e8f39fb2ad408feec0c22e549544c8987",
    ("eca", "find_me_pair"): "6ddd3302acd4e76fa470c77063f9573e90f8a70374b17cbfecd365007bc74ec5",
    ("eca", "semi_decide"): "2febb4779a5d327565b80be1d8d72e206fa6eddfb06cad82bca978f3a8e873dc",
    ("z1", "find_goe_pattern"): "2bb932b5414644eded81619a5294e6a49ec9b5fa58bbf2b9542e22699845f3d7",
    ("z1", "find_me_pair"): "2f2742d2e80117905633e525bd59f57daad802cd70ee137993c990c88e1187ab",
    ("z1", "semi_decide"): "e5c27de5fa5f173c668697992f02e65041f81b953eead7e233199972c9c6aea0",
    ("z2", "find_goe_pattern"): "d9eff7dca991c47a547025dc0f2624a445fe72141bffe7a1fecd5d1733f2e685",
    ("z2", "find_me_pair"): "cca969030a1b20fd2775e934d01941de0eec602c6c71bf3ce7ce0f0427ed5bbb",
    ("z2", "semi_decide"): "3e07fa1f280be61fce0d0e6fb3173ef86e04ab137b60bab2807f61d7ea21723b",
}


@pytest.mark.parametrize("search", [find_goe_pattern, find_me_pair, semi_decide])
@pytest.mark.parametrize("family", ["eca", "z1", "z2"])
def test_pinned_search_digests(family, search):
    cas, budget = pinned_search_rules()[family]
    rows = search_rows(search, cas, budget)
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == PINNED_SEARCH_DIGESTS[family, search.__name__]


def test_semi_decide_gives_up_a_window_at_its_first_over_budget_me_check(monkeypatch):
    # the ME kernel runs once per window; an over-budget window must not retry it
    real = goe_search._me_groups
    over = collections.Counter()

    def counting(ca, window, patterns, max_candidates):
        try:
            return real(ca, window, patterns, max_candidates)
        except BudgetExceededError:
            over[window] += 1
            raise

    monkeypatch.setattr(goe_search, "_me_groups", counting)
    rng = random.Random(5)
    for cells in (4, 5):
        over.clear()
        verdict = semi_decide(z2_rule(rng, cells, "permutive"), Z2_BUDGET)
        assert verdict.status == "unknown"
        assert over and max(over.values()) == 1


# -- the window kernels against the pairwise scans they replaced ------------------------
#
# Test-local copies of the enumeration that every candidate and every pair used to
# pay for: image sets over itertools.product with values_to_index per cell, and
# me_check run pair by pair in itertools.combinations order.


def reference_image_pattern_set(ca, window, max_candidates=1 << 16):
    group = ca.group
    window = group.canon(window)
    a = len(ca.input_alphabet)
    inputs = group.set_product(window, ca.memory_set)
    pos = {g: i for i, g in enumerate(inputs)}
    offsets = [[pos[group.mul(g, s)] for s in ca.memory_set] for g in window]
    total = a ** len(inputs)
    if total > max_candidates:
        raise BudgetExceededError("image enumeration", total, max_candidates)
    return {
        tuple(ca.table[values_to_index(a, [x[k] for k in offs])] for offs in offsets)
        for x in itertools.product(range(a), repeat=len(inputs))
    }


def reference_me_check(ca, p1, p2, max_candidates=1 << 20):
    if p1.support != p2.support:
        raise ValueError("ME patterns need a common support")
    if p1.values == p2.values:
        return True
    group = ca.group
    window = p1.support
    S = ca.memory_set
    out_region = group.set_product(window, group.set_inverse(S))
    in_region = group.set_product(out_region, S)
    pos = {g: i for i, g in enumerate(in_region)}
    offsets = [[pos[group.mul(g, s)] for s in S] for g in out_region]
    inside = set(window)
    free_idx = [i for i, g in enumerate(in_region) if g not in inside]
    a = len(ca.input_alphabet)
    total = a ** len(free_idx)
    if total > max_candidates:
        raise BudgetExceededError("ME extension enumeration", total, max_candidates)
    values1 = dict(zip(window, p1.values))
    values2 = dict(zip(window, p2.values))
    base1 = [values1.get(g, 0) for g in in_region]
    base2 = [values2.get(g, 0) for g in in_region]
    for fill in itertools.product(range(a), repeat=len(free_idx)):
        for i, v in zip(free_idx, fill):
            base1[i] = base2[i] = v
        for offs in offsets:
            w1 = values_to_index(a, [base1[k] for k in offs])
            w2 = values_to_index(a, [base2[k] for k in offs])
            if ca.table[w1] != ca.table[w2]:
                return False
    return True


def reference_goe_on(ca, window, budget):
    images = reference_image_pattern_set(ca, window, budget.max_candidates)
    b = len(ca.output_alphabet)
    total = b ** len(window)
    if len(images) == total:
        return None
    indices = {values_to_index(b, img) for img in images}
    k = next(k for k in range(total) if k not in indices)
    return Pattern(window, index_to_values(b, len(window), k))


def reference_me_on(ca, window, budget):
    a = len(ca.input_alphabet)
    n = len(window)
    patterns = [Pattern(window, index_to_values(a, n, i)) for i in range(a**n)]
    for p1, p2 in itertools.combinations(patterns, 2):
        if reference_me_check(ca, p1, p2, budget.max_candidates):
            return p1, p2
    return None


def random_kernel_rule(rng, d, a):
    """A rule on 1-4 cells of the cube {-1,0,1}^d with a table biased to one symbol."""
    group = Zd(d)
    cube = list(itertools.product((-1, 0, 1), repeat=d))
    S = group.canon(rng.sample(cube, rng.randint(1, min(4, 3**d))))
    alphabet = Alphabet.of_size(a)
    common, bias = rng.randrange(a), rng.choice((0.0, 0.5, 0.8, 0.95))
    table = tuple(
        common if rng.random() < bias else rng.randrange(a) for _ in range(a ** len(S))
    )
    return CellularAutomaton(group, alphabet, alphabet, S, table)


def kernel_rules():
    rng = random.Random(10)
    return [random_kernel_rule(rng, d, a) for d in (1, 2, 3) for a in (1, 2, 3) for _ in range(8)]


KERNEL_BUDGET = SearchBudget(max_window_cells=4, max_candidates=1 << 8, max_patterns_for_pairs=16)


def test_window_kernels_match_the_pairwise_scans(monkeypatch):
    cas = kernel_rules()
    for search in (find_goe_pattern, find_me_pair, semi_decide):
        got = [repr(search(ca, KERNEL_BUDGET)) for ca in cas]
        with monkeypatch.context() as m:
            m.setattr(goe_search, "_goe_on", reference_goe_on)
            m.setattr(goe_search, "_me_on", reference_me_on)
            want = [repr(search(ca, KERNEL_BUDGET)) for ca in cas]
        assert got == want, search.__name__


def test_image_pattern_set_matches_the_product_enumeration():
    for ca in kernel_rules():
        for window in window_schedule(ca.group.d, KERNEL_BUDGET):
            try:
                want = reference_image_pattern_set(ca, window, KERNEL_BUDGET.max_candidates)
            except BudgetExceededError as err:
                with pytest.raises(BudgetExceededError) as got:
                    image_pattern_set(ca, window, KERNEL_BUDGET.max_candidates)
                assert (got.value.what, got.value.requested) == (err.what, err.requested)
                continue
            assert image_pattern_set(ca, window, KERNEL_BUDGET.max_candidates) == want
    assert image_pattern_set(wolfram_rule(110), ()) == reference_image_pattern_set(wolfram_rule(110), ())


def result_or_budget(fn, *args):
    try:
        return fn(*args)
    except BudgetExceededError as err:
        return err.what, err.requested


def test_image_pattern_set_matches_the_product_enumeration_on_random_windows():
    # input and output alphabets of independent sizes (one symbol included),
    # biased tables, memory sets of 0-4 cells and windows of 0-5 cells in any order
    rng = random.Random(12)
    for _ in range(300):
        d = rng.randint(1, 3)
        cube = list(itertools.product((-1, 0, 1), repeat=d))
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        S = Zd(d).canon(rng.sample(cube, rng.randint(0, min(4, len(cube)))))
        common, bias = rng.randrange(b), rng.choice((0.0, 0.5, 0.8, 0.95))
        table = tuple(
            common if rng.random() < bias else rng.randrange(b) for _ in range(a ** len(S))
        )
        ca = CellularAutomaton(Zd(d), Alphabet.of_size(a), Alphabet.of_size(b), S, table)
        window = rng.sample(cube, rng.randint(0, min(5, len(cube))))
        budget = rng.choice((1, 1 << 4, 1 << 8, 1 << 12))
        want = result_or_budget(reference_image_pattern_set, ca, window, budget)
        assert result_or_budget(image_pattern_set, ca, window, budget) == want


def test_image_pattern_set_memory_on_a_16_input_window():
    ca, window = majority5_z2(), Z2.box((2, 3))
    goe_search._digit_masks.cache_clear()
    tracemalloc.start()
    try:
        images = image_pattern_set(ca, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(images) == 64
    assert peak < 1_500_000  # 0.8 MB measured on CPython 3.11; index-list columns took 3.0 MB


def test_equal_semi_decide_results_are_one_object():
    budget = SearchBudget(max_window_cells=8)
    statuses = []
    for number in (232, 102):
        first = semi_decide(wolfram_rule(number), budget)
        assert semi_decide(wolfram_rule(number), budget) is first
        statuses.append(first.status)
    assert statuses == ["not_surjective", "unknown"]


def test_me_check_matches_the_pairwise_enumeration():
    rng = random.Random(11)
    for ca in kernel_rules():
        a = len(ca.input_alphabet)
        cube = list(itertools.product(range(-1, 2), repeat=ca.group.d))
        for _ in range(4):
            support = tuple(rng.sample(cube, rng.randint(1, 3)))  # any order
            p1 = Pattern(support, tuple(rng.randrange(a) for _ in support))
            values = p1.values if rng.random() < 0.2 else tuple(rng.randrange(a) for _ in support)
            p2 = Pattern(support, values)
            budget = rng.choice((1, 1 << 6, 1 << 10))
            want = result_or_budget(reference_me_check, ca, p1, p2, budget)
            assert result_or_budget(me_check, ca, p1, p2, budget) == want


def test_find_me_pair_on_a_one_symbol_alphabet_is_none():
    # each window has one pattern and so no pair, whatever the memory set
    one = Alphabet.of_size(1)
    budget = SearchBudget(max_window_cells=4, max_candidates=1)
    for S in (Z2.canon([(0, 0), (1, 0), (0, 1)]), ()):
        outcome = find_me_pair(CellularAutomaton(Z2, one, one, S, (0,)), budget)
        assert (outcome.found, outcome.windows_scanned, outcome.skipped_windows) == (None, 8, 0)
