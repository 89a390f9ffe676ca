import hashlib
import itertools
import json
import math
import random
import tracemalloc

import pytest

from conftest import (
    eager_sofic_compare,
    make_fiorenzi_even_ca,
    make_golden_even_ca,
    reference_me_check_subshift,
    separate_decide_injective,
    separate_decide_preinjective,
)
from goelab import decide1d
from goelab.automaton import CellularAutomaton, identity_ca, wolfram_rule
from goelab.decide1d import (
    DeBruijnLift,
    count_preimages,
    decide_injective,
    decide_preinjective,
    decide_surjective,
    image_presentation,
    me_check_subshift,
    normalize_interval,
    preimage_histogram,
    slide,
    verify_diamond_witness,
    verify_injectivity_witness,
)
from goelab.entropy import perron_entropy
from goelab.errors import BudgetExceededError
from goelab.groups import Zd
from goelab.linear_ca import (
    GroupRingElement,
    MatrixCA,
    kernel_finite_support,
    to_cellular_automaton,
)
from goelab.patterns import Alphabet, BINARY, Pattern, render_word, word_to_pattern
from goelab.subshift import (
    SFTPresentation,
    SoficPresentation1D,
    even_shift,
    full_shift,
    golden_mean,
    presentation_of,
    sofic_compare,
    sofic_equal,
    word_appears,
)

Z = Zd(1)


def random_ca(rng, a=2, max_width=3):
    width = rng.randint(1, max_width)
    lo = rng.choice(range(-1, 1))
    S = tuple((c,) for c in range(lo, lo + width))
    alphabet = Alphabet.of_size(a)
    table = tuple(rng.randrange(a) for _ in range(a**width))
    return CellularAutomaton(Z, alphabet, alphabet, S, table)


# -- images ---------------------------------------------------------------------


def test_identity_image_is_the_domain():
    X = golden_mean()
    img = image_presentation(identity_ca(Z, BINARY), X)
    assert sofic_equal(img, X)


def test_rule_102_image_is_the_full_shift():
    img = image_presentation(wolfram_rule(102))
    assert sofic_equal(img, full_shift(BINARY))


def test_golden_even_image_is_the_even_shift(golden_even_ca):
    img = image_presentation(golden_even_ca, golden_mean())
    assert sofic_equal(img, even_shift())


# -- surjectivity ------------------------------------------------------------------


def test_rule_102_surjective():
    assert decide_surjective(wolfram_rule(102)).answer


def test_rule_232_not_surjective_with_short_witness():
    verdict = decide_surjective(wolfram_rule(232))
    assert not verdict.answer
    word = verdict.witness["word"]
    assert len(word) <= 5
    assert count_preimages(wolfram_rule(232), word) == 0
    # the classical witness independently verifies as Garden of Eden
    assert count_preimages(wolfram_rule(232), "01001") == 0


def test_fiorenzi_even_surjective(fiorenzi_even_ca):
    X = even_shift()
    assert decide_surjective(fiorenzi_even_ca, X, X).answer


def test_fiorenzi_ternary_not_surjective(fiorenzi_ternary):
    ca, X = fiorenzi_ternary
    verdict = decide_surjective(ca, X, X)
    assert not verdict.answer
    assert verdict.witness["word"] == "120"


def test_surjective_onto_wrong_codomain_is_an_error():
    with pytest.raises(ValueError):
        decide_surjective(wolfram_rule(102), None, golden_mean())


# -- pre-injectivity ------------------------------------------------------------------


def test_rule_102_preinjective():
    assert decide_preinjective(wolfram_rule(102)).answer


def test_rule_232_diamond():
    verdict = decide_preinjective(wolfram_rule(232))
    assert not verdict.answer
    assert dict(verdict.detail)["witness_verified"] is True
    assert verify_diamond_witness(
        wolfram_rule(232), full_shift(BINARY), verdict.witness
    )


def test_golden_even_preinjective(golden_even_ca):
    assert decide_preinjective(golden_even_ca, golden_mean()).answer


def test_fiorenzi_even_not_preinjective(fiorenzi_even_ca):
    verdict = decide_preinjective(fiorenzi_even_ca, even_shift())
    assert not verdict.answer
    assert dict(verdict.detail)["witness_verified"] is True


def test_fiorenzi_me_pair_on_the_even_shift(fiorenzi_even_ca):
    # the two width-13 patterns with 1s at {6,9} and {7,8,9}
    support = tuple((i,) for i in range(13))
    p = Pattern(support, tuple(1 if i in (6, 9) else 0 for i in range(13)))
    q = Pattern(support, tuple(1 if i in (7, 8, 9) else 0 for i in range(13)))
    X = even_shift()
    assert me_check_subshift(fiorenzi_even_ca, X, p, q)
    # control: a pair that rewrites a visible output is not erasable
    r = Pattern(support, tuple(1 if i == 6 else 0 for i in range(13)))
    assert not me_check_subshift(fiorenzi_even_ca, X, p, r)
    # reflexivity on an admissible pattern
    assert me_check_subshift(fiorenzi_even_ca, X, p, p)


def test_fiorenzi_ternary_preinjective_via_injectivity(fiorenzi_ternary):
    ca, X = fiorenzi_ternary
    assert decide_preinjective(ca, X).answer


# -- injectivity -----------------------------------------------------------------------


def test_rule_102_not_injective():
    verdict = decide_injective(wolfram_rule(102))
    assert not verdict.answer
    assert dict(verdict.detail)["witness_verified"] is True


def test_golden_even_not_injective(golden_even_ca):
    # the two 2-periodic golden points share the all-zero image
    verdict = decide_injective(golden_even_ca, golden_mean())
    assert not verdict.answer
    assert dict(verdict.detail)["witness_verified"] is True


def test_fiorenzi_ternary_injective(fiorenzi_ternary):
    ca, X = fiorenzi_ternary
    assert decide_injective(ca, X).answer


def test_identity_injective_everywhere():
    assert decide_injective(identity_ca(Z, BINARY)).answer
    assert decide_injective(identity_ca(Z, BINARY), even_shift()).answer


# -- preimage counting ------------------------------------------------------------------


def test_rule_102_preimage_counts():
    ca = wolfram_rule(102)
    for L in range(1, 8):
        hist = preimage_histogram(ca, L)
        assert set(hist.values()) == {2}
        assert len(hist) == 2**L
    assert count_preimages(ca, "0110") == 2


def test_identity_preimage_counts():
    assert count_preimages(identity_ca(Z, BINARY), "0101") == 1


def test_histogram_total_is_input_count():
    ca = wolfram_rule(110)
    w = len(normalize_interval(ca).memory_set)
    for L in (1, 3, 5):
        hist = preimage_histogram(ca, L)
        assert sum(hist.values()) == 2 ** (L + w - 1)


def test_count_preimages_matches_histogram():
    rng = random.Random(5)
    for _ in range(5):
        ca = random_ca(rng)
        hist = preimage_histogram(ca, 4)
        for word, count in sorted(hist.items())[:4]:
            name = "".join(str(v) for v in word)
            assert count_preimages(ca, name) == count


# -- the Garden of Eden equivalence ---------------------------------------------------------


def test_moore_myhill_for_all_elementary_rules():
    for n in range(256):
        ca = wolfram_rule(n)
        surjective = decide_surjective(ca).answer
        preinjective = decide_preinjective(ca).answer
        assert surjective == preinjective, f"Rule {n} breaks the equivalence"


def _permutive_or_random_ca(rng, a, width):
    """Half plain random tables, half tables permutive in the first or the
    last cell (x -> x + g(rest) mod a), which are surjective."""
    S = tuple((c,) for c in range(width))
    alphabet = Alphabet.of_size(a)
    kind = rng.choice(("random", "left", "right"))
    if kind == "random":
        table = tuple(rng.randrange(a) for _ in range(a**width))
    else:
        g = [rng.randrange(a) for _ in range(a ** (width - 1))]
        # window k reads x_0 as its leading base-a digit and x_{w-1} as its last
        table = tuple(
            (k // a ** (width - 1) + g[k % a ** (width - 1)]) % a
            if kind == "left"
            else (k % a + g[k // a]) % a
            for k in range(a**width)
        )
    return CellularAutomaton(Z, alphabet, alphabet, S, table)


def _oracle_rules():
    """The 256 elementary rules, then seeded binary width-4/5 and ternary
    width-2/3 rules."""
    rng = random.Random(61)
    rules = [wolfram_rule(k) for k in range(256)]
    for a, width in [(2, 4), (2, 5), (3, 2), (3, 3)]:
        rules += [interval_ca(a, width, [rng.randrange(a) for _ in range(a**width)]) for _ in range(30)]
    return rules


def _brute_force_diamond(ca):
    """Two distinct words of one length with the same first and last W - 1
    cells and the same image, which glue into a diamond.  Any length is
    sound; these find a diamond of every oracle rule that has one."""
    w, a = len(ca.memory_set), len(ca.input_alphabet)
    length = min(2 * w + 4, 12) if a == 2 else min(2 * w + 2, 7)
    seen = set()
    for word in itertools.product(range(a), repeat=length):
        key = (word[: w - 1], word[length - w + 1 :], slide(ca, word))
        if key in seen:
            return True
        seen.add(key)
    return False


def test_brute_force_diamonds_match_decide_preinjective():
    answers = []
    for ca in _oracle_rules():
        answers.append(decide_preinjective(ca).answer)
        assert _brute_force_diamond(ca) != answers[-1]
    assert 0 < sum(answers) < len(answers)


def test_moore_myhill_and_full_entropy_through_the_image():
    # a pre-injective rule on a full shift is onto (Moore-Myhill), so its
    # image has full entropy; any other image is a proper sofic subshift and
    # loses entropy.  Both are read off the image, not the pair graph.
    for ca in _oracle_rules():
        answer = decide_preinjective(ca).answer
        image = image_presentation(ca)
        assert sofic_compare(image, full_shift(ca.output_alphabet))[0] == answer
        full = math.log(len(ca.input_alphabet))
        if answer:
            assert abs(perron_entropy(image) - full) <= 1e-9
        else:
            assert perron_entropy(image) < full - 1e-9


def test_hedlund_balance_against_decide_surjective():
    # Hedlund (1969): a surjective rule gives every output word of length L
    # exactly a^(w-1) preimages of length L + w - 1, so any unbalanced word
    # must come with a non-surjective verdict
    rng = random.Random(31)
    verdicts = {True: 0, False: 0}
    unbalanced_without_missing_word = 0
    for a, width in [(2, 3), (2, 4), (2, 5), (3, 3)] * 12:
        ca = _permutive_or_random_ca(rng, a, width)
        w = len(normalize_interval(ca).memory_set)
        counts = [
            count_preimages(ca, "".join(map(str, word)))
            for L in range(1, 4)
            for word in itertools.product(range(a), repeat=L)
        ]
        balanced = set(counts) == {a ** (w - 1)}
        verdict = decide_surjective(ca)
        verdicts[verdict.answer] += 1
        if verdict.answer:
            assert balanced
        else:
            assert count_preimages(ca, verdict.witness["word"]) == 0
            unbalanced_without_missing_word += not balanced and 0 not in counts
    assert verdicts[True] >= 10 and verdicts[False] >= 10
    # some rules are unbalanced on words of length <= 3 while every such word
    # still has a preimage, so balance is a stronger check than brute force here
    assert unbalanced_without_missing_word > 0


def brute_has_goe_word(ca, max_len):
    ca = normalize_interval(ca)
    w = len(ca.memory_set)
    a = len(ca.input_alphabet)
    b = len(ca.output_alphabet)
    for L in range(1, max_len + 1):
        seen = set()
        for inp in itertools.product(range(a), repeat=L + w - 1):
            seen.add(slide(ca, inp))
        if len(seen) < b**L:
            return True
    return False


def test_decide_surjective_agrees_with_brute_force():
    rng = random.Random(9)
    for _ in range(50):
        ca = random_ca(rng, a=rng.choice((2, 3)))
        verdict = decide_surjective(ca)
        brute = brute_has_goe_word(ca, 8)
        if verdict.answer:
            assert not brute
        else:
            word = verdict.witness["word"]
            if len(word) <= 8:
                assert brute
            assert count_preimages(ca, word) == 0  # witness is sound regardless



def _least_goe_word(ca, longest):
    """The shortest, then least, output word with no preimage, or None if
    every word of length <= ``longest`` has one.  The images of all input
    words are enumerated length by length; inputs with the same image and
    the same last W - 1 symbols extend alike, so each is kept once."""
    ca = normalize_interval(ca)
    w, a, b = len(ca.memory_set), len(ca.input_alphabet), len(ca.output_alphabet)
    ends = {((), tail) for tail in itertools.product(range(a), repeat=w - 1)}
    for length in range(1, longest + 1):
        ends = {
            (image + (ca.local_rule(tail + (x,)),), (tail + (x,))[1:])
            for image, tail in ends
            for x in range(a)
        }
        images = {image for image, _ in ends}
        if len(images) < b**length:
            missing = set(itertools.product(range(b), repeat=length)) - images
            return render_word(ca.output_alphabet, min(missing))
    return None


def test_goe_word_is_the_least_shortest_word_without_preimage():
    # every binary rule of width <= 3, then seeded binary width-4 and ternary
    # width-2 rules; a surjective verdict is checked to length 8
    rules = [interval_ca(2, w, t) for w in (1, 2, 3) for t in itertools.product((0, 1), repeat=2**w)]
    rng = random.Random(41)
    rules += [interval_ca(2, 4, [rng.randrange(2) for _ in range(16)]) for _ in range(40)]
    rules += [interval_ca(3, 2, [rng.randrange(3) for _ in range(9)]) for _ in range(40)]
    goe = 0
    for ca in rules:
        verdict = decide_surjective(ca)
        if verdict.answer:
            assert _least_goe_word(ca, 8) is None
        else:
            word = verdict.witness["word"]
            assert _least_goe_word(ca, len(word)) == word
            goe += 1
    assert 0 < goe < len(rules)


def _surjectivity_outcome(ca, X, Y, budget=decide1d.DEFAULT_PAIR_BUDGET):
    try:
        return decide_surjective(ca, X, Y, budget).to_json()
    except (BudgetExceededError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "what", None), getattr(exc, "requested", None)


def _compare_outcome(compare, X, Y, budget):
    try:
        return compare(X, Y, budget)
    except BudgetExceededError as exc:
        return exc.what, exc.requested


DOMAINS = {"full": None, "golden_mean": golden_mean(), "even_shift": even_shift()}


def test_lazy_compare_matches_the_eager_compare(monkeypatch):
    rng = random.Random(31)
    outcomes = set()
    for _ in range(120):
        a = rng.choice((2, 2, 3))
        ca = random_ca(rng, a, max_width=4 if a == 2 else 2)
        names = list(DOMAINS) if a == 2 else ["full"]
        X, Y = DOMAINS[rng.choice(names)], DOMAINS[rng.choice(names)]
        image = image_presentation(ca, X)
        codomain = presentation_of(Y) if Y is not None else full_shift(ca.output_alphabet)
        for pair in ((image, codomain), (codomain, image)):
            assert sofic_compare(*pair) == eager_sofic_compare(*pair)
        lazy = _surjectivity_outcome(ca, X, Y)
        with monkeypatch.context() as patched:
            patched.setattr(decide1d, "sofic_compare", eager_sofic_compare)
            assert lazy == _surjectivity_outcome(ca, X, Y)
        outcomes.add(lazy[0] if isinstance(lazy, tuple) else lazy["answer"])
    # surjective, not surjective, and an image with a word outside the codomain
    assert outcomes == {True, False, "ValueError"}


def test_budget_counts_only_the_subsets_the_lazy_compare_builds():
    rng = random.Random(37)
    rescued = 0
    for _ in range(60):
        ca = random_ca(rng, 2, max_width=5)
        X, Y = DOMAINS[rng.choice(list(DOMAINS))], DOMAINS[rng.choice(list(DOMAINS))]
        image = image_presentation(ca, X)
        codomain = presentation_of(Y) if Y is not None else full_shift(BINARY)
        for budget in (1, 2, 4, 9, 30):
            lazy = _compare_outcome(sofic_compare, image, codomain, budget)
            eager = _compare_outcome(eager_sofic_compare, image, codomain, budget)
            if lazy != eager:  # only a budget error may become an answer
                assert eager == ("determinization states", budget + 1)
                assert lazy[0] in (True, False)
                rescued += 1
    assert rescued > 0


def test_short_goe_word_is_found_below_the_eager_budget():
    # the image automaton of this width-6 rule has 487 states; the BFS finds
    # the word 0000 after building 11 of them
    rng = random.Random(5)
    tables = [[rng.randrange(2) for _ in range(64)] for _ in range(3)]
    image, full = image_presentation(interval_ca(2, 6, tables[2])), full_shift(BINARY)
    for compare, built in ((sofic_compare, 11), (eager_sofic_compare, 487)):
        assert compare(image, full, built) == (False, None, "0000")
        with pytest.raises(BudgetExceededError) as info:
            compare(image, full, built - 1)
        assert (info.value.what, info.value.requested) == ("determinization states", built)


def test_wide_left_permutive_rule_is_settled_in_memory_linear_in_its_edges():
    # a left-permutive width-13 rule: every symbol fixes the start subset of
    # its 4,096-vertex image, so one step over its 8,192 edges settles the
    # compare; a vertex bitmask per edge target would take 8,192 x 2,048 bits
    rng = random.Random(13)
    g = [rng.randrange(2) for _ in range(1 << 12)]
    image = image_presentation(interval_ca(2, 13, [(k >> 12) ^ g[k & 4095] for k in range(1 << 13)]))
    tracemalloc.start()
    try:
        result = sofic_compare(image, full_shift(BINARY))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (image.num_vertices, result) == (4096, (True, None, None))
    assert peak < 2_500_000  # 1.1 MB measured on CPython 3.11


def test_positive_verdicts_without_a_witness_are_one_object():
    ca = wolfram_rule(102)
    assert decide_surjective(ca) is decide_preinjective(ca)
    assert not hasattr(decide_surjective(ca), "__dict__")

def test_random_diamond_witnesses_verify():
    rng = random.Random(13)
    seen_diamond = 0
    for _ in range(30):
        ca = random_ca(rng)
        verdict = decide_preinjective(ca)
        if not verdict.answer:
            seen_diamond += 1
            assert dict(verdict.detail)["witness_verified"] is True
    assert seen_diamond > 0  # random rules do hit both outcomes


def test_subshift_domain_decisions_are_consistent(fiorenzi_even_ca):
    # pre-injectivity may not hold while injectivity fails even harder
    X = even_shift()
    assert not decide_injective(fiorenzi_even_ca, X).answer


def test_me_check_routes_agree_on_the_full_shift():
    # the enumerative window check and the pair-graph walk are independent
    # implementations of the same relation; they must agree everywhere
    from goelab.goe_search import me_check
    from goelab.subshift import full_shift as fs

    rng = random.Random(37)
    support = tuple((i,) for i in range(4))
    for _ in range(8):
        ca = random_ca(rng, max_width=2)
        X = fs(ca.input_alphabet)
        for _ in range(12):
            v1 = tuple(rng.randrange(2) for _ in range(4))
            v2 = tuple(rng.randrange(2) for _ in range(4))
            p1, p2 = Pattern(support, v1), Pattern(support, v2)
            assert me_check(ca, p1, p2) == me_check_subshift(ca, X, p1, p2)
    # and on the classical pair, where no domain is the full shift too
    ca232 = wolfram_rule(232)
    p1 = word_to_pattern(BINARY, "00000")
    p2 = word_to_pattern(BINARY, "00100")
    assert me_check_subshift(ca232, fs(BINARY), p1, p2)
    assert me_check_subshift(ca232, None, p1, p2)


def test_me_checks_reject_a_value_outside_the_alphabet():
    # both routes raise the same error before any work, also when the two
    # patterns are equal and no extension would be read
    from goelab.goe_search import me_check

    ca = wolfram_rule(232)
    bad, zero = Pattern(((0,),), (2,)), Pattern(((0,),), (0,))
    calls = (
        lambda: me_check(ca, bad, zero),
        lambda: me_check(ca, bad, bad),
        lambda: me_check_subshift(ca, None, bad, bad),
        lambda: me_check_subshift(ca, None, zero, bad),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"value 2 is not a symbol index in range\(2\)"):
            call()


def test_me_check_subshift_matches_the_window_me_check():
    # a pair-lift product against ME class refinement: independent routes,
    # here on intervals away from the origin and on ternary rules too
    from goelab.goe_search import me_check

    rng = random.Random(59)
    answers = []
    for _ in range(50):
        a = rng.choice((2, 3))
        ca = random_ca(rng, a, max_width=3 if a == 2 else 2)
        for _ in range(12):
            offset = rng.randint(-2, 2)
            support = tuple((offset + i,) for i in range(rng.randint(1, 4)))
            p, q = (Pattern(support, tuple(rng.randrange(a) for _ in support)) for _ in "pq")
            answers.append(me_check_subshift(ca, None, p, q))
            assert answers[-1] == me_check(ca, p, q)
    assert 0 < sum(answers) < len(answers)


def _outcome(check, *args):
    try:
        return check(*args)
    except (ValueError, BudgetExceededError) as exc:
        return type(exc), str(exc)


def test_me_check_subshift_matches_the_flag_set_reference():
    # the (pair state, dirty) search against the dict of flag sets it replaced,
    # on sofic domains too; one draw in twenty puts q on another support
    rng = random.Random(61)
    outcomes = []
    for _ in range(300):
        a = rng.choice((2, 3))
        ca = random_ca(rng, a, max_width=3 if a == 2 else 2)
        domains = [None, _random_graph(rng, ca.input_alphabet)]
        if a == 2:
            domains += [golden_mean(), even_shift()]
        X = rng.choice(domains)
        for _ in range(10):
            offset, length = rng.randint(-2, 2), rng.randint(1, 5)
            support = tuple((offset + i,) for i in range(length))
            p = Pattern(support, tuple(rng.randrange(a) for _ in support))
            if rng.random() < 0.05:
                support = tuple((c + 1,) for (c,) in support)
            q = Pattern(support, tuple(rng.randrange(a) for _ in support))
            outcomes.append(_outcome(me_check_subshift, ca, X, p, q))
            assert outcomes[-1] == _outcome(reference_me_check_subshift, ca, X, p, q)
    assert {o if isinstance(o, bool) else o[0] for o in outcomes} == {True, False, ValueError}


def test_garden_of_eden_equivalence_on_ternary_rules():
    # the surjective iff pre-injective equivalence is alphabet-independent
    rng = random.Random(41)
    for _ in range(20):
        ca = random_ca(rng, a=3)
        assert decide_surjective(ca).answer == decide_preinjective(ca).answer


def test_injective_implies_preinjective():
    rng = random.Random(43)
    seen_injective = 0
    for _ in range(40):
        ca = random_ca(rng, a=rng.choice((2, 3)), max_width=2)
        if decide_injective(ca).answer:
            seen_injective += 1
            assert decide_preinjective(ca).answer
    assert seen_injective > 0  # permutation-like rules do appear



def _random_graph(rng, alphabet):
    """A nondeterministic labeled graph on 1-4 vertices; one in four has only
    forward edges, so it presents the empty language."""
    n = rng.randint(1, 4)
    acyclic = rng.random() < 0.25
    edges = [
        (u, v, rng.randrange(len(alphabet)))
        for u, v in ((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3 * n)))
        if u < v or not acyclic
    ]
    return SoficPresentation1D(alphabet, n, tuple(edges))


def test_one_pair_search_matches_the_two_separate_searches():
    rng = random.Random(53)
    seen = set()
    for _ in range(800):
        a = rng.choice((2, 2, 3))
        ca = random_ca(rng, a, max_width=4 if a == 2 else 3)
        domains = [None, _random_graph(rng, ca.input_alphabet)]
        if a == 2:
            domains += [golden_mean(), even_shift()]
        X = rng.choice(domains)
        for one, separate in (
            (decide_preinjective, separate_decide_preinjective),
            (decide_injective, separate_decide_injective),
        ):
            verdict = one(ca, X).to_json()
            assert verdict == separate(ca, X).to_json()
            seen.add((verdict["witness"] or {}).get("type", verdict.get("note", True)))
    assert seen == {True, "empty domain", "diamond", "config_pair"}


# -- pinned verdicts ---------------------------------------------------------------------
#
# Verdict JSON recorded with the original fixpoint-loop pair-graph engine; the
# graph core may change, these bytes may not.


def interval_ca(a, width, table):
    alphabet = Alphabet.of_size(a)
    return CellularAutomaton(Z, alphabet, alphabet, tuple((c,) for c in range(width)), tuple(table))


def pinned_rule_sets():
    rng = random.Random(2024)

    def draw(a, widths, count):
        return [
            interval_ca(a, w, [rng.randrange(a) for _ in range(a**w)])
            for w in widths
            for _ in range(count)
        ]

    binary, ternary = draw(2, (4, 5), 10), draw(3, (2,), 20)
    golden, even = draw(2, (2, 3, 4), 6), draw(2, (2, 3, 4), 6)
    # each rule on its own nondeterministic graph domain, some of them empty
    graphs = [
        (ca, _random_graph(rng, ca.input_alphabet))
        for ca in draw(2, (2, 3, 4), 10) + draw(3, (2,), 10)
    ]
    return {
        "eca": [(wolfram_rule(k), None) for k in range(256)],
        "binary-4-5": [(ca, None) for ca in binary],
        "ternary-2": [(ca, None) for ca in ternary],
        "golden_mean": [(ca, golden_mean()) for ca in golden],
        "even_shift": [(ca, even_shift()) for ca in even],
        "random-graph": graphs,
    }


PINNED_DIGESTS = {
    "eca": "82b86e8ddcb19e2bd76ae601313dd05809afac229204761d09c722c38268e282",
    "binary-4-5": "e5d3a547363de75e00133b15e80799538fd39f0cdb11dcb07128e16ad739f170",
    "ternary-2": "7c488cb5cae8b1f25a5375c96e7cb0c6ad981edffbaccf1f8b097e36a3cfe0c2",
    "golden_mean": "7b760a0c19ff947a32b4412cccb45d1b9c161e6486e2489e9c7137485fac2f5e",
    "even_shift": "4bd902a84ba853be1cf66dcdefa20529619d2eeea87aabab69c1f1c2bfcd65cc",
    "random-graph": "291dd034a24e3553c00965ebd8e8bf04042ee44a94f7f2511256ecd99f052850",
}


def test_pinned_verdict_digests():
    decisions = (decide_surjective, decide_preinjective, decide_injective)
    for name, subjects in pinned_rule_sets().items():
        rows = [[decide(ca, X).to_json() for decide in decisions] for ca, X in subjects]
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == PINNED_DIGESTS[name], name


PINNED_WITNESSES = [
    (decide_preinjective, lambda: (wolfram_rule(232), None),
     {"center": ["0", "1"], "left_pad": "", "left_period": "0", "right_pad": "00",
      "right_period": "0", "type": "diamond"}),
    (decide_injective, lambda: (wolfram_rule(232), None),
     {"center": ["0", "1"], "left_pad": ["", ""], "left_period": ["0", "0"],
      "right_pad": ["00", "00"], "right_period": ["0", "0"], "type": "config_pair"}),
    (decide_injective, lambda: (wolfram_rule(30), None),
     {"center": ["1", "0"], "left_pad": ["00", "01"], "left_period": ["0", "1"],
      "right_pad": ["", ""], "right_period": ["001", "010"], "type": "config_pair"}),
    (decide_injective, lambda: (make_golden_even_ca(), golden_mean()),
     {"center": ["0", "1"], "left_pad": ["", ""], "left_period": ["01", "10"],
      "right_pad": ["", ""], "right_period": ["10", "01"], "type": "config_pair"}),
    (decide_preinjective, lambda: (make_fiorenzi_even_ca(), even_shift()),
     {"center": ["0111100", "1000011"], "left_pad": "", "left_period": "00",
      "right_pad": "10000", "right_period": "00", "type": "diamond"}),
    (decide_injective, lambda: (make_fiorenzi_even_ca(), even_shift()),
     {"center": ["0", "1"], "left_pad": ["", ""], "left_period": ["11", "00"],
      "right_pad": ["000", "111"], "right_period": ["00", "11"], "type": "config_pair"}),
]


@pytest.mark.parametrize("decide, subject, witness", PINNED_WITNESSES)
def test_pinned_witnesses(decide, subject, witness):
    ca, X = subject()
    assert decide(ca, X).to_json() == {"answer": False, "witness": witness, "witness_verified": True}


# -- budgets and re-verification ---------------------------------------------------------


def test_lift_budget_is_checked_before_the_lift_is_built():
    ca = interval_ca(2, 12, [(k ^ k >> 11) & 1 for k in range(1 << 12)])  # reads both ends
    with pytest.raises(BudgetExceededError) as info:
        DeBruijnLift(ca, full_shift(BINARY), budget=1000)
    assert (info.value.what, info.value.requested) == ("de Bruijn lift states", 1 << 11)
    with pytest.raises(BudgetExceededError, match="de Bruijn lift states"):
        image_presentation(ca, budget=1000)
    # over a subshift the states are the (W-1)-edge paths of its graph; the
    # golden-mean graph remembers the last symbol, so 3-edge paths are the
    # 8 golden words of length 4
    lift = DeBruijnLift(interval_ca(2, 4, [0] * 16), presentation_of(golden_mean()), budget=8)
    assert lift.num_states == 8


def _linear_rule(*cells):
    return MatrixCA.make(Z, 2, [[GroupRingElement.make(Z, 2, {(c,): 1 for c in cells})]])


def _never_called(*args):
    pytest.fail("a candidate was evaluated past the cap")


@pytest.mark.parametrize(
    "call, what, requested, budget",
    [
        (lambda: count_preimages(wolfram_rule(232), "0" * 30),
         "preimage enumeration", 1 << 32, 1 << 24),
        (lambda: preimage_histogram(wolfram_rule(232), 30),
         "preimage enumeration", 1 << 32, 1 << 24),
        (lambda: kernel_finite_support(_linear_rule(0, 1), 1500),
         "kernel solve", 9009002, 1 << 22),
        (lambda: to_cellular_automaton(_linear_rule(*range(21))),
         "linear rule tabulation", 1 << 21, 1 << 20),
        (lambda: CellularAutomaton.from_local_rule(
            Z, BINARY, BINARY, tuple((c,) for c in range(25)), _never_called),
         "rule tabulation", 1 << 25, 1 << 24),
    ],
)
def test_fixed_caps_refuse_before_enumerating(monkeypatch, call, what, requested, budget):
    monkeypatch.setattr(decide1d, "slide", _never_called)
    with pytest.raises(BudgetExceededError) as info:
        call()
    assert (info.value.what, info.value.requested, info.value.budget) == (what, requested, budget)


def _gap12_decisions():
    # forbidding a 1 at cells 0 and 12 needs 4,096 higher-block vertices
    X = SFTPresentation(Z, BINARY, (Pattern.from_dict(Z, {(0,): 1, (12,): 1}),))
    identity = wolfram_rule(204)
    p = Pattern.from_dict(Z, {(0,): 0})
    return [
        lambda budget: decide_surjective(identity, X, budget=budget),
        lambda budget: decide_preinjective(identity, X, budget=budget),
        lambda budget: decide_injective(identity, X, budget=budget),
        lambda budget: decide_surjective(identity, None, X, budget=budget),
        lambda budget: me_check_subshift(identity, X, p, p, budget=budget),
        lambda budget: image_presentation(identity, X, budget=budget),
    ]


@pytest.mark.parametrize("decide", _gap12_decisions())
def test_the_callers_budget_bounds_the_compile(decide):
    with pytest.raises(BudgetExceededError) as info:
        decide(1 << 10)
    assert (info.value.what, info.value.requested) == ("higher-block vertices", 1 << 12)


@pytest.mark.parametrize(
    "decide, verifier, rule",
    [
        (decide_preinjective, "verify_diamond_witness", 232),
        (decide_injective, "verify_injectivity_witness", 102),
    ],
)
def test_failed_reverification_is_an_internal_error(monkeypatch, decide, verifier, rule):
    assert dict(decide(wolfram_rule(rule)).detail)["witness_verified"] is True
    monkeypatch.setattr(decide1d, verifier, lambda *args: False)
    with pytest.raises(RuntimeError, match="failed re-verification"):
        decide(wolfram_rule(rule))


@pytest.mark.parametrize(
    "decide, verify, rule",
    [
        (decide_preinjective, verify_diamond_witness, 232),
        (decide_injective, verify_injectivity_witness, 102),
    ],
)
def test_witnesses_verify_on_the_default_domain(decide, verify, rule):
    ca = wolfram_rule(rule)
    assert verify(ca, None, decide(ca).witness)


def test_a_witness_with_an_empty_period_describes_no_pair():
    # both words are shorter than the window, so their images are both empty
    flanks = ("left_period", "left_pad", "right_pad", "right_period")
    diamond = {"type": "diamond", "center": ["0", "1"], **{k: "" for k in flanks}}
    pair = {"type": "config_pair", "center": ["0", "1"], **{k: ["", ""] for k in flanks}}
    assert not verify_diamond_witness(wolfram_rule(102), full_shift(BINARY), diamond)
    assert not verify_injectivity_witness(wolfram_rule(102), full_shift(BINARY), pair)


def test_a_missing_bridge_is_an_internal_error():
    pg = decide1d._PairGraph(DeBruijnLift(wolfram_rule(102), full_shift(BINARY)))
    with pytest.raises(RuntimeError, match="inconsistent pair graph"):
        decide1d._bridge(pg, {0}, set())
