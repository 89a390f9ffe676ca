"""The built-in verification suite: one row per known worked result.

Each row names a mathematical claim and re-derives it from scratch through
the library; the CLI's suite verb renders the pass/fail matrix.  Rows are
deterministic and carry no timing information, so two runs of the suite
produce byte-identical reports.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import automaton as am
from . import decide1d as d1
from . import entropy as en
from . import freegroup_lab as fg
from . import goe_search as gs
from . import linear_ca as lc
from . import subshift as sub
from .groups import FreeGroup, Zd
from .patterns import (
    Alphabet,
    BINARY,
    Pattern,
    enumerate_patterns,
    pattern_index,
    pattern_to_word,
    word_to_pattern,
)

PHI = (1 + math.sqrt(5)) / 2


@dataclass(frozen=True)
class Row:
    name: str
    claim: str
    check: Callable[[], bool]


# -- shared fixtures ------------------------------------------------------------


def fiorenzi_even_ca() -> am.CellularAutomaton:
    S = tuple((c,) for c in range(5))

    def rule(y):
        if y[:3] in ((0, 0, 0), (1, 1, 1)) or y == (0, 0, 1, 0, 0):
            return 1
        return 0

    return am.CellularAutomaton.from_local_rule(Zd(1), BINARY, BINARY, S, rule)


def fiorenzi_ternary_sft() -> sub.SFTPresentation:
    A3 = Alphabet.of_size(3)
    forb = (word_to_pattern(A3, "01"), word_to_pattern(A3, "02"))
    return sub.SFTPresentation(Zd(1), A3, forb)


def fiorenzi_ternary_ca() -> am.CellularAutomaton:
    A3 = Alphabet.of_size(3)
    S = ((-1,), (0,))

    def rule(y):
        prev, cur = y
        if cur == 0 and prev in (1, 2):
            return prev
        return cur

    return am.CellularAutomaton.from_local_rule(Zd(1), A3, A3, S, rule)


def golden_even_ca() -> am.CellularAutomaton:
    # restriction of Rule 153 (equivalently Rule 17) to the golden mean shift
    table = {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    return am.CellularAutomaton.from_local_rule(
        Zd(1), BINARY, BINARY, ((0,), (1,)), lambda y: table[tuple(y)]
    )


def moore_myhill_sweep() -> Tuple[int, ...]:
    """Rules where surjectivity and pre-injectivity disagree (must be empty)."""
    bad = []
    for n in range(256):
        ca = am.wolfram_rule(n)
        if d1.decide_surjective(ca).answer != d1.decide_preinjective(ca).answer:
            bad.append(n)
    return tuple(bad)


def _brute_sphere(n: int) -> int:
    count = 0
    for word in itertools.product((1, -1, 2, -2), repeat=n):
        if all(word[i] != -word[i + 1] for i in range(n - 1)):
            count += 1
    return count


# -- row checks -------------------------------------------------------------------


def _free_spheres() -> bool:
    F2 = FreeGroup(2)
    return all(F2.sphere_size(n) == 4 * 3 ** (n - 1) for n in range(1, 9)) and all(
        F2.sphere_size(n) == _brute_sphere(n) for n in range(1, 7)
    )


def _free_ball_17() -> bool:
    return len(FreeGroup(2).ball(2)) == 17


def _folner_sizes() -> bool:
    return (
        len(Zd(1).folner_set(2)) == 5
        and len(Zd(2).folner_set(1)) == 9
        and Zd(3).folner_set(0) == ((0, 0, 0),)
    )


def _free_growth() -> bool:
    rows = FreeGroup(2).growth_rate_estimate(11)
    estimates = [r[2] for r in rows]
    decreasing = all(b < a for a, b in zip(estimates[1:], estimates[2:]))
    return decreasing and abs(estimates[-1] - 3.0) < 0.2


def _zd_growth() -> bool:
    rows = Zd(2).growth_rate_estimate(20)
    estimates = [r[2] for r in rows]
    return estimates[-1] <= 1.5 and estimates[-1] < estimates[4]


def _free_defect() -> bool:
    F2 = FreeGroup(2)
    return all(
        F2.folner_defect(F2.ball(n), (1,)) >= Fraction(1, 4) for n in range(1, 7)
    )


def _cube_defect() -> bool:
    Z2 = Zd(2)
    return all(
        Z2.folner_defect(Z2.folner_set(n), (1, 0)) == Fraction(1, 2 * n + 1)
        for n in range(1, 8)
    )


def _word_bridge() -> bool:
    p = word_to_pattern(BINARY, "01001")
    return p.support == tuple((i,) for i in range(5)) and pattern_to_word(BINARY, p) == (
        "01001",
        0,
    )


def _enumeration() -> bool:
    A3 = Alphabet.of_size(3)
    support = tuple((i,) for i in range(4))
    pats = list(enumerate_patterns(A3, support))
    return len(set(pats)) == 81 and all(
        pattern_index(A3, p) == k for k, p in enumerate(pats)
    )


def _rule_102_table() -> bool:
    ca = am.wolfram_rule(102)
    want = {(0, 0, 0): 0, (0, 0, 1): 1, (0, 1, 0): 1, (0, 1, 1): 0,
            (1, 0, 0): 0, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 0}
    return all(ca.local_rule(w) == out for w, out in want.items())


def _rule_232_table() -> bool:
    ca = am.wolfram_rule(232)
    return all(
        ca.local_rule(w) == (1 if sum(w) >= 2 else 0)
        for w in itertools.product((0, 1), repeat=3)
    )


def _wolfram_roundtrip() -> bool:
    return all(am.wolfram_number(am.wolfram_rule(n)) == n for n in range(256))


def _rule_102_square() -> bool:
    ca = am.wolfram_rule(102)
    square = am.minimal_memory_set(am.compose(ca, ca))
    if square.memory_set != ((0,), (2,)):
        return False
    return all(
        square.local_rule((x, z)) == (x + z) % 2 for x in (0, 1) for z in (0, 1)
    )


def _golden_even_rules() -> bool:
    ca = golden_even_ca()
    r153 = am.minimal_memory_set(am.wolfram_rule(153))
    r17 = am.minimal_memory_set(am.wolfram_rule(17))
    if r153.memory_set != ((0,), (1,)) or r17.memory_set != ((0,), (1,)):
        return False
    windows = [(0, 0), (0, 1), (1, 0)]  # the windows the golden mean allows
    return all(
        ca.local_rule(w) == r153.local_rule(w) == r17.local_rule(w) for w in windows
    )


def _golden_counts() -> bool:
    X = sub.golden_mean()
    counts = [sub.language_count(X, n) for n in range(1, 13)]
    if counts[:4] != [2, 3, 5, 8]:
        return False
    return all(counts[i + 2] == counts[i + 1] + counts[i] for i in range(10))


def _even_counts() -> bool:
    X = sub.even_shift()
    counts = [sub.language_count(X, n) for n in range(1, 13)]
    if counts[:2] != [2, 4]:
        return False
    return all(counts[i + 2] == 1 + counts[i + 1] + counts[i] for i in range(10))


def _even_words() -> bool:
    X = sub.even_shift()
    return (
        not sub.word_appears(X, "101")
        and sub.word_appears(X, "010")
        and sub.word_appears(X, "0110")
    )


def _determinize_even() -> bool:
    D = sub.determinize(sub.even_shift())
    return D.num_vertices <= 3 and D.is_deterministic()


def _golden_vs_even() -> bool:
    equal, only_g, only_e = sub.sofic_compare(sub.golden_mean(), sub.even_shift())
    return not equal and only_e == "11" and only_g == "101"


def _irreducibility() -> bool:
    period2 = sub.SFTPresentation(
        Zd(1), BINARY, (word_to_pattern(BINARY, "00"), word_to_pattern(BINARY, "11"))
    )
    frozen = sub.SFTPresentation(
        Zd(1), BINARY, (word_to_pattern(BINARY, "01"), word_to_pattern(BINARY, "10"))
    )
    gap_golden = sub.mixing_gap(sub.golden_mean())
    return (
        sub.irreducible(sub.golden_mean())
        and sub.irreducible(sub.even_shift())
        and sub.irreducible(period2)
        and not sub.irreducible(frozen)
        and gap_golden is not None
        and gap_golden <= 2
        and sub.mixing_gap(period2) is None
        and sub.mixing_gap(sub.even_shift()) == 2
    )


def _ledrappier_counts() -> bool:
    X = sub.ledrappier()
    Z2 = Zd(2)
    for n in range(1, 4):
        window = Z2.box((n + 1, n + 1))
        if sub.locally_admissible_count(X, window) != 2 ** (2 * n + 1):
            return False
    return True


def _hard_ball_window() -> bool:
    X = sub.hard_ball(1)
    window = tuple((i,) for i in range(4))
    return sub.locally_admissible_count(X, window) == 8


def _moore_myhill() -> bool:
    return moore_myhill_sweep() == ()


def _rule_102_trio() -> bool:
    ca = am.wolfram_rule(102)
    s = d1.decide_surjective(ca)
    p = d1.decide_preinjective(ca)
    i = d1.decide_injective(ca)
    # every word of length 1-6 has exactly two preimages
    hists = {L: d1.preimage_histogram(ca, L) for L in range(1, 7)}
    counts_ok = all(len(h) == 2**L and set(h.values()) == {2} for L, h in hists.items())
    return s.answer and p.answer and not i.answer and counts_ok


def _rule_232_trio() -> bool:
    ca = am.wolfram_rule(232)
    s = d1.decide_surjective(ca)
    if s.answer or len(s.witness["word"]) > 5:
        return False
    if d1.count_preimages(ca, "01001") != 0:
        return False
    p = d1.decide_preinjective(ca)
    return not p.answer and dict(p.detail).get("witness_verified") is True


def _golden_even_trio() -> bool:
    ca = golden_even_ca()
    X, Y = sub.golden_mean(), sub.even_shift()
    return (
        d1.decide_preinjective(ca, X).answer
        and d1.decide_surjective(ca, X, Y).answer
        and not d1.decide_injective(ca, X).answer
    )


def _fiorenzi_even() -> bool:
    ca = fiorenzi_even_ca()
    X = sub.even_shift()
    if not d1.decide_surjective(ca, X, X).answer:
        return False
    if d1.decide_preinjective(ca, X).answer:
        return False
    support = tuple((i,) for i in range(13))
    p = Pattern(support, tuple(1 if i in (6, 9) else 0 for i in range(13)))
    q = Pattern(support, tuple(1 if i in (7, 8, 9) else 0 for i in range(13)))
    return d1.me_check_subshift(ca, X, p, q)


def _fiorenzi_ternary() -> bool:
    ca = fiorenzi_ternary_ca()
    X = fiorenzi_ternary_sft()
    if not d1.decide_injective(ca, X).answer:
        return False
    s = d1.decide_surjective(ca, X, X)
    return not s.answer and s.witness["word"] == "120"


def _identity_ca() -> bool:
    ca = am.identity_ca(Zd(1), BINARY)
    p = word_to_pattern(BINARY, "0110")
    return am.apply_to_pattern(ca, p) == p and d1.count_preimages(ca, "0110") == 1


def _goe_search_232() -> bool:
    outcome = gs.find_goe_pattern(am.wolfram_rule(232))
    if outcome.found is None or len(outcome.found.support) > 5:
        return False
    word = "".join(str(v) for v in outcome.found.values)
    return d1.count_preimages(am.wolfram_rule(232), word) == 0


def _me_pair_232() -> bool:
    outcome = gs.find_me_pair(am.wolfram_rule(232))
    if outcome.found is None:
        return False
    p1, p2 = outcome.found
    return (
        len(p1.support) == 5
        and p1.values == (0, 0, 0, 0, 0)
        and p2.values == (0, 0, 1, 0, 0)
        and gs.me_check(am.wolfram_rule(232), p1, p2)
    )


def _rule_102_unknown() -> bool:
    verdict = gs.semi_decide(am.wolfram_rule(102), gs.SearchBudget(max_window_cells=8))
    return verdict.status == "unknown" and "decide1d" in verdict.note


def _n0_values() -> bool:
    if gs.n0_bound(2, 1, 1, 1) != 3 or gs.n0_bound(2, 2, 1, 1) != 5:
        return False
    rng = random.Random(7)
    for _ in range(20):
        d = rng.choice((1, 2))
        k = 1 if d == 2 else rng.randint(1, 3)
        a = rng.randint(2, 4)
        r = rng.randint(1, 3)
        n0 = gs.n0_bound(a, k, d, r)
        if not gs.holds_at(a, k, d, r, n0) or gs.holds_at(a, k, d, r, n0 - 1):
            return False
        if not all(gs.holds_at(a, k, d, r, n0 + j) for j in range(1, 4)):
            return False
    return True


def _tiling_line() -> bool:
    Z = Zd(1)
    E = ((0,), (1,))
    window = tuple((i,) for i in range(10))
    T, e_prime = gs.greedy_tiling(Z, E, window)
    return (
        T == ((0,), (2,), (4,), (6,), (8,))
        and e_prime == ((-1,), (0,), (1,))
        and gs.tiling_cover_certificate(Z, E, window, T)
    )


def _perron_values() -> bool:
    target = math.log(PHI)
    return (
        abs(en.perron_entropy(sub.golden_mean()) - target) < 1e-9
        and abs(en.perron_entropy(sub.even_shift()) - target) < 1e-9
        and abs(en.perron_entropy(sub.full_shift(BINARY)) - math.log(2)) < 1e-12
    )


def _golden_estimate() -> bool:
    est = en.pattern_count_entropy(sub.golden_mean(), [10])
    n, count, cells, nats = est.rows[0]
    return count == 233 and abs(nats - math.log(PHI)) < 0.02


def _ledrappier_entropy() -> bool:
    est = en.pattern_count_entropy(sub.ledrappier(), range(1, 11))
    for n, count, cells, nats in est.rows:
        if count != 2 ** (2 * n + 1):
            return False
        if abs(nats - (2 * n + 1) * math.log(2) / (n + 1) ** 2) > 1e-12:
            return False
    vals = [r[3] for r in est.rows]
    return all(b < a for a, b in zip(vals, vals[1:]))


def _rule_232_image_entropy() -> bool:
    report = en.image_entropy_check(am.wolfram_rule(232))
    return report.ok and report.image_perron < math.log(2) - 0.01


def _bigger_alphabet() -> bool:
    report = en.no_surjection_bigger_alphabet_check(2, 3, trials=10, seed=3)
    return report.all_non_surjective


def _tiling_bound_golden() -> bool:
    report = en.tiling_entropy_bound_check(sub.golden_mean(), ((0,), (1,)), range(4, 11))
    if not (report.applicable and report.holds):
        return False
    full = en.tiling_entropy_bound_check(sub.full_shift(BINARY), ((0,), (1,)), range(4, 6))
    return not full.applicable


def _convolution_identities() -> bool:
    Z = Zd(1)
    one_plus_u = lc.GroupRingElement.make(Z, 2, {(0,): 1, (1,): 1})
    square = lc.convolution(one_plus_u, one_plus_u)
    u = lc.GroupRingElement.delta(Z, 2, (1,))
    delta = lc.GroupRingElement.delta(Z, 2, (0,))
    return (
        square == lc.GroupRingElement.make(Z, 2, {(0,): 1, (2,): 1})
        and lc.involution(u) == lc.GroupRingElement.delta(Z, 2, (-1,))
        and lc.convolution(one_plus_u, delta) == one_plus_u
    )


def _rule_102_linear() -> bool:
    Z = Zd(1)
    M = lc.MatrixCA.make(Z, 2, [[lc.GroupRingElement.make(Z, 2, {(0,): 1, (1,): 1})]])
    ca = lc.to_cellular_automaton(M)
    minimal = am.minimal_memory_set(ca)
    want = am.minimal_memory_set(am.wolfram_rule(102))
    return minimal.memory_set == want.memory_set and minimal.table == want.table


def _duality_1u() -> bool:
    Z = Zd(1)
    M = lc.MatrixCA.make(Z, 2, [[lc.GroupRingElement.make(Z, 2, {(0,): 1, (1,): 1})]])
    report = lc.duality_check(M)
    return report.holds and report.pre_injective and report.surjective


def _adjoint_pairing() -> bool:
    Z = Zd(1)
    M = lc.MatrixCA.make(Z, 2, [[lc.GroupRingElement.make(Z, 2, {(0,): 1, (1,): 1})]])
    N = lc.adjoint(M)
    if lc.adjoint(N) != M:
        return False
    rng = random.Random(11)
    for _ in range(100):
        x = {(rng.randint(-4, 4),): (rng.randint(0, 1),) for _ in range(3)}
        y = {(rng.randint(-4, 4),): (rng.randint(0, 1),) for _ in range(3)}
        x = {g: v for g, v in x.items() if any(v)}
        y = {g: v for g, v in y.items() if any(v)}
        lhs = lc.pairing(2, lc.apply_linear(M, x), y)
        rhs = lc.pairing(2, x, lc.apply_linear(N, y))
        if lhs != rhs:
            return False
    return True


def _kernels() -> bool:
    Z = Zd(1)
    M = lc.MatrixCA.make(Z, 2, [[lc.GroupRingElement.make(Z, 2, {(0,): 1, (1,): 1})]])
    zero = lc.MatrixCA.make(Z, 2, [[lc.GroupRingElement.zero(Z, 2)]])
    return (
        lc.kernel_finite_support(M, 6) == []
        and len(lc.kernel_finite_support(zero, 0)) == 1
    )


def _ex1() -> bool:
    return all(fg.verify_ex1_diamond(r).ok for r in range(2, 6))


def _ex1_preimages() -> bool:
    for n in (1, 2, 3):
        for trial in range(20):
            target = fg.random_ball_pattern(n, seed=100 * n + trial)
            if not fg.verify_ex1_preimage(target).ok:
                return False
    return True


def _ex2() -> bool:
    return all(fg.verify_ex2(r).ok for r in (1, 2))


ROWS: List[Row] = [
    Row("group.free-sphere-sizes", "F2 spheres have size 4*3^(n-1)", _free_spheres),
    Row("group.free-ball", "F2 ball of radius 2 has 17 elements", _free_ball_17),
    Row("group.folner-cube-sizes", "Folner cubes have (2n+1)^d cells", _folner_sizes),
    Row("group.free-growth", "F2 growth estimate approaches 3", _free_growth),
    Row("group.zd-growth", "Z^2 growth estimate decays toward 1", _zd_growth),
    Row("group.free-defect", "F2 ball defects stay >= 1/4", _free_defect),
    Row("group.cube-defect", "Z^2 cube defect equals 1/(2n+1)", _cube_defect),
    Row("patterns.word-bridge", "words and interval patterns are in bijection", _word_bridge),
    Row("patterns.enumeration", "pattern enumeration is a bijection with indices", _enumeration),
    Row("automaton.rule-102-table", "Rule 102 is the two-cell mod-2 sum", _rule_102_table),
    Row("automaton.rule-232-table", "Rule 232 is the majority vote", _rule_232_table),
    Row("automaton.wolfram-roundtrip", "Wolfram numbering is bijective on 0..255", _wolfram_roundtrip),
    Row("automaton.identity", "the identity automaton fixes patterns", _identity_ca),
    Row("automaton.rule-102-square", "Rule 102 squared is x(n)+x(n+2) on {0,2}", _rule_102_square),
    Row("automaton.golden-even-rules", "the golden-to-even rule restricts Rules 153 and 17", _golden_even_rules),
    Row("subshift.golden-counts", "golden-mean counts follow the Fibonacci recurrence", _golden_counts),
    Row("subshift.even-counts", "even-shift counts satisfy u(n+2)=1+u(n+1)+u(n)", _even_counts),
    Row("subshift.even-words", "010 is forbidden and 0110 allowed in the even shift", _even_words),
    Row("subshift.determinize-even", "the even shift determinizes to <= 3 states", _determinize_even),
    Row("subshift.golden-vs-even", "golden and even shifts differ, shortest witness 11", _golden_vs_even),
    Row("subshift.irreducibility", "irreducibility and mixing gaps of the builtins", _irreducibility),
    Row("subshift.ledrappier-counts", "Ledrappier windows carry 2^(2n+1) patterns", _ledrappier_counts),
    Row("subshift.hard-ball-window", "hard-ball counts match golden-mean word counts", _hard_ball_window),
    Row("decide1d.moore-myhill-256", "surjective iff pre-injective for all 256 elementary rules", _moore_myhill),
    Row("decide1d.rule-102", "Rule 102: surjective, pre-injective, not injective, 2 preimages", _rule_102_trio),
    Row("decide1d.rule-232", "Rule 232: GOE word of length <= 5; 01001 is GOE; not pre-injective", _rule_232_trio),
    Row("decide1d.golden-even", "golden-to-even: pre-injective and surjective, not injective", _golden_even_trio),
    Row("decide1d.fiorenzi-even", "even-shift rule: surjective, not pre-injective, ME pair verified", _fiorenzi_even),
    Row("decide1d.fiorenzi-ternary", "ternary rule: injective but not surjective, GOE word 120", _fiorenzi_ternary),
    Row("goe.rule-232-witness", "window search finds a <= 5-cell GOE pattern for Rule 232", _goe_search_232),
    Row("goe.rule-232-me-pair", "window search finds the 00000/00100 erasable pair", _me_pair_232),
    Row("goe.rule-102-unknown", "window search stays unknown for Rule 102", _rule_102_unknown),
    Row("goe.counting-bound", "counting bound equals 3 and 5 at the quoted parameters", _n0_values),
    Row("goe.greedy-tiling", "greedy tiling of the line by {0,1} with cover certificate", _tiling_line),
    Row("entropy.perron", "golden and even shifts both have entropy log(phi)", _perron_values),
    Row("entropy.golden-estimate", "golden window estimate at n=10 is within 0.02 of log(phi)", _golden_estimate),
    Row("entropy.ledrappier", "Ledrappier estimates equal (2n+1)log2/(n+1)^2 and decay", _ledrappier_entropy),
    Row("entropy.rule-232-image", "Rule 232 image entropy sits below log 2", _rule_232_image_entropy),
    Row("entropy.bigger-alphabet", "no surjections onto a bigger full shift", _bigger_alphabet),
    Row("entropy.tiling-bound", "tiling inequality holds strictly for the golden mean", _tiling_bound_golden),
    Row("linear.convolution", "group-ring identities: (1+u)^2, involution, unit", _convolution_identities),
    Row("linear.rule-102", "the matrix [1+u] realizes Rule 102", _rule_102_linear),
    Row("linear.duality", "pre-injectivity/surjectivity swap under the adjoint", _duality_1u),
    Row("linear.pairing", "the adjoint pairing identity holds exactly", _adjoint_pairing),
    Row("linear.kernels", "finite-support kernels: trivial for 1+u, full for 0", _kernels),
    Row("freegroup.ex1-diamond", "threshold rule on F2: the single-1 diamond", _ex1),
    Row("freegroup.ex1-preimage", "threshold rule on F2: predecessor preimages verify", _ex1_preimages),
    Row("freegroup.ex2", "projection rule on F2: not surjective, trivial kernel", _ex2),
]


def run_suite(name_filter: Optional[str] = None) -> dict:
    rows = [r for r in ROWS if name_filter is None or name_filter in r.name]

    def run(row: Row):
        try:
            ok = bool(row.check())
        except Exception as exc:  # a crashed row is a failed row
            return {"name": row.name, "claim": row.claim, "pass": False,
                    "error": f"{type(exc).__name__}: {exc}"}
        return {"name": row.name, "claim": row.claim, "pass": ok}

    results = [run(row) for row in rows]
    passed = sum(1 for r in results if r["pass"])
    return {
        "schema": "1",
        "suite": "worked-examples",
        "rows": results,
        "passed": passed,
        "failed": len(results) - passed,
        "all_pass": passed == len(results),
    }
