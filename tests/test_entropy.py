import hashlib
import json
import math
import random

import pytest

from goelab import entropy, subshift
from goelab.automaton import CellularAutomaton, identity_ca, wolfram_rule
from goelab.decide1d import image_presentation, normalize_interval
from goelab.entropy import (
    image_entropy_check,
    no_surjection_bigger_alphabet_check,
    pattern_count_entropy,
    perron_entropy,
    tiling_entropy_bound_check,
)
from goelab.errors import UnsupportedGroupError
from goelab.groups import FreeGroup, Zd
from goelab.patterns import Alphabet, BINARY, Pattern, word_to_pattern
from goelab.subshift import (
    SFTPresentation,
    SoficPresentation1D,
    _strongly_connected_components,
    determinize,
    even_shift,
    full_shift,
    golden_mean,
    hard_ball,
    language_count,
    ledrappier,
    presentation_of,
)
from conftest import make_golden_even_ca, reference_spectral_radius

Z = Zd(1)
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def test_golden_estimate_near_log_phi():
    est = pattern_count_entropy(golden_mean(), [10])
    n, count, cells, nats = est.rows[0]
    assert (count, cells) == (233, 11)
    assert abs(nats - math.log(233) / 11) < 1e-15
    assert abs(nats - LOG_PHI) < 0.02
    assert not hasattr(est, "__dict__")  # slotted: a sweep keeps one per call


def test_ledrappier_estimates_match_the_closed_form():
    est = pattern_count_entropy(ledrappier(), range(1, 11))
    for n, count, cells, nats in est.rows:
        assert count == 2 ** (2 * n + 1)
        assert cells == (n + 1) ** 2
        assert abs(nats - (2 * n + 1) * math.log(2) / (n + 1) ** 2) < 1e-12
    values = [r[3] for r in est.rows]
    assert all(b < a for a, b in zip(values, values[1:]))  # trending to 0


def test_full_shift_estimate_is_log_a_at_every_n():
    A3 = Alphabet.of_size(3)
    est = pattern_count_entropy(full_shift(A3), range(1, 8))
    for _, count, cells, nats in est.rows:
        assert count == 3**cells
        assert abs(nats - math.log(3)) < 1e-12


def test_perron_golden_and_even_agree():
    golden = perron_entropy(golden_mean())
    even = perron_entropy(even_shift())
    assert abs(golden - LOG_PHI) < 1e-9
    assert abs(even - LOG_PHI) < 1e-9
    assert abs(golden - even) < 1e-9


def test_perron_full_shift_and_period2():
    assert abs(perron_entropy(full_shift(BINARY)) - math.log(2)) < 1e-12
    period2 = SFTPresentation(
        Z, BINARY, (word_to_pattern(BINARY, "00"), word_to_pattern(BINARY, "11"))
    )
    assert abs(perron_entropy(period2)) < 1e-12


def _perron_battery():
    """Named shifts, then seeded random images of full shifts: 42 binary of
    widths 2-4, 20 ternary of width 2 and 10 binary of width 5."""
    period2 = SFTPresentation(
        Z, BINARY, (word_to_pattern(BINARY, "00"), word_to_pattern(BINARY, "11"))
    )
    yield from (golden_mean(), even_shift(), period2, full_shift(BINARY))
    yield full_shift(Alphabet.of_size(3))
    rng = random.Random(8)
    for a, widths, count in ((2, (2, 3, 4), 42), (3, (2,), 20), (2, (5,), 10)):
        A = Alphabet.of_size(a)
        for k in range(count):
            width = widths[k % len(widths)]
            table = tuple(rng.randrange(a) for _ in range(a**width))
            S = tuple((c,) for c in range(width))
            yield image_presentation(CellularAutomaton(Z, A, A, S, table))


# sha256 of repr() of the 77 battery values, recorded with the dense n x n
# iteration before the rows went sparse
PINNED_PERRON_DIGEST = "3dc99dd3f329f410032bee2eda1689c5b38a9134ed3f1017883625190665bc01"


def test_pinned_perron_digest():
    values = [perron_entropy(X) for X in _perron_battery()]
    assert len(values) == 77
    assert hashlib.sha256(repr(values).encode()).hexdigest() == PINNED_PERRON_DIGEST


def _dense_perron_entropy(X, tol=1e-9):
    """The dense n x n power iteration perron_entropy ran before its rows
    went sparse, kept as the reference; each row is added with an explicit
    loop, so its floats do not depend on the Python version."""
    pres = determinize(presentation_of(X))
    n = pres.num_vertices
    if n == 0:
        return float("-inf")
    counts = [[0] * n for _ in range(n)]
    adj = [[] for _ in range(n)]
    for u, v, _ in pres.edges:
        if counts[u][v] == 0:
            adj[u].append(v)
        counts[u][v] += 1
    best = 0.0
    for comp in _strongly_connected_components(n, adj):
        if len(comp) == 1 and counts[comp[0]][comp[0]] == 0:
            continue
        sub = [[counts[u][v] for v in comp] for u in comp]
        m = len(comp)
        vec = [1.0] * m
        for _ in range(100000):
            w = []
            for i in range(m):
                total = 0  # left to right, as sum() added floats through Python 3.11
                for j in range(m):
                    total += sub[i][j] * vec[j]
                w.append(total + vec[i])
            ratios = [w[i] / vec[i] for i in range(m)]
            lo, hi = min(ratios), max(ratios)
            norm = max(w)
            vec = [x / norm for x in w]
            if hi - lo < tol:
                break
        else:
            raise RuntimeError("no bracket")
        best = max(best, (lo + hi) / 2.0 - 1.0)
    return math.log(best) if best > 0.0 else float("-inf")


def test_sparse_perron_equals_the_dense_iteration():
    rng = random.Random(23)
    compared = 0
    while compared < 150:
        a = rng.choice((2, 3))
        n = rng.randint(1, 8)
        edges = tuple(
            (u, rng.randrange(n), sym)
            for u in range(n)
            for sym in range(a)
            for _ in range(rng.randint(0, 2))  # 0-2 edges per label: not right-resolving
        )
        X = SoficPresentation1D(Alphabet.of_size(a), n, edges)
        if determinize(X).num_vertices > 40:
            continue
        assert perron_entropy(X) == _dense_perron_entropy(X)
        compared += 1


def _random_irreducible_rows(rng, n):
    """Sparse rows of a random strongly connected integer matrix: a random
    n-cycle, then up to 3 more distinct columns per row; counts 1-3."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [{} for _ in range(n)]
    for i, u in enumerate(order):
        rows[u][order[(i + 1) % n]] = rng.randint(1, 3)
        for v in rng.sample(range(n), min(n, rng.randint(1, 4)) - 1):
            rows[u].setdefault(v, rng.randint(1, 3))
    return [sorted(row.items()) for row in rows]


def test_column_passes_equal_the_row_sums():
    rng = random.Random(31)
    matrices = [[[(0, c)]] for c in (1, 2, 3)]  # one-vertex self-loop components
    matrices += [_random_irreducible_rows(rng, rng.randint(1, 40)) for _ in range(450)]
    matrices += [_random_irreducible_rows(rng, rng.randint(41, 300)) for _ in range(50)]
    degrees = {len(row) for rows in matrices for row in rows}
    assert degrees == {1, 2, 3, 4} and max(map(len, matrices)) > 250
    for rows in matrices:
        assert entropy._spectral_radius(rows) == reference_spectral_radius(rows)


def test_estimates_dominate_perron_with_small_final_gap():
    for X in (golden_mean(), even_shift()):
        exact = perron_entropy(X)
        est = pattern_count_entropy(X, [16, 32, 64])
        values = [r[3] for r in est.rows]
        assert all(v >= exact - 1e-12 for v in values)
        assert values[-1] - exact < 0.02


def test_image_entropy_rule_232():
    report = image_entropy_check(wolfram_rule(232))
    assert report.ok
    assert not hasattr(report, "__dict__")
    assert report.image_perron < math.log(2) - 0.01


def test_image_entropy_identity_is_equality():
    report = image_entropy_check(identity_ca(Z, BINARY))
    for n, img, dom in report.rows:
        assert img == dom
    assert abs(report.image_perron - report.domain_perron) < 1e-12


def test_image_entropy_golden_even():
    report = image_entropy_check(make_golden_even_ca(), golden_mean())
    assert report.ok
    assert abs(report.image_perron - LOG_PHI) < 1e-9
    assert abs(report.domain_perron - LOG_PHI) < 1e-9


def test_image_counts_never_violate_on_random_rules():
    rng = random.Random(17)
    for _ in range(50):
        width = rng.randint(1, 3)
        S = tuple((c,) for c in range(width))
        a = rng.choice((2, 3))
        alphabet = Alphabet.of_size(a)
        table = tuple(rng.randrange(a) for _ in range(a**width))
        ca = CellularAutomaton(Z, alphabet, alphabet, S, table)
        report = image_entropy_check(ca, ns=range(1, 11))
        assert report.violations == 0



def test_image_entropy_check_builds_each_subset_automaton_once(monkeypatch):
    built = []
    original = subshift.subset_automaton

    def counting(pres, *args):
        built.append(pres)
        return original(pres, *args)

    rng = random.Random(19)
    for X in (None, golden_mean(), even_shift()):
        ca = CellularAutomaton(
            Z, BINARY, BINARY, tuple((c,) for c in range(4)), tuple(rng.randrange(2) for _ in range(16))
        )
        # the same report from one language count per n and one Perron value per shift
        w = len(normalize_interval(ca).memory_set)
        image = image_presentation(ca, X)
        domain = presentation_of(X) if X is not None else full_shift(BINARY)
        rows = tuple((n, language_count(image, n + 1), language_count(domain, n + w)) for n in range(1, 9))
        perrons = (perron_entropy(domain), perron_entropy(image))
        with monkeypatch.context() as patched:
            patched.setattr(subshift, "subset_automaton", counting)
            patched.setattr(entropy, "subset_automaton", counting)
            built.clear()
            report = image_entropy_check(ca, X, range(1, 9))
        assert len(built) == 2  # the image and the domain, once each
        assert (report.rows, report.domain_perron, report.image_perron) == (rows, *perrons)


def test_image_entropy_check_validates_ns_before_building(monkeypatch):
    def unreachable(*args):
        raise AssertionError("built before the lengths were checked")

    monkeypatch.setattr(entropy, "_domain", unreachable)
    monkeypatch.setattr(entropy, "image_presentation", unreachable)
    with pytest.raises(ValueError, match="length must be >= 0"):
        image_entropy_check(wolfram_rule(232), None, [3, -2])


def test_no_surjection_onto_bigger_alphabet():
    report = no_surjection_bigger_alphabet_check(2, 3, trials=25, seed=0)
    assert report.all_non_surjective
    assert len(report.witnesses) == 25


def test_duplication_rule_has_short_goe_word():
    # copy the pair (x(n), x(n+1)) as one of four output symbols
    from goelab.decide1d import decide_surjective

    B4 = Alphabet.of_size(4)
    ca = CellularAutomaton.from_local_rule(
        Z, BINARY, B4, ((0,), (1,)), lambda w: 2 * w[0] + w[1]
    )
    verdict = decide_surjective(ca)
    assert not verdict.answer
    assert len(verdict.witness["word"]) <= 2


def test_identity_is_surjective_control():
    from goelab.decide1d import decide_surjective

    assert decide_surjective(identity_ca(Z, BINARY)).answer


def test_tiling_bound_golden_mean():
    report = tiling_entropy_bound_check(golden_mean(), ((0,), (1,)), range(4, 11))
    assert report.applicable and report.holds
    for n, tiles, lhs, rhs in report.rows:
        assert lhs < rhs  # strict slack at every window


def test_tiling_bound_full_shift_not_applicable():
    report = tiling_entropy_bound_check(full_shift(BINARY), ((0,), (1,)), range(4, 6))
    assert not report.applicable


def test_tiling_bound_hard_ball_plane():
    E = ((0, 0), (1, 0))  # the two-cell domino
    report = tiling_entropy_bound_check(hard_ball(2), E, range(3, 6))
    assert report.applicable and report.holds


# sha256 of each report's sorted-key JSON, recorded before the tile count
# was taken once per check
PINNED_TILING_REPORTS = {
    "golden-domino": "0c7193e7a679e0b30799411e751ffc64cf2ca5a2ed08201f8d4c45f9073cffdb",
    "golden-triple": "30c4ab9d7c1f7ccb792c397c2c778a3c1e4e70a59b35de12822c1c616b6f905a",
    "even-triple": "17b89ca687fef8f72fa3ccde7d49ed9c2da2140c0ea344550a889c3b9a178b03",
    "hard-ball-domino": "68d81f271413bdce341d6f8cf178621a2c2465be284dea4203eca39fe8384481",
    "hard-ball-square": "214dee3142316b054cc4daa836efc20d4149dee2836645623afd381417dc7b10",
    "ledrappier-L": "1a028b03ffe1f0356e016d59b3216af889dac3dbc3b61556b020aff0cfdaec7d",
}


@pytest.mark.parametrize(
    "name, X, E, ns",
    [
        ("golden-domino", golden_mean(), ((0,), (1,)), range(4, 11)),
        ("golden-triple", golden_mean(), ((0,), (1,), (2,)), range(4, 11)),
        ("even-triple", even_shift(), ((0,), (1,), (2,)), range(4, 11)),
        ("hard-ball-domino", hard_ball(2), ((0, 0), (1, 0)), range(3, 6)),
        ("hard-ball-square", hard_ball(2), ((0, 0), (0, 1), (1, 0), (1, 1)), range(3, 6)),
        ("ledrappier-L", ledrappier(), ((0, 0), (0, 1), (1, 0)), range(2, 8)),
    ],
)
def test_tiling_bound_reports_are_pinned(name, X, E, ns):
    report = tiling_entropy_bound_check(X, E, ns).to_json()
    assert report["applicable"] and report["holds"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_TILING_REPORTS[name]


def test_tiling_bound_rejects_a_non_interval_tile_over_z():
    # golden-mean patterns on {0, 2} are all 4 of A^E, so no word length
    # stands in for the tile
    with pytest.raises(ValueError, match="interval"):
        tiling_entropy_bound_check(golden_mean(), ((0,), (2,)), range(4, 8))


def test_tiling_bound_over_a_free_group_is_unsupported():
    F2 = FreeGroup(2)
    X = SFTPresentation(F2, BINARY, (Pattern.from_dict(F2, {F2.identity: 1, (1,): 1}),))
    with pytest.raises(UnsupportedGroupError):
        tiling_entropy_bound_check(X, (F2.identity, (1,)), range(1, 3))
    with pytest.raises(UnsupportedGroupError):
        pattern_count_entropy(X, [1])


def test_language_count_large_windows_stay_exact():
    # transfer matrices make length-65 counts cheap; Binet cross-check
    phi = (1 + math.sqrt(5)) / 2
    count = language_count(golden_mean(), 65)
    binet = round((phi**67 - (1 - phi) ** 67) / math.sqrt(5))
    assert count == binet
