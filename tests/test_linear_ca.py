import itertools
import random

import pytest

from goelab.automaton import (
    apply_to_finite_config,
    compose,
    minimal_memory_set,
    wolfram_rule,
)
from goelab.errors import GroupMismatchError
from goelab.groups import Zd
from goelab.linear_ca import (
    GroupRingElement,
    MatrixCA,
    adjoint,
    apply_linear,
    convolution,
    duality_check,
    involution,
    kernel_finite_support,
    matrix_multiply,
    pairing,
    to_cellular_automaton,
)
from goelab.jsonio import matrix_from_json, matrix_to_json
from goelab.patterns import FiniteConfig, index_to_values, values_to_index

Z = Zd(1)


def gre(coeffs, p=2):
    return GroupRingElement.make(Z, p, coeffs)


def one_plus_u(p=2):
    return gre({(0,): 1, (1,): 1}, p)


def random_gre(rng, p, span=1):
    return gre(
        {(c,): rng.randrange(p) for c in range(-span, span + 1)}, p
    )


def random_matrix(rng, p, d, span=1):
    rows = [
        [random_gre(rng, p, span) for _ in range(d)] for _ in range(d)
    ]
    return MatrixCA.make(Z, p, rows)


# -- group ring -------------------------------------------------------------------


def test_convolution_char2_square():
    sq = convolution(one_plus_u(), one_plus_u())
    assert sq == gre({(0,): 1, (2,): 1})  # (1+u)^2 = 1 + u^2 over F_2


def test_involution_and_unit():
    u = gre({(1,): 1})
    assert involution(u) == gre({(-1,): 1})
    assert involution(involution(one_plus_u())) == one_plus_u()
    delta = gre({(0,): 1})
    assert convolution(one_plus_u(), delta) == one_plus_u()


def test_involution_antihomomorphism():
    rng = random.Random(2)
    for _ in range(25):
        p = rng.choice((2, 3))
        r, s = random_gre(rng, p, 2), random_gre(rng, p, 2)
        assert involution(convolution(r, s)) == convolution(involution(s), involution(r))


def test_zero_coefficients_dropped():
    r = gre({(0,): 2, (1,): 1})  # 2 = 0 mod 2
    assert r.support() == ((1,),)
    assert GroupRingElement.make(Z, 3, {(0,): 3}).is_zero()


def test_ring_mismatch_rejected():
    with pytest.raises(GroupMismatchError):
        convolution(gre({(0,): 1}, 2), gre({(0,): 1}, 3))


# -- realization -------------------------------------------------------------------


def test_one_plus_u_realizes_rule_102():
    ca = to_cellular_automaton(MatrixCA.make(Z, 2, [[one_plus_u()]]))
    small = minimal_memory_set(ca)
    want = minimal_memory_set(wolfram_rule(102))
    assert small.memory_set == want.memory_set
    assert small.table == want.table


def test_identity_matrix_realizes_identity():
    delta = gre({(0,): 1})
    ca = to_cellular_automaton(MatrixCA.make(Z, 2, [[delta]]))
    small = minimal_memory_set(ca)
    assert small.memory_set == ((0,),)
    assert small.table == (0, 1)


def test_table_matches_direct_formula_d2():
    rng = random.Random(5)
    for _ in range(5):
        M = random_matrix(rng, 2, 2, span=1)
        ca = to_cellular_automaton(M)
        cells = {
            (rng.randint(-2, 2),): (rng.randrange(2), rng.randrange(2))
            for _ in range(3)
        }
        cells = {g: v for g, v in cells.items() if any(v)}
        direct = apply_linear(M, cells)
        config = FiniteConfig.make(
            Z, 0, {g: values_to_index(2, v) for g, v in cells.items()}
        )
        via_table = apply_to_finite_config(ca, config)
        got = {
            g: index_to_values(2, 2, v)
            for g, v in via_table.deviation.as_dict().items()
        }
        assert got == direct


def test_realized_tables_are_additive():
    rng = random.Random(7)

    def vec_add(p, d, s1, s2):
        return values_to_index(
            p,
            [
                (x + y) % p
                for x, y in zip(index_to_values(p, d, s1), index_to_values(p, d, s2))
            ],
        )

    for _ in range(5):
        p = rng.choice((2, 3))
        M = random_matrix(rng, p, 1, span=1)
        ca = to_cellular_automaton(M)
        width = len(ca.memory_set)
        d = M.d
        for w1 in itertools.product(range(p**d), repeat=width):
            for w2 in itertools.product(range(p**d), repeat=width):
                joint = ca.local_rule(
                    [vec_add(p, d, a, b) for a, b in zip(w1, w2)]
                )
                want = vec_add(p, d, ca.local_rule(w1), ca.local_rule(w2))
                assert joint == want


def test_matrix_product_realizes_composition():
    rng = random.Random(11)
    for d in (1, 2):
        for _ in range(3):
            M = random_matrix(rng, 2, d, span=1)
            N = random_matrix(rng, 2, d, span=1)
            combined = minimal_memory_set(to_cellular_automaton(matrix_multiply(M, N)))
            sequential = minimal_memory_set(
                compose(to_cellular_automaton(M), to_cellular_automaton(N))
            )
            assert combined.memory_set == sequential.memory_set
            assert combined.table == sequential.table


# -- adjoint ------------------------------------------------------------------------


def test_adjoint_of_one_plus_u():
    M = MatrixCA.make(Z, 2, [[one_plus_u()]])
    N = adjoint(M)
    assert N.entries[0][0] == gre({(0,): 1, (-1,): 1})


def test_adjoint_is_involutive():
    rng = random.Random(13)
    for _ in range(20):
        p = rng.choice((2, 3))
        d = rng.choice((1, 2))
        M = random_matrix(rng, p, d, span=1)
        assert adjoint(adjoint(M)) == M


def test_pairing_identity_rule_102_linear():
    M = MatrixCA.make(Z, 2, [[one_plus_u()]])
    N = adjoint(M)
    rng = random.Random(17)
    for _ in range(100):
        x = {
            (rng.randint(-5, 5),): (rng.randrange(2),) for _ in range(rng.randint(1, 4))
        }
        y = {
            (rng.randint(-5, 5),): (rng.randrange(2),) for _ in range(rng.randint(1, 4))
        }
        x = {g: v for g, v in x.items() if any(v)}
        y = {g: v for g, v in y.items() if any(v)}
        assert pairing(2, apply_linear(M, x), y) == pairing(2, x, apply_linear(N, y))


def test_pairing_identity_random_matrices():
    rng = random.Random(19)
    for _ in range(10):
        p = rng.choice((2, 3))
        d = rng.choice((1, 2))
        M = random_matrix(rng, p, d, span=1)
        N = adjoint(M)
        for _ in range(10):
            x = {
                (rng.randint(-3, 3),): tuple(rng.randrange(p) for _ in range(d))
                for _ in range(3)
            }
            y = {
                (rng.randint(-3, 3),): tuple(rng.randrange(p) for _ in range(d))
                for _ in range(3)
            }
            x = {g: v for g, v in x.items() if any(v)}
            y = {g: v for g, v in y.items() if any(v)}
            assert pairing(p, apply_linear(M, x), y) == pairing(p, x, apply_linear(N, y))


# -- duality ------------------------------------------------------------------------


def test_duality_one_plus_u():
    report = duality_check(MatrixCA.make(Z, 2, [[one_plus_u()]]))
    assert report.holds
    assert report.pre_injective and report.surjective
    assert report.adjoint_pre_injective and report.adjoint_surjective


def test_duality_zero_matrix():
    zero = MatrixCA.make(Z, 2, [[GroupRingElement.zero(Z, 2)]])
    report = duality_check(zero)
    assert report.holds
    assert not report.pre_injective and not report.surjective


def test_duality_random_sweep():
    rng = random.Random(23)
    cases = [(2, 1), (2, 1), (3, 1), (3, 1), (2, 2), (2, 2), (2, 2), (3, 1), (2, 1), (2, 2)]
    for p, d in cases:
        M = random_matrix(rng, p, d, span=1)
        assert duality_check(M).holds


# -- kernels ------------------------------------------------------------------------


def test_kernel_one_plus_u_trivial():
    M = MatrixCA.make(Z, 2, [[one_plus_u()]])
    assert kernel_finite_support(M, 6) == []


def test_kernel_zero_matrix_full():
    zero = MatrixCA.make(Z, 2, [[GroupRingElement.zero(Z, 2)]])
    basis = kernel_finite_support(zero, 0)
    assert len(basis) == 1  # dimension d at radius 0
    assert basis[0] == {(0,): (1,)}


def test_kernel_members_actually_vanish():
    # 1x1 rules over F_2[Z] are zero divisors only at zero: kernel trivial
    M = MatrixCA.make(Z, 2, [[gre({(0,): 1, (2,): 1})]])
    assert kernel_finite_support(M, 4) == []
    # a rank-deficient 2x2 matrix kills every (v, v) configuration
    row = one_plus_u()
    N = MatrixCA.make(Z, 2, [[row, row], [row, row]])
    basis = kernel_finite_support(N, 2)
    assert len(basis) == 5  # one (1,1) impulse per cell of the radius-2 ball
    for config in basis:
        assert apply_linear(N, config) == {}


def test_matrix_json_round_trip():
    M = MatrixCA.make(Z, 2, [[one_plus_u()]])
    obj = matrix_to_json(M)
    assert obj["entries"][0][0]["coeffs"] == [
        {"g": [0], "c": 1},
        {"g": [1], "c": 1},
    ]
    assert matrix_from_json(obj) == M


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 25])
def test_composite_modulus_is_rejected(p):
    # over Z/4 the rule x -> 2x kills 2.delta_0, but the Gaussian elimination
    # behind kernel_finite_support assumes a field and reported no kernel
    with pytest.raises(ValueError, match="prime"):
        GroupRingElement.make(Z, p, {(0,): 2})
    obj = matrix_to_json(MatrixCA.make(Z, 2, [[one_plus_u()]]))
    obj["p"] = p
    with pytest.raises(ValueError, match="prime"):
        matrix_from_json(obj)


def test_prime_moduli_are_accepted():
    for p in (2, 3, 5, 7, 11, 13):
        assert gre({(0,): p + 1}, p).coeffs == (((0,), 1),)
