import pytest

from goelab.automaton import apply_to_finite_config, apply_to_pattern
from goelab.freegroup_lab import (
    F2,
    ex1_preimage,
    muller_moore_ca,
    muller_myhill_ca,
    random_ball_pattern,
    verify_ex1_diamond,
    verify_ex1_preimage,
    verify_ex2,
)
from goelab.linear_ca import apply_linear, kernel_finite_support, to_cellular_automaton
from goelab.patterns import FiniteConfig, Pattern


def test_threshold_rule_table():
    ca = muller_moore_ca()
    assert len(ca.table) == 32
    assert sum(ca.table) == 16  # C(5,3)+C(5,4)+C(5,5)
    assert ca.local_rule((0, 0, 0, 0, 0)) == 0
    assert ca.local_rule((1, 1, 1, 0, 0)) == 1
    assert ca.local_rule((1, 1, 0, 0, 0)) == 0


def test_memory_set_is_identity_plus_generators():
    ca = muller_moore_ca()
    assert ca.memory_set == F2.canon([F2.identity, (1,), (-1,), (2,), (-2,)])


@pytest.mark.parametrize("radius", [2, 3, 4, 5])
def test_ex1_diamond(radius):
    report = verify_ex1_diamond(radius)
    assert report.ok


def test_ex1_control_three_ones_changes_the_image():
    # with three 1s clustered at {1, a, a^-1} the window at the identity sums
    # to 3, so the image is no longer the zero configuration
    ca = muller_moore_ca()
    x = FiniteConfig.make(F2, 0, {F2.identity: 1, (1,): 1, (-1,): 1})
    y = apply_to_finite_config(ca, x)
    assert y.value_at(F2.identity) == 1
    assert y != apply_to_finite_config(ca, FiniteConfig.make(F2, 0, {}))


def test_ex1_two_ones_is_another_diamond():
    # two 1s at {1, a} never reach the threshold either; documented here so
    # the diamond construction is understood to be far from unique
    ca = muller_moore_ca()
    x = FiniteConfig.make(F2, 0, {F2.identity: 1, (1,): 1})
    assert apply_to_finite_config(ca, x) == FiniteConfig.make(F2, 0, {})


def test_ex1_preimage_all_one_target():
    target = Pattern.from_dict(F2, {g: 1 for g in F2.ball(3)})
    assert verify_ex1_preimage(target).ok


def test_ex1_preimage_all_zero_target():
    target = Pattern.from_dict(F2, {g: 0 for g in F2.ball(3)})
    x = ex1_preimage(target)
    assert all(v == 0 for v in x.values)
    assert verify_ex1_preimage(target).ok


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_ex1_preimage_random_targets(radius):
    for trial in range(25):
        target = random_ball_pattern(radius, seed=1000 * radius + trial)
        assert verify_ex1_preimage(target).ok


def test_ex1_preimage_needs_ball_support():
    with pytest.raises(ValueError):
        ex1_preimage(Pattern.from_dict(F2, {(1,): 1}))


def test_ex2_matrix_shape():
    M = muller_myhill_ca()
    assert M.d == 2 and M.p == 2
    S = M.memory_set()
    assert S == F2.canon([F2.identity, (1,), (-1,), (2,), (-2,)])
    assert all(e.is_zero() for e in M.entries[1])


def test_ex2_image_in_first_coordinate():
    M = muller_myhill_ca()
    ca = to_cellular_automaton(M)
    from goelab.patterns import index_to_values

    assert all(index_to_values(2, 2, out)[1] == 0 for out in ca.table)


def test_ex2_impulse_support_is_the_sphere():
    M = muller_myhill_ca()
    image = apply_linear(M, {F2.identity: (1, 1)})
    assert set(image) == {(1,), (-1,), (2,), (-2,)}
    assert all(v == (1, 0) for v in image.values())


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_ex2_kernel_trivial(radius):
    assert kernel_finite_support(muller_myhill_ca(), radius) == []


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_ex2_report(radius):
    report = verify_ex2(radius)
    assert report.ok
    assert report.kernel_dimension == 0
    assert "radius" in report.to_json()["certificate"]


def test_ball_pattern_application_region():
    # applying on a ball pattern yields exactly the smaller ball interior
    ca = muller_moore_ca()
    p = random_ball_pattern(3, seed=0)
    out = apply_to_pattern(ca, p)
    assert set(out.support) == set(F2.ball(2))
