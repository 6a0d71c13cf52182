import math

import numpy as np
import pytest

from banachkit import GrowthSequence, gweak, gweak_norm, lorentz_norm, rearrange


def test_rearrange_hand_values():
    assert np.array_equal(rearrange((3, -1, 2)), [3, 2, 1])
    assert np.array_equal(rearrange((0, 0, 0)), [0, 0, 0])
    assert np.array_equal(rearrange((1, 1, 2, 2)), [2, 2, 1, 1])


def test_rearrange_idempotent_and_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(rng.integers(1, 20))
        r = rearrange(x)
        assert np.array_equal(rearrange(r), r)
        perm = x[rng.permutation(x.size)] * rng.choice([-1.0, 1.0], x.size)
        assert np.array_equal(rearrange(perm), r)


def test_lorentz_single_element_any_parameters():
    for p in (1, 2, 3.5):
        for q in (1, 2, math.inf):
            assert lorentz_norm((1, 0, 0), p, q) == 1.0


def test_lorentz_diagonal_is_lp():
    assert lorentz_norm((3, 4), 2, 2) == pytest.approx(5.0, abs=1e-14)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal(rng.integers(1, 64))
        p = rng.uniform(1.0, 6.0)
        direct = float(np.sum(np.abs(x) ** p) ** (1.0 / p))
        assert abs(lorentz_norm(x, p, p) - direct) <= 1e-12


def test_lorentz_21_defining_sum():
    # sum over the rearrangement of n^(1/2 - 1) entries
    assert lorentz_norm((1, 1), 2, 1) == pytest.approx(1 + 2**-0.5, abs=1e-14)


def test_lorentz_rejects_bad_parameters():
    with pytest.raises(ValueError):
        lorentz_norm((1, 2), 0.5, 2)
    with pytest.raises(ValueError):
        lorentz_norm((1, 2), 2, 0.5)


def test_lorentz_weak_variant_is_sup():
    x = (4, 2, 1)
    assert lorentz_norm(x, 2, math.inf) == max(4.0, math.sqrt(2) * 2, math.sqrt(3) * 1)


def test_gweak_hand_values():
    g = GrowthSequence.power(0.5)
    assert gweak_norm((1, 1 / math.sqrt(2), 1 / math.sqrt(3)), g) == pytest.approx(1.0, abs=1e-15)
    assert gweak_norm((0, 1, 0), g) == 1.0  # any unit coordinate, g(1) = 1
    assert gweak_norm((2, 2), g) == pytest.approx(2 * math.sqrt(2), abs=1e-14)


def test_norms_invariant_under_rearrangement():
    rng = np.random.default_rng(7)
    g = GrowthSequence.power(0.3)
    for _ in range(50):
        x = rng.standard_normal(rng.integers(1, 16))
        y = x[rng.permutation(x.size)] * rng.choice([-1.0, 1.0], x.size)
        for norm in (
            lambda v: lorentz_norm(v, 2.5, 1.5),
            lambda v: lorentz_norm(v, 3.0, math.inf),
            lambda v: gweak_norm(v, g),
        ):
            assert norm(x) == pytest.approx(norm(y), rel=1e-14)


def test_gweak_past_a_growth_table_needs_only_the_support_to_fit():
    g = GrowthSequence.from_table({1: 1, 2: 1.5, 3: 2})
    x = (3, 0, 0, 0, 0, 1)
    assert gweak_norm(x, g) == 3.0
    assert gweak(g).norm(x) == 3.0
    assert gweak(g).dual_exact(x) == 3 + 1 / 1.5
    assert gweak_norm((0,) * 6, g) == 0.0
    with pytest.raises(ValueError, match="no entry for n=4"):
        gweak_norm((1, 1, 1, 1, 0), g)
