import math
import tracemalloc

import numpy as np
import pytest

from banachkit import (C_delta, GrowthSequence, H_constant, LinearMap,
                       NormedSpace, constant_ledger, cotype_q_constant,
                       equal_norm_premise_check, identity_map, lp, pi_Y1,
                       pi_pq_n, equal_norm_inequality, weak_cotype_g)
from banachkit import averages, linmaps, summing
from banachkit.linmaps import weak_lq_upper
from banachkit.search import child_seeds
from banachkit.spaces import gweak, parse_space
from banachkit.summing import PremiseError, _best_frame

SQRT = GrowthSequence.power(0.5)


def space(p, n):
    return NormedSpace(lp(p), n)


def test_pi1_coordinate_witnesses():
    for n in (4, 9, 16):
        est = pi_pq_n(identity_map(space(2, n)), 1, 1, n, budget=0, seed=0)
        assert est.value >= math.sqrt(n) * (1 - 1e-12)
        est = pi_pq_n(identity_map(space(math.inf, n)), 1, 1, n, budget=0, seed=0)
        assert est.value >= n * (1 - 1e-10)


def test_pi1_never_exceeds_n_on_linf():
    # sum of norms <= n * weak-1 moment always
    est = pi_pq_n(identity_map(space(math.inf, 6)), 1, 1, 6, budget=24, seed=3)
    assert est.value <= 6.0 * (1 + 1e-10)


def test_pi_single_vector_bounded_by_operator_norm():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3))
    sp = space(2, 3)
    T = LinearMap(A, sp, sp)
    est = pi_pq_n(T, 2, 2, 1, budget=16, seed=2)
    op = float(np.linalg.svd(A, compute_uv=False)[0])
    assert est.value <= op * (1 + 1e-10)


def test_pi_requires_p_at_least_q():
    with pytest.raises(ValueError):
        pi_pq_n(identity_map(space(2, 2)), 1, 2, 2)


def test_pi_witness_reevaluates():
    est = pi_pq_n(identity_map(space(2, 5)), 2, 1, 5, budget=16, seed=7)
    config = np.asarray(est.witness)
    sp = space(2, 5)
    den = weak_lq_upper(config, sp, 1.0)
    num = float(np.sum(sp.norm_rows(config) ** 2) ** 0.5)
    assert num / den == pytest.approx(est.value, abs=1e-10)
    assert den <= 1.0 + 1e-9  # stored witness is already normalized


def test_pi_y1_examples():
    n = 5
    est = pi_Y1(identity_map(space(math.inf, n)), lp(1), n, budget=0, seed=0)
    assert est.value >= n * (1 - 1e-10)
    est = pi_Y1(identity_map(space(2, n)), gweak(SQRT), n, budget=0, seed=0)
    assert est.value >= 1.0 - 1e-12


def test_H_constant_witnesses():
    assert H_constant(space(2, 8), SQRT, 8, budget=0, seed=0).value >= 1.0 - 1e-12
    flat = GrowthSequence.power(0.0)
    assert H_constant(space(math.inf, 8), flat, 8, budget=0, seed=0).value >= 1.0 - 1e-12
    one = H_constant(space(2, 1), SQRT, 1, budget=0, seed=0)
    assert one.value >= 1.0 - 1e-12
    with_upper = H_constant(space(2, 4), SQRT, 4, budget=0, seed=0, c1prime=2.0)
    assert with_upper.meta["implied_upper"] == 8.0


def test_cotype_constant_examples():
    from banachkit import rademacher_average

    # per-config ratios: coordinates give 1 on l_2 and sqrt(2) on l_inf
    for p, expected in ((2.0, 1.0), (math.inf, math.sqrt(2))):
        sp = space(p, 2)
        num = float(np.sum(sp.norm_rows(np.eye(2)) ** 2) ** 0.5)
        den = rademacher_average(np.eye(2), sp).value
        assert num / den == pytest.approx(expected, abs=1e-12)
        # the estimator dominates any single config's ratio
        est = cotype_q_constant(sp, 2, 2, budget=0, seed=0)
        assert est.value >= expected - 1e-12
    single = cotype_q_constant(space(2, 3), 2, 1, budget=0, seed=0)
    assert single.value == pytest.approx(1.0, abs=1e-12)


def test_cotype_monotone_in_n():
    vals = [cotype_q_constant(space(math.inf, 4), 2, n, budget=8, seed=5).value
            for n in (1, 2, 3, 4)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_cotype_search_builds_its_sign_table_once(monkeypatch):
    # every candidate meets the same sign table, built once for the search
    calls = []
    patterns = linmaps.sign_patterns
    monkeypatch.setattr(linmaps, "sign_patterns", lambda n: calls.append(n) or patterns(n))
    cotype_q_constant(space(3, 4), 2, 3, budget=8, seed=5)
    assert calls == [3]


class Scored(Exception):
    pass


@pytest.mark.parametrize("variable, n", [("gaussian", 4), ("rademacher", 22)])
def test_sampled_cotype_denominator_is_the_mean_of_the_sample_norms(monkeypatch, variable, n):
    # the 20,000-row sample is no power of two rows: its sums gather each
    # configuration's norms and sum them as np.sum does
    scores = []

    def first_score(score, *_):
        scores.append(score)
        raise Scored

    monkeypatch.setattr(summing, "_config_search", first_score)
    X, seed = parse_space("lorentz:3:2:40"), 3
    with pytest.raises(Scored):
        cotype_q_constant(X, 2, n, seed=seed, variable=variable)
    draws = np.empty((20_000, n))
    sampler = averages._draw_gaussians if variable == "gaussian" else averages._draw_signs
    sampler(np.random.default_rng(child_seeds(seed, 2)[0]), draws)
    stack = np.random.default_rng(n).standard_normal((5, n, 40))
    # the old sign_norms(draws, C, X).mean(axis=1), of one-shot norms
    norms = np.array([X.norm_rows(draws @ c) for c in stack])
    num = lp(2).norm_rows(X.norm_rows(stack.reshape(-1, 40)).reshape(-1, n))
    assert scores[0](stack).tobytes() == (num / norms.mean(axis=1)).tobytes()
    assert scores[0](stack[:1]).tobytes() == (num[:1] / norms[0].mean()).tobytes()
    mean = linmaps._sign_sum(draws, stack[0], X, linmaps._as_is) / len(draws)
    assert mean == norms[0].mean()


def test_cotype_gaussian_variant_records_stderr():
    est = cotype_q_constant(space(math.inf, 2), 2, 2, budget=4, seed=9,
                            variable="gaussian", samples=5000, final_samples=20_000)
    assert est.stderr > 0.0
    assert est.meta["denominator"]["method"] == "monte-carlo"


def test_weak_cotype_examples():
    est = weak_cotype_g(identity_map(space(2, 8)), SQRT, budget=8, seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-10)
    zero = weak_cotype_g(LinearMap(np.zeros((2, 2)), space(2, 2), space(2, 2)), SQRT)
    assert zero.value == 0.0
    # rank-one map: the single-column witness attains g(1) a_1 / ell = 1
    T = LinearMap(np.diag([1.0, 0.0]), space(2, 2), space(2, 2))
    est = weak_cotype_g(T, SQRT, budget=8, seed=1)
    assert est.value == pytest.approx(1.0, abs=1e-10)


def weak_cotype_frame_loop(T, g, budget, seed):
    """weak_cotype_g as it read before the random frames were
    orthonormalized as a stack: a draw, a width and a qr per frame."""
    dim = T.domain.dim
    eye = np.eye(dim)
    frames = [eye] + [eye[:, :m] for m in range(1, dim)]
    rng = np.random.default_rng(seed)
    for _ in range(max(0, budget // 4)):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        frames.append(q[:, :int(rng.integers(1, dim + 1))])
    return _best_frame(T, frames, lambda a: float(np.max(g(np.arange(1, len(a) + 1)) * a)))


@pytest.mark.parametrize("dom, cod", [("lp:1", "lp:3"), ("lp:inf", "lorentz:2:inf"),
                                      ("lorentz:3:2", "lp:2"), ("lp:2", "gweak:pow:0.5")])
def test_weak_cotype_and_c_delta_equal_the_frame_loop(dom, cod):
    rng = np.random.default_rng(len(dom) + 7 * len(cod))
    for dim in range(1, 9):
        n = int(rng.integers(1, dim + 3))
        T = LinearMap(rng.standard_normal((n, dim)), parse_space(f"{dom}:{dim}"),
                      parse_space(f"{cod}:{n}"))
        for budget in (0, 4, 16, 64):
            seed = int(rng.integers(2**31))
            value, witness = weak_cotype_frame_loop(T, SQRT, budget, seed)
            est = weak_cotype_g(T, SQRT, budget=budget, seed=seed)
            assert est.value == value
            assert est.witness.shape == witness.shape
            assert est.witness.tobytes() == witness.tobytes()
            cd = C_delta(T, SQRT, 0.5, max(2, dim), budget=budget, seed=seed)
            assert cd.meta["bracket"]["wc_estimate"] == value


def test_c_delta_identity_and_bracket():
    for n in (4, 8):
        T = identity_map(space(2, n))
        for delta in (0.25, 0.5, 0.75):
            est = C_delta(T, SQRT, delta, n, budget=8, seed=0)
            idx = max(1, int(delta * n))
            assert est.value >= math.sqrt(n) / math.sqrt(idx) - 1e-10
            br = est.meta["bracket"]
            assert br["lower"] <= br["wc_estimate"] <= br["upper"]


def test_c_delta_rejects_bad_delta():
    with pytest.raises(ValueError):
        C_delta(identity_map(space(2, 4)), SQRT, 1.5, 4)


def test_premise_check_accepts_coordinates():
    n = 9
    T = identity_map(space(2, n))
    rep = equal_norm_premise_check(np.eye(n), T, SQRT, samples=50_000, seed=3)
    assert rep.accepted
    assert rep.implied_constant == pytest.approx(1.0, rel=0.02)


def test_premise_check_rejects_zero_vector():
    T = identity_map(space(2, 3))
    config = np.eye(3)
    config[2] = 0.0
    rep = equal_norm_premise_check(config, T, SQRT)
    assert not rep.accepted and rep.reasons


def test_premise_specialized_power_floor():
    # the power-law regime admits the smaller floor 8e
    T = identity_map(space(2, 4))
    rep = equal_norm_premise_check(np.eye(4), T, SQRT, D=8 * math.e, samples=2000, seed=4)
    assert rep.accepted
    assert rep.floor == pytest.approx(1 / (8 * math.e))


def test_equal_norm_inequality_and_slack():
    n = 8
    T = identity_map(space(2, n))
    wc = weak_cotype_g(T, SQRT, budget=8, seed=0)
    res = equal_norm_inequality(np.eye(n), T, SQRT, wc, rho=1.0, samples=50_000, seed=5)
    assert res.holds
    assert res.lhs == pytest.approx(math.sqrt(n))
    assert res.slack >= 100.0
    with pytest.raises(PremiseError):
        bad = np.eye(n) * 0.5  # norms fall below rho
        equal_norm_inequality(bad, T, SQRT, wc, rho=1.0, samples=1000, seed=6)


def test_constant_ledger_plugin_arithmetic():
    led = constant_ledger(SQRT, H=1.0, K=1.0)
    d = 2**4.5 * math.e**1.5
    assert led.d == pytest.approx(d, rel=1e-14)
    assert led.a == pytest.approx(math.sqrt(2) * math.e**1.5, rel=1e-14)
    assert led.c1 == pytest.approx(12800 * d, rel=1e-14)
    assert led.b == pytest.approx((100 * d) ** 2, rel=1e-14)
    assert led.c2 == pytest.approx(2**7 * ((100 * d) ** 2) ** 2 * 1.0, rel=1e-14)
    assert led.c == max(led.c1, led.c2)
    assert "H^6" in led.note  # q = 2 gives order H^(2q+2)


def test_constant_ledger_validation():
    with pytest.raises(ValueError):
        constant_ledger(SQRT, H=0.5)
    with pytest.raises(ValueError):
        constant_ledger(SQRT, H=1.0, K=0.0)
    short = GrowthSequence.from_table({1: 1.0, 2: 1.2})
    with pytest.raises(ValueError, match="too short"):
        constant_ledger(short, H=2.0)  # needs g(16)


def test_pi1_on_a_subspace_space():
    # subspaces enter as spaces of their own: basis composed with the
    # ambient norm; theorem constants are tracked per space instance
    from banachkit import SubspaceSpace

    rng = np.random.default_rng(31)
    ambient = space(math.inf, 4)
    sub = SubspaceSpace(rng.standard_normal((4, 2)), ambient)
    est = pi_pq_n(identity_map(sub), 1, 1, 2, budget=8, seed=0)
    assert est.value >= 1.0 - 1e-9  # a single unit vector witnesses 1
    config = np.asarray(est.witness)
    num = float(np.sum(sub.norm_rows(config)))
    den = weak_lq_upper(config, sub, 1.0)
    assert num / den == pytest.approx(est.value, abs=1e-10)


def test_lower_estimates_reproducible_from_witness():
    sp = space(2, 6)
    est = pi_pq_n(identity_map(sp), 1, 1, 6, budget=16, seed=11)
    config = np.asarray(est.witness)
    num = float(np.sum(sp.norm_rows(config)))
    den = weak_lq_upper(config, sp, 1.0)
    assert num / den == pytest.approx(est.value, abs=1e-10)


def test_gaussian_cotype_search_stays_within_a_few_blocks():
    # the scalar denominator formed the whole 20_000 x 512 product of the
    # search sample (82 MB), and the norm kernel a copy of it
    tracemalloc.start()
    try:
        cotype_q_constant(parse_space("lp:2:512"), 2, 4, budget=1, variable="gaussian")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
