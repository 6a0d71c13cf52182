import json
import math

import numpy as np
import pytest

from banachkit import (GrowthSequence, NormedSpace, constant_ledger, lp, parse_space,
                       plan_parameters, rademacher_average, regroup_step, revalidate,
                       run_pipeline, select_block)
from banachkit.linmaps import sign_patterns, weak_lq_upper
from banachkit.pipeline import PlanError
from banachkit.estimates import jsonable
from banachkit.search import child_seeds

SQRT = GrowthSequence.power(0.5)
LEDGER = constant_ledger(SQRT, H=1.0, K=1.0)


def scaled_basis(space):
    e = np.eye(space.dim)
    return e / weak_lq_upper(e, space, 2.0)


def test_plan_hand_values():
    plan = plan_parameters(32, SQRT, 2, d=LEDGER.d)
    assert (plan.M, plan.n, plan.N, plan.s, plan.p, plan.k) == (2, 32, 1, 4, 4, 2)
    plan = plan_parameters(513, SQRT, 2, d=LEDGER.d)
    assert (plan.M, plan.n) == (4, 512)
    # the bracket 2^(rM+1) <= n <= 2^(rM+1) 2^(2r) holds
    assert 2 ** (2 * plan.M + 1) <= 513 <= 2 ** (2 * plan.M + 1) * 2**4


def test_plan_rejects_degenerate():
    with pytest.raises(PlanError):
        plan_parameters(8, SQRT, 2, d=LEDGER.d)  # only M = 0 fits


def test_plan_conditions_reported_not_enforced():
    plan = plan_parameters(32, SQRT, 2, H=1.0, K=1.0, d=LEDGER.d)
    # with D ~ 101 the side conditions fail at this scale; they are data
    assert not plan.cond1_ok
    assert plan.cond1["have"] == 2.0  # g(4)


def test_select_block_orthonormal_cases():
    n, s = 12, 4
    l2 = NormedSpace(lp(2), n)
    sel = select_block(np.eye(n), l2, range(n), s, target=0.1, budget=8, seed=0)
    assert len(sel.indices) == s
    assert sel.average.value == pytest.approx(2.0, abs=1e-12)  # sqrt(s)
    l1 = NormedSpace(lp(1), n)
    sel = select_block(np.eye(n), l1, range(n), s, target=0.1, budget=8, seed=0)
    assert sel.average.value == pytest.approx(float(s), abs=1e-12)
    assert sel.met


def test_select_block_duplicated_vector_oracle():
    # best s-subset of copies of one vector has average E|sum of s signs|
    n, s = 8, 4
    x = np.array([0.0, 2.0])
    config = np.tile(x, (n, 1))
    space = NormedSpace(lp(2), 2)
    sel = select_block(config, space, range(n), s, target=0.0, budget=4, seed=1)
    signs = sign_patterns(s)
    oracle = float(np.mean(np.abs(signs.sum(axis=1)))) * 2.0
    assert sel.average.value == pytest.approx(oracle, abs=1e-12)


def test_select_block_size_guard():
    with pytest.raises(ValueError):
        select_block(np.eye(4), NormedSpace(lp(2), 4), range(4), 5, target=0.0)


def select_block_loop(config, space, J, s, budget, seed, samples=20_000):
    """(indices, sign average) of select_block as it read before the
    candidates were scored as stacks: one rademacher_average each."""
    J = sorted(int(j) for j in J)
    s_rade, _, s_rng = child_seeds(seed, 3)

    def measure(idx):
        return rademacher_average(config[list(idx)], space, moment=1,
                                  samples=samples, seed=s_rade)

    singles = [(space.norm(config[j]), j) for j in J]
    current = [max(singles)[1]]
    while len(current) < s:
        best_gain, best_j = -1.0, None
        for j in J:
            if j in current:
                continue
            v = measure(current + [j]).value
            if v > best_gain:
                best_gain, best_j = v, j
        current.append(best_j)
    best_idx = tuple(sorted(current))
    best_val = measure(best_idx).value
    rng = np.random.default_rng(s_rng)
    for _ in range(max(0, budget)):
        cand = tuple(sorted(rng.choice(J, size=s, replace=False)))
        v = measure(cand).value
        if v > best_val:
            best_val, best_idx = v, cand
    return list(best_idx), measure(best_idx)


@pytest.mark.parametrize("name", ["lp:1:32", "lp:2:32", "lorentz:2:1:16"])
def test_stacked_selection_equals_the_per_candidate_loop(name):
    space = parse_space(name)
    for seed in (0, 1, 7):
        rng = np.random.default_rng(seed)
        config = rng.standard_normal((32, space.dim))
        config[3] = config[5]  # ties between candidates
        cases = [(range(32), 4, 8), (range(3, 32, 2), 5, 0)]
        if seed == 0:
            cases.append((range(18), 16, 2))  # 2^15 patterns: four blocks at dim 32
        for J, s, budget in cases:
            sel = select_block(config, space, J, s, target=1.0, budget=budget, seed=seed)
            indices, avg = select_block_loop(config, space, J, s, budget, seed)
            assert sel.indices == indices
            assert sel.average == avg


def test_regroup_step_l1_arithmetic():
    n = 8
    space = NormedSpace(lp(1), n)
    config = np.eye(n)
    blocks = [(list(range(0, 4)), 4.0), (list(range(4, 8)), 4.0)]
    rep = regroup_step(config, space, blocks, SQRT, H=1.0, s3=1.0, K=1.0,
                       samples=20_000, seed=2)
    assert rep.k == 2 and rep.alpha == 4.0
    assert rep.predicted == pytest.approx(4.0 / 2.0 * math.sqrt(2))
    # l_1 union of 8 coordinates measures ~ 8 E|g| = 8 sqrt(2/pi) > predicted
    assert rep.dominated
    assert rep.precondition_ok  # sqrt(2) <= (4/2) sqrt(2)


def test_regroup_rejects_overlap():
    space = NormedSpace(lp(1), 4)
    with pytest.raises(ValueError):
        regroup_step(np.eye(4), space, [([0, 1], 1.0), ([1, 2], 1.0)], SQRT)


def test_pipeline_certificates_and_floors():
    for p in (2.0, 1.0):
        space = NormedSpace(lp(p), 32)
        config = scaled_basis(space)
        cert = run_pipeline(config, space, SQRT, LEDGER, budget=4,
                            samples=10_000, seed=9)
        assert cert.verdict
        assert cert.plan.s == 4 and cert.plan.p == 4
        # level floors reproduce exactly from the stored constants
        g_s, g_k = cert.constants["g_s"], cert.constants["g_k"]
        base = g_s / (100.0 * LEDGER.d * 1.0)
        for level in cert.levels:
            assert level["formula"] == pytest.approx(base * (g_k / 2.0) ** level["level"], rel=1e-14)
        assert len(cert.blocks) == 4
        union = sorted(i for b in cert.blocks for i in b.indices)
        assert len(union) == 16  # half the configuration, disjoint


def test_pipeline_premise_rejection():
    space = NormedSpace(lp(2), 32)
    with pytest.raises(ValueError, match="premise"):
        run_pipeline(np.eye(32) * 2.0, space, SQRT, LEDGER, budget=2,
                     samples=2000, seed=1)


def test_pipeline_revalidates_bit_for_bit():
    space = NormedSpace(lp(2), 32)
    config = scaled_basis(space)
    cert = run_pipeline(config, space, SQRT, LEDGER, budget=4, samples=5_000, seed=13)
    ok, mismatches = revalidate(cert, config, space, SQRT, LEDGER)
    assert ok, mismatches


def test_certificate_serializes_with_seeds():
    space = NormedSpace(lp(2), 32)
    config = scaled_basis(space)
    cert = run_pipeline(config, space, SQRT, LEDGER, budget=2, samples=2_000, seed=21)
    doc = json.loads(json.dumps(jsonable(cert.to_dict())))
    assert doc["master_seed"] == 21
    assert doc["samples"] == 2000
    assert all("seed" in b["gaussian"] for b in doc["blocks"])
    assert doc["final_measured"]["seed"] is not None


def test_pipeline_orthonormal_level_averages_match_chi_mean():
    # unions of s * k^l orthonormal vectors have gaussian average equal
    # to the chi mean sqrt(2) Gamma((m+1)/2) / Gamma(m/2)
    from math import gamma, sqrt

    space = NormedSpace(lp(2), 32)
    config = np.eye(32)  # weak-2 moment is exactly one here
    cert = run_pipeline(config, space, SQRT, LEDGER, budget=4, samples=40_000, seed=3)
    for level in cert.levels:
        m = cert.plan.s * cert.plan.k ** level["level"]
        chi_mean = sqrt(2) * gamma((m + 1) / 2) / gamma(m / 2)
        for union in level["unions"]:
            meas = union["measured"] if level["level"] == 0 else union["measured"]
            value, se = meas["value"], meas["stderr"]
            assert abs(value - chi_mean) <= 4 * se + 1e-12


def test_pipeline_monotone_in_budget():
    # more selection budget never hurts the measured block averages
    space = NormedSpace(lp(2), 32)
    config = scaled_basis(space)
    lo = run_pipeline(config, space, SQRT, LEDGER, budget=0, samples=2_000, seed=5)
    hi = run_pipeline(config, space, SQRT, LEDGER, budget=16, samples=2_000, seed=5)
    for a, b in zip(lo.blocks, hi.blocks):
        assert b.average.value >= a.average.value - 1e-12
