import math
import tracemalloc

import numpy as np
import pytest

from banachkit import (GrowthSequence, NormedSpace, alternative_classify,
                       best_k, convexify, gweak, lorentz, lorentz_cotype_report,
                       lorentz_norm, lp, opt_gauge, iterated_log_bound,
                       self_concavity_check, submultiplicativity_check,
                       tensor_square)
from banachkit import linmaps
from banachkit.gauges import _gauge_objective, reevaluate_gauge
from banachkit.linmaps import sign_patterns


def spaces3():
    return [NormedSpace(lp(1), 3), NormedSpace(lp(2), 3), NormedSpace(lp(math.inf), 3)]


def test_unit_vector_gauge_is_exactly_one():
    for sp in spaces3():
        for kind in ("summing", "cotype"):
            gv = opt_gauge(np.array([1.0]), sp, kind, budget=4, seed=0)
            assert gv.value == 1.0


@pytest.mark.parametrize("seed", [7, 106])
@pytest.mark.parametrize("kind", ["summing", "cotype"])
def test_unit_vector_gauge_is_one_where_the_norm_oracles_differ(kind, seed):
    # on lp:2:3 the scalar and row norm oracles can disagree in the last
    # bit; the gauge must score its own normalized witness exactly
    gv = opt_gauge([1.0], NormedSpace(lp(2), 3), kind, budget=4, seed=seed)
    assert gv.value == 1.0


def test_gauge_empty_and_cap():
    assert opt_gauge(np.zeros(3), spaces3()[0], "summing").value == 0.0
    with pytest.raises(ValueError, match="capped"):
        opt_gauge(np.ones(25), spaces3()[0], "summing")


def test_gauge_hand_examples():
    # colinear witness: E|eps_1 + eps_2| = 1
    gv = opt_gauge(np.array([1.0, 1.0]), NormedSpace(lp(2), 2), "cotype", budget=8, seed=0)
    assert gv.value <= 1.0 + 1e-12
    # coordinate witness in the sup-norm cube
    gv = opt_gauge(np.ones(4), NormedSpace(lp(math.inf), 4), "summing", budget=8, seed=0)
    assert gv.value <= 1.0 + 1e-12


@pytest.mark.parametrize("kind", ["summing", "cotype"])
def test_streamed_gauge_table_equals_the_whole_one(kind):
    # past 15 entries the weighted table no longer fits in one block and
    # is scaled block by block inside the sign reductions; the reference
    # is the old sign_norms(...).max or .mean, of one-shot norms
    reduce = np.max if kind == "summing" else np.mean
    rng = np.random.default_rng(12)
    for m, dim in ((15, 6), (16, 6), (17, 24)):
        sp = NormedSpace(lorentz(2, 1), dim)
        tau = rng.uniform(0.1, 2.0, m)
        table = sign_patterns(m) * tau
        config = rng.standard_normal((m, dim))
        config /= sp.norm_rows(config)[:, None]
        value = _gauge_objective(tau, sp, kind)
        r_min = float(np.min(sp.norm_rows(config)))
        norms = sp.norm_rows(table @ config)
        assert value(config[None])[0] == float(reduce(norms)) / r_min
        stack = np.stack([config, config[::-1]])
        norms = np.array([sp.norm_rows(table @ c) for c in stack])
        want = reduce(norms, axis=1) / np.min(sp.norm_rows(stack.reshape(-1, dim)).reshape(2, m),
                                              axis=1)
        assert value(stack).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["summing", "cotype"])
def test_gauge_objective_builds_its_table_once(kind, monkeypatch):
    # a table that fits one block is built with the objective, not again at
    # every evaluation; a larger one is streamed, and never built whole
    calls = []
    patterns = linmaps.sign_patterns
    monkeypatch.setattr(linmaps, "sign_patterns", lambda n: calls.append(n) or patterns(n))
    rng = np.random.default_rng(13)
    for m, built in ((5, [5]), (16, [])):
        calls.clear()
        sp = NormedSpace(lp(3), 6)
        value = _gauge_objective(rng.uniform(0.1, 2.0, m), sp, kind)
        for _ in range(3):
            value(rng.standard_normal((4, m, 6)))
        assert [n for n in calls if n == m] == built


def test_gauge_of_twenty_entries_holds_no_weighted_table():
    # the weighted table of 20 entries alone is 80 MB
    tracemalloc.start()
    try:
        gv = opt_gauge(np.ones(20), NormedSpace(lp(2), 20), "cotype", budget=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gv.value > 1.0
    assert peak < 32 * 2**20


@pytest.mark.parametrize("kind", ["summing", "cotype"])
def test_gauge_search_holds_no_norms_of_its_proposals(kind):
    # each proposal's 2^17 sign norms are reduced block by block; the
    # stacked (proposals, 2^17) norms peaked at 54 MB
    tracemalloc.start()
    try:
        gv = opt_gauge(np.ones(18), NormedSpace(lp(2), 18), kind, budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gv.value >= 1.0
    assert peak < 16 * 2**20


def test_gauge_witness_reevaluates_and_is_unit():
    sp = NormedSpace(lp(1), 3)
    tau = np.array([0.8, 0.0, 0.5, 0.3])
    gv = opt_gauge(tau, sp, "cotype", budget=16, seed=3)
    again = reevaluate_gauge(gv.witness, tau, sp, "cotype")
    assert again == gv.value
    for row in np.asarray(gv.witness):
        assert sp.norm(row) == pytest.approx(1.0, abs=1e-10)
    zero_row = np.array(gv.witness)
    zero_row[1] = 0.0
    assert reevaluate_gauge(zero_row, tau, sp, "cotype") == math.inf


def test_gauge_monotone_in_weights():
    sp = NormedSpace(lp(2), 3)
    rng = np.random.default_rng(5)
    for kind in ("summing", "cotype"):
        for i in range(5):
            tau = rng.uniform(0.1, 1.0, 4)
            bigger = tau * rng.uniform(1.0, 2.0, 4)
            a = opt_gauge(tau, sp, kind, budget=8, seed=i).value
            b = opt_gauge(bigger, sp, kind, budget=8, seed=i).value
            assert a <= b * (1 + 0.05)


def test_convexify_bounds():
    sp = NormedSpace(lp(math.inf), 2)
    tau = np.array([1.0, 1.0])
    cx = convexify(tau, sp, "summing", budget=8, seed=0)
    assert cx.value <= 1.0 + 1e-12  # no-split witness
    assert cx.meta["candidates"]["singletons"] == 2.0
    assert cx.value <= cx.meta["direct"] + 1e-12
    single = convexify(np.array([0.0, 0.7]), sp, "summing", budget=4, seed=0)
    assert single.value == pytest.approx(0.7, abs=1e-12)


def test_convexify_between_sup_and_sum():
    rng = np.random.default_rng(8)
    for sp in spaces3():
        tau = rng.uniform(0.1, 1.0,5)
        cx = convexify(tau, sp, "cotype", budget=8, seed=1)
        assert np.max(tau) <= cx.value * (1 + 1e-9) + 1e-12
        assert cx.value <= np.sum(tau) * (1 + 1e-9)


def test_self_concavity_trivial_and_random():
    sp = NormedSpace(lp(2), 3)
    one = self_concavity_check([np.array([0.5, 0.5])], sp, "cotype", budget=8, seed=0)
    assert one.lhs == pytest.approx(one.rhs * one.lhs / one.lhs, rel=0.05)
    rng = np.random.default_rng(9)
    for i, sp in enumerate(spaces3() * 4):
        sizes = rng.integers(1, 3, size=int(rng.integers(2, 4)))
        taus, at = [], 0
        for s in sizes:
            t = np.zeros(at + int(s))
            t[at: at + int(s)] = rng.uniform(0.2, 1.0, int(s))
            taus.append(t)
            at += int(s)
        kind = ("summing", "cotype")[i % 2]
        res = self_concavity_check(taus, sp, kind, budget=16, seed=i, tol=0.05)
        assert res.within(), (sp.describe(), kind, res.lhs, res.rhs)


def test_self_concavity_rejects_overlap():
    sp = NormedSpace(lp(2), 3)
    with pytest.raises(ValueError, match="disjoint"):
        self_concavity_check([np.array([1.0, 0.0]), np.array([1.0, 1.0])], sp, "cotype")


def test_tensor_square_definition_and_identity():
    assert np.array_equal(tensor_square([2.0, 3.0]), [4.0, 6.0, 6.0, 9.0])
    rng = np.random.default_rng(10)
    for p in (1.0, 1.7, 2.0, 4.0):
        tau = rng.standard_normal(5)
        assert lorentz_norm(tensor_square(tau), p, p) == pytest.approx(
            lorentz_norm(tau, p, p) ** 2, rel=1e-12)


def test_submultiplicativity_directions():
    for p in (1.0, 2.0, 3.0):
        lhs, rhs = submultiplicativity_check(lp(p), 6, 7)
        assert lhs == pytest.approx(rhs, rel=1e-12)
    lhs, rhs = submultiplicativity_check(gweak(GrowthSequence.power(0.5)), 4, 9)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # the defining sum of the (p,1) scale goes the other way
    for n in range(2, 33):
        for k in range(2, 33):
            lhs, rhs = submultiplicativity_check(lorentz(2.0, 1.0), n, k)
            assert rhs <= lhs * (1 + 1e-12)


def test_alternative_classifier():
    c = alternative_classify(lorentz(2.0, math.inf), 3.0, n_max=64)
    assert c.case == 1 and c.n0 == 2
    assert c.q == pytest.approx(2.0, abs=1e-12)
    c = alternative_classify(lp(1), 1.0, n_max=64)
    assert c.case == 2 and c.cn_limit == 1.0
    c = alternative_classify(lp(2), 2.0, n_max=64)
    assert c.case == 2
    assert c.inclusion_constant == 5.0
    assert c.cn_bound == pytest.approx(5 * (1 + math.log(64)))


def test_iterated_log_bound_values():
    assert iterated_log_bound(1.0, 2, 7, 0) == pytest.approx(
        math.sqrt(math.pi) * (1 + math.log2(7)) ** 0.5, rel=1e-14)
    # C = 1: deep iterates collapse to the unit cap
    assert iterated_log_bound(1.0, 2, 2**20, 8) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert iterated_log_bound(2.0, 2, 16, 1) == pytest.approx(
        math.sqrt(math.pi) * 4 * max(1.0, math.log2(5**0.5)), rel=1e-12)
    with pytest.raises(ValueError):
        iterated_log_bound(0.5, 2, 4, 0)


def test_iterated_log_bound_monotone_until_cap():
    # non-increasing in depth until the clip absorbs everything
    vals = [iterated_log_bound(1.0, 2, 2**30, k) for k in range(8)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_best_k_and_shortcut():
    k_star, value, shortcut, kn = best_k(2.0, 2.0, 16)
    assert kn == 3
    assert shortcut == pytest.approx(2 * math.sqrt(math.pi) * 2.0**4, rel=1e-14)
    assert k_star <= kn + 1
    assert value <= iterated_log_bound(2.0, 2.0, 16, 0) + 1e-12


def test_lorentz_cotype_branches():
    assert lorentz_cotype_report(2, 1)["branch"] == "below_q"
    assert lorentz_cotype_report(2, 4)["branch"] == "weak_q"
    assert lorentz_cotype_report(2, math.inf)["branch"] == "weak_q"
    assert lorentz_cotype_report(2, 2)["branch"] == "iterated_log"
    with pytest.raises(ValueError):
        lorentz_cotype_report(1.5, 2)
