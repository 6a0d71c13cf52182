import math

import numpy as np
import pytest

from banachkit import (LinearMap, NormedSpace, SubspaceSpace, averages, dual_norm, gauges,
                       gweak, identity_map, linmaps, lorentz, lp, operator_norm, operator_norms,
                       search, summing)
from banachkit.growth import GrowthSequence
from banachkit.search import SCREEN_SLACK, child_seeds, multistart_maximize, split_budget


# -- the search as it was before batch evaluators: one scalar objective
#    call per proposal; the reference the batched search must reproduce
#    wherever no proposal gains by SCREEN_SLACK (relative) or less, a gain
#    the batched search skips and this one takes


def reference_polish(x, value, objective, project, sweeps, rng, step0=0.5, max_proposals=48):
    x = np.array(x, dtype=float)
    best = value
    step = step0
    n_entries = x.size
    for _ in range(sweeps):
        order = rng.permutation(n_entries)[: max_proposals // 2 or 1]
        improved = False
        for idx in order:
            for delta in (step, -step):
                cand = x.copy()
                cand.flat[idx] += delta
                cand = project(cand)
                if cand is None:
                    continue
                v = objective(cand)
                if v > best + 1e-15:
                    x, best = cand, v
                    improved = True
                    break
        if not improved:
            step *= 0.5
            if step < 1e-4:
                break
    return best, x


def reference_maximize(objective, *, shape, structured=(), budget=0, seed=0,
                       project=None, random_start=None, rows=None):
    if project is None:
        project = lambda a: a
    if random_start is None:
        random_start = lambda rng: rng.standard_normal(shape)
    n_starts, sweeps = split_budget(budget)
    seeds = child_seeds(seed, n_starts + 1)
    rng_polish = np.random.default_rng(seeds[-1])
    candidates = []
    for s in structured:
        cand = project(np.array(s, dtype=float))
        if cand is not None:
            candidates.append(cand)
    for i in range(n_starts):
        cand = project(random_start(np.random.default_rng(seeds[i])))
        if cand is not None:
            candidates.append(cand)
    if not candidates:
        raise ValueError("no feasible start for the search")
    best_val, best_x = -np.inf, None
    for cand in candidates:
        v = objective(cand)
        if v > best_val:
            best_val, best_x = v, cand
    if best_x is None or not np.isfinite(best_val):
        raise ValueError("all starts were rejected by the objective")
    if sweeps > 0:
        best_val, best_x = reference_polish(best_x, best_val, objective, project, sweeps,
                                            rng_polish)
    return best_val, best_x


def families(dim):
    g = GrowthSequence.power(0.5)
    spaces = [NormedSpace(lp(1.5), dim), NormedSpace(lp(3), dim),
              NormedSpace(lp(math.inf), dim), NormedSpace(lorentz(2, 1), dim),
              NormedSpace(lorentz(3, 2), dim), NormedSpace(lorentz(2, math.inf), dim),
              NormedSpace(gweak(g), dim)]
    basis = np.random.default_rng(dim).standard_normal((dim + 3, dim))
    spaces.append(SubspaceSpace(basis, NormedSpace(lp(4), dim + 3)))
    return spaces


def assert_same_estimate(new, ref):
    assert new.direction == ref.direction
    assert new.value == ref.value
    assert np.array_equal(new.witness, ref.witness)


SEED_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128, 2**160 + 77]


@pytest.mark.parametrize("n", [0, 1, 5, 200])
def test_child_seeds_equal_the_spawned_seed_sequences(n):
    # child_seeds hashes only the spawn word into the master's pool; masters
    # of more than four words mix extra words before it
    rng = np.random.default_rng(60 + n)
    # random masters of 8 to 200 bits, the top bit set
    masters = SEED_MASTERS + [int.from_bytes(rng.bytes(25), "little") % (1 << int(bits))
                              | 1 << int(bits) - 1 for bits in rng.integers(8, 201, 12)]
    for master in masters:
        want = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(master).spawn(n)]
        got = child_seeds(master, n)
        assert got == want, master
        assert all(type(s) is int for s in got)


@pytest.mark.parametrize("dim", [2, 5, 12, 32])
def test_operator_norm_search_matches_the_scalar_reference(dim, monkeypatch):
    rng = np.random.default_rng(100 + dim)
    searched = 0
    for dom in families(dim):
        for cod in (NormedSpace(lp(2.5), 7), NormedSpace(lorentz(3, 1), 7)):
            T = LinearMap(rng.standard_normal((7, dim)), dom, cod)
            new = operator_norm(T, budget=16, seed=dim)
            with monkeypatch.context() as m:
                m.setattr(linmaps, "multistart_maximize", reference_maximize)
                ref = operator_norm(T, budget=16, seed=dim)
            assert_same_estimate(new, ref)
            if new.direction == "lower":
                searched += 1
                A = T.matrix
                assert new.value == cod.norm(A @ new.witness)
    assert searched >= 12


@pytest.mark.parametrize("dim", [2, 5, 12, 32])
def test_budget_zero_operator_norms_match_the_scalar_reference(dim):
    # at budget 0 operator_norms scores the structured starts of a whole
    # stack at once; each map must still get the scalar search's result
    rng = np.random.default_rng(200 + dim)
    searched = 0
    for dom in families(dim):
        for cod in (NormedSpace(lp(2.5), 7), NormedSpace(lorentz(3, 1), 7),
                    NormedSpace(lorentz(2, math.inf), 7)):
            stack = rng.standard_normal((3, 7, dim))
            got = operator_norms(stack, dom, cod, budget=0, seeds=[1, 2, 3])
            for A, seed, est in zip(stack, [1, 2, 3], got):
                assert est.to_dict() == operator_norm(LinearMap(A, dom, cod), 0, seed).to_dict()
                if est.meta["route"] != "search":
                    continue
                searched += 1
                vertex = ([linmaps._vertex_ascents(A[None], cod, 0, [seed])[0][1]]
                          if dom.is_linf else [])
                val, wit = reference_maximize(
                    lambda x: cod.norm(A @ x), shape=(dim,),
                    structured=[*np.eye(dim), np.ones(dim), *vertex], budget=0, seed=seed,
                    project=lambda x: x / dom.norm(x))
                assert est.value == val and est.witness.tobytes() == wit.tobytes()
                # out of a cube the bound reads the svd that starts the vertex
                # ascent; it is rounded outward by the stated bound
                smax = float(np.linalg.svd(A, full_matrices=False)[1][0] if dom.is_linf
                             else np.linalg.svd(A, compute_uv=False)[0])
                assert est.meta["upper"] == linmaps._outward(
                    cod.le_euclid() * smax * dom.ge_euclid(), 7, dim)
    assert searched >= 12


def test_budget_zero_spawns_no_seeds_and_keeps_its_result(monkeypatch):
    # budget 0 scores the structured starts alone: no random start and no
    # polish, so no child seeds; the result is the scalar search's
    target = np.array([0.3, -0.2, 0.7])
    objective = lambda x: -float(np.sum((x - target) ** 2))
    rows = lambda X: -np.sum((X - target) ** 2, axis=1)
    starts = [np.zeros(3), np.ones(3), target * 0.9, target * 1.1, -target]
    spawned = []

    def recording(master, n):
        spawned.append((master, n))
        return child_seeds(master, n)

    monkeypatch.setattr(search, "child_seeds", recording)
    for seed in (0, 1, 12345):
        ref_val, ref_x = reference_maximize(objective, shape=(3,), structured=starts,
                                            budget=0, seed=seed)
        val, x = multistart_maximize(objective, shape=(3,), structured=starts, budget=0,
                                     seed=seed, rows=rows)
        assert val == ref_val and x.tobytes() == ref_x.tobytes()
    assert spawned == []
    multistart_maximize(objective, shape=(3,), structured=starts, budget=1, seed=5, rows=rows)
    assert spawned == [(5, 2)]


@pytest.mark.parametrize("dim", [2, 5, 12, 32])
def test_dual_norm_search_matches_the_scalar_reference(dim, monkeypatch):
    rng = np.random.default_rng(200 + dim)
    searched = 0
    for space in families(dim):
        y = rng.standard_normal(dim)
        y[rng.random(dim) < 0.2] = 0.0
        new = dual_norm(space, y, budget=32, seed=dim)
        with monkeypatch.context() as m:
            m.setattr(linmaps, "multistart_maximize", reference_maximize)
            ref = dual_norm(space, y, budget=32, seed=dim)
        if new.direction == "exact":
            assert new.value == ref.value
            continue
        searched += 1
        assert_same_estimate(new, ref)
        assert new.value == abs(float(new.witness @ y))
    assert searched >= 3


def guarded(shape, objective, project):
    """objective and project that fail on anything but one array of shape
    or a flat one of its size."""

    def check(x):
        assert isinstance(x, np.ndarray)
        assert x.shape in (shape, (math.prod(shape),)), x.shape

    def obj(x):
        check(x)
        return objective(x)

    def proj(x):
        check(x)
        return project(x)

    return obj, proj


@pytest.mark.parametrize("shape", [(6,), (3, 4)])
def test_batched_search_hands_single_arrays_and_reproduces_its_value(shape):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, math.prod(shape)))
    objective = lambda x: float(np.sum(np.abs(A @ x.ravel()) ** 3) ** (1 / 3))
    project = lambda x: x / np.max(np.abs(x))
    rows = lambda X: np.sum(np.abs((X / np.max(np.abs(X), axis=1)[:, None]) @ A.T) ** 3,
                            axis=1) ** (1 / 3)
    obj, proj = guarded(shape, objective, project)
    kwargs = dict(shape=shape, structured=[np.ones(shape)], budget=32, seed=3)
    val, wit = multistart_maximize(obj, project=proj, rows=rows, **kwargs)
    ref_val, ref_wit = reference_maximize(objective, project=project, **kwargs)
    assert wit.shape == shape
    assert val == objective(wit)
    assert val == ref_val and np.array_equal(wit, ref_wit)


def test_rejected_rows_are_never_accepted():
    # the objective grows with x[0]; rows rejects every proposal with
    # x[0] > 0.25, the first time together with project, the second
    # time alone, where only the batch keeps the search from taking them
    objective = lambda x: float(x[0] + 0.1 * x[1])
    rows = lambda X: np.where(X[:, 0] > 0.25, -np.inf,
                              np.clip(X[:, 0], -1, 1) + 0.1 * np.clip(X[:, 1], -1, 1))
    for project in (lambda x: None if x[0] > 0.25 else np.clip(x, -1.0, 1.0),
                    lambda x: np.clip(x, -1.0, 1.0)):
        obj, proj = guarded((2,), objective, project)
        val, wit = multistart_maximize(obj, shape=(2,), structured=[[2.0, 1.0], [0.0, 0.0]],
                                       budget=64, seed=1, project=proj, rows=rows)
        assert 0.2 < wit[0] <= 0.25 and val == objective(wit)


def test_flat_proposals_cost_no_scalar_call():
    # the max of the entries is flat along every proposal that moves
    # another entry: those are ties, decided by the batch alone
    objective = lambda x: float(np.max(x))
    rows_seen, projected, evals = [], [], []

    def obj(x):
        evals.append(x.copy())
        return objective(x)

    def proj(x):
        projected.append(x.copy())
        return np.clip(x, -1.0, 1.0)

    def rows(X):
        vals = np.max(np.clip(X, -1.0, 1.0), axis=1)
        rows_seen.append(vals)
        return vals

    e0, e3 = 0.3 * np.eye(6)[0], 0.3 * np.eye(6)[3]
    val, wit = multistart_maximize(obj, shape=(6,), structured=[e0, e3, np.zeros(6)],
                                   budget=8, seed=5, project=proj, rows=rows,
                                   random_start=lambda rng: -rng.random(6))
    assert val == 1.0 == objective(wit)
    # the two starts that tie for the top batch score, then the final point
    kept = [e0, e3]
    assert len(evals) == 3
    assert all(np.array_equal(a, b) for a, b in zip(evals, kept + [wit]))
    # project ran for the kept starts and for gains only
    assert all(np.array_equal(a, b) for a, b in zip(projected, kept))
    gains = [objective(np.clip(p, -1.0, 1.0)) for p in projected[2:]]
    assert len(gains) >= 2 and np.all(np.diff([0.3] + gains) > 0)
    # the polish blocks scored many more rows than the search took
    assert sum(v.size for v in rows_seen[1:]) > 10 * len(gains)


@pytest.mark.parametrize("gain, taken", [(0.99 * SCREEN_SLACK, False),
                                         (1.01 * SCREEN_SLACK, True)])
def test_a_batch_gain_is_taken_past_the_slack_only(gain, taken):
    # 1.0 at the start 0; gain more for x > 0.25, which the first proposal
    # x + 0.5 reaches; a random start at -1 scores 0
    objective = lambda x: 1.0 + (gain if x[0] > 0.25 else 0.0) - (x[0] < -0.75)
    rows = lambda X: np.array([objective(x) for x in X])
    val, wit = multistart_maximize(objective, shape=(1,), structured=[[0.0]], budget=8,
                                   seed=2, rows=rows, random_start=lambda rng: np.array([-1.0]))
    assert (wit[0] > 0.25) == taken
    assert val == (1.0 + gain if taken else 1.0) == objective(wit)


def test_a_nan_batch_score_is_never_taken():
    # the objective grows with x[0]; rows scores every proposal with
    # x[0] > 0.25 NaN, and the search never takes one
    objective = lambda x: float(x[0] + 0.1 * x[1])
    rows = lambda X: np.where(X[:, 0] > 0.25, np.nan,
                              np.clip(X[:, 0], -1, 1) + 0.1 * np.clip(X[:, 1], -1, 1))
    obj, proj = guarded((2,), objective, lambda x: np.clip(x, -1.0, 1.0))
    val, wit = multistart_maximize(obj, shape=(2,), structured=[[0.0, 0.0]], budget=64,
                                   seed=1, project=proj, rows=rows,
                                   random_start=lambda rng: rng.uniform(-1.0, 0.2, 2))
    assert 0.2 < wit[0] <= 0.25 and val == objective(wit)


def test_search_with_every_start_rejected_still_raises():
    rejected = lambda X: np.full(X.shape[0], -np.inf)
    with pytest.raises(ValueError, match="no feasible start"):
        multistart_maximize(lambda x: 1.0, shape=(3,), structured=[np.ones(3)], budget=8,
                            project=lambda x: None, rows=rejected)
    with pytest.raises(ValueError, match="rejected by the objective"):
        multistart_maximize(lambda x: -np.inf, shape=(3,), structured=[np.ones(3)], budget=8,
                            rows=rejected)


def reference_run(monkeypatch, module, fn, *args, **kwargs):
    """fn(*args, **kwargs) with module's search replaced by the scalar
    reference."""
    with monkeypatch.context() as m:
        m.setattr(module, "multistart_maximize", reference_maximize)
        return fn(*args, **kwargs)


@pytest.mark.parametrize("kind", ["summing", "cotype"])
def test_gauge_search_matches_the_scalar_reference(kind, monkeypatch):
    # supports 3 and 4 have a Hadamard start in dimension 5; 5 has none
    rng = np.random.default_rng(300)
    for space in families(5):
        for m in range(1, 6):
            tau = rng.uniform(0.2, 1.0, m)
            new = gauges.opt_gauge(tau, space, kind, budget=8, seed=m)
            ref = reference_run(monkeypatch, gauges, gauges.opt_gauge, tau, space, kind,
                                budget=8, seed=m)
            assert_same_estimate(new, ref)


@pytest.mark.parametrize("n", [2, 3])
def test_summing_searches_match_the_scalar_reference(n, monkeypatch):
    Y = NormedSpace(gweak(GrowthSequence.power(0.5)), n)
    for i, space in enumerate(families(4)):
        T = identity_map(space)
        for p, q in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0)):
            new = summing.pi_pq_n(T, p, q, n, budget=8, seed=i)
            ref = reference_run(monkeypatch, summing, summing.pi_pq_n, T, p, q, n, budget=8,
                                seed=i)
            assert_same_estimate(new, ref)
        new = summing.pi_Y1(T, Y, n, budget=8, seed=i)
        ref = reference_run(monkeypatch, summing, summing.pi_Y1, T, Y, n, budget=8, seed=i)
        assert_same_estimate(new, ref)


@pytest.mark.parametrize("variable", ["rademacher", "gaussian"])
def test_cotype_search_matches_the_scalar_reference(variable, monkeypatch):
    kwargs = dict(budget=8, variable=variable, samples=300, final_samples=500)
    for i, space in enumerate(families(4)):
        for q, n in ((2.0, 3), (3.0, 4)):
            new = summing.cotype_q_constant(space, q, n, seed=i, **kwargs)
            ref = reference_run(monkeypatch, summing, summing.cotype_q_constant, space, q, n,
                                seed=i, **kwargs)
            assert_same_estimate(new, ref)


@pytest.mark.parametrize("q, n", [(1.5, 4), (2.0, 4), (3.0, 5), (math.inf, 3), (1.0, 22)])
def test_weak_lq_search_matches_the_scalar_reference(q, n, monkeypatch):
    rng = np.random.default_rng(400 + n)
    for i, space in enumerate(families(6)):
        config = rng.standard_normal((n, 6))
        new = linmaps.weak_lq_functional(config, space, q, budget=16, seed=i)
        ref = reference_run(monkeypatch, linmaps, linmaps.weak_lq_functional, config, space,
                            q, budget=16, seed=i)
        assert new.direction == "lower"
        assert_same_estimate(new, ref)


def handed_forms(monkeypatch, module, fn, *args, **kwargs):
    """Every keyword set, objective included, that fn(*args, **kwargs)
    hands to module's multistart_maximize."""
    seen = []

    def recording(objective, **kw):
        seen.append(dict(kw, objective=objective))
        return multistart_maximize(objective, **kw)

    with monkeypatch.context() as m:
        m.setattr(module, "multistart_maximize", recording)
        fn(*args, **kwargs)
    return seen


def assert_one_form(forms, rng):
    """objective(project(p)) is rows of the one-row block p, bit for bit,
    and project rejects p exactly where that row is -inf."""
    shape = forms["shape"]
    P = rng.standard_normal((24, math.prod(shape))) * rng.uniform(0.1, 3.0, (24, 1))
    P[0] = 0.0
    P[1, 1:] = 0.0
    for p in P:
        row = forms["rows"](p[None])[0]
        x = forms["project"](p.reshape(shape))
        if x is None:
            assert row == -np.inf
            continue
        assert x.shape == shape
        assert np.float64(forms["objective"](x)).tobytes() == np.float64(row).tobytes()


def opnorm_site(space, rng):
    T = LinearMap(rng.standard_normal((7, space.dim)), space, NormedSpace(lorentz(2, math.inf), 7))
    operator_norm(T, budget=4, seed=1)


SEARCH_SITES = {
    "operator_norm": (linmaps, opnorm_site),
    "dual_norm": (linmaps, lambda sp, rng: dual_norm(sp, rng.standard_normal(sp.dim), budget=4)),
    "weak_lq_functional": (linmaps, lambda sp, rng: linmaps.weak_lq_functional(
        rng.standard_normal((4, sp.dim)), sp, 1.5, budget=4)),
    "contraction_check": (averages, lambda sp, rng: averages.contraction_check(
        rng.standard_normal((4, sp.dim)), sp, budget=4)),
    "pi_pq_n": (summing, lambda sp, rng: summing.pi_pq_n(identity_map(sp), 2.0, 1.5, 3,
                                                         budget=4)),
    "pi_Y1": (summing, lambda sp, rng: summing.pi_Y1(
        identity_map(sp), NormedSpace(gweak(GrowthSequence.power(0.5)), 3), 3, budget=4)),
    "cotype-rademacher": (summing, lambda sp, rng: summing.cotype_q_constant(sp, 3.0, 3,
                                                                             budget=4)),
    "cotype-gaussian": (summing, lambda sp, rng: summing.cotype_q_constant(
        sp, 2.0, 3, budget=4, variable="gaussian", samples=300, final_samples=500)),
    "gauge-summing": (gauges, lambda sp, rng: gauges.opt_gauge(rng.uniform(0.2, 1.0, 3), sp,
                                                               "summing", budget=4)),
    "gauge-cotype": (gauges, lambda sp, rng: gauges.opt_gauge(rng.uniform(0.2, 1.0, 4), sp,
                                                              "cotype", budget=4)),
}


@pytest.mark.parametrize("site", SEARCH_SITES)
def test_every_search_hands_one_form_of_its_objective(site, monkeypatch):
    # the single-point forms a search hands on are one-row calls of its
    # batch forms: one objective, one projection
    module, call = SEARCH_SITES[site]
    rng = np.random.default_rng(600)
    spaces = families(5) + ([NormedSpace(lp(math.inf), 24)] if site == "operator_norm" else [])
    searches = 0
    for space in spaces:
        for forms in handed_forms(monkeypatch, module, call, space, rng):
            searches += 1
            assert_one_form(forms, rng)
    assert searches >= 3


def test_scaled_rows_skip_the_mask_only_when_every_row_is_kept():
    rng = np.random.default_rng(610)
    P = rng.standard_normal((7, 5))
    for s in (rng.uniform(0.5, 2.0, 7), np.array([1.5, 0.0, 2.0, 0.7, 0.0, 1.0, 3.0])):
        X, ok = search._scaled_rows(P, s)
        assert ok.tolist() == (s != 0.0).tolist()
        assert X.tobytes() == (P[ok] / s[ok, None]).tobytes()


@pytest.mark.parametrize("site", SEARCH_SITES)
def test_an_all_feasible_block_scores_as_the_masked_path(site, monkeypatch):
    # rows skips the mask when feasible keeps every row; the scores must be
    # those of the masked path, bit for bit
    module, call = SEARCH_SITES[site]
    pairs = []

    def recording(feasible, score):
        pairs.append((feasible, score))
        return search.batch_forms(feasible, score)

    rng = np.random.default_rng(620)
    with monkeypatch.context() as m:
        m.setattr(module, "batch_forms", recording)
        shapes = [forms["shape"] for space in families(5)
                  for forms in handed_forms(monkeypatch, module, call, space, rng)]
    assert len(shapes) == len(pairs) >= 3
    for (feasible, score), shape in zip(pairs, shapes):
        P = rng.standard_normal((7, math.prod(shape))) * rng.uniform(0.1, 3.0, (7, 1))
        X, ok = feasible(P)
        assert ok.all()
        masked = np.full(len(P), -np.inf)
        masked[ok] = score(X[ok])
        assert search.batch_forms(feasible, score)["rows"](P).tobytes() == masked.tobytes()
