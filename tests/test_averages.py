import importlib
import inspect
import math
import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm as normal_dist

from banachkit import (GrowthSequence, LinearMap, NormedSpace, SeqSpace, SubspaceSpace,
                       contraction_check, ell_norm, gauss_vs_rademacher, gaussian_average,
                       identity_map, lp, parse_space, rademacher_average)
from banachkit import averages, linmaps
from banachkit.linmaps import SIGN_BLOCK, sign_patterns
from banachkit.search import child_seeds

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def space(p, n):
    return NormedSpace(lp(p), n)


def expected_max_abs_gaussian(n):
    """Quadrature oracle for E max_k |g_k|: integrate the survival
    function of the half-normal maximum."""
    return quad(lambda t: 1.0 - (2.0 * normal_dist.cdf(t) - 1.0) ** n, 0, np.inf)[0]


def test_rademacher_hand_values():
    x = np.array([[0.6, 0.8]])
    assert rademacher_average(x, space(2, 2)).value == pytest.approx(1.0)
    assert rademacher_average(np.eye(2), space(1, 2)).value == 2.0
    assert rademacher_average(np.eye(2), space(2, 2)).value == pytest.approx(math.sqrt(2), abs=1e-14)


def test_rademacher_exact_results_and_caps():
    res = rademacher_average(np.eye(4), space(1, 4))
    assert res.method == "exact-enumeration"
    assert res.samples == 8  # 2^(n-1) patterns
    assert res.stderr == 0.0
    config = np.random.default_rng(0).standard_normal((4, 3))
    mc = rademacher_average(config, space(2, 3), enum_cap=0, samples=5000, seed=1)
    assert mc.method == "monte-carlo" and mc.stderr > 0.0


def test_rademacher_invariance_under_flips_and_permutations():
    rng = np.random.default_rng(2)
    sp = space(1.7, 3)
    config = rng.standard_normal((5, 3))
    base = rademacher_average(config, sp).value
    flipped = config * rng.choice([-1.0, 1.0], (5, 1))
    perm = flipped[rng.permutation(5)]
    assert rademacher_average(perm, sp).value == pytest.approx(base, rel=1e-12)


def test_mc_matches_enumeration_within_3_se():
    rng = np.random.default_rng(4)
    for i in range(25):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 6))
        config = rng.standard_normal((n, dim))
        sp = space(float(rng.uniform(1, 4)), dim)
        exact = rademacher_average(config, sp).value
        mc = rademacher_average(config, sp, enum_cap=0, samples=20_000, seed=100 + i)
        assert abs(mc.value - exact) <= 3 * mc.stderr


def test_gaussian_single_vector_moment2():
    res = gaussian_average(np.array([[1.0, 0.0]]), space(2, 2), moment=2,
                           samples=100_000, seed=5)
    assert abs(res.value - 1.0) <= 3 * res.stderr


def test_gaussian_coordinates_moment2_is_sqrt_n():
    for n in (2, 5):
        res = gaussian_average(np.eye(n), space(2, n), moment=2,
                               samples=100_000, seed=6)
        assert abs(res.value - math.sqrt(n)) <= 3 * res.stderr + 1e-3


def test_gaussian_max_statistic_against_quadrature_oracle():
    for n in (1, 2, 3):
        res = gaussian_average(np.eye(n), space(math.inf, n), moment=1,
                               samples=200_000, seed=7)
        assert abs(res.value - expected_max_abs_gaussian(n)) <= 4 * res.stderr


def test_moment_monotonicity():
    rng = np.random.default_rng(8)
    for i in range(10):
        config = rng.standard_normal((4, 3))
        sp = space(float(rng.uniform(1, 4)), 3)
        m1 = gaussian_average(config, sp, moment=1, samples=20_000, seed=i)
        m2 = gaussian_average(config, sp, moment=2, samples=20_000, seed=i)
        assert m1.value <= m2.value * (1 + 1e-12)
        r1 = rademacher_average(config, sp, moment=1)
        r2 = rademacher_average(config, sp, moment=2)
        assert r1.value <= r2.value * (1 + 1e-12)


def test_mc_variance_shrinks_with_samples():
    config = np.random.default_rng(10).standard_normal((6, 4))
    sp = space(1.5, 4)
    ses = [gaussian_average(config, sp, samples=s, seed=11).stderr
           for s in (2_000, 8_000, 32_000)]
    # quadrupling the sample count should roughly halve the error
    assert ses[1] < ses[0] * 0.7
    assert ses[2] < ses[1] * 0.7


def test_ell_norm_identity_and_rotation_invariance():
    sp = space(2, 8)
    u = identity_map(sp)
    est = ell_norm(u, samples=100_000, seed=12)
    assert abs(est.value - math.sqrt(8)) <= 0.02 * math.sqrt(8)
    qmat, _ = np.linalg.qr(np.random.default_rng(13).standard_normal((8, 8)))
    est2 = ell_norm(LinearMap(u.matrix @ qmat, sp, sp), samples=100_000, seed=14)
    assert abs(est2.value - est.value) <= 3 * math.hypot(est.stderr, est2.stderr)


def test_ell_norm_single_coordinate():
    assert abs(ell_norm(identity_map(space(2, 1)), samples=50_000, seed=15).value - 1.0) < 0.02


def test_ell_norm_linf_matches_gaussian_average():
    sp = space(math.inf, 4)
    u = LinearMap(np.eye(4), space(2, 4), sp)
    a = ell_norm(u, samples=50_000, seed=16)
    b = gaussian_average(np.eye(4), sp, moment=2, samples=50_000, seed=17)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


def test_ell_norm_requires_euclidean_domain():
    with pytest.raises(ValueError):
        ell_norm(identity_map(space(1, 3)))


def test_contraction_box_equals_signs():
    rng = np.random.default_rng(18)
    for i in range(30):
        n = int(rng.integers(1, 11))
        dim = int(rng.integers(1, 6))
        config = rng.standard_normal((n, dim))
        sp = space([1.0, 2.0, math.inf][i % 3], dim)
        box, signs = contraction_check(config, sp, budget=16, seed=i)
        assert abs(box - signs) <= 1e-12


def test_contraction_hand_case():
    box, signs = contraction_check(np.eye(2), space(1, 2), budget=8, seed=0)
    assert box == signs == 2.0


def test_gauss_vs_rademacher_floor_and_degenerate():
    rng = np.random.default_rng(19)
    for i in range(20):
        config = rng.standard_normal((int(rng.integers(2, 7)), 3))
        sp = space([1.0, 2.0, math.inf][i % 3], 3)
        res = gauss_vs_rademacher(config, sp, samples=20_000, seed=i)
        assert res["ratio"] >= SQRT_2_OVER_PI - 3 * res["ratio_stderr"]

    single = gauss_vs_rademacher(np.array([[2.0, 0.0, 0.0]]), space(2, 3),
                                 samples=100_000, seed=30)
    # E|g| = sqrt(2/pi): the single-vector ratio sits at the boundary
    assert abs(single["ratio"] - SQRT_2_OVER_PI) <= 3 * single["ratio_stderr"]

    zero = gauss_vs_rademacher(np.zeros((2, 3)), space(2, 3), samples=1000, seed=31)
    assert zero["degenerate"] and zero["ratio"] is None


def frozen_mc_average(config, space, moment, sampler, samples, seed):
    """_mc_average as it was when each chunk was drawn and multiplied
    whole, kept as the oracle of the block-by-block one."""
    total, total_sq, count = 0.0, 0.0, 0
    seeds = child_seeds(seed, (samples + 20_000 - 1) // 20_000)
    for i, s in enumerate(seeds):
        m = min(20_000, samples - i * 20_000)
        rng = np.random.default_rng(s)
        weights = sampler(rng, (m, config.shape[0]))
        vals = space.norm_rows(weights @ config)
        if moment == 2:
            vals = vals**2
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals**2))
        count += m
    mean = total / count
    var = max(total_sq / count - mean**2, 0.0) / count
    return averages._finish(mean, var, moment, "monte-carlo", count, seed)


#: (block filler of _mc_average, whole-chunk draw of the frozen copy)
SAMPLERS = ((averages._draw_gaussians, lambda rng, shape: rng.standard_normal(shape)),
            (averages._draw_signs, lambda rng, shape: rng.choice([-1.0, 1.0], size=shape)))


@pytest.mark.parametrize("dim", [1, 7, 64, 128])
def test_block_monte_carlo_equals_whole_chunks(dim):
    # at 64 and 128 coordinates a block holds 4096 and 2048 rows, so 4097
    # and 20_001 samples end in a one-row block and chunk; 1 is one row
    rng = np.random.default_rng(80 + dim)
    spaces = [parse_space(f"{fam}:{dim}") for fam in ("lp:2", "lp:1", "lorentz:2:1",
                                                      "lorentz:2:inf", "gweak:pow:0.5")]
    spaces.append(SubspaceSpace(rng.standard_normal((dim + 3, dim)),
                                parse_space(f"lp:3:{dim + 3}")))
    for samples in (1, 4097, 20_001, 24_097):
        for sp in spaces:
            config = rng.standard_normal((int(rng.integers(1, 17)), dim))
            for fill, draw in SAMPLERS:
                for moment in (1, 2):
                    got = averages._mc_average(config, sp, moment, fill, samples, 9)
                    assert got == frozen_mc_average(config, sp, moment, draw, samples, 9)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_averages_peak_at_a_few_blocks():
    bound = 4 * SIGN_BLOCK * 8
    rng = np.random.default_rng(90)
    wide = rng.standard_normal((16, 1024))
    # the whole-chunk draw formed 20_000 x 1024 products (164 MB)
    assert traced_peak(lambda: gaussian_average(wide, parse_space("lp:3:1024"),
                                                samples=40_000)) <= bound
    # the 2^19 patterns are 2^19 norms (4 MB) and one block; the table
    # was 10 MB more
    config = rng.standard_normal((20, 32))
    for moment in (1, 2):
        assert traced_peak(lambda: rademacher_average(config, parse_space("lp:3:32"),
                                                      moment=moment)) <= bound


@pytest.mark.parametrize("samples", [0, -5])
def test_monte_carlo_needs_a_sample(samples):
    config = np.eye(4)
    with pytest.raises(ValueError, match="samples"):
        gaussian_average(config, space(2, 4), samples=samples)
    with pytest.raises(ValueError, match="samples"):
        rademacher_average(np.ones((24, 4)), space(2, 4), samples=samples)
    # an enumerated sign average draws no samples
    assert rademacher_average(config, space(1, 4), samples=samples).value == 4.0


@pytest.mark.parametrize("shape", [(1,), (3,), (5, 7), (4097, 10), (20000, 24)])
def test_sign_draws_are_the_choice_stream(shape):
    want = np.random.default_rng(12).choice([-1.0, 1.0], size=shape)
    got = np.empty(shape)
    averages._draw_signs(np.random.default_rng(12), got)
    assert got.tobytes() == want.tobytes()
    if len(shape) == 2:
        # drawn block by block, the rows continue the stream of one draw
        rng = np.random.default_rng(12)
        for start, stop in ((0, 1), (1, shape[0] // 2 + 1), (shape[0] // 2 + 1, shape[0])):
            averages._draw_signs(rng, got[start:stop])
        assert got.tobytes() == want.tobytes()


def fan_out_space(name, dim, rng):
    if name == "subspace":
        return SubspaceSpace(rng.standard_normal((dim + 5, dim)), parse_space(f"lp:3:{dim + 5}"))
    return parse_space(f"{name}:{dim}")


@pytest.mark.parametrize("n, dim", [(16, 12), (16, 40), (16, 300), (20, 12)])
def test_fanned_out_averages_equal_one_thread(monkeypatch, n, dim):
    # every job of two blocks or more fans out; one thread sums the whole
    # vector of norms, two sum blocks and add the sums pairwise
    monkeypatch.setattr(linmaps, "_FAN_OUT", 1)
    rng = np.random.default_rng(100 + n + dim)
    for name in ("lp:3", "lorentz:3:2", "gweak:pow:0.5", "subspace"):
        sp = fan_out_space(name, dim, rng)
        config = rng.standard_normal((n, dim))
        got = {}
        for workers in (1, 2):
            monkeypatch.setattr(linmaps, "_WORKERS", workers)
            got[workers] = [rademacher_average(config, sp, moment=moment)
                            for moment in (1, 2)]
            if n == 16 and dim < 300:
                # three chunks, the last one short
                got[workers] += [f(config, sp, moment=moment, samples=45_000, seed=3,
                                   **kwargs)
                                 for f, kwargs in ((gaussian_average, {}),
                                                   (rademacher_average, {"enum_cap": 0}))
                                 for moment in (1, 2)]
        assert got[1] == got[2]


@pytest.mark.parametrize("n, dim", [(16, 32), (20, 32), (16, 300), (9, 4096)])
def test_streamed_enumeration_mean_is_the_mean_of_the_norms(monkeypatch, n, dim):
    # blocks of 8192, 8192 and 512 rows are summed block by block, on one
    # thread as on two; those of 64 rows at 4096 coordinates are too
    # short, and the norms are kept
    rng = np.random.default_rng(110 + n)
    sp = parse_space(f"lorentz:2:1:{dim}")
    config = rng.standard_normal((n, dim))
    # the norms in the enumeration's own row blocks: past a few hundred
    # coordinates the one-shot product may round apart from them
    table, rows = sign_patterns(n).astype(float), linmaps._block_rows(dim)
    vals = np.concatenate([sp.norm_rows(table[i:i + rows] @ config)
                           for i in range(0, len(table), rows)])
    for workers in (1, 2):
        monkeypatch.setattr(linmaps, "_WORKERS", workers)
        assert rademacher_average(config, sp, moment=1).value == float(np.mean(vals))
        assert rademacher_average(config, sp, moment=2).value == math.sqrt(np.mean(vals**2))


#: the package's modules whose public functions the benchmark's tracer wraps
TRACED_MODULES = ("sequences", "growth", "spaces", "search", "linmaps", "averages",
                  "snumbers", "summing", "pipeline", "gauges", "reports", "suites", "cli")


def test_pool_threads_call_nothing_public(monkeypatch):
    # a tracer that wraps the public functions and the space and growth
    # methods keeps one span stack: only the calling thread may enter them
    monkeypatch.setattr(linmaps, "_WORKERS", 2)
    callers, workers = set(), set()

    def recording(fn):
        def wrapped(*args, **kwargs):
            callers.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapped

    for name in TRACED_MODULES:
        mod = importlib.import_module(f"banachkit.{name}")
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__.startswith("banachkit")):
                monkeypatch.setattr(mod, attr, recording(obj))
    for cls in (SeqSpace, NormedSpace, SubspaceSpace, GrowthSequence):
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (attr == "__call__" or not attr.startswith("_")):
                monkeypatch.setattr(cls, attr, recording(obj))
    for attr in ("svd", "eig", "eigvals", "qr", "det", "norm"):
        monkeypatch.setattr(np.linalg, attr, recording(getattr(np.linalg, attr)))
    kernel = NormedSpace._row_kernel

    def watched(self):
        rows = kernel(self)

        def run(m):
            workers.add(threading.get_ident())
            return rows(m)
        return run

    monkeypatch.setattr(NormedSpace, "_row_kernel", watched)
    rng = np.random.default_rng(120)
    sp = parse_space("gweak:pow:0.5:64")
    # 8 blocks of 4096 patterns; 3 chunks, 11 blocks of 4096 draws
    for _ in range(5):
        rademacher_average(rng.standard_normal((16, 64)), sp)
        gaussian_average(rng.standard_normal((8, 64)), sp, samples=45_000, seed=4)
    main = threading.get_ident()
    assert callers == {main}
    assert workers - {main}, "the pool thread took no block"


def _average_in_child(conn, config, sp):
    res = gaussian_average(config, sp, moment=2, samples=45_000, seed=6)
    conn.send((res.value, res.stderr))
    conn.close()


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_runs_a_fanned_out_average(monkeypatch):
    monkeypatch.setattr(linmaps, "_WORKERS", 2)
    sp = parse_space("lp:3:64")
    config = np.random.default_rng(130).standard_normal((8, 64))
    want = gaussian_average(config, sp, moment=2, samples=45_000, seed=6)
    assert linmaps._pool is not None  # the parent's pool thread is running
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_average_in_child, args=(send, config, sp))
    child.start()
    try:
        # a child that kept the parent's executor would wait for ever on a
        # thread that was not forked
        assert receive.poll(60), "the forked child did not finish its average"
        assert receive.recv() == (want.value, want.stderr)
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert not child.is_alive() and child.exitcode == 0
