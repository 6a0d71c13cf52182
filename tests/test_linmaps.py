import math
import threading
import tracemalloc

import numpy as np
import pytest

from banachkit import (LinearMap, NormedSpace, SubspaceSpace, dual_norm, identity_map,
                       lorentz, lp, operator_norm, parse_space, rademacher_average,
                       weak_lq_functional)
from banachkit import linmaps
from banachkit.linmaps import (SIGN_BLOCK, operator_norms, sign_norms, sign_pattern,
                               sign_patterns, weak_lq_upper)
from banachkit.search import child_seeds, multistart_maximize, split_budget


def space(p, n):
    return NormedSpace(lp(p), n)


def test_sign_patterns_shape_and_symmetry():
    s = sign_patterns(4)
    assert s.shape == (8, 4)
    assert np.all(s[:, 0] == 1.0)
    assert len({tuple(r) for r in s}) == 8


@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_int8_sign_table_products_equal_float_ones(n):
    table = sign_patterns(n)
    assert table.dtype == np.int8
    # the float table, column j alternating runs of 2^(n-1-j) signs
    runs = 2 ** (n - 1 - np.arange(n))
    ref = np.where((np.arange(2 ** (n - 1))[:, None] // runs) % 2 == 0, 1.0, -1.0)
    assert np.array_equal(table, ref)
    rng = np.random.default_rng(n)
    for dim in (3, 40):
        config = rng.standard_normal((n, dim))
        tau = rng.uniform(0.1, 2.0, n)
        assert np.array_equal(table @ config, ref @ config)
        assert np.array_equal(table * tau, ref * tau)


@pytest.mark.parametrize("family", ["lp:1.5", "lp:3", "lp:inf", "lorentz:2:1",
                                    "lorentz:2:inf", "gweak:pow:0.5"])
def test_sign_norms_match_the_one_shot_product(family):
    dim = 48
    sp = parse_space(f"{family}:{dim}")
    rng = np.random.default_rng(21)
    config = rng.standard_normal((15, dim))
    # blocks of the largest power-of-two row count within SIGN_BLOCK
    # entries: three full blocks and a partial fourth
    rows = 1 << ((SIGN_BLOCK // dim).bit_length() - 1)
    signs = sign_patterns(15)[:13_000]
    assert 3 * rows < signs.shape[0] < 4 * rows
    tau = rng.uniform(0.1, 2.0, 15)
    for table in (signs, signs * tau):
        got = sign_norms(table, config, sp)
        assert got.shape == (table.shape[0],)
        assert np.array_equal(got, sp.norm_rows(table @ config))


def test_sign_average_memory_stays_bounded():
    rng = np.random.default_rng(5)
    config = rng.standard_normal((18, 256))
    tracemalloc.start()
    try:
        rademacher_average(config, parse_space("lp:3:256"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2^17 x 18 pattern table plus one block; the one-shot product
    # alone would be 2^17 x 256 floats (268 MB)
    assert peak < 64 * 2**20


def test_subspace_sign_average_memory_stays_bounded():
    rng = np.random.default_rng(6)
    sub = SubspaceSpace(rng.standard_normal((1024, 16)), parse_space("lp:3:1024"))
    config = rng.standard_normal((16, 16))
    tracemalloc.start()
    try:
        rademacher_average(config, sub)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # blocks budgeted by the 16-coordinate width alone were 16384 rows,
    # each mapped into all 1024 ambient coordinates (390 MB at peak)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("k, n, dim", [(5, 3, 4), (9, 6, 40), (40, 8, 300), (3, 10, 512)])
def test_stacked_sign_norms_equal_the_one_config_ones(k, n, dim):
    # (40, 8, 300): ten blocks of four tables; (3, 10, 512): one table of
    # 512 rows fills a whole block alone. A subspace multiplies its rows
    # by the basis, a product over all dim coordinates, which BLAS may
    # round another way in a taller block past a few hundred of them
    rng = np.random.default_rng(k + n)
    stack = rng.standard_normal((k, n, dim))
    table = sign_patterns(n)
    tau = rng.uniform(0.1, 2.0, n)
    spaces = [parse_space(f"lp:3:{dim}"), parse_space(f"lorentz:2:1:{dim}")]
    if dim <= 64:
        spaces.append(SubspaceSpace(rng.standard_normal((dim + 5, dim)),
                                    parse_space(f"lp:3:{dim + 5}")))
    for sp in spaces:
        for signs in (table, table * tau):
            got = sign_norms(signs, stack, sp)
            assert got.shape == (k, signs.shape[0])
            for c, row in zip(stack, got):
                assert np.array_equal(row, sign_norms(signs, c, sp))


def test_stacked_sign_norms_memory_stays_bounded():
    stack = np.random.default_rng(9).standard_normal((2, 16, 512))
    tracemalloc.start()
    try:
        sign_norms(sign_patterns(16), stack, parse_space("lp:3:512"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one stacked product would be 2 x 2^15 x 512 floats (268 MB)
    assert peak < 64 * 2**20


def test_enumerated_witnesses_do_not_hold_the_pattern_table(monkeypatch):
    tables = []

    def recording(n):
        tables.append(sign_patterns(n))
        return tables[-1]

    monkeypatch.setattr(linmaps, "sign_patterns", recording)
    A = np.array([[1.0, -2.0, 0.5], [0.3, 1.0, -1.0]])
    est = operator_norm(LinearMap(A, space(math.inf, 3), space(1.5, 2)))
    assert est.direction == "exact"
    config = np.random.default_rng(4).standard_normal((5, 3))
    weak = weak_lq_functional(config, space(3, 3), 1)
    assert weak.direction == "exact"
    fresh3, fresh5 = sign_patterns(3), sign_patterns(5)
    for witness, table, fresh in ((est.witness, tables[0], fresh3),
                                  (weak.witness["signs"], tables[1], fresh5)):
        assert not np.shares_memory(witness, table)
        assert witness.dtype == np.float64
        assert any(np.array_equal(witness, row) for row in fresh)


def _enum_space(name, dim, rng):
    if name == "subspace":
        return SubspaceSpace(rng.standard_normal((dim + 5, dim)), parse_space(f"lp:3:{dim + 5}"))
    return parse_space(f"{name}:{dim}")


ENUM_SPACES = ("lp:1.5", "lp:3", "lorentz:3:2", "lorentz:2:inf", "gweak:pow:0.5", "subspace")


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 20])
def test_table_free_enumeration_equals_the_table(n):
    # n = 16 at dim 300 takes 32 blocks of 1024 rows, n = 20 at dim 12
    # 64 blocks of 8192; the smaller tables fit in one block
    rng = np.random.default_rng(40 + n)
    table = sign_patterns(n)
    for dim in ((12,) if n == 20 else (5, 40, 300) if n == 16 else (5, 40)):
        for name in ENUM_SPACES:
            sp = _enum_space(name, dim, rng)
            config = rng.standard_normal((n, dim))
            got = sign_norms(n, config, sp)
            assert got.tobytes() == sign_norms(table, config, sp).tobytes()
            if n < 20 and dim < 300:
                stack = rng.standard_normal((3, n, dim))
                assert (sign_norms(n, stack, sp).tobytes()
                        == sign_norms(table, stack, sp).tobytes())


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 20])
def test_rebuilt_sign_patterns_equal_the_table_rows(n):
    table = sign_patterns(n)
    rows = range(len(table)) if n <= 12 else [0, 1, 2**18, 2**19 - 1, 123_457, 400_001]
    for i in rows:
        got = sign_pattern(n, i)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got, table[i])


@pytest.mark.parametrize("n", [2, 5, 9])
def test_enumerated_witnesses_are_the_table_rows_of_the_maximum(n):
    rng = np.random.default_rng(60 + n)
    table = sign_patterns(n)
    A = rng.standard_normal((4, n))
    est = operator_norm(LinearMap(A, space(math.inf, n), space(1.5, 4)))
    vals = sign_norms(table, A.T, space(1.5, 4))
    assert est.meta["route"] == "enumeration" and est.value == vals.max()
    assert np.array_equal(est.witness, table[np.argmax(vals)])
    config = rng.standard_normal((n, 3))
    weak = weak_lq_functional(config, space(3, 3), 1)
    vals = sign_norms(table, config, space(3, 3))
    assert weak.direction == "exact" and weak.value == vals.max()
    assert np.array_equal(weak.witness["signs"], table[np.argmax(vals)])


FAN_OUT_SPACES = ("lp:3", "lorentz:3:2", "gweak:pow:0.5", "subspace")


@pytest.mark.parametrize("n, dim", [(16, 12), (16, 40), (16, 300), (20, 12), (20, 40),
                                    (20, 300)])
def test_fanned_out_sign_norms_equal_one_thread(monkeypatch, n, dim):
    # every job of two blocks or more fans out: n = 16 at 12 coordinates
    # is 2 blocks of 16384 rows, at 300 coordinates 64 blocks of 512
    monkeypatch.setattr(linmaps, "_FAN_OUT", 1)
    rng = np.random.default_rng(90 + n + dim)
    # scaled tables at 12 coordinates only, and at n = 20 and 300
    # coordinates l_p only: the others take seconds a call
    scales = [None, rng.uniform(0.1, 2.0, n)] if dim == 12 else [None]
    for name in FAN_OUT_SPACES if (n, dim) != (20, 300) else ("lp:3",):
        sp = _enum_space(name, dim, rng)
        config = rng.standard_normal((n, dim))
        got = {}
        for workers in (1, 2):
            monkeypatch.setattr(linmaps, "_WORKERS", workers)
            got[workers] = [sign_norms(n, config, sp, scale=tau).tobytes() for tau in scales]
        assert got[1] == got[2]


def test_scaled_patterns_equal_the_weighted_table():
    # the gauge's table, scaled block by block inside sign_norms
    rng = np.random.default_rng(95)
    for n, dim in ((3, 5), (15, 40), (16, 300), (17, 12)):
        sp = parse_space(f"lorentz:2:1:{dim}")
        tau = rng.uniform(0.1, 2.0, n)
        table = sign_patterns(n) * tau
        config = rng.standard_normal((n, dim))
        assert (sign_norms(n, config, sp, scale=tau).tobytes()
                == sign_norms(table, config, sp).tobytes())
        stack = rng.standard_normal((2, n, dim))
        assert (sign_norms(n, stack, sp, scale=tau).tobytes()
                == sign_norms(table, stack, sp).tobytes())


class PoolFailure(RuntimeError):
    pass


def test_an_error_in_the_pool_thread_is_raised_and_the_pool_recovers(monkeypatch):
    monkeypatch.setattr(linmaps, "_WORKERS", 2)
    sp = parse_space("lp:3:32")
    config = np.random.default_rng(96).standard_normal((16, 32))
    kernel = NormedSpace._row_kernel
    main = threading.get_ident()
    pool_ran = threading.Event()

    def failing(self):
        norms = kernel(self)

        def rows(m):
            if threading.get_ident() != main:
                pool_ran.set()
                raise PoolFailure("block on the pool thread")
            pool_ran.wait(10)  # until the pool thread took a block
            return norms(m)
        return rows

    monkeypatch.setattr(NormedSpace, "_row_kernel", failing)
    with pytest.raises(PoolFailure):
        sign_norms(16, config, sp)
    assert pool_ran.is_set()
    monkeypatch.setattr(NormedSpace, "_row_kernel", kernel)
    got = sign_norms(16, config, sp)
    monkeypatch.setattr(linmaps, "_WORKERS", 1)
    assert got.tobytes() == sign_norms(16, config, sp).tobytes()


def test_weight_tables_join_a_one_row_tail_to_the_block_before():
    # 4097 rows at 4096 rows per block: one block of 4097, never a one-row
    # product, which numpy hands to gemv
    sp = parse_space("lp:3:64")
    rng = np.random.default_rng(70)
    config = rng.standard_normal((10, 64))
    table = rng.standard_normal((4097, 10))
    calls = []

    def draw(block):
        block[...] = table[sum(calls):sum(calls) + len(block)]
        calls.append(len(block))

    drawn = sign_norms(draw, config, sp, count=4097)
    assert calls == [4097]
    assert drawn.tobytes() == sign_norms(table, config, sp).tobytes()
    assert drawn.tobytes() == sp.norm_rows(table @ config).tobytes()


def test_operator_norm_exact_routes():
    T = LinearMap(np.diag([2.0, 3.0]), space(2, 2), space(2, 2))
    est = operator_norm(T)
    assert est.direction == "exact" and est.value == 3.0

    idm = LinearMap(np.eye(4), space(1, 4), space(math.inf, 4))
    est = operator_norm(idm)
    assert est.direction == "exact" and est.value == 1.0

    Z = LinearMap(np.zeros((3, 2)), space(1, 2), space(2, 3))
    assert operator_norm(Z).value == 0.0

    # out of l_1: max codomain norm over columns
    A = np.array([[1.0, -2.0], [0.5, 1.0]])
    est = operator_norm(LinearMap(A, space(1, 2), space(2, 2)))
    cols = np.linalg.norm(A, axis=0)
    assert est.value == pytest.approx(float(np.max(cols)), rel=1e-14)

    # into l_inf: max dual norm over rows
    est = operator_norm(LinearMap(A, space(2, 2), space(math.inf, 2)))
    rows = np.linalg.norm(A, axis=1)
    assert est.value == pytest.approx(float(np.max(rows)), rel=1e-14)

    # small l_inf domain: sign enumeration
    est = operator_norm(LinearMap(A, space(math.inf, 2), space(2, 2)))
    by_hand = max(np.linalg.norm(A @ np.array(s)) for s in
                  [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert est.direction == "exact" and est.value == pytest.approx(by_hand, rel=1e-14)


def test_operator_norm_lower_route_is_witnessed():
    rng = np.random.default_rng(2)
    dom = NormedSpace(lorentz(2.0, 1.0), 4)
    cod = space(1, 4)
    T = LinearMap(rng.standard_normal((4, 4)), dom, cod)
    est = operator_norm(T, budget=16, seed=3)
    assert est.direction == "lower"
    # witness reproduces the value and respects the certified upper bound
    w = np.asarray(est.witness)
    assert cod.norm(T.apply(w / dom.norm(w))) == pytest.approx(est.value, abs=1e-10)
    assert est.value <= est.meta["upper"] * (1 + 1e-12)


@pytest.mark.parametrize("ambient", ["lp:1:5", "lp:inf:5"])
def test_operator_norm_out_of_a_subspace_searches(ambient):
    # a subspace of l_1 or l_inf has other extreme points than its ambient
    # space, so neither exact route applies: the search runs, tagged lower
    rng = np.random.default_rng(4)
    dom = SubspaceSpace(rng.standard_normal((5, 3)), parse_space(ambient))
    cod = space(2, 3)
    T = LinearMap(rng.standard_normal((3, 3)), dom, cod)
    est = operator_norm(T, budget=8, seed=1)
    assert est.direction == "lower"
    w = np.asarray(est.witness)
    assert dom.norm(w) == pytest.approx(1.0, rel=1e-12)
    assert cod.norm(T.apply(w)) == pytest.approx(est.value, rel=1e-12)
    assert est.value <= est.meta["upper"]


def test_operator_norm_submultiplicative():
    rng = np.random.default_rng(6)
    for _ in range(20):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        sp = space(float(rng.uniform(1, 4)), 3)
        S = LinearMap(B, sp, sp)
        T = LinearMap(A, sp, sp)
        tn = operator_norm(T, budget=24, seed=1).value
        sn = operator_norm(S, budget=24, seed=1).value
        # composition norms are lower estimates, so compare against the
        # certified upper bounds of the factors
        comp = operator_norm(T.compose(S), budget=24, seed=1)
        upper_t = tn if T.is_euclidean else operator_norm(T).meta.get("upper", tn)
        upper_s = sn if S.is_euclidean else operator_norm(S).meta.get("upper", sn)
        assert comp.value <= upper_t * upper_s * (1 + 1e-10)


def test_operator_norm_names_its_route():
    rng = np.random.default_rng(11)
    cases = [
        (np.zeros((2, 3)), "lp:2:3", "lp:3:2", "zero", "exact"),
        (rng.standard_normal((3, 3)), "lp:2:3", "lorentz:2:2:3", "svd", "exact"),
        (rng.standard_normal((3, 4)), "lp:1:4", "lorentz:2:inf:3", "l1-columns", "exact"),
        (rng.standard_normal((4, 3)), "gweak:pow:0.5:3", "lp:inf:4", "linf-rows", "exact"),
        (rng.standard_normal((3, 6)), "lp:inf:6", "lp:3:3", "enumeration", "exact"),
        (rng.standard_normal((5, 24)), "lp:inf:24", "lp:3:5", "vertex-ascent", "lower"),
        (rng.standard_normal((3, 4)), "lorentz:2:1:4", "lp:inf:3", "search", "lower"),
        (rng.standard_normal((3, 3)), "lp:1.5:3", "lp:3:3", "search", "lower"),
    ]
    for A, dom, cod, route, direction in cases:
        est = operator_norm(LinearMap(A, parse_space(dom), parse_space(cod)), budget=8)
        assert (est.meta["route"], est.direction) == (route, direction), (dom, cod)


@pytest.mark.parametrize("cod", ["lorentz:2:inf:16", "gweak:pow:0.5:16"])
def test_quasi_codomain_past_the_cap_searches_from_the_best_vertex(cod):
    # an interior point can beat every vertex of the cube on a quasi-norm,
    # so the best vertex of the ascent is only one start of the search
    cod = parse_space(cod)
    A = np.random.default_rng(12).standard_normal((16, 32))
    est = operator_norm(LinearMap(A, parse_space("lp:inf:32"), cod), budget=16, seed=3)
    assert (est.meta["route"], est.direction) == ("search", "lower")
    vertex, _ = linmaps._vertex_ascent(A, cod, 16, 3)
    assert est.value >= vertex
    assert est.value <= est.meta["upper"]


@pytest.mark.parametrize("cod", ["lp:2:16", "lp:3:16", "lp:1:16", "lorentz:3:2:16"])
def test_vertex_ascent_witness_is_a_local_maximum(cod):
    dom, cod = parse_space("lp:inf:32"), parse_space(cod)
    rng = np.random.default_rng(13)
    for seed in range(5):
        A = rng.standard_normal((16, 32)) / math.sqrt(32)
        T = LinearMap(A, dom, cod)
        est = operator_norm(T, budget=16, seed=seed)
        assert (est.meta["route"], est.direction) == ("vertex-ascent", "lower")
        w = est.witness
        assert w.dtype == np.float64 and np.all(np.abs(w) == 1.0)
        assert dom.norm(w) == 1.0
        assert cod.norm(A @ w) == est.value
        assert est.value <= est.meta["upper"]
        again = operator_norm(T, budget=16, seed=seed)
        assert again.to_dict() == est.to_dict()
        # the ascent stops where no single flip gains a relative 1e-12;
        # the scalar norm may read a flip a few ulps off its block score
        flipped = w * (1.0 - 2.0 * np.eye(32))  # row j: w with entry j flipped
        gains = [cod.norm(A @ v) / est.value - 1.0 for v in flipped]
        assert max(gains) <= 1e-12 + 1e-14


@pytest.mark.parametrize("N", [12, 16])
def test_vertex_ascent_against_enumeration(N):
    cod = parse_space("lp:3:8")
    ratios = []
    for seed in range(40):
        A = np.random.default_rng(100 + seed).standard_normal((8, N))
        value, _ = linmaps._vertex_ascent(A, cod, 16, seed)
        ratios.append(value / np.max(sign_norms(sign_patterns(N), A.T, cod)))
    ratios = np.array(ratios)
    # gemv and the blocked gemm of the enumeration may round apart by ulps
    assert np.all(ratios <= 1.0 + 1e-12)
    assert np.all(ratios >= 0.9)
    assert np.sum(ratios >= 1.0 - 1e-12) >= 32


@pytest.mark.parametrize("cod", ["lp:2:16", "lp:3:16", "lorentz:3:2:16"])
def test_vertex_ascent_never_below_the_sphere_search(cod):
    dom, cod = parse_space("lp:inf:32"), parse_space(cod)

    def to_sphere(x):
        nrm = dom.norm(x)
        return None if nrm == 0.0 else x / nrm

    def rows(X):
        nrm = dom.norm_rows(X)
        out = np.full(X.shape[0], -np.inf)
        ok = nrm != 0.0
        out[ok] = cod.norm_rows((X[ok] / nrm[ok, None]) @ A.T)
        return out

    for seed in range(40):
        A = np.random.default_rng(200 + seed).standard_normal((16, 32)) / math.sqrt(32)
        est = operator_norm(LinearMap(A, dom, cod), budget=16, seed=seed)
        # the continuous search that served these maps before the ascent
        ref, _ = multistart_maximize(lambda x: cod.norm(A @ x), shape=(32,),
                                     structured=[*np.eye(32), np.ones(32)], budget=16,
                                     seed=seed, project=to_sphere, rows=rows)
        assert est.value >= ref


def test_vertex_ascent_memory_stays_bounded():
    A = np.random.default_rng(14).standard_normal((200, 300))
    T = LinearMap(A, parse_space("lp:inf:300"), parse_space("lp:3:200"))
    tracemalloc.start()
    try:
        est = operator_norm(T, budget=16, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.meta["route"] == "vertex-ascent"
    # each step scores the flips in blocks of at most SIGN_BLOCK entries,
    # so the peak is a few blocks whatever the dimension
    assert peak < 64 * 2**20


def one_map_vertex_ascent(A, cod, budget, seed):
    """linmaps._vertex_ascent as it read before the maps of a stack climbed
    in lockstep: one map, its active starts in one product per step."""
    n, N = A.shape
    top = np.linalg.svd(A, full_matrices=False)[2][0]
    starts = [np.where(top < 0, -1.0, 1.0), np.ones(N)]
    starts += [np.where(np.random.default_rng(s).random(N) < 0.5, -1.0, 1.0)
               for s in child_seeds(seed, split_budget(budget)[0])]
    E = np.array(starts)
    Y = E @ A.T
    score = cod.norm_rows(Y)
    flips = 2.0 * A.T
    step = max(1, SIGN_BLOCK // (E.shape[0] * max(n, cod.row_width)))
    final = np.empty_like(E)
    active = np.arange(E.shape[0])
    while active.size:
        vals = np.empty((active.size, N))
        for j in range(0, N, step):
            block = Y[:, None] - E[:, j:j + step, None] * flips[j:j + step]
            vals[:, j:j + step] = cod.norm_rows(block.reshape(-1, n)).reshape(active.size, -1)
        arg = np.argmax(vals, axis=1)
        best = vals[np.arange(active.size), arg]
        gain = best > score * (1.0 + 1e-12)
        if not gain.all():
            final[active[~gain]] = E[~gain]
            active, E, arg, best = active[gain], E[gain], arg[gain], best[gain]
        score = best
        E[np.arange(active.size), arg] *= -1.0
        Y = E @ A.T
    values = [cod.norm(A @ e) for e in final]
    i = int(np.argmax(values))
    return values[i], final[i]


ASCENT_CODOMAINS = ["lp:2", "lp:3", "lp:1", "lp:1.5", "lorentz:3:2", "lorentz:2:1"]
ASCENT_SHAPES = [(21, 5), (32, 16), (64, 8), (40, 40)]  # (N, n)


def same_estimate(a, b):
    return (a.value == b.value and a.direction == b.direction and a.seed == b.seed
            and a.budget == b.budget and a.meta == b.meta
            and a.witness.dtype == b.witness.dtype
            and a.witness.tobytes() == b.witness.tobytes())


@pytest.mark.parametrize("cod", ASCENT_CODOMAINS)
@pytest.mark.parametrize("N, n", ASCENT_SHAPES)
def test_operator_norms_equal_a_loop_of_operator_norm(cod, N, n):
    dom, cod = parse_space(f"lp:inf:{N}"), parse_space(f"{cod}:{n}")
    rng = np.random.default_rng(N + n)
    for budget, k in ((0, 12), (16, 12), (32, 1), (16, 1)):
        stack = rng.standard_normal((k, n, N)) / math.sqrt(N)
        seeds = [int(s) for s in rng.integers(0, 2**32, k)]
        got = operator_norms(stack, dom, cod, budget, seeds=seeds)
        assert len(got) == k
        for A, seed, est in zip(stack, seeds, got):
            ref = operator_norm(LinearMap(A, dom, cod), budget, seed)
            assert est.meta["route"] == "vertex-ascent"
            assert same_estimate(est, ref)
            assert est.witness.base is None  # not a view of the stack's vertices


@pytest.mark.parametrize("cod", ASCENT_CODOMAINS)
@pytest.mark.parametrize("N, n", ASCENT_SHAPES)
def test_stacked_vertex_ascent_equals_the_one_map_loop(cod, N, n):
    cod = parse_space(f"{cod}:{n}")
    rng = np.random.default_rng(7 * N + n)
    for budget in (0, 16, 32):
        stack = rng.standard_normal((12, n, N))
        seeds = list(range(budget, budget + 12))
        got = linmaps._vertex_ascents(stack, cod, budget, seeds)
        assert len(got) == 12
        for A, seed, (value, witness) in zip(stack, seeds, got):
            ref_value, ref_witness = one_map_vertex_ascent(A, cod, budget, seed)
            assert value == ref_value
            assert witness.tobytes() == ref_witness.tobytes()


def test_operator_norms_off_the_ascent_route_is_a_loop():
    rng = np.random.default_rng(15)
    stack = rng.standard_normal((4, 16, 32))
    stack[2] = 0.0
    cases = [(stack, "lp:3:16", ["vertex-ascent", "vertex-ascent", "zero", "vertex-ascent"]),
             (stack[[0, 1]], "lorentz:2:inf:16", ["search", "search"]),
             (stack[[0, 3], :, :12], "lp:3:16", ["enumeration", "enumeration"])]
    for matrices, cod, routes in cases:
        dom, cod = parse_space(f"lp:inf:{matrices.shape[2]}"), parse_space(cod)
        got = operator_norms(matrices, dom, cod, budget=8, seeds=[3, 4, 5, 6][:len(routes)])
        assert [est.meta["route"] for est in got] == routes
        for A, seed, est in zip(matrices, [3, 4, 5, 6], got):
            assert est.to_dict() == operator_norm(LinearMap(A, dom, cod), 8, seed).to_dict()
    with pytest.raises(ValueError, match="3 seeds for 4 maps"):
        operator_norms(stack, parse_space("lp:inf:32"), parse_space("lp:3:16"), seeds=[1, 2, 3])


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_operator_norms_of_other_dtypes_equal_the_loop(dtype):
    # operator_norm takes meta["upper"] from the svd of the map as given
    # (single precision for float32) and the ascent from its float64 copy
    dom, cod = parse_space("lp:inf:24"), parse_space("lp:3:6")
    stack = (np.random.default_rng(17).standard_normal((5, 6, 24)) * 4).astype(dtype)
    got = operator_norms(stack, dom, cod, budget=8, seeds=range(5))
    for A, seed, est in zip(stack, range(5), got):
        assert est.meta["route"] == "vertex-ascent"
        assert same_estimate(est, operator_norm(LinearMap(A, dom, cod), 8, seed))


@pytest.mark.parametrize("k, N, cod, budget", [(2, 128, "lp:3:2100", 0),
                                               (44, 21, "lp:2:1000", 32)])
def test_stacked_vertex_ascent_memory_stays_bounded(k, N, cod, budget):
    # (2, 128, 2100): one start's flips alone, N x row_width entries,
    # exceed a block, so each start scores its flips in several blocks;
    # (44, 21, 1000): the first scores of all starts of all maps do
    dom, cod = parse_space(f"lp:inf:{N}"), parse_space(cod)
    starts = 2 + split_budget(budget)[0]
    assert max(N, k * starts) * cod.row_width > SIGN_BLOCK
    stack = np.random.default_rng(16).standard_normal((k, cod.dim, N))
    blocks = []

    def recording(m):
        blocks.append(m.size)
        return type(cod).norm_rows(cod, m)

    cod.norm_rows = recording
    tracemalloc.start()
    try:
        got = operator_norms(stack, dom, cod, budget=budget, seeds=range(k))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [est.meta["route"] for est in got] == ["vertex-ascent"] * k
    assert max(blocks) <= linmaps.ASCENT_BLOCK
    # the bound of test_vertex_ascent_memory_stays_bounded
    assert peak < 64 * 2**20


def test_weak_l2_euclidean_exact_gram():
    rng = np.random.default_rng(8)
    for _ in range(20):
        config = rng.standard_normal((5, 3))
        est = weak_lq_functional(config, space(2, 3), 2)
        gram_top = float(np.sqrt(np.linalg.eigvalsh(config @ config.T)[-1]))
        assert est.direction == "exact"
        assert est.value == pytest.approx(gram_top, rel=1e-10)


def test_weak_l1_coordinate_examples():
    assert weak_lq_functional(np.eye(4), space(2, 4), 2).value == pytest.approx(1.0)
    assert weak_lq_functional(np.eye(4), space(1, 4), 1).value == pytest.approx(4.0)
    assert weak_lq_functional(np.zeros((1, 3)), space(2, 3), 2).value == 0.0


def test_weak_moment_monotone_in_q():
    rng = np.random.default_rng(13)
    for _ in range(10):
        config = rng.standard_normal((4, 3))
        sp = NormedSpace(lorentz(2.0, 1.0), 3)
        vals = {}
        for q in (1.0, 1.5, 2.0, 3.0):
            vals[q] = weak_lq_functional(config, sp, q, budget=16, seed=5).value
        qs = sorted(vals)
        for a, b in zip(qs, qs[1:]):
            assert vals[b] <= vals[a] * (1 + 1e-9)


def test_weak_lower_respects_upper():
    rng = np.random.default_rng(17)
    sp = NormedSpace(lorentz(3.0, 2.0), 4)
    for _ in range(10):
        config = rng.standard_normal((5, 4))
        est = weak_lq_functional(config, sp, 2.0, budget=16, seed=9)
        assert est.value <= est.meta["upper"] * (1 + 1e-10)
        assert weak_lq_upper(config, sp, 2.0) == est.meta["upper"]


def test_dual_norm_exact_families():
    est = dual_norm(space(1, 2), np.array([1.0, 2.0]))
    assert est.direction == "exact" and est.value == 2.0
    est = dual_norm(space(2, 3), np.array([1.0, 2.0, 2.0]))
    assert est.direction == "exact" and est.value == 3.0
    weak = NormedSpace(lorentz(2.0, math.inf), 3)
    est = dual_norm(weak, np.ones(3))
    assert est.direction == "exact"
    assert est.value == pytest.approx(1 + 2**-0.5 + 3**-0.5, abs=1e-14)
    # the exact value dominates the feasible constant-vector pairing
    assert est.value >= 3.0 / weak.norm(np.ones(3)) - 1e-12


def test_dual_norm_search_route():
    sp = NormedSpace(lorentz(2.0, 1.5), 4)
    rng = np.random.default_rng(23)
    for _ in range(10):
        y = rng.standard_normal(4)
        est = dual_norm(sp, y, budget=16, seed=1)
        assert est.direction == "lower"
        w = np.asarray(est.witness)
        assert abs(float(w @ y)) == pytest.approx(est.value, abs=1e-10)
        assert sp.norm(w) == pytest.approx(1.0, abs=1e-10)
        assert est.value <= est.meta["upper"] * (1 + 1e-10)
        # pairing consistency against the certified upper bound
        x = rng.standard_normal(4)
        assert abs(float(x @ y)) <= sp.norm(x) * est.meta["upper"] * (1 + 1e-10)


def test_identity_map_and_compose_mismatch():
    idm = identity_map(space(2, 3))
    assert np.array_equal(idm.matrix, np.eye(3))
    other = identity_map(space(1, 3))
    with pytest.raises(ValueError):
        idm.compose(other)
