import math
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

from banachkit import (LinearMap, NormedSpace, SubspaceSpace, dual_norm, identity_map,
                       lorentz, lp, operator_norm, parse_space, rademacher_average,
                       weak_lq_functional)
from banachkit import linmaps
from banachkit.linmaps import (SIGN_BLOCK, _chunk_norms, _sign_max, _sign_sum, operator_norms,
                               sign_pattern, sign_patterns, sign_weights, weak_lq_upper)
from banachkit.search import child_seeds, multistart_maximize, split_budget
from banachkit.summing import pi_pq_n


def space(p, n):
    return NormedSpace(lp(p), n)


def block_sign_norms(signs, config, sp, scale=None):
    """The row norms of W @ config, with signs and scale giving W as for
    linmaps._sign_sum, in the row blocks of linmaps._Blocks, each block
    the products of as many whole tables as fit, else of one
    configuration: the reference of _sign_max and _sign_sum where the
    one-shot sp.norm_rows(W @ config) may round apart from the blocks."""
    W = sign_patterns(signs) if isinstance(signs, int) else signs
    stack = config if config.ndim == 3 else config[None]
    rows = linmaps._block_rows(linmaps._width(*stack.shape[1:], sp))
    per = max(1, rows // len(W))  # whole tables per block
    out = np.empty((len(stack), len(W)))
    for start, stop in linmaps._spans(len(W), rows):
        block = W[start:stop].astype(float) if scale is None else W[start:stop] * scale
        for c in range(0, len(stack), per):
            prods = np.concatenate([block @ x for x in stack[c:c + per]])
            out[c:c + per, start:stop] = sp.norm_rows(prods).reshape(-1, stop - start)
    return out if config.ndim == 3 else out[0]


def first_max(norms):
    """The (value, first row) of the largest of each row of norms, as
    _sign_max gives them."""
    return norms.max(axis=-1), norms.argmax(axis=-1)


def same_max(got, want):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want))


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
        # a table of a length not a power of two sums each norm in its place
        want = sp.norm_rows(table @ config)
        assert same_max(_sign_max(table, config, sp), first_max(want))
        assert _sign_sum(table, config, sp, np.abs) == np.sum(want)
        stack = np.stack([config, -config[::-1]])
        want = np.array([want, sp.norm_rows(table @ stack[1])])
        assert same_max(_sign_max(table, stack, sp), first_max(want))
        assert _sign_sum(table, stack, sp, np.abs).tobytes() == np.sum(want, axis=1).tobytes()


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
        for signs, scale in ((table, None), (table * tau, None), (n, tau)):
            want = block_sign_norms(signs, stack, sp, scale)
            values, firsts = _sign_max(signs, stack, sp, scale=scale)
            assert values.shape == firsts.shape == (k,)
            assert same_max((values, firsts), first_max(want))
            sums = _sign_sum(signs, stack, sp, squares, scale=scale)
            assert sums.tobytes() == np.sum(want**2, axis=1).tobytes()
            for c, value, first, total in zip(stack, values, firsts, sums):
                assert same_max(_sign_max(signs, c, sp, scale=scale), (value, first))
                assert _sign_sum(signs, c, sp, squares, scale=scale) == total


def test_stacked_sign_norms_memory_stays_bounded():
    stack = np.random.default_rng(9).standard_normal((2, 16, 512))
    sp = parse_space("lp:3:512")
    for reduce in (lambda: _sign_max(sign_patterns(16), stack, sp),
                   lambda: _sign_sum(sign_patterns(16), stack, sp, np.abs)):
        tracemalloc.start()
        try:
            reduce()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one stacked product would be 2 x 2^15 x 512 floats (268 MB)
        assert peak < 64 * 2**20


def test_empty_stacks_give_empty_norms_and_maxima():
    # a (0, n, dim) stack runs no job: a one-block table, a streamed one
    # (2^15 patterns in 512-row blocks) and a scaled one alike
    for n, dim, name in ((5, 4, "lp:3:4"), (16, 300, "lp:3:300"), (5, 4, "lorentz:2:1:4")):
        sp = parse_space(name)
        empty = np.empty((0, n, dim))
        for scale in (None, np.linspace(0.5, 1.5, n)):
            for signs, shared in (sign_weights(n, dim, sp, scale), (n, scale)):
                values, firsts = _sign_max(signs, empty, sp, scale=shared)
                assert values.shape == firsts.shape == (0,)
                assert _sign_sum(signs, empty, sp, np.abs, scale=shared).shape == (0,)
        for q in (1.5, 2.0):
            assert weak_lq_upper(empty, sp, q).shape == (0,)


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
            configs = [config]
            if n < 20 and dim < 300:
                configs.append(rng.standard_normal((3, n, dim)))
            for x in configs:
                want = block_sign_norms(table, x, sp)
                for signs in (n, table):
                    assert same_max(_sign_max(signs, x, sp), first_max(want))
                    assert (np.asarray(_sign_sum(signs, x, sp, np.abs)).tobytes()
                            == np.sum(want, axis=-1).tobytes())


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
    vals = space(1.5, 4).norm_rows(table @ A.T)
    assert est.meta["route"] == "enumeration" and est.value == vals.max()
    assert np.array_equal(est.witness, table[np.argmax(vals)])
    config = rng.standard_normal((n, 3))
    weak = weak_lq_functional(config, space(3, 3), 1)
    vals = space(3, 3).norm_rows(table @ config)
    assert weak.direction == "exact" and weak.value == vals.max()
    assert np.array_equal(weak.witness["signs"], table[np.argmax(vals)])


SIGN_MAX_SPACES = ("lp:1.5", "lorentz:3:2", "lorentz:2:inf", "gweak:pow:0.5", "subspace")


def first_sign_max(n, config, sp):
    """The first maximum over the rows of sign_patterns(n) @ config, and its row."""
    table = sign_patterns(n)
    vals = sp.norm_rows(table @ config)
    i = int(np.argmax(vals))
    return float(vals[i]), table[i]


@pytest.mark.parametrize("n, dim", [(1, 3), (3, 3), (9, 40), (14, 40)])
def test_sign_max_is_the_first_maximum_of_the_sign_norms(n, dim):
    # (14, 40): 8192 patterns in blocks of 4096 rows, one configuration a
    # block; the others take several configurations a block
    rng = np.random.default_rng(130 + n)
    for name in SIGN_MAX_SPACES:
        sp = _enum_space(name, dim, rng)
        stack = rng.standard_normal((5, n, dim))
        stack[1, -1] = 0.0  # ties: each pattern and its last sign flipped
        # ties: patterns i and i + 2^(n-2), in different blocks at (14, 40),
        # where the first block must win (n = 1 has no second vector)
        stack[2, 1:2] = 0.0
        values, firsts = _sign_max(n, stack, sp)
        assert values.shape == firsts.shape == (len(stack),)
        assert values.dtype == np.float64 and firsts.dtype == np.intp
        for config, value, first in zip(stack, values, firsts):
            ref_value, ref_signs = first_sign_max(n, config, sp)
            assert value == ref_value and np.array_equal(sign_pattern(n, first), ref_signs)
            assert _sign_max(n, config, sp) == (value, first)


def squares(v):
    v **= 2
    return v


@pytest.mark.parametrize("k, n, dim", [(1, 16, 32), (5, 16, 32), (9, 4, 8), (4, 10, 30),
                                       (2, 8, 2100)])
def test_stacked_sign_sums_equal_the_one_config_ones(monkeypatch, k, n, dim):
    # (k, 16, 32): a table of four 8192-row blocks, one configuration a
    # job; (9, 4, 8) and (4, 10, 30): several whole tables a block;
    # (2, 8, 2100): 64-row blocks, too short to sum alone
    rng = np.random.default_rng(140 + k + n)
    for workers in (1, 2):
        monkeypatch.setattr(linmaps, "_WORKERS", workers)
        for name in ("lp:3", "lorentz:2:1", "gweak:pow:0.5", "subspace"):
            if name == "subspace" and dim > 32:
                continue  # past 32 a taller block may round a row apart
            sp = _enum_space(name, dim, rng)
            stack = rng.standard_normal((k, n, dim))
            for f in (np.abs, squares):
                got = _sign_sum(n, stack, sp, f)
                assert got.shape == (k,)
                for config, total in zip(stack, got):
                    assert total == _sign_sum(n, config, sp, f)
                    assert total == np.sum(f(block_sign_norms(n, config, sp)))


@pytest.mark.parametrize("cod", ["lp:3", "lorentz:2:1", "gweak:pow:0.5", "subspace"])
def test_enumeration_route_equals_a_loop_of_operator_norm(cod):
    rng = np.random.default_rng(140)
    for N, n in ((3, 4), (9, 6), (15, 40)):
        dom = space(math.inf, N)
        cod_n = _enum_space(cod, n, rng)
        stack = rng.standard_normal((6, n, N))
        got = operator_norms(stack, dom, cod_n, seeds=range(6))
        for A, seed, est in zip(stack, range(6), got):
            ref = operator_norm(LinearMap(A, dom, cod_n), seed=seed)
            assert est.meta["route"] == "enumeration"
            assert same_estimate(est, ref)
            # the one-map enumeration of each map's columns, as the route took it
            vals = block_sign_norms(N, A.T, cod_n)
            j = int(np.argmax(vals))
            assert est.value == vals[j]
            assert est.witness.tobytes() == sign_pattern(N, j).tobytes()


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
            got[workers] = [(*_sign_max(n, config, sp, scale=tau),
                             _sign_sum(n, config, sp, np.abs, scale=tau)) for tau in scales]
        assert got[1] == got[2]


def test_scaled_patterns_equal_the_weighted_table():
    # the gauge's table, scaled block by block inside the sign reductions
    rng = np.random.default_rng(95)
    for n, dim in ((3, 5), (15, 40), (16, 300), (17, 12)):
        sp = parse_space(f"lorentz:2:1:{dim}")
        tau = rng.uniform(0.1, 2.0, n)
        table = sign_patterns(n) * tau
        for x in (rng.standard_normal((n, dim)), rng.standard_normal((2, n, dim))):
            want = block_sign_norms(table, x, sp)
            for signs, scale in ((n, tau), (table, None)):
                # the old sign_norms(...).max(axis=-1) and .mean(axis=-1)
                assert same_max(_sign_max(signs, x, sp, scale=scale), first_max(want))
                mean = _sign_sum(signs, x, sp, linmaps._as_is, scale=scale) / len(table)
                assert np.asarray(mean).tobytes() == want.mean(axis=-1).tobytes()


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

    for reduce in (partial(_sign_max, 16), partial(_sign_sum, 16, f=np.abs)):
        monkeypatch.setattr(linmaps, "_WORKERS", 2)
        monkeypatch.setattr(NormedSpace, "_row_kernel", failing)
        pool_ran.clear()
        with pytest.raises(PoolFailure):
            reduce(config, sp)
        assert pool_ran.is_set()
        monkeypatch.setattr(NormedSpace, "_row_kernel", kernel)
        got = reduce(config, sp)
        monkeypatch.setattr(linmaps, "_WORKERS", 1)
        assert got == reduce(config, sp)


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

    drawn = _chunk_norms([draw], [4097], config, sp, np.copy)[0]
    assert calls == [4097]
    assert drawn.tobytes() == sp.norm_rows(table @ config).tobytes()
    # the table's own blocks are the same: one sum of all 4097 norms
    assert _sign_sum(table, config, sp, np.abs) == np.sum(drawn)
    assert same_max(_sign_max(table, config, sp), first_max(drawn))


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
        # a subspace has no capability flags, whatever its ambient space
        (rng.standard_normal((3, 2)), SubspaceSpace(rng.standard_normal((4, 2)),
                                                    parse_space("lp:1:4")),
         "lp:3:3", "search", "lower"),
    ]
    for A, dom, cod, route, direction in cases:
        dom = parse_space(dom) if isinstance(dom, str) else dom
        est = operator_norm(LinearMap(A, dom, parse_space(cod)), budget=8)
        assert (est.meta["route"], est.direction) == (route, direction), (dom, cod)


@pytest.mark.parametrize("cod", ["lorentz:2:inf:16", "gweak:pow:0.5:16"])
def test_quasi_codomain_past_the_cap_searches_from_the_best_vertex(cod):
    # an interior point can beat every vertex of the cube on a quasi-norm,
    # so the best vertex of the ascent is only one start of the search
    cod = parse_space(cod)
    A = np.random.default_rng(12).standard_normal((16, 32))
    est = operator_norm(LinearMap(A, parse_space("lp:inf:32"), cod), budget=16, seed=3)
    assert (est.meta["route"], est.direction) == ("search", "lower")
    vertex, _ = linmaps._vertex_ascents(A[None], cod, 16, [3])[0]
    assert est.value >= vertex
    assert est.value <= est.meta["upper"]


@pytest.mark.parametrize("cod", ["lorentz:2:inf:16", "lp:3:16"])
def test_cube_past_the_cap_takes_one_svd(cod, monkeypatch):
    # the vertex starts and meta["upper"] read the same float64 svd, on the
    # search route into a quasi-normed codomain as on the vertex ascent
    svd, calls = np.linalg.svd, []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    A = np.random.default_rng(19).standard_normal((16, 32))
    monkeypatch.setattr(np.linalg, "svd", counting)
    dom = parse_space("lp:inf:32")
    est = operator_norm(LinearMap(A, dom, parse_space(cod)), budget=8)
    assert len(calls) == 1
    smax = svd(A, full_matrices=False)[1][0]
    # rounded outward by the stated bound
    assert est.meta["upper"] == linmaps._outward(
        parse_space(cod).le_euclid() * smax * dom.ge_euclid(), 16, 32)


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
        value, _ = linmaps._vertex_ascents(A[None], cod, 16, [seed])[0]
        ratios.append(value / _sign_max(N, A.T, cod)[0])
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
    """The one-map vertex ascent as it read before the maps of a stack climbed
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


ASCENT_CODOMAINS = ["lp:2", "lp:3", "lp:1", "lp:1.5", "lorentz:3:2", "lorentz:2:1", "lorentz:2:2"]
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


def tie_heavy_stack(rng, n, N):
    """Maps whose flips tie exactly or nearly: rank-one maps, repeated and
    zero columns, small-integer entries and the zero map."""
    u, v = rng.standard_normal(n), rng.standard_normal(N)
    cols = rng.standard_normal((n, 3))
    # flips of columns 0 and 1 undo each other, and the image is nearly
    # orthogonal to them: their norms tie exactly, the screen reads them
    # apart, and only the first may win
    pair = np.zeros((n, N))
    pair[0, :3] = 1.0, -1.0, 1e-10
    pair[1, 3:] = 1e4 * (1.0 + rng.random(N - 3))
    maps = [np.outer(u, np.ones(N)),  # every flip of a vertex ties
            np.outer(u, v),
            np.outer(rng.integers(-2, 3, n), rng.integers(-2, 3, N)).astype(float),
            cols[:, rng.integers(0, 3, N)],  # three distinct columns
            # and the same a few ulps apart: their flips tie up to rounding
            cols[:, rng.integers(0, 3, N)] * (1.0 + 2.0**-52 * rng.integers(-4, 5, N)),
            rng.standard_normal((n, N)) * (rng.random(N) < 0.5),  # zero columns
            rng.integers(-2, 3, (n, N)).astype(float),
            rng.integers(-1, 2, (n, N)).astype(float),
            pair,
            np.zeros((n, N))]
    return np.array(maps)


@pytest.mark.parametrize("cod", ASCENT_CODOMAINS)
@pytest.mark.parametrize("N, n", ASCENT_SHAPES)
def test_stacked_vertex_ascent_equals_the_one_map_loop(cod, N, n):
    # into a Euclidean codomain only the flips near the screened best are
    # scored; ties must still resolve to the first maximum of every flip
    cod = parse_space(f"{cod}:{n}")
    rng, ties = np.random.default_rng(7 * N + n), np.random.default_rng(11 * N + n)
    for budget in (0, 16, 32):
        for stack in (rng.standard_normal((12, n, N)), tie_heavy_stack(ties, n, N)):
            seeds = list(range(budget, budget + len(stack)))
            got = linmaps._vertex_ascents(stack, cod, budget, seeds)
            assert len(got) == len(stack)
            for A, seed, (value, witness) in zip(stack, seeds, got):
                ref_value, ref_witness = one_map_vertex_ascent(A, cod, budget, seed)
                assert value == ref_value
                assert witness.tobytes() == ref_witness.tobytes()


@pytest.mark.parametrize("cod", ["lp:2:12", "lorentz:2:2:12"])
def test_screened_vertex_ascent_scores_few_flips_per_step(cod):
    # today each step of an active start scores all N flips through
    # norm_rows; into a Euclidean codomain it scores only those near the best
    k, N, budget = 3, 64, 16
    cod = parse_space(cod)
    starts = 2 + split_budget(budget)[0]
    stack = np.random.default_rng(21).standard_normal((k, cod.dim, N))
    calls = []

    def recording(m):
        calls.append(len(m))
        return type(cod).norm_rows(cod, m)

    cod.norm_rows = recording
    got = operator_norms(stack, parse_space(f"lp:inf:{N}"), cod, budget=budget, seeds=range(k))
    assert [est.meta["route"] for est in got] == ["vertex-ascent"] * k
    # the first call scores the starts and the last re-reads the final
    # vertices, one row each; every step between scores about one row per
    # active start, never more than two
    assert calls[0] == calls[-1] == k * starts
    steps = calls[1:-1]
    assert len(steps) >= 10
    assert max(steps) <= 2 * k * starts
    assert sum(steps) <= 1.25 * k * starts * len(steps)


@pytest.mark.parametrize("cod", ["lp:2:12", "lp:3:12", "lorentz:3:2:12"])
def test_vertex_ascent_multiplies_vertices_by_the_map_once(cod, monkeypatch):
    # the starts' images are the one product of vertices with the map; each
    # step carries the scored row of the flip taken as the new image
    k, N, budget = 5, 32, 16
    cod = parse_space(cod)
    stack = np.random.default_rng(23).standard_normal((k, cod.dim, N))
    matmul, shapes = np.matmul, []

    def recording(a, b, *args, **kwargs):
        shapes.append(np.shape(b))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    linmaps._vertex_ascents(stack, cod, budget, range(k))
    assert [s for s in shapes if s[-2:] == (N, cod.dim)] == [(k, N, cod.dim)]


def test_rank_one_cube_maps_stay_under_their_upper_end():
    # u 1^T attains le smax ge exactly, so only the outward rounding of
    # meta["upper"] keeps the computed value below it
    count = 0
    for N in (24, 32, 40):
        for M in (3, 8, 16):
            rng = np.random.default_rng(1000 * N + M)
            dom, cod = parse_space(f"lp:inf:{N}"), parse_space(f"lp:2:{M}")
            for seed in range(40):
                A = np.outer(rng.standard_normal(M), np.ones(N))
                est = operator_norm(LinearMap(A, dom, cod), budget=16, seed=seed)
                assert (est.meta["route"], est.direction) == ("vertex-ascent", "lower")
                assert est.value <= est.meta["upper"]
                assert est.meta["upper"] <= est.value * (1.0 + 1e-12)
                count += 1
    assert count == 360


def test_operator_norms_off_the_ascent_route_is_a_loop():
    rng = np.random.default_rng(15)
    stack = rng.standard_normal((4, 16, 32))
    stack[2] = 0.0
    euclid = rng.standard_normal((5, 6, 7))  # Euclidean domain l_2^7, as Weyl numbers score
    euclid[1] = 0.0
    l1 = rng.standard_normal((5, 12, 8))  # l1-columns: one norm_rows over every column
    l1[3] = 0.0
    sub = SubspaceSpace(rng.standard_normal((16, 12)), parse_space("lp:3:16"))
    cases = [(stack, "lp:inf", "lp:3:16", 8,
              ["vertex-ascent", "vertex-ascent", "zero", "vertex-ascent"]),
             (stack[[0, 1]], "lp:inf", "lorentz:2:inf:16", 8, ["search", "search"]),
             (stack[[0, 1, 2]], "lp:inf", "lorentz:2:inf:16", 0, ["search", "search", "zero"]),
             (stack[[0, 3], :, :12], "lp:inf", "lp:3:16", 8, ["enumeration", "enumeration"]),
             (euclid, "lp:2", "lp:2:6", 8, ["svd", "zero", "svd", "svd", "svd"]),
             (euclid, "lp:2", "lorentz:2:2:6", 0, ["svd", "zero", "svd", "svd", "svd"]),
             (euclid, "lp:2", "lp:inf:6", 8, ["linf-rows", "zero", *["linf-rows"] * 3]),
             (euclid, "lp:3", "lp:inf:6", 0, ["linf-rows", "zero", *["linf-rows"] * 3]),
             (euclid[[1, 2]], "lp:1", "lp:3:6", 0, ["zero", "l1-columns"])]
    cases += [(euclid, "lp:2", cod, budget, ["search", "zero", *["search"] * 3])
              for cod in ("lp:3:6", "lp:1:6", "lorentz:2:inf:6", "gweak:pow:0.5:6",
                          "lorentz:3:2:6") for budget in (0, 4)]
    # into a subspace, a one-column map is a one-row block, which goes to gemv
    cases += [(maps, "lp:1", cod, 8, ["l1-columns"] * 3 + ["zero", "l1-columns"])
              for maps, cod in ((l1, "lp:3:12"), (l1, "lorentz:2:inf:12"), (l1, sub),
                                (l1[..., :1], sub))]
    for matrices, dom, cod, budget, routes in cases:
        dom = parse_space(f"{dom}:{matrices.shape[2]}")
        cod = parse_space(cod) if isinstance(cod, str) else cod
        seeds = [3, 4, 5, 6, 3][:len(routes)]
        got = operator_norms(matrices, dom, cod, budget=budget, seeds=seeds)
        assert [est.meta["route"] for est in got] == routes
        for A, seed, est in zip(matrices, seeds, got):
            ref = operator_norm(LinearMap(A, dom, cod), budget, seed)
            assert est.to_dict() == ref.to_dict()
            if est.meta["route"] == "l1-columns":  # the columns, read as the rows of a.T
                assert est.value == cod.norm_rows(A.T).max()
            if isinstance(ref.witness, np.ndarray):
                assert same_estimate(est, ref)
                assert est.witness.base is None  # holds no stack alive
    with pytest.raises(ValueError, match="3 seeds for 4 maps"):
        operator_norms(stack, parse_space("lp:inf:32"), parse_space("lp:3:16"), seeds=[1, 2, 3])


def test_l1_columns_of_a_wide_map_hold_memory_linear_in_the_dim():
    """Out of l_1^N into a small codomain, each witness is one length-N
    vector: no N x N array, so N = 200,000 stays a few map sizes."""
    rng = np.random.default_rng(28)
    N = 200_000
    A = rng.standard_normal((3, 2, N))
    dom, cod = parse_space(f"lp:1:{N}"), parse_space("lp:2:2")
    tracemalloc.start()
    try:
        got = operator_norms(A, dom, cod, seeds=[0, 1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * A.nbytes
    for a, est in zip(A, got):
        j = int(np.argmax(cod.norm_rows(a.T)))
        assert est.meta["route"] == "l1-columns" and est.direction == "exact"
        assert est.value == cod.norm_rows(a.T)[j]
        assert est.witness.shape == (N,) and est.witness[j] == 1.0
        assert np.count_nonzero(est.witness) == 1


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_operator_norms_of_other_dtypes_equal_the_loop(dtype):
    # the ascent and meta["upper"] read one svd of the map's float64 copy
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


def test_budget_zero_search_stack_memory_stays_bounded():
    # each map's starts are 601 x 600 (2.9 MB): scored for all 40 maps at
    # once they would take 115 MB, so the maps are scored a chunk at a time
    dom, cod = parse_space("lp:3:600"), parse_space("lp:4:1")
    stack = np.random.default_rng(18).standard_normal((40, 1, 600))
    tracemalloc.start()
    try:
        got = operator_norms(stack, dom, cod, budget=0, seeds=range(40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [est.meta["route"] for est in got] == ["search"] * 40
    assert peak < 24 * 2**20


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


@pytest.mark.parametrize("n, dim", [(1, 4), (3, 4), (13, 6), (14, 6), (15, 6), (15, 9), (16, 4),
                                    (9, 600)])
def test_a_shared_sign_table_equals_the_streamed_one(n, dim):
    # a table that fits one block is built once by its caller; one that
    # does not is streamed from n
    rng = np.random.default_rng(50 + n)
    for sp in (parse_space(f"lorentz:3:2:{dim}"),
               SubspaceSpace(rng.standard_normal((dim + 5, dim)), parse_space(f"lp:3:{dim + 5}"))):
        rows = linmaps._block_rows(max(n, dim, sp.row_width))
        stack = rng.standard_normal((3, n, dim))
        for scale in (None, rng.uniform(0.1, 2.0, n)):
            signs, shared_scale = sign_weights(n, dim, sp, scale)
            if 2 ** (n - 1) > rows:
                assert signs == n and shared_scale is scale
                continue
            table = sign_patterns(n).astype(float)
            assert shared_scale is None
            assert signs.tobytes() == (table if scale is None else table * scale).tobytes()
            for config in (stack, stack[0]):
                # the old sign_norms(...).max(axis=-1) and .mean(axis=-1)
                want = block_sign_norms(n, config, sp, scale)
                mean = want.mean(axis=-1).tobytes()
                for got, got_scale in ((signs, None), (n, scale)):
                    assert same_max(_sign_max(got, config, sp, scale=got_scale), first_max(want))
                    total = _sign_sum(got, config, sp, linmaps._as_is, scale=got_scale)
                    assert np.asarray(total / 2 ** (n - 1)).tobytes() == mean


@pytest.mark.parametrize("n, dim", [(5, 6), (12, 8), (16, 40)])
def test_weak_lq_upper_with_a_shared_table_equals_the_table_free_call(n, dim):
    # (16, 40) streams its table: sign_weights hands back n itself
    rng = np.random.default_rng(70 + n)
    for sp in (parse_space(f"lorentz:3:2:{dim}"), parse_space(f"lp:1.5:{dim}")):
        signs = sign_weights(n, dim, sp)[0]
        assert isinstance(signs, int) == (n == 16)
        for config in (rng.standard_normal((n, dim)), rng.standard_normal((4, n, dim))):
            for q in (1.0, 1.5, 3.0):
                want = np.asarray(weak_lq_upper(config, sp, q))
                got = np.asarray(weak_lq_upper(config, sp, q, signs))
                assert got.tobytes() == want.tobytes()


def test_stacked_weak_lq_upper_holds_no_norms_of_the_stack():
    # the sign sup of each configuration is reduced block by block; the
    # (48, 2^17) norms of the stack peaked at 55 MB
    stack = np.random.default_rng(71).standard_normal((48, 18, 32))
    tracemalloc.start()
    try:
        bound = weak_lq_upper(stack, parse_space("lp:3:32"), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound.shape == (48,)
    assert peak < 16 * 2**20


def test_summing_search_builds_its_sign_table_once(monkeypatch):
    built = []
    patterns = linmaps.sign_patterns

    def counting(n):
        built.append(n)
        return patterns(n)

    monkeypatch.setattr(linmaps, "sign_patterns", counting)
    pi_pq_n(identity_map(parse_space("lp:3:4")), 2, 1, 5, budget=16, seed=2)
    assert built == [5]


@pytest.mark.parametrize("ambient", ["lp:3", "lorentz:2:1"])
def test_stacked_vertex_ascent_into_a_subspace_equals_each_map_alone(ambient):
    # a subspace's norm_rows blocks may round apart from its one-row calls,
    # and a stack scores the flips of several maps in one block
    rng = np.random.default_rng(52)
    for amb, sub_dim in ((7, 5), (24, 16), (300, 12)):
        cod = SubspaceSpace(rng.standard_normal((amb, sub_dim)), parse_space(f"{ambient}:{amb}"))
        for N in (21, 64):
            for budget in (0, 16):
                stack = rng.standard_normal((12, sub_dim, N))
                seeds = list(range(budget, budget + len(stack)))
                got = linmaps._vertex_ascents(stack, cod, budget, seeds)
                for a, seed, (value, witness) in zip(stack, seeds, got):
                    ((alone, alone_witness),) = linmaps._vertex_ascents(a[None], cod, budget,
                                                                        [seed])
                    assert value == alone
                    assert witness.tobytes() == alone_witness.tobytes()


def test_vertex_ascent_into_a_subspace_reads_each_vertex_alone():
    # a subspace's block rows may round apart from its one-row calls, so
    # its final vertices are read one by one: the value is the scalar norm
    rng = np.random.default_rng(51)
    for amb, sub_dim in ((7, 5), (40, 16)):
        cod = SubspaceSpace(rng.standard_normal((amb, sub_dim)), parse_space(f"lp:3:{amb}"))
        stack = rng.standard_normal((6, sub_dim, 30))
        for a, (value, witness) in zip(stack, linmaps._vertex_ascents(stack, cod, 16, range(6))):
            assert value == cod.norm(a @ witness)
