import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from banachkit import (GrowthSequence, LinearMap, NormedSpace,
                       approximation_numbers, eigen_decay_vs_weyl,
                       eigenvalue_sequence, lorentz, lp, operator_norm,
                       parse_space, pi2_by_approx_bound, weyl_numbers)
from banachkit import snumbers
from banachkit.suites import char_poly_roots


def euclid(n):
    return NormedSpace(lp(2), n)


def emap(A):
    A = np.asarray(A, dtype=float)
    return LinearMap(A, euclid(A.shape[1]), euclid(A.shape[0]))


def brute_force_rank_distance(A, rank, restarts=16):
    """Independent oracle: minimize the spectral distance to rank-<=rank
    matrices, searching over the row space of the approximant."""
    n, m = A.shape

    def cost(z):
        V = z.reshape(m, rank)
        q, _ = np.linalg.qr(V)
        resid = A - (A @ q) @ q.T
        return np.linalg.norm(resid, ord=2)

    rng = np.random.default_rng(0)
    best = np.inf
    for _ in range(restarts):
        z0 = rng.standard_normal(m * rank)
        res = minimize(cost, z0, method="Nelder-Mead",
                       options={"maxiter": 20000, "xatol": 1e-12, "fatol": 1e-14})
        best = min(best, res.fun)
    return best


def test_approximation_numbers_euclidean_exact():
    seq = approximation_numbers(emap(np.diag([3.0, 2.0, 1.0])))
    assert np.array_equal(seq.values, [3.0, 2.0, 1.0])
    assert seq.directions == ["exact"] * 3

    rank1 = emap(np.outer([1.0, 2.0], [3.0, 4.0]))
    seq = approximation_numbers(rank1)
    assert seq.values[1] == pytest.approx(0.0, abs=1e-12)


def test_approximation_numbers_match_brute_force_oracle():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((3, 3))
    sv = np.linalg.svd(A, compute_uv=False)
    for rank in (1, 2):
        oracle = brute_force_rank_distance(A, rank)
        assert oracle == pytest.approx(sv[rank], abs=1e-6)
    seq = approximation_numbers(emap(A))
    assert np.allclose(seq.values, sv, atol=1e-12)


def test_approximation_numbers_bracket_non_euclidean():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    T = LinearMap(A, NormedSpace(lp(1), 4), NormedSpace(lp(math.inf), 4))
    seq = approximation_numbers(T)
    assert seq.directions == ["upper"] * 4
    assert seq.lower is not None
    assert np.all(seq.lower <= seq.values + 1e-12)
    assert np.all(np.diff(seq.values) <= 1e-12)  # non-increasing
    # the exact operator norm sits inside the first bracket
    op = operator_norm(T).value
    assert seq.lower[0] <= op <= seq.values[0] + 1e-12


def test_rank_one_cube_maps_keep_their_a1_bracket():
    # u 1^T attains le s_1 ge exactly, so only the outward rounding of the
    # operator norm's meta["upper"] keeps a_1's lower end below its upper
    count = 0
    for N in (24, 32, 40):
        for M in (3, 8, 16):
            rng = np.random.default_rng(1000 * N + M)
            dom, cod = parse_space(f"lp:inf:{N}"), parse_space(f"lp:2:{M}")
            for _ in range(10):
                T = LinearMap(np.outer(rng.standard_normal(M), np.ones(N)), dom, cod)
                seq = approximation_numbers(T)
                assert seq.lower[0] <= seq.values[0]
                assert seq.values[0] == operator_norm(T).meta["upper"]
                count += 1
    assert count == 90


def test_weyl_euclidean_equals_approximation():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4))
    assert np.allclose(weyl_numbers(emap(A)).values,
                       approximation_numbers(emap(A)).values, atol=1e-12)


def test_weyl_zero_and_linf_witness():
    Z = LinearMap(np.zeros((2, 2)), NormedSpace(lp(math.inf), 2), euclid(2))
    assert np.array_equal(weyl_numbers(Z).values, [0.0, 0.0])
    sp = NormedSpace(lp(math.inf), 2)
    T = LinearMap(np.eye(2), sp, sp)
    w = weyl_numbers(T, seed=0)
    assert w.values[0] == pytest.approx(1.0, abs=1e-12)  # ||id: l_2 -> l_inf||


def weyl_frame_loop(T, budget, seed, lower=None, first=None):
    """weyl_numbers as it read before the contractions were scored as
    stacks: one frame at a time, one operator_norm call per frame. Returns
    (values, witnesses). lower(B) and first(B) replace the singular values
    and the operator norm of B : l_2^m -> codomain when given."""
    A = np.asarray(T.matrix, dtype=float)
    k, dim, dom = min(A.shape), T.domain.dim, T.domain
    eye = np.eye(dim)
    frames = [eye] + [eye[:, :m] for m in range(1, dim)]
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        frames.append(np.linalg.qr(rng.standard_normal((dim, dim)))[0])
    best, best_wit = np.zeros(k), [None] * k
    for u in frames:
        smax = float(np.linalg.svd(u, compute_uv=False)[0])
        if dom.is_euclidean:
            c = smax
        elif dom.is_linf:
            c = float(np.max(np.linalg.norm(u, axis=1)))
        else:
            c = dom.le_euclid() * smax
        u_scaled = u / c
        B = A @ u_scaled
        if lower is None:
            vals = np.linalg.svd(B, compute_uv=False)
            if not T.codomain.is_euclidean:
                vals = vals / T.codomain.ge_euclid()
        else:
            vals = lower(B)
        if first is None:
            op = operator_norm(LinearMap(B, euclid(u.shape[1]), T.codomain), budget=0,
                               seed=seed).value
        else:
            op = first(B)
        for i, v in enumerate([max(vals[0], op), *vals[1:]][:k]):
            if v > best[i]:
                best[i] = v
                best_wit[i] = u_scaled
    return best, best_wit


WEYL_CODOMAINS = ["lp:2", "lp:inf", "lp:3", "lorentz:2:inf", "gweak:pow:0.5", "lorentz:3:2"]
WEYL_DOMAINS = ["lp:1", "lp:inf", "lp:2", "lorentz:2:1"]


@pytest.mark.parametrize("cod", WEYL_CODOMAINS)
@pytest.mark.parametrize("dom", WEYL_DOMAINS)
def test_weyl_numbers_equal_the_frame_loop(dom, cod):
    rng = np.random.default_rng(len(dom) * 31 + len(cod))
    for dim in range(1, 9):
        n = int(rng.integers(1, dim + 3))
        T = LinearMap(rng.standard_normal((n, dim)), parse_space(f"{dom}:{dim}"),
                      parse_space(f"{cod}:{n}"))
        if T.is_euclidean:
            continue
        if dim > 2:  # some isometries see only zero columns: zero maps in a stack
            T.matrix[:, :2] = 0.0
        for budget in (0, 1, 16):
            seed = int(rng.integers(2**31))
            got = weyl_numbers(T, budget=budget, seed=seed)
            values, witnesses = weyl_frame_loop(T, budget, seed)
            assert got.values.tobytes() == values.tobytes()
            assert got.directions == ["lower"] * len(values)
            for w, ref in zip(got.meta["witnesses"], witnesses):
                if ref is None:
                    assert w is None
                    continue
                assert w.shape == ref.shape and w.tobytes() == ref.tobytes()
                assert w.base is None  # a copy: it holds no stack of frames alive


def assert_weyl_equals_the_frame_loop(T, budget, seed):
    got = weyl_numbers(T, budget=budget, seed=seed)
    values, witnesses = weyl_frame_loop(T, budget, seed)
    assert got.values.tobytes() == values.tobytes()
    for w, ref in zip(got.meta["witnesses"], witnesses):
        assert (w is None) == (ref is None)
        if ref is not None:
            assert w.shape == ref.shape and w.tobytes() == ref.tobytes()


@pytest.mark.parametrize("cod", ["lp:2", "lp:inf", "lp:3", "lorentz:2:inf"])
def test_weyl_ties_and_several_stacks_equal_the_frame_loop(cod):
    rng = np.random.default_rng(21)
    # one nonzero column: the identity and every isometry can tie, and the
    # first of them in frame order must keep the witness
    for dom in ("lp:1", "lp:inf", "lorentz:2:1"):
        for dim in (2, 5, 8):
            A = np.zeros((3, dim))
            A[:, 0] = rng.standard_normal(3)
            T = LinearMap(A, parse_space(f"{dom}:{dim}"), parse_space(f"{cod}:3"))
            for budget in (0, 16):
                assert_weyl_equals_the_frame_loop(T, budget, seed=budget)
    # 40 x 40 frames: 20 to a stack, so budget 64 takes four stacks
    T = LinearMap(rng.standard_normal((40, 40)), parse_space("lp:1:40"),
                  parse_space(f"{cod}:40"))
    assert_weyl_equals_the_frame_loop(T, 64, seed=5)


def test_weyl_tie_goes_to_the_first_frame_in_frame_order(monkeypatch):
    # every contraction but the identity scores 1 on every entry, so the
    # isometries tie with the random frames of the identity's stack, which
    # are scored before them but come after them in frame order
    rng = np.random.default_rng(22)
    for dim in (2, 3, 5, 8):
        A = rng.standard_normal((4, dim))
        lower = lambda B: np.full(min(B.shape), 0.5 if np.array_equal(B, A) else 1.0)
        T = LinearMap(A, parse_space(f"lp:inf:{dim}"), parse_space("lp:3:4"))
        with monkeypatch.context() as m:
            m.setattr(snumbers, "_approx_lower_from_l2",
                      lambda B, cod: np.array([lower(b) for b in B]))
            m.setattr(snumbers, "operator_norms",
                      lambda B, dom, cod, **kw: [SimpleNamespace(value=0.0)] * len(B))
            got = weyl_numbers(T, budget=4, seed=dim)
        values, witnesses = weyl_frame_loop(T, 4, dim, lower, lambda B: 0.0)
        assert got.values.tobytes() == values.tobytes()
        for i, (w, ref) in enumerate(zip(got.meta["witnesses"], witnesses)):
            assert w.shape == ref.shape == (dim, i + 1)  # isometry i + 1
            assert w.tobytes() == ref.tobytes()


def test_weyl_memory_does_not_grow_with_budget():
    # every frame of l_2^200 is 320 kB; scored in stacks, the frames of one
    # stack are alive at a time, whatever the budget
    T = LinearMap(np.random.default_rng(9).standard_normal((8, 200)),
                  parse_space("lp:1:200"), parse_space("lp:3:8"))
    peaks = []
    for budget in (8, 32):
        tracemalloc.start()
        try:
            weyl_numbers(T, budget=budget, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]
    assert peaks[1] < 8 * 2**20


def test_eigenvalue_hand_cases():
    assert np.array_equal(eigenvalue_sequence(np.array([[0.0, 1.0], [0.0, 0.0]])).moduli, [0, 0])
    rot = eigenvalue_sequence(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(rot.moduli, [1.0, 1.0])
    companion = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    eig = eigenvalue_sequence(companion)
    assert np.allclose(eig.moduli, [1.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(sorted(np.angle(eig.values)),
                       [-2 * math.pi / 3, 0.0, 2 * math.pi / 3], atol=1e-8)


def test_eigenvalues_match_char_poly_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eig = eigenvalue_sequence(A)
        roots = sorted(char_poly_roots(A), key=lambda z: (-abs(z), z.real, z.imag))
        mine = sorted(eig.values, key=lambda z: (-abs(z), z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(mine, roots)) < 1e-8


def test_eigen_det_and_trace_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        eig = eigenvalue_sequence(A)
        assert np.prod(eig.moduli) == pytest.approx(abs(np.linalg.det(A)), abs=1e-8, rel=1e-8)
        assert np.sum(eig.values) == pytest.approx(np.trace(A).astype(complex), abs=1e-8)


def test_pi2_bound_hand_values():
    assert pi2_by_approx_bound(emap(np.eye(2))) == (
        pytest.approx(math.sqrt(2)), pytest.approx(2 * (1 + 2**-0.5)))
    assert pi2_by_approx_bound(emap(np.zeros((2, 2)))) == (0.0, 0.0)
    lhs, rhs = pi2_by_approx_bound(emap(np.diag([1.0, 0.0, 0.0])))
    assert (lhs, rhs) == (1.0, 2.0)


def test_pi2_bound_holds_on_random_maps():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        lhs, rhs = pi2_by_approx_bound(emap(rng.standard_normal((n, n))))
        assert lhs <= rhs


def test_multiplicativity_spot_check():
    rng = np.random.default_rng(14)
    for _ in range(30):
        A, B = rng.standard_normal((2, 4, 4))
        a = np.linalg.svd(A @ B, compute_uv=False)
        aa = np.linalg.svd(A, compute_uv=False)
        bb = np.linalg.svd(B, compute_uv=False)
        for m in range(1, 4):
            for n in range(1, 4):
                if m + n - 1 <= len(a):
                    assert a[m + n - 2] <= aa[m - 1] * bb[n - 1] * (1 + 1e-10)


def test_eigen_decay_reports():
    g = GrowthSequence.power(0.5)
    rng = np.random.default_rng(15)
    H = rng.standard_normal((4, 4))
    H = (H + H.T) / 2
    rep = eigen_decay_vs_weyl(emap(H), g)
    # hermitian: |eigenvalues| equal singular values, equality in the
    # multiplicative comparison
    assert rep["multiplicative_weyl_ok"]
    assert rep["sup_g_eig"] == pytest.approx(rep["sup_g_weyl"], rel=1e-10)

    nil = emap(np.array([[0.0, 1.0], [0.0, 0.0]]))
    rep = eigen_decay_vs_weyl(nil, g)
    assert rep["sup_g_eig"] == 0.0 and rep["sup_g_weyl"] > 0.0

    for _ in range(20):
        rep = eigen_decay_vs_weyl(emap(rng.standard_normal((4, 4))), g)
        assert rep["multiplicative_weyl_ok"]
