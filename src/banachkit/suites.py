"""Named verification suites behind the command-line front door.

Each suite bundles checks around one group of inequalities: exact
identities run at tight tolerances (ASSERT tier), while quantities whose
constants no effective bound pins down are recorded for stability only
(OBSERVE tier). Reports reproduce bit-for-bit from the master seed.
"""

import inspect
import math

import numpy as np

from .averages import (contraction_check, ell_norm, gauss_vs_rademacher,
                       rademacher_average)
from .gauges import (alternative_classify, best_k, lorentz_cotype_report,
                     opt_gauge, iterated_log_bound, self_concavity_check,
                     submultiplicativity_check, tensor_square)
from .growth import GrowthSequence, g_q, tilde_g, tower, tower_index, validate_growth
from .linmaps import (LinearMap, identity_map, operator_norm, operator_norms,
                      weak_lq_upper)
from .pipeline import revalidate, run_pipeline
from .reports import ASSERT, OBSERVE, SuiteReport
from .search import child_seeds
from .sequences import lorentz_norm, rearrange
from .snumbers import eigenvalue_sequence, pi2_by_approx_bound
from .spaces import NormedSpace, gweak, lorentz, lp, parse_family
from .summing import (C_delta, H_constant, constant_ledger,
                      equal_norm_premise_check, pi_pq_n, equal_norm_inequality,
                      weak_cotype_g)

__all__ = ["SUITES", "run_suite", "suite_flags", "suite_eigen_decay", "suite_main_theorem",
           "char_poly_roots"]

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def char_poly_roots(A):
    """Eigenvalue oracle via characteristic-polynomial coefficients.

    Coefficients come from the trace recursion (Faddeev-LeVerrier), the
    roots from the companion matrix; independent of the direct
    eigenvalue routine it cross-checks.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    coeffs = [1.0 + 0j]
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-(A @ M).trace() / k)
    return np.roots(np.array(coeffs))


def _match_sorted(a, b):
    """Greedy nearest matching of two equal-length complex multisets;
    returns the largest pairwise distance."""
    b = list(b)
    worst = 0.0
    for x in a:
        d = [abs(x - y) for y in b]
        i = int(np.argmin(d))
        worst = max(worst, d[i])
        b.pop(i)
    return worst


# --------------------------------------------------------------------------
# suites


def suite_norms(seed=0, tol=1e-12):
    rep = SuiteReport("norms", seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 65))
        p = float(rng.uniform(1.0, 8.0))
        x = rng.standard_normal(n)
        worst = max(worst, abs(lorentz_norm(x, p, p) - float(np.sum(np.abs(x) ** p) ** (1 / p))))
    rep.check("lorentz-diagonal-matches-lp", worst <= tol, measured=worst, bound=tol, seed=seed)

    ok = True
    for _ in range(100):
        x = rng.standard_normal(int(rng.integers(1, 33)))
        y = x[rng.permutation(x.size)] * rng.choice([-1.0, 1.0], x.size)
        ok &= bool(np.array_equal(rearrange(x), rearrange(y)))
    rep.check("rearrangement-invariance", ok, seed=seed)

    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 17))
        x = rng.standard_normal(n)
        fam = [lp(rng.uniform(1, 6)), lorentz(rng.uniform(1, 4), rng.uniform(1, 4)),
               gweak(GrowthSequence.power(rng.uniform(0.0, 1.0)))][int(rng.integers(0, 3))]
        v = fam.norm(x)
        ok &= float(np.max(np.abs(x))) <= v * (1 + 1e-12) + 1e-15
        ok &= v <= float(np.sum(np.abs(x))) * (1 + 1e-12) + 1e-15
    rep.check("between-sup-and-sum", ok, seed=seed)
    return rep


def suite_growth(seed=0):
    rep = SuiteReport("growth", seed)
    for q in (2, 3, 4):
        g = GrowthSequence.power(1.0 / q)
        r = validate_growth(g, 256, t=float(q), r=2)
        exact = r.s2 == 1.0 and r.l_t == 1.0 and r.m_r == 1.0
        rep.check(f"power-{q}-constants-are-one", exact,
                  measured=max(r.s2, r.l_t, r.m_r), bound=1.0, seed=seed)
    g = GrowthSequence.power(0.5)
    rep.check("tilde-hand-value", tilde_g(g, 2, 16) == 4.0, measured=tilde_g(g, 2, 16), bound=4.0)
    rep.check("tilde-threshold", tilde_g(g, 2, 15) == 1.0, measured=tilde_g(g, 2, 15), bound=1.0)
    rep.check("gq-hand-value", g_q(g, 4, 16) == 2.0, measured=g_q(g, 4, 16), bound=2.0)
    rep.check("tower-and-index", tower(3) == 16 and tower_index(5) == 3 and tower_index(2) == 1)
    linear = validate_growth(GrowthSequence.power(1.0), 256, t=1.0)
    rep.check("harmonic-trend-warning", any("S4" in w for w in linear.warnings),
              tier=OBSERVE, extra={"warnings": linear.warnings})
    return rep


def suite_rademacher(seed=0, tol=1e-12):
    rep = SuiteReport("rademacher", seed)
    for n in (2, 4, 8, 16):
        e = np.eye(n)
        one = rademacher_average(e, NormedSpace(lp(1), n)).value
        two = rademacher_average(e, NormedSpace(lp(2), n)).value
        rep.check(f"l1-coords-n{n}", one == float(n), measured=one, bound=float(n))
        rep.check(f"l2-coords-n{n}", abs(two - math.sqrt(n)) <= tol,
                  measured=two, bound=math.sqrt(n))
    rng = np.random.default_rng(seed)
    zs = []
    seeds = child_seeds(seed, 20)
    for i in range(20):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 7))
        config = rng.standard_normal((n, dim))
        space = NormedSpace(lp(float(rng.uniform(1, 4))), dim)
        exact = rademacher_average(config, space).value
        mc = rademacher_average(config, space, enum_cap=0, samples=20_000, seed=seeds[i])
        zs.append(abs(mc.value - exact) / mc.stderr if mc.stderr > 0 else 0.0)
    # a single 3-sigma excursion among 20 draws is expected noise; two,
    # or any 4-sigma one, is not
    ok = max(zs) <= 4.0 and sum(z > 3.0 for z in zs) <= 1
    rep.check("mc-agrees-with-enumeration", ok, measured=max(zs), bound=4.0, seed=seed)
    return rep


def suite_ell(seed=0, tol=0.02):
    rep = SuiteReport("ell", seed)
    n = 8
    space = NormedSpace(lp(2), n)
    u = identity_map(space)
    est = ell_norm(u, samples=100_000, seed=seed)
    rep.check("ell-identity", abs(est.value - math.sqrt(n)) <= tol * math.sqrt(n),
              measured=est.value, bound=math.sqrt(n), seed=seed)
    rng = np.random.default_rng(seed)
    qmat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    rot = LinearMap(u.matrix @ qmat, space, space)
    est2 = ell_norm(rot, samples=100_000, seed=child_seeds(seed, 1)[0])
    delta = abs(est2.value - est.value)
    limit = 4.0 * math.hypot(est.stderr, est2.stderr)
    rep.check("ell-rotation-invariance", delta <= limit, measured=delta, bound=limit, seed=seed)
    return rep


def suite_contraction(seed=0, budget=32, tol=1e-12):
    rep = SuiteReport("contraction", seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    seeds = child_seeds(seed, 50)
    for i in range(50):
        n = int(rng.integers(1, 11))
        dim = int(rng.integers(1, 7))
        config = rng.standard_normal((n, dim))
        space = NormedSpace([lp(1), lp(2), lp(math.inf)][i % 3], dim)
        box, signs = contraction_check(config, space, budget=budget, seed=seeds[i])
        worst = max(worst, abs(box - signs))
    rep.check("box-equals-signs", worst <= tol, measured=worst, bound=tol, seed=seed)
    return rep


def suite_gauss_rademacher(seed=0):
    rep = SuiteReport("gauss-rademacher", seed)
    rng = np.random.default_rng(seed)
    ok = True
    worst = math.inf
    seeds = child_seeds(seed, 40)
    for i in range(40):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 7))
        config = rng.standard_normal((n, dim))
        space = NormedSpace([lp(1), lp(2), lp(math.inf)][i % 3], dim)
        res = gauss_vs_rademacher(config, space, samples=20_000, seed=seeds[i])
        margin = res["ratio"] - (res["floor"] - 3.0 * res["ratio_stderr"])
        ok &= margin >= 0.0
        worst = min(worst, res["ratio"])
    rep.check("ratio-above-floor", ok, measured=worst, bound=SQRT_2_OVER_PI, seed=seed)
    single = gauss_vs_rademacher(np.array([[1.0, 0.0]]), NormedSpace(lp(2), 2),
                                 samples=100_000, seed=seed)
    rep.check("single-vector-boundary",
              abs(single["ratio"] - SQRT_2_OVER_PI) <= 4.0 * single["ratio_stderr"],
              measured=single["ratio"], bound=SQRT_2_OVER_PI, seed=seed)
    return rep


def suite_pi1(seed=0, budget=0, tol=1e-10):
    rep = SuiteReport("pi1", seed)
    for n in (4, 9, 16):
        est = pi_pq_n(identity_map(NormedSpace(lp(2), n)), 1, 1, n, budget=budget, seed=seed)
        rep.check(f"l2-n{n}-sqrt-witness", est.value >= math.sqrt(n) * (1 - tol),
                  measured=est.value, bound=math.sqrt(n), seed=seed)
        est = pi_pq_n(identity_map(NormedSpace(lp(math.inf), n)), 1, 1, n,
                      budget=budget, seed=seed)
        rep.check(f"linf-n{n}-full-witness", est.value >= n * (1 - tol),
                  measured=est.value, bound=float(n), seed=seed)
    return rep


def suite_eigen(seed=0, tol=1e-8):
    rep = SuiteReport("eigen", seed)
    rng = np.random.default_rng(seed)
    worst_roots, worst_det, worst_tr = 0.0, 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eig = eigenvalue_sequence(A)
        worst_roots = max(worst_roots, _match_sorted(eig.values, char_poly_roots(A)))
        worst_det = max(worst_det, abs(np.prod(eig.moduli) - abs(np.linalg.det(A))))
        worst_tr = max(worst_tr, abs(np.sum(eig.values) - A.trace()))
    rep.check("char-poly-oracle", worst_roots <= tol, measured=worst_roots, bound=tol, seed=seed)
    rep.check("modulus-product-det", worst_det <= tol, measured=worst_det, bound=tol, seed=seed)
    rep.check("trace-sum", worst_tr <= tol, measured=worst_tr, bound=tol, seed=seed)

    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n))
        lam = eigenvalue_sequence(A).moduli
        sv = np.linalg.svd(A, compute_uv=False)
        ok &= bool(np.all(np.cumprod(lam) <= np.cumprod(sv) * (1 + tol) + tol))
    rep.check("multiplicative-weyl", ok, seed=seed)
    return rep


def suite_pi2_approx(seed=0):
    rep = SuiteReport("pi2-approx", seed)
    rng = np.random.default_rng(seed)
    ok = True
    worst = math.inf
    for _ in range(200):
        n = int(rng.integers(1, 9))
        space = NormedSpace(lp(2), n)
        w = LinearMap(rng.standard_normal((n, n)), space, space)
        lhs, rhs = pi2_by_approx_bound(w)
        ok &= lhs <= rhs
        worst = min(worst, rhs - lhs)
    rep.check("two-summing-by-approx", ok, measured=worst, bound=0.0, seed=seed)
    return rep


def suite_wc_bracket(seed=0, budget=16):
    rep = SuiteReport("wc-bracket", seed)
    g = GrowthSequence.power(0.5)
    for n in (4, 8):
        space = NormedSpace(lp(2), n)
        T = identity_map(space)
        wc = weak_cotype_g(T, g, budget=budget, seed=seed)
        for delta in (0.25, 0.5, 0.75):
            cd = C_delta(T, g, delta, n, budget=budget, seed=seed)
            lo = cd.meta["bracket"]["lower"]
            hi = cd.meta["bracket"]["upper"]
            rep.check(f"bracket-n{n}-delta{delta}", lo <= wc.value <= hi,
                      measured=wc.value, bound=hi, seed=seed,
                      extra={"lower": lo, "c_delta": cd.value})
    return rep


def suite_equal_norm(seed=0, budget=16):
    rep = SuiteReport("equal-norm", seed)
    g = GrowthSequence.power(0.5)
    for n in (4, 8, 16):
        space = NormedSpace(lp(2), n)
        T = identity_map(space)
        wc = weak_cotype_g(T, g, budget=budget, seed=seed)
        res = equal_norm_inequality(np.eye(n), T, g, wc, rho=1.0, samples=50_000, seed=seed)
        rep.check(f"comparison-n{n}", res.holds and res.slack >= 100.0,
                  measured=res.slack, bound=100.0, seed=seed, extra={"moment": 2})
        pre = equal_norm_premise_check(np.eye(n), T, g, samples=50_000, seed=seed)
        rep.check(f"implied-constant-n{n}", pre.accepted and pre.implied_constant < 1.2,
                  measured=pre.implied_constant, bound=1.2, seed=seed, extra={"moment": 2})
    return rep


def suite_pipeline(seed=0, budget=8):
    rep = SuiteReport("pipeline", seed)
    g = GrowthSequence.power(0.5)
    ledger = constant_ledger(g, H=1.0, K=1.0)
    for fam, name in ((lp(2), "l2"), (lp(1), "l1")):
        space = NormedSpace(fam, 32)
        # scale the coordinate basis into the weak-2 premise
        config = np.eye(32) / weak_lq_upper(np.eye(32), space, 2.0)
        cert = run_pipeline(config, space, g, ledger, budget=budget,
                            samples=20_000, seed=seed)
        rep.check(f"{name}-floors-dominated", cert.verdict,
                  measured=cert.final_measured.value, bound=cert.final_floor, seed=seed)
        ok, mismatches = revalidate(cert, config, space, g, ledger)
        rep.check(f"{name}-revalidates-bitwise", ok, seed=seed,
                  extra={"mismatches": mismatches})
    return rep


def suite_gauges(seed=0, budget=16, tol=0.05):
    rep = SuiteReport("gauges", seed)
    spaces = [NormedSpace(lp(1), 3), NormedSpace(lp(2), 3), NormedSpace(lp(math.inf), 3)]
    ok = True
    for sp in spaces:
        for kind in ("summing", "cotype"):
            gv = opt_gauge(np.array([1.0]), sp, kind, budget=4, seed=seed)
            ok &= gv.value == 1.0
    rep.check("unit-vector-normalization", ok, measured=1.0, bound=1.0, seed=seed)

    rng = np.random.default_rng(seed)
    violations = 0
    total = 0
    seeds = child_seeds(seed, 20)
    for i in range(20):
        sp = spaces[i % 3]
        kind = ("summing", "cotype")[i % 2]
        sizes = rng.integers(1, 3, size=int(rng.integers(2, 4)))
        taus, at = [], 0
        for s in sizes:
            t = np.zeros(at + int(s))
            t[at: at + int(s)] = rng.uniform(0.2, 1.0, int(s))
            taus.append(t)
            at += int(s)
        res = self_concavity_check(taus, sp, kind, budget=budget, seed=seeds[i], tol=tol)
        total += 1
        violations += 0 if res.within() else 1
    rep.check("self-concavity", violations == 0, measured=violations, bound=0.0,
              seed=seed, extra={"instances": total})

    worst = 0.0
    for p in (1.0, 1.5, 2.0, 3.0):
        for _ in range(10):
            tau = rng.standard_normal(int(rng.integers(1, 6)))
            lhs = lorentz_norm(tensor_square(tau), p, p)
            rhs = lorentz_norm(tau, p, p) ** 2
            worst = max(worst, abs(lhs - rhs))
    rep.check("tensor-square-lp-identity", worst <= 1e-12, measured=worst, bound=1e-12)

    exact = True
    for p in (1.0, 2.0, 3.0):
        for n, k in ((2, 3), (4, 8), (5, 5)):
            lhs, rhs = submultiplicativity_check(lp(p), n, k)
            exact &= abs(lhs - rhs) <= 1e-12 * rhs
    rep.check("lp-fundamental-multiplicative", exact)

    reversed_ok = True
    Y = lorentz(2.0, 1.0)
    for n in range(2, 33):
        for k in range(2, 33):
            lhs, rhs = submultiplicativity_check(Y, n, k)
            reversed_ok &= rhs <= lhs * (1 + 1e-12)
    rep.check("lorentz21-fundamental-reverse-direction", reversed_ok, tier=OBSERVE,
              extra={"note": "the defining sum gives f(nk) <= f(n) f(k); "
                             "the concave direction fails at (2,2)"})
    return rep


def suite_classifier(seed=0):
    rep = SuiteReport("classifier", seed)
    c = alternative_classify(lorentz(2.0, math.inf), 3.0, n_max=64)
    rep.check("weak-l2-against-p3", c.case == 1 and c.n0 == 2 and abs(c.q - 2.0) < 1e-12,
              measured=c.q, bound=2.0)
    for p in (1.0, 2.0, 3.0):
        c = alternative_classify(lp(p), p, n_max=64)
        rep.check(f"lp-p{p:g}-self-case2", c.case == 2 and c.cn_limit == 1.0,
                  measured=c.cn_limit, bound=1.0)
    r = lorentz_cotype_report(2.0, 1.0)
    rep.check("dichotomy-below", r["branch"] == "below_q")
    r = lorentz_cotype_report(2.0, 4.0)
    rep.check("dichotomy-weak", r["branch"] == "weak_q")
    r = lorentz_cotype_report(2.0, 2.0)
    rep.check("dichotomy-diagonal", r["branch"] == "iterated_log")
    return rep


def suite_iterlog(seed=0, tol=1e-12):
    rep = SuiteReport("iterlog", seed)
    expected = {2: 1, 4: 2, 5: 3, 16: 3, 17: 4}
    ok = all(tower_index(n) == k for n, k in expected.items())
    rep.check("tower-indices", ok)
    worst = 0.0
    for C in (1.0, 1.5, 2.0):
        for q in (2.0, 3.0):
            for n in (2, 16, 1024):
                direct = math.sqrt(math.pi) * C * (1 + math.log2(n)) ** (1.0 / q)
                worst = max(worst, abs(iterated_log_bound(C, q, n, 0) - direct))
    rep.check("depth-zero-closed-form", worst <= tol, measured=worst, bound=tol)
    k_star, value, shortcut, kn = best_k(1.5, 2.0, 16)
    rep.check("shortcut-n16", kn == 3 and abs(shortcut - 2 * math.sqrt(math.pi) * 1.5**4) < 1e-12,
              measured=shortcut, bound=2 * math.sqrt(math.pi) * 1.5**4)
    rep.check("best-k-near-tower-index", k_star <= kn + 1, measured=float(k_star),
              bound=float(kn + 1), tier=OBSERVE)
    return rep


# --------------------------------------------------------------------------
# the two experiment suites


def suite_eigen_decay(q=2.0, n=16, N=32, trials=200, seed=0, budget=16, tol=0.25):
    """Eigenvalue decay of maps factoring through a sup-norm cube.

    Records r(T) = sup_k k^(1/q) |lambda_k(T)| / (||S|| ||R||) for random
    factorizations T = SR, plus a constructed witness with r = 1
    exactly. The universal constant is not effective, so the assertion
    is cross-seed stability of the max, not a numeric cap.

    Each trial draws S and R from its own seed. The S norms of a run's
    trials come from one operator_norms call: out of a cube past
    ENUM_CAP their vertex ascents climb in lockstep, each bit for bit as
    it would alone. ||R|| into l_inf is exact, and the R norms are one
    operator_norms call too, the dual norms of all their rows at once.
    The spectra of a run's products SR are one eigenvalue_sequence call
    on the stacked product.
    """
    rep = SuiteReport("eigen-decay", seed)
    q = float(q)

    # rank-one witness: S x = x_1 e_1, R = coordinate embedding; all
    # three norms are exactly one and the spectrum is (1, 0, ..., 0)
    wit_n, wit_N = min(n, 8), min(N, 16)
    wit_lq, wit_linf = NormedSpace(lp(q), wit_n), NormedSpace(lp(math.inf), wit_N)
    S = np.zeros((wit_n, wit_N))
    S[0, 0] = 1.0
    R = np.zeros((wit_N, wit_n))
    R[np.arange(wit_n), np.arange(wit_n)] = 1.0
    nS = operator_norm(LinearMap(S, wit_linf, wit_lq), budget=budget, seed=seed)
    nR = operator_norm(LinearMap(R, wit_lq, wit_linf), budget=budget, seed=seed)
    lam = eigenvalue_sequence(LinearMap(S @ R, wit_lq, wit_lq))
    ks = np.arange(1, wit_n + 1, dtype=float)
    r_wit = float(np.max(ks ** (1 / q) * lam.moduli)) / (nS.value * nR.value)
    rep.check("constructed-witness-r-is-one", abs(r_wit - 1.0) <= 1e-10,
              measured=r_wit, bound=1.0, seed=seed)

    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    lam_nil = eigenvalue_sequence(nil)
    rep.check("nilpotent-r-zero", float(np.max(lam_nil.moduli)) == 0.0,
              measured=float(np.max(lam_nil.moduli)), bound=0.0)

    lq, linf = NormedSpace(lp(q), n), NormedSpace(lp(math.inf), N)

    def run_trials(master):
        seeds = child_seeds(master, trials)
        rngs = [np.random.default_rng(s) for s in seeds]
        S_stack, R_stack = np.empty((trials, n, N)), np.empty((trials, N, n))
        for S, R, rng in zip(S_stack, R_stack, rngs):
            S[...] = rng.standard_normal((n, N)) / math.sqrt(N)
            R[...] = rng.standard_normal((N, n)) / math.sqrt(n)
        norms_S = operator_norms(S_stack, linf, lq, budget, seeds=seeds)
        norms_R = operator_norms(R_stack, lq, linf, budget, seeds=seeds)
        ks = np.arange(1, n + 1, dtype=float)
        lams = eigenvalue_sequence(S_stack @ R_stack)
        return np.array([float(np.max(ks ** (1 / q) * lam.moduli)) / (nS.value * nR.value)
                         for lam, nS, nR in zip(lams, norms_S, norms_R)])

    s1, s2 = child_seeds(seed, 2)
    r1, r2 = run_trials(s1), run_trials(s2)
    agree = abs(r1.max() - r2.max()) <= tol * max(r1.max(), r2.max())
    rep.check("trial-max", agree, measured=float(r1.max()), bound=float(r2.max()),
              tier=OBSERVE, seed=seed,
              extra={"median_1": float(np.median(r1)), "median_2": float(np.median(r2)),
                     "trials": trials})
    rep.check("cross-seed-stability", agree, measured=abs(r1.max() - r2.max()),
              bound=tol * max(r1.max(), r2.max()), tier=ASSERT, seed=seed)
    return rep


def suite_main_theorem(family="lp:2", q=2.0, dims=(4, 9, 16), budget=0, seed=0):
    """Summing-versus-average chain on a family of identity maps.

    For each dimension: the 1-summing lower estimate against the
    n^(1-1/q) profile, the weak-norm constant H for the power gauge, the
    implied equal-norm weak-cotype value, and (q = 2) the weak-cotype
    versus H^2 cross-check. The [1, 4] window for the Euclidean family
    is a regression bound, not a theorem constant.
    """
    rep = SuiteReport("main-theorem", seed)
    q = float(q)
    g = GrowthSequence.power(1.0 / q)
    fam, _ = parse_family(family)
    euclidean_regression = family in ("lp:2", "lp:2.0") and q == 2.0
    for n in dims:
        space = NormedSpace(fam, int(n))
        T = identity_map(space)
        pi = pi_pq_n(T, 1, 1, n, budget=budget, seed=seed)
        profile = float(n) / float(g(n))
        ratio = pi.value / profile
        if euclidean_regression:
            rep.check(f"pi1-ratio-n{n}", 1.0 - 1e-12 <= ratio <= 4.0,
                      measured=ratio, bound=4.0, seed=seed)
        else:
            rep.check(f"pi1-ratio-n{n}", True, measured=ratio, bound=None,
                      tier=OBSERVE, seed=seed)
        h = H_constant(space, g, int(n), budget=budget, seed=seed)
        rep.check(f"H-lower-n{n}", h.value >= 1.0 - 1e-12, measured=h.value,
                  bound=1.0, seed=seed)

        config = np.eye(int(n))
        scale = weak_lq_upper(config, space, 2.0)
        pre = equal_norm_premise_check(config / scale, T, g, samples=20_000,
                                       seed=child_seeds(seed, 1)[0])
        rep.check(f"equal-norm-n{n}", pre.accepted, measured=pre.implied_constant,
                  bound=None, tier=OBSERVE, seed=seed,
                  extra={"implied_wc": pre.implied_constant})
        if q == 2.0:
            wc = weak_cotype_g(T, g, budget=max(budget, 8), seed=seed)
            rep.check(f"wc-vs-H2-n{n}", True, measured=wc.value, bound=h.value**2,
                      tier=OBSERVE, seed=seed,
                      extra={"ratio": wc.value / h.value**2 if h.value else None})
    return rep


SUITES = {
    "norms": suite_norms,
    "growth": suite_growth,
    "rademacher": suite_rademacher,
    "ell": suite_ell,
    "contraction": suite_contraction,
    "gauss-rademacher": suite_gauss_rademacher,
    "pi1": suite_pi1,
    "eigen": suite_eigen,
    "pi2-approx": suite_pi2_approx,
    "wc-bracket": suite_wc_bracket,
    "equal-norm": suite_equal_norm,
    "pipeline": suite_pipeline,
    "gauges": suite_gauges,
    "classifier": suite_classifier,
    "iterlog": suite_iterlog,
    "eigen-decay": suite_eigen_decay,
    "main-theorem": suite_main_theorem,
}


def suite_flags(name, **flags):
    """(read, unread): of the flags set (not None), a dict of those that
    suite `name` takes as parameters, by its signature, and the others."""
    params = inspect.signature(SUITES[name]).parameters
    flags = {flag: value for flag, value in flags.items() if value is not None}
    return {f: v for f, v in flags.items() if f in params}, [f for f in flags if f not in params]


def run_suite(name, seed=0, **kwargs):
    """The report of suite `name`; a keyword set to None keeps its default."""
    return SUITES[name](seed=seed, **{k: v for k, v in kwargs.items() if v is not None})
