"""Witness-based estimators for summing and cotype quantities.

Every sup-type quantity here (summing norms, the best constant H of the
weak-norm summing inequality, cotype constants, weak-cotype constants)
is reported as a certified lower bound with the achieving configuration
or operator stored as witness. Denominators that would need a sup of
their own are replaced by certified upper bounds, so the quotient stays
a true lower bound.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .averages import _draw_gaussians, _draw_signs, gaussian_average, rademacher_average
from .estimates import Estimate, LOWER, Record
from .growth import validate_growth
from .linmaps import ENUM_CAP, _as_is, _sign_sum, identity_map, sign_weights, weak_lq_upper
from .search import _scaled_rows, batch_forms, child_seeds, multistart_maximize
from .snumbers import _approx_lower_from_l2
from .spaces import gweak, lp

__all__ = [
    "pi_pq_n",
    "pi_Y1",
    "H_constant",
    "cotype_q_constant",
    "weak_cotype_g",
    "C_delta",
    "equal_norm_premise_check",
    "equal_norm_inequality",
    "ConstantLedger",
    "constant_ledger",
    "PremiseReport",
    "PremiseError",
    "EQUAL_NORM_FACTOR",
]

#: numerical constant in the equal-norm comparison inequality
EQUAL_NORM_FACTOR = 2048.0


# --------------------------------------------------------------------------
# configuration searches


def _structured_configs(space, n):
    dim = space.dim
    eye = np.eye(dim)
    coords = np.array([eye[k % dim] for k in range(n)])
    repeated = np.tile(eye[0], (n, 1))
    ones = np.tile(np.ones(dim) / space.norm(np.ones(dim)), (n, 1))
    return [coords, repeated, ones]


def _config_search(score, space, n, budget, seed):
    """Maximize over n-vector configurations scaled to largest entry 1;
    score(C) is the objective of each configuration of a (k, n, dim)
    stack C of such configurations. Their denominators are never 0, so
    score needs no guard for it."""
    def feasible(P):
        return _scaled_rows(P, np.maximum.reduce(np.abs(P), axis=1))

    return multistart_maximize(
        **batch_forms(feasible, lambda X: score(X.reshape(-1, n, space.dim))),
        shape=(n, space.dim), structured=_structured_configs(space, n),
        budget=budget, seed=seed)


def _summing_search(T, q, n, numerator_rows, budget, seed):
    """Maximize the numerator of the image norms over the weak l_q moment
    of n-vector configurations; returns (value, configuration scaled to
    weak l_q moment 1). numerator_rows is the numerator on each row of a
    2-d array of image norms."""
    dom, cod = T.domain, T.codomain
    A = np.asarray(T.matrix, dtype=float)
    signs = sign_weights(n, dom.dim, dom)[0]  # the sign table, built once

    def score(C):
        norms = cod.norm_rows(C.reshape(-1, dom.dim) @ A.T).reshape(-1, n)
        return numerator_rows(norms) / weak_lq_upper(C, dom, q, signs)

    val, wit = _config_search(score, dom, n, budget, seed)
    return val, wit / weak_lq_upper(wit, dom, q, signs)


def pi_pq_n(T, p, q, n, budget=32, seed=0):
    """Lower bound of the (p,q)-summing norm of T with respect to n vectors.

    Maximizes the strong l_p sum of the image norms over configurations
    whose weak l_q moment is certified <= 1; the witness is the
    normalized configuration.
    """
    p, q = float(p), float(q)
    if not (p >= q >= 1.0):
        raise ValueError("summing norms need p >= q >= 1")
    strong = lp(p)
    val, wit = _summing_search(T, q, n, strong.norm_rows, budget, seed)
    return Estimate(float(val), LOWER, witness=wit, budget=budget, seed=seed,
                    meta={"p": p, "q": q, "n": n})


def pi_Y1(T, Y, n, budget=32, seed=0):
    """Lower bound of the (Y,1)-summing constant of T.

    The best c with ||sum ||Tx_k|| e_k||_Y <= c sup_{x*} sum |<x*, x_k>|,
    witnessed by a configuration.
    """
    val, wit = _summing_search(T, 1.0, n, Y.norm_rows, budget, seed)
    return Estimate(float(val), LOWER, witness=wit, budget=budget, seed=seed,
                    meta={"Y": Y.describe(), "n": n})


def H_constant(X, g, n, budget=32, seed=0, c1prime=None):
    """Lower bound of the best constant turning weak-l_1 smallness into
    weak-g smallness of the norms, for the identity of X.

    When an estimate for the strong summing constant is supplied, the
    implied upper bound 4x that value (sign sup versus coefficient box)
    is recorded in meta.
    """
    est = pi_Y1(identity_map(X), gweak(g), n, budget=budget, seed=seed)
    est.meta["quantity"] = "H"
    if c1prime is not None:
        est.meta["implied_upper"] = 4.0 * float(c1prime)
    return est


def cotype_q_constant(X, q, n, budget=32, seed=0, variable="rademacher",
                      samples=20_000, final_samples=100_000):
    """Lower bound of the n-vector cotype-q constant of X.

    Maximizes (sum ||x_k||^q)^(1/q) / E||sum eps_k x_k||. The sign
    average is exact by enumeration for n <= 20; the gaussian variant
    searches against a fixed sample block (common random numbers) and
    re-measures the witness with a fresh larger sample.
    """
    q = float(q)
    if q < 2.0:
        raise ValueError("cotype needs q >= 2")
    if variable not in ("rademacher", "gaussian"):
        raise ValueError("variable must be rademacher or gaussian")

    s_search, s_final = child_seeds(seed, 2)
    use_enum = variable == "rademacher" and n <= ENUM_CAP
    if use_enum:
        # the sign table, built once for every candidate where it fits a block
        draws, count = sign_weights(n, X.dim, X)[0], 2 ** (n - 1)
    else:
        count = samples
        draws = np.empty((samples, n))
        sampler = _draw_gaussians if variable == "gaussian" else _draw_signs
        sampler(np.random.default_rng(s_search), draws)

    strong = lp(q)

    # every candidate meets the same sign patterns, or the same sample
    # (common random numbers), through one sign sum
    def score(C):
        num = strong.norm_rows(X.norm_rows(C.reshape(-1, X.dim)).reshape(-1, n))
        return num / (_sign_sum(draws, C, X, _as_is) / count)

    val, wit = _config_search(score, X, n, budget, seed)

    if use_enum:
        return Estimate(float(val), LOWER, witness=wit, budget=budget, seed=seed,
                        meta={"variable": variable, "denominator": "exact-enumeration"})
    avg = (gaussian_average if variable == "gaussian" else rademacher_average)(
        wit, X, moment=1, samples=final_samples, seed=s_final
    )
    num = strong.norm(X.norm_rows(wit))
    value = num / avg.value if avg.value > 0 else 0.0
    stderr = value * avg.stderr / avg.value if avg.value > 0 else 0.0
    return Estimate(value, LOWER, witness=wit, budget=budget, seed=seed, stderr=stderr,
                    meta={"variable": variable, "denominator": avg.to_dict()})


# --------------------------------------------------------------------------
# weak cotype


def _ell_upper(u_matrix, X):
    """Certified upper bound on ell(u) for u : l_2^m -> X.

    Exact (the Frobenius norm) when X is Euclidean; otherwise scaled by
    the comparison constant of X.
    """
    fro = float(np.linalg.norm(u_matrix))
    return fro if X.is_euclidean else X.le_euclid() * fro


def _best_frame(T, frames, score):
    """First frame u maximizing score(a(Tu)) / ell(u): a(Tu) the certified
    lower bounds on the approximation numbers, ell(u) a certified upper
    bound. Returns (value, u); (-inf, None) if no frame scores."""
    A = np.asarray(T.matrix, dtype=float)
    best_val, best_u = -np.inf, None
    for u in frames:
        den = _ell_upper(u, T.domain)
        if den == 0.0:
            continue
        v = score(_approx_lower_from_l2(A @ u, T.codomain)) / den
        if v > best_val:
            best_val, best_u = v, u
    return best_val, best_u


def weak_cotype_g(T, g, budget=16, seed=0):
    """Lower bound of the weak cotype-g constant of T.

    Maximizes sup_k g(k) a_k(Tu) / ell(u) over Euclidean-domain maps u;
    approximation numbers enter as certified lower bounds and ell(u) as
    a certified upper bound.
    """
    A = np.asarray(T.matrix, dtype=float)
    if not np.any(A):
        return Estimate(0.0, "exact", witness=None, budget=0, seed=seed)
    # the identity, the coordinate isometries, then budget // 4 random
    # orthonormal frames, each cut to a width drawn after its gaussians
    dim = T.domain.dim
    eye = np.eye(dim)
    frames = [eye] + [eye[:, :m] for m in range(1, dim)]
    rng = np.random.default_rng(seed)
    for _ in range(budget // 4):
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        frames.append(q[:, :int(rng.integers(1, dim + 1))])
    best_val, best_u = _best_frame(T, frames,
                                   lambda a: float(np.max(g(np.arange(1, len(a) + 1)) * a)))
    return Estimate(float(best_val), LOWER, witness=best_u, budget=budget, seed=seed,
                    meta={"quantity": "weak cotype", "g": g.label})


def C_delta(T, g, delta, n, budget=16, seed=0):
    """Lower bound of the best constant in g(n) a_[delta n](Tu) <= C ell(u)
    at a fixed domain dimension n.

    Also evaluates the two-sided bracket tying this constant to the
    weak-cotype constant (meta["bracket"]), using a matched-budget weak
    cotype estimate and the doubling constant of g.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    idx = max(1, int(delta * n))  # 1-based index of the approximation number
    gn = float(g(n))

    # maps l_2^n -> X: rank-j coordinate projectors plus random frames
    dim = T.domain.dim
    cands = []
    for j in range(1, min(dim, n) + 1):
        u = np.zeros((dim, n))
        u[np.arange(j), np.arange(j)] = 1.0
        cands.append(u)
    rng = np.random.default_rng(seed)
    for _ in range(max(2, budget // 4)):
        m = rng.standard_normal((dim, n))
        if n <= dim:
            m, _ = np.linalg.qr(m)
        cands.append(m)
    best_val, best_u = _best_frame(
        T, cands, lambda a: gn * float(a[idx - 1]) if idx <= len(a) else -np.inf)

    s2 = validate_growth(g, max(2, n)).s2
    wc = weak_cotype_g(T, g, budget=budget, seed=seed)
    est = Estimate(float(best_val), LOWER, witness=best_u, budget=budget, seed=seed)
    est.meta["bracket"] = {
        "lower": delta / (2.0 * s2) * best_val,
        "wc_estimate": wc.value,
        "upper": math.e**1.5 * s2 * (1.0 - delta) ** -0.5 * best_val,
        "s2": s2,
        "delta": delta,
    }
    return est


# --------------------------------------------------------------------------
# equal-norm premises and the comparison inequality


class PremiseError(ValueError):
    pass


@dataclass
class PremiseReport(Record):
    accepted: bool
    weak2_upper: float
    min_image_norm: float
    floor: float
    reasons: list = field(default_factory=list)
    average: object = None
    implied_constant: float | None = None


def _premise(config, T, floor):
    config = np.asarray(config, dtype=float)
    images = config @ np.asarray(T.matrix, dtype=float).T
    weak2 = weak_lq_upper(images, T.codomain, 2.0)
    norms = T.codomain.norm_rows(images)
    min_norm = float(np.min(norms)) if norms.size else 0.0
    reasons = []
    if weak2 > 1.0 + 1e-9:
        reasons.append(f"weak-2 moment of the images is {weak2:.6g} > 1")
    if min_norm < floor * (1 - 1e-12):
        reasons.append(f"image norm floor {min_norm:.6g} below {floor:.6g}")
    return weak2, min_norm, reasons


def equal_norm_premise_check(config, T, g, D=None, s2=1.0, samples=100_000, seed=0):
    """Check the equal-norm hypothesis and report the implied constant.

    The hypothesis asks the images Tx_j to carry weak-2 moment at most 1
    (unit-ball form) and norms at least 1/D. When it holds, the gaussian
    second-moment average A of the configuration yields the implied
    weak-cotype bound g(n)/A. Violations produce a labeled rejection,
    not an exception.
    """
    config = np.asarray(config, dtype=float)
    n = config.shape[0]
    if D is None:
        D = 2.0**4.5 * math.e**1.5 * s2**2
    weak2, min_norm, reasons = _premise(config, T, 1.0 / D)
    if reasons:
        return PremiseReport(False, weak2, min_norm, 1.0 / D, reasons)
    avg = gaussian_average(config, T.domain, moment=2, samples=samples, seed=seed)
    implied = float(g(n)) / avg.value if avg.value > 0 else math.inf
    return PremiseReport(True, weak2, min_norm, 1.0 / D, [], avg, implied)


@dataclass
class ComparisonReport(Record):
    lhs: float
    rhs: float
    holds: bool
    slack: float
    average: object
    wc_direction: str


def equal_norm_inequality(config, T, g, wc_estimate, rho, s2=1.0, samples=100_000, seed=0):
    """Both sides of rho^4 g(n) <= S2 * 2048 * wc * (E||sum g_j x_j||^2)^(1/2).

    The premise (weak-2 moment <= 1 and image norms >= rho) is enforced.
    With an upper-direction weak-cotype value the inequality is a
    contract; with a lower-direction estimate the comparison is data.
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must be in (0, 1]")
    config = np.asarray(config, dtype=float)
    n = config.shape[0]
    weak2, min_norm, reasons = _premise(config, T, rho)
    if reasons:
        raise PremiseError("; ".join(reasons))
    avg = gaussian_average(config, T.domain, moment=2, samples=samples, seed=seed)
    wc_val = wc_estimate.value if isinstance(wc_estimate, Estimate) else float(wc_estimate)
    wc_dir = wc_estimate.direction if isinstance(wc_estimate, Estimate) else "exact"
    lhs = rho**4 * float(g(n))
    rhs = s2 * EQUAL_NORM_FACTOR * wc_val * avg.value
    return ComparisonReport(lhs, rhs, lhs <= rhs, rhs / lhs if lhs > 0 else math.inf,
                            avg, wc_dir)


# --------------------------------------------------------------------------
# the explicit constant chain


@dataclass
class ConstantLedger(Record):
    """Exact arithmetic of the constant chain from the stored inputs."""

    s2: float
    s3: float
    s4: float
    l_t: float
    t: float
    m_r: float
    r: int
    h: float
    k: float
    d: float = 0.0
    a: float = 0.0
    b: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    c: float = 0.0
    note: str = ""


def constant_ledger(g, H, K=1.0, s2=1.0, s3=1.0, s4=1.0, l_t=1.0, t=2.0, m_r=1.0, r=2):
    """Evaluate the explicit constants of the block-certificate chain.

    Needs H >= 1 (the single-vector witness forces it) and K > 0. The
    final cap is the larger of the two regime constants. Power-law
    gauges n^(1/q) carry the order-of-magnitude remark as metadata.
    """
    H = float(H)
    if H < 1.0:
        raise ValueError("H >= 1 (a single unit vector already witnesses 1)")
    if K <= 0.0:
        raise ValueError("K must be positive")
    r = int(r)
    d = 2.0**4.5 * math.e**1.5 * s2**2
    a = math.sqrt(2.0) * math.e**1.5 * s2
    b = max(2.0 * s3 * l_t * (K + 1.0), 100.0 * l_t * d) ** max(2.0, t)
    c1 = s2 * 2.0 ** (2 * r + 1) * 100.0 * d * m_r * (2.0 * s3) ** r * H ** (r + 1)
    arg = int(H ** max(2 * r, t * r))
    try:
        g_at = float(g(arg))
    except ValueError as exc:
        raise ValueError(
            f"growth table too short to evaluate g({arg}) for the small-k regime"
        ) from exc
    c2 = s2 * 2.0 ** (2 * r + 3) * b**r * g_at
    note = ""
    if g.exponent is not None and g.exponent > 0:
        q = 1.0 / g.exponent
        note = f"power-law gauge: overall constant of order c_q H^{2 * q + 2:g}"
    return ConstantLedger(s2=s2, s3=s3, s4=s4, l_t=l_t, t=t, m_r=m_r, r=r, h=H,
                          k=float(K), d=d, a=a, b=b, c1=c1, c2=c2,
                          c=max(c1, c2), note=note)
