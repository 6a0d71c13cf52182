"""Optimal summing and cotype gauges of a normed space.

The gauges are infima over unit-vector configurations, so any feasible
configuration certifies an upper bound; that is the direction every
GaugeValue carries. The inner supremum of the summing gauge runs over a
coefficient box and is evaluated exactly by sign enumeration (the
extreme points of the real cube are the sign vectors); the cotype gauge
uses the exact sign average.

Also here: the convexification of a gauge, the disjoint-family
self-concavity check, the tensor-square construction with the
submultiplicativity comparison of fundamental functions, the inclusion
alternative classifier, and the iterated-log cotype bound arithmetic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .estimates import GaugeValue, Record
from .growth import iterated_log, tower_index
from .linmaps import ENUM_CAP, _as_is, _sign_max, _sign_sum, sign_weights
from .search import batch_forms, child_seeds, multistart_maximize
from .sequences import rearrange

__all__ = [
    "opt_gauge",
    "reevaluate_gauge",
    "convexify",
    "self_concavity_check",
    "tensor_square",
    "submultiplicativity_check",
    "alternative_classify",
    "iterated_log_bound",
    "best_k",
    "lorentz_cotype_report",
]


def _gauge_objective(tau, space, kind):
    tau = np.asarray(tau, dtype=float)
    m = tau.size
    if kind not in ("summing", "cotype"):
        raise ValueError("kind must be 'summing' or 'cotype'")
    # the weighted sign table, built once where it fits a block
    signs, scale = sign_weights(m, space.dim, space, tau)

    def value(C):
        """Gauge values of a (k, m, dim) stack of configurations without
        zero rows."""
        # rows are only approximately unit after projection; dividing by
        # the smallest row norm keeps the value a certified upper bound
        # (weights tau_k / r_k <= tau_k / r_min, then the contraction
        # principle), and makes exactly-normalized witnesses exact; the
        # row norms come from the same oracle as the numerator, so a
        # single unit vector scores exactly 1
        r_min = space.norm_rows(C.reshape(-1, C.shape[-1])).reshape(-1, m).min(axis=1)
        if kind == "summing":
            return _sign_max(signs, C, space, scale=scale)[0] / r_min
        return _sign_sum(signs, C, space, _as_is, scale=scale) / 2 ** (m - 1) / r_min

    return value


def _hadamard_rows(m, dim):
    """First m rows of a Sylvester sign matrix on the leading coordinates,
    when a power-of-two block m <= h <= dim exists. These cancelling
    configurations are where sup-norm cubes and l_1 balls hide their
    small gauges."""
    h = 1
    while h < m:
        h *= 2
    if h > dim:
        return None
    H = np.array([[1.0]])
    while H.shape[0] < h:
        H = np.block([[H, H], [H, -H]])
    rows = np.zeros((m, dim))
    rows[:, :h] = H[:m]
    return rows


def reevaluate_gauge(witness, tau, space, kind):
    """Value of a stored unit-vector configuration; reproduces the gauge
    estimate it came from. A configuration with a zero row has value inf."""
    tau = np.asarray(tau, dtype=float)
    tau = tau[tau != 0.0]
    config = np.asarray(witness, dtype=float)
    if not np.all(space.norm_rows(config)):
        return math.inf
    return float(_gauge_objective(np.abs(tau), space, kind)(config[None])[0])


def opt_gauge(tau, space, kind, budget=16, seed=0):
    """Upper estimate of the optimal summing or cotype gauge of tau.

    Minimizes over configurations of unit vectors indexed by the support
    of tau; structured starts are the colinear and coordinate
    configurations. Sign invariance lets the search work with |tau|.
    """
    tau = np.asarray(tau, dtype=float)
    support = np.abs(tau[tau != 0.0])
    m = support.size
    if m == 0:
        return GaugeValue(0.0, witness=None, budget=0, seed=seed)
    if m > ENUM_CAP:
        raise ValueError(f"gauge enumeration capped at support {ENUM_CAP}")
    value = _gauge_objective(support, space, kind)
    dim = space.dim
    eye = np.eye(dim)

    def unit_rows(P):
        """Configurations of P with every row scaled to norm 1; those with a
        zero row rejected."""
        C = P.reshape(-1, m, dim)
        norms = space.norm_rows(P.reshape(-1, dim)).reshape(-1, m)
        ok = (norms != 0.0).all(axis=1)
        return (C[ok] / norms[ok, :, None]).reshape(-1, m * dim), ok

    structured = [
        np.tile(eye[0], (m, 1)),
        np.array([eye[k % dim] for k in range(m)]),
        np.tile(np.ones(dim), (m, 1)),
    ]
    had = _hadamard_rows(m, dim)
    if had is not None:
        structured.append(had)
    val, wit = multistart_maximize(
        **batch_forms(unit_rows, lambda X: -value(X.reshape(-1, m, dim))),
        shape=(m, dim),
        structured=structured,
        budget=budget,
        seed=seed,
    )
    return GaugeValue(float(-val), witness=wit, budget=budget,
                      seed=seed, meta={"kind": kind, "support": m})


def _dyadic_blocks(m):
    """Index blocks [2^j - 1, 2^(j+1) - 1) of a length-m rearrangement."""
    blocks = []
    start = 0
    width = 1
    while start < m:
        blocks.append((start, min(start + width, m)))
        start += width
        width *= 2
    return blocks


def convexify(tau, space, kind, budget=16, seed=0):
    """Upper estimate of the convexified gauge via searched decompositions.

    Candidate families: no split, singleton split, the dyadic blocks of
    the rearrangement, and their flat majorants. Never exceeds the
    direct gauge (no split is always a candidate).
    """
    tau = rearrange(tau)
    tau = tau[tau > 0.0]
    m = tau.size
    if m == 0:
        return GaugeValue(0.0, witness=None, budget=0, seed=seed)
    seeds = child_seeds(seed, 4)

    candidates = {}
    direct = opt_gauge(tau, space, kind, budget=budget, seed=seeds[0])
    candidates["no-split"] = (direct.value, [direct])

    candidates["singletons"] = (float(np.sum(tau)), None)  # gauge of a unit is 1

    for name, flat in (("dyadic", False), ("dyadic-flat", True)):
        total = 0.0
        parts = []
        block_seeds = child_seeds(seeds[1 if flat else 2], m)
        for j, (a, b) in enumerate(_dyadic_blocks(m)):
            piece = np.full(b - a, tau[a]) if flat else tau[a:b]
            gv = opt_gauge(piece, space, kind, budget=max(1, budget // 2),
                           seed=block_seeds[j])
            total += gv.value
            parts.append(gv)
        candidates[name] = (total, parts)

    best_name = min(candidates, key=lambda k: candidates[k][0])
    best_val, parts = candidates[best_name]
    return GaugeValue(float(best_val), witness={"decomposition": best_name},
                      budget=budget, seed=seed,
                      meta={"kind": kind, "candidates": {k: v[0] for k, v in candidates.items()},
                            "direct": direct.value})


@dataclass
class ConcavityReport:
    lhs: float
    rhs: float
    ratio: float
    inner: list
    tol: float

    def within(self, tol=None):
        t = self.tol if tol is None else tol
        return self.lhs <= self.rhs * (1.0 + t)

    def to_dict(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio, "tol": self.tol}


def self_concavity_check(taus, space, kind, budget=16, seed=0, tol=0.05):
    """Gauge of the vector of gauges against the gauge of the union.

    The families must have disjoint supports. Both sides are upper
    estimates with matched budgets, so the comparison carries the stated
    slack tolerance instead of being asserted exactly.
    """
    taus = [np.asarray(t, dtype=float) for t in taus]
    length = max(t.size for t in taus)
    occupied = np.zeros(length, dtype=bool)
    for t in taus:
        sup = np.abs(np.pad(t, (0, length - t.size))) > 0
        if np.any(occupied & sup):
            raise ValueError("families must have disjoint supports")
        occupied |= sup

    seeds = child_seeds(seed, len(taus) + 2)
    inner = [opt_gauge(t, space, kind, budget=budget, seed=seeds[i])
             for i, t in enumerate(taus)]
    inner_values = np.array([gv.value for gv in inner])
    lhs = opt_gauge(inner_values, space, kind, budget=budget, seed=seeds[-2])
    combined = np.zeros(length)
    for t in taus:
        combined[: t.size] += np.abs(t)
    rhs = opt_gauge(combined, space, kind, budget=budget, seed=seeds[-1])
    ratio = lhs.value / rhs.value if rhs.value > 0 else math.inf
    return ConcavityReport(lhs.value, rhs.value, ratio, inner, tol)


def tensor_square(tau):
    """Length-n^2 sequence whose i-th block is tau_i * tau."""
    tau = np.asarray(tau, dtype=float)
    return np.kron(tau, tau)


def submultiplicativity_check(space, n, k):
    """(f(n) * f(k), f(nk)) for an exactly computable fundamental function.

    Families satisfying the self-concavity (the l_p scale exactly, weak
    spaces with supermultiplicative gauge) satisfy lhs <= rhs; the
    comparison direction for other families is data, not a contract.
    """
    f = space.fundamental
    return f(n) * f(k), f(n * k)


@dataclass
class Classification(Record):
    case: int
    p: float
    n_max: int
    n0: int | None = None
    q: float | None = None
    chain: str | None = None
    inclusion_constant: float | None = None
    cn_bound: float | None = None
    cn_limit: float | None = None


def alternative_classify(space, p, n_max=64):
    """Inclusion alternative for a symmetric family against the l_p scale.

    Case 1: some n0 <= n_max has f(n0) > n0^(1/p); returns the exponent
    q solving f(n0) = n0^(1/q) and the chain bound n^(1/q) <= n0 f(n).
    Case 2: f stays below the l_p profile; returns the dyadic inclusion
    constant 5, the section bound 5(1 + ln n), and the tensor-trick
    limit inf_k (5 (1 + 2^k ln n))^(1/2^k), which collapses to 1.
    """
    p = float(p)
    n_max = int(n_max)
    for n0 in range(1, n_max + 1):
        f = space.fundamental(n0)
        if f > n0 ** (1.0 / p) * (1.0 + 1e-9):
            q = math.log(n0) / math.log(f)
            return Classification(
                case=1, p=p, n_max=n_max, n0=n0, q=q,
                chain=f"n^(1/{q:g}) <= {n0} f(n) for all n",
            )
    n = n_max
    ks = np.arange(0, 64)
    limit = float(np.min((5.0 * (1.0 + 2.0**ks * math.log(n))) ** (1.0 / 2.0**ks)))
    return Classification(
        case=2, p=p, n_max=n_max,
        inclusion_constant=5.0,
        cn_bound=5.0 * (1.0 + math.log(n)),
        cn_limit=limit,
    )


def iterated_log_bound(C, q, n, k):
    """sqrt(pi) C^(k+1) times the k-fold clipped log of (1 + log2 n)^(1/q)."""
    C, q = float(C), float(q)
    if C < 1.0:
        raise ValueError("the bound needs C >= 1")
    if q < 2.0:
        raise ValueError("the bound needs q >= 2")
    n, k = int(n), int(k)
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return math.sqrt(math.pi) * C ** (k + 1) * iterated_log(k, (1.0 + math.log2(n)) ** (1.0 / q))


def best_k(C, q, n, k_max=None):
    """Minimize the iterated-log bound over the iteration depth.

    Returns (k*, value at k*, tower shortcut 2 sqrt(pi) C^(1+k_n), k_n).
    """
    kn = tower_index(int(n))
    if k_max is None:
        k_max = kn + 8
    vals = [(iterated_log_bound(C, q, n, k), k) for k in range(k_max + 1)]
    value, k_star = min(vals)
    shortcut = 2.0 * math.sqrt(math.pi) * float(C) ** (1 + kn)
    return k_star, value, shortcut, kn


def lorentz_cotype_report(q, w):
    """Structured dichotomy for cotype against the Lorentz scale.

    No abstract-space decision is attempted; the report names which
    regime applies and, on the diagonal, points at the iterated-log
    bound arithmetic.
    """
    q, w = float(q), float(w)
    if q < 2.0 or (w != math.inf and w < 1.0):
        raise ValueError("needs q >= 2 and w >= 1")
    if w < q:
        return {"branch": "below_q", "statement": f"cotype p for some p < {q:g}"}
    if w > q:
        return {"branch": "weak_q", "statement": "cotype of weak-l_q type"}
    return {"branch": "iterated_log",
            "statement": "diagonal regime: use the iterated-log bound (iterated_log_bound)"}
