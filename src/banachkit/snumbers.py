"""Approximation numbers, Weyl numbers and eigenvalue sequences.

On Euclidean spaces everything is exact through the singular value
decomposition. On other spaces the approximation numbers are only
bracketed: best rank-(n-1) truncations give upper bounds, and the
Euclidean singular values scaled by space-comparison constants give
lower bounds. No heuristic value is ever tagged exact.
"""

from dataclasses import dataclass, field

import numpy as np

from .linmaps import LinearMap, operator_norm
from .spaces import NormedSpace, lp

__all__ = [
    "SNumberSequence",
    "EigenSequence",
    "approximation_numbers",
    "weyl_numbers",
    "eigenvalue_sequence",
    "pi2_by_approx_bound",
    "eigen_decay_vs_weyl",
]


@dataclass
class SNumberSequence:
    kind: str  # "approximation" | "weyl"
    values: np.ndarray
    directions: list
    lower: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def to_dict(self):
        return {
            "kind": self.kind,
            "values": list(map(float, self.values)),
            "directions": list(self.directions),
            "lower": None if self.lower is None else list(map(float, self.lower)),
        }


@dataclass
class EigenSequence:
    """Eigenvalues with algebraic multiplicity, non-increasing modulus."""

    values: np.ndarray  # complex

    @property
    def moduli(self):
        return np.abs(self.values)

    def __len__(self):
        return len(self.values)

    def to_dict(self):
        return {"re": self.values.real.tolist(), "im": self.values.imag.tolist()}


def approximation_numbers(T):
    """Distances of T to the operators of rank < n, for every n.

    Euclidean domain and codomain: the singular values, exact. General
    spaces: truncated-SVD candidates give upper bounds, and the
    singular values divided by the comparison constants give lower
    bounds; every entry is tagged.
    """
    A = np.asarray(T.matrix, dtype=float)
    k = min(A.shape)
    if not np.any(A):
        z = np.zeros(k)
        return SNumberSequence("approximation", z, ["exact"] * k)
    u, s, vt = np.linalg.svd(A)
    if T.is_euclidean:
        return SNumberSequence("approximation", s[:k], ["exact"] * k)

    le_in, ge_in = T.domain.le_euclid(), T.domain.ge_euclid()
    le_out, ge_out = T.codomain.le_euclid(), T.codomain.ge_euclid()
    # ||B||_{X->Y} <= le(Y) smax(B) ge(X): apply to the truncation error
    upper = le_out * ge_in * s[:k]
    # sigma_n <= ge(Y) le(X) a_n(T)
    lower = s[:k] / (ge_out * le_in)
    # a_1 is the operator norm; tighten both ends with its estimate
    op = operator_norm(T)
    upper[0] = min(upper[0], op.meta.get("upper", upper[0])) if op.direction == "lower" else op.value
    lower[0] = max(lower[0], op.value)
    # an upper bound for a_m (m <= n) also bounds a_n, so tighten forward
    upper = np.minimum.accumulate(upper)
    return SNumberSequence(
        "approximation", upper, ["upper"] * k, lower=lower,
        meta={"comparison": (le_in, ge_in, le_out, ge_out)},
    )


def _contraction_upper(u_matrix, space):
    """Certified upper bound on ||u : l_2^m -> space||."""
    smax = float(np.linalg.svd(u_matrix, compute_uv=False)[0]) if np.any(u_matrix) else 0.0
    if space.is_euclidean:
        return smax
    if space.is_linf:
        return float(np.max(np.linalg.norm(u_matrix, axis=1))) if np.any(u_matrix) else 0.0
    return space.le_euclid() * smax


def _approx_lower_from_l2(B, codomain):
    """Entrywise lower bounds on a_n(B : l_2^m -> codomain)."""
    s = np.linalg.svd(B, compute_uv=False)
    return s if codomain.is_euclidean else s / codomain.ge_euclid()


def _coordinate_frames(dim, count, seed, random_width=False):
    """Contractions u : l_2^m -> l_2^dim: the coordinate isometries
    (m = dim, then m = 1, ..., dim - 1) and `count` seeded random
    orthonormal frames, each cut to a random width m when random_width."""
    eye = np.eye(dim)
    frames = [eye] + [eye[:, :m] for m in range(1, dim)]
    rng = np.random.default_rng(seed)
    for _ in range(max(0, count)):
        qmat, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        frames.append(qmat[:, :int(rng.integers(1, dim + 1))] if random_width else qmat)
    return frames


def weyl_numbers(T, budget=16, seed=0):
    """x_n(T) = sup of a_n(Tu) over Euclidean-domain contractions u.

    Euclidean T: exact (the partial-isometry witness turns the sup into
    the approximation numbers themselves). Otherwise entrywise certified
    lower bounds from a structured set of contractions: coordinate
    isometries, the scaled identity, and seeded random frames.
    """
    A = np.asarray(T.matrix, dtype=float)
    k = min(A.shape)
    if not np.any(A):
        return SNumberSequence("weyl", np.zeros(k), ["exact"] * k)
    if T.is_euclidean:
        s = np.linalg.svd(A, compute_uv=False)
        return SNumberSequence("weyl", s[:k], ["exact"] * k,
                               meta={"witness": "identity (partial isometry)"})

    best = np.zeros(k)
    best_wit = [None] * k
    for u in _coordinate_frames(T.domain.dim, budget, seed):
        c = _contraction_upper(u, T.domain)
        if c == 0.0:
            continue
        u_scaled = u / c
        B = A @ u_scaled
        vals = _approx_lower_from_l2(B, T.codomain)
        # the first entry is an operator norm, where exact routes exist
        euclid = NormedSpace(lp(2), u.shape[1])
        op = operator_norm(LinearMap(B, euclid, T.codomain), budget=0, seed=seed)
        first = max(vals[0], op.value)
        for i, v in enumerate([first, *vals[1:]][:k]):
            if v > best[i]:
                best[i] = v
                best_wit[i] = u_scaled
    return SNumberSequence("weyl", best, ["lower"] * k, meta={"witnesses": best_wit})


def eigenvalue_sequence(T):
    """All eigenvalues with multiplicity, sorted by non-increasing modulus."""
    A = np.asarray(T.matrix) if isinstance(T, LinearMap) else np.asarray(T)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("eigenvalue sequence needs a square matrix")
    vals = np.linalg.eigvals(A.astype(complex))
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    return EigenSequence(vals[order])


def pi2_by_approx_bound(w):
    """Both sides of the 2-summing bound pi_2(w) <= 2 sum_j a_j(w)/sqrt(j).

    Euclidean domain and codomain only, where pi_2 is the square-sum of
    the singular values and the a_j are exact.
    """
    if not w.is_euclidean:
        raise ValueError("pi2_by_approx_bound needs Euclidean domain and codomain")
    s = np.linalg.svd(np.asarray(w.matrix, dtype=float), compute_uv=False)
    s = s[: min(w.matrix.shape)]
    lhs = float(np.sqrt(np.sum(s**2)))
    j = np.arange(1, len(s) + 1, dtype=float)
    rhs = float(2.0 * np.sum(s / np.sqrt(j)))
    return lhs, rhs


def eigen_decay_vs_weyl(T, g, budget=16, seed=0):
    """Compare weighted eigenvalue decay against weighted Weyl numbers.

    Returns a dict with sup_k g(k)|lambda_k|, sup_k g(k) x_k (lower
    bounds off the Euclidean route), and, when T is Euclidean, the
    multiplicative Weyl check prod |lambda_j| <= prod a_j for every k.
    """
    if not T.is_square:
        raise ValueError("needs a square matrix")
    eig = eigenvalue_sequence(T)
    ks = np.arange(1, len(eig) + 1)
    weights = g(ks)
    sup_eig = float(np.max(weights * eig.moduli))

    xnums = weyl_numbers(T, budget=budget, seed=seed)
    sup_weyl = float(np.max(weights[: len(xnums)] * xnums.values))

    report = {
        "sup_g_eig": sup_eig,
        "sup_g_weyl": sup_weyl,
        "weyl_direction": xnums.directions[0],
        "ratio": sup_eig / sup_weyl if sup_weyl > 0 else np.inf,
    }
    if T.is_euclidean:
        a = np.linalg.svd(np.asarray(T.matrix, dtype=float), compute_uv=False)
        prods_eig = np.cumprod(eig.moduli)
        prods_a = np.cumprod(a[: len(eig)])
        report["multiplicative_weyl_ok"] = bool(
            np.all(prods_eig <= prods_a * (1 + 1e-8) + 1e-12)
        )
        report["multiplicative_margin"] = float(np.min(prods_a - prods_eig))
    return report
