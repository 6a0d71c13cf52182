"""Approximation numbers, Weyl numbers and eigenvalue sequences.

On Euclidean spaces everything is exact through the singular value
decomposition. On other spaces the approximation numbers are only
bracketed: best rank-(n-1) truncations give upper bounds, and the
Euclidean singular values scaled by space-comparison constants give
lower bounds. No heuristic value is ever tagged exact.

Weyl numbers are bracketed from below by a fixed set of contractions,
scored as stacks of one width (see weyl_numbers). A stack holds at most
linmaps.ASCENT_BLOCK entries, so memory does not grow with the budget.
"""

from dataclasses import dataclass, field

import numpy as np

from .linmaps import ASCENT_BLOCK, LinearMap, operator_norm, operator_norms
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
    # a_1 is the operator norm: its estimate gives both ends, and a lower
    # route's meta["upper"] is rounded outward, so it bounds the value
    op = operator_norm(T)
    upper[0] = op.meta["upper"] if op.direction == "lower" else op.value
    lower[0] = max(lower[0], op.value)
    # an upper bound for a_m (m <= n) also bounds a_n, so tighten forward
    upper = np.minimum.accumulate(upper)
    return SNumberSequence(
        "approximation", upper, ["upper"] * k, lower=lower,
        meta={"comparison": (le_in, ge_in, le_out, ge_out)},
    )


def _contraction_upper(U, space):
    """Certified upper bounds on ||u : l_2^m -> space|| for the frames u of
    a (F, dim, m) stack; the svd is taken only where the bound reads it."""
    if space.is_linf:
        return np.max(np.linalg.norm(U, axis=2), axis=1)
    smax = np.linalg.svd(U, compute_uv=False)[:, 0]
    return smax if space.is_euclidean else space.le_euclid() * smax


def _approx_lower_from_l2(B, codomain):
    """Entrywise lower bounds on a_n(B : l_2^m -> codomain), for one map
    or along the last axis of a stack of maps."""
    s = np.linalg.svd(B, compute_uv=False)
    return s if codomain.is_euclidean else s / codomain.ge_euclid()


def _coordinate_frames(dim, n, count, seed):
    """weyl_numbers' contractions u : l_2^m -> l_2^dim, as (places, U)
    stacks of one width m, U of shape (len(places), dim, m); places
    number the frames in one fixed order. Place 0 is the identity, place
    m the coordinate isometry of width m = 1, ..., dim - 1, and places
    dim, dim + 1, ... are `count` seeded random orthonormal frames.

    A stack holds at most ASCENT_BLOCK entries of frames and of their
    images in an n-dimensional codomain. The random frames of a stack
    come from one gaussian draw and one stacked qr, the same numbers as a
    draw and a qr per frame. The identity leads the first stack of random
    frames, which share its width; each isometry is a stack of one.
    """
    size = max(1, ASCENT_BLOCK // (dim * max(dim, n)))  # frames per stack
    eye = np.eye(dim)
    rng = np.random.default_rng(seed)
    count = max(0, count)
    # positions 0, 1, ..., count: the identity, then the random frames
    for i in range(0, count + 1, size):
        stop = min(i + size, count + 1)
        Q = np.linalg.qr(rng.standard_normal((stop - max(i, 1), dim, dim)))[0]
        if i == 0:
            yield [0, *range(dim, dim + stop - 1)], np.concatenate([eye[None], Q])
            yield from (([m], eye[None, :, :m]) for m in range(1, dim))
        else:
            yield list(range(dim + i - 1, dim + stop - 1)), Q


def weyl_numbers(T, budget=16, seed=0):
    """x_n(T) = sup of a_n(Tu) over Euclidean-domain contractions u.

    Euclidean T: exact (the partial-isometry witness turns the sup into
    the approximation numbers themselves). Otherwise entrywise certified
    lower bounds from a structured set of contractions: coordinate
    isometries, the scaled identity, and seeded random frames.

    The contractions are scored as stacks of one width (see
    _coordinate_frames), each with one call for the contraction bounds,
    one product, one svd for the lower bounds and one operator_norms call
    for the first entry. meta["witnesses"][n] is the first contraction,
    in the frame order of _coordinate_frames, that reaches values[n]: a
    copy, which holds no stack alive.
    """
    A = np.asarray(T.matrix, dtype=float)
    k = min(A.shape)
    if not np.any(A):
        return SNumberSequence("weyl", np.zeros(k), ["exact"] * k)
    if T.is_euclidean:
        s = np.linalg.svd(A, compute_uv=False)
        return SNumberSequence("weyl", s[:k], ["exact"] * k,
                               meta={"witness": "identity (partial isometry)"})

    dom, cod = T.domain, T.codomain
    best, place, best_wit = [0.0] * k, [-1] * k, [None] * k
    for places, U in _coordinate_frames(dom.dim, cod.dim, budget, seed):
        U = U / _contraction_upper(U, dom)[:, None, None]
        B = A @ U
        vals = _approx_lower_from_l2(B, cod)
        # the first entry is an operator norm, where exact routes exist
        ops = operator_norms(B, NormedSpace(lp(2), U.shape[2]), cod, budget=0,
                             seeds=[seed] * len(U))
        op = np.array([est.value for est in ops])
        vals[:, 0] = np.where(op > vals[:, 0], op, vals[:, 0])
        for f, u, row in zip(places, U, vals.tolist()):
            wit = None
            for i, v in enumerate(row[:k]):
                # the stacks come out of place order: a tie goes to the lower place
                if v > best[i] or (v == best[i] and f < place[i]):
                    if wit is None:
                        wit = u.copy()
                    best[i], place[i], best_wit[i] = v, f, wit
    return SNumberSequence("weyl", np.array(best), ["lower"] * k,
                           meta={"witnesses": best_wit})


def eigenvalue_sequence(T):
    """All eigenvalues with multiplicity, sorted by non-increasing modulus,
    then by non-increasing real part, then by non-increasing imaginary part.

    T is a LinearMap, a square matrix or a (k, n, n) stack of them; a stack
    gives a list of k sequences from one LAPACK call, each equal bit for bit
    to its one-matrix call. Real input goes to LAPACK's real solver
    (DGEEV), whose complex eigenvalues come in exact conjugate pairs and
    whose real eigenvalues have imaginary part exactly 0, so each pair is
    adjacent with +Im first; complex input goes to the complex solver.
    """
    A = np.asarray(T.matrix) if isinstance(T, LinearMap) else np.asarray(T)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError("eigenvalue sequence needs a square matrix or a stack of them")
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    # real input comes back as a real array when no eigenvalue is complex
    vals = np.linalg.eigvals(A).astype(complex, copy=False)
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    return [EigenSequence(v) for v in vals] if A.ndim == 3 else EigenSequence(vals)


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
