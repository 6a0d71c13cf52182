"""Rearrangements and Lorentz / weak-gauge sequence norms.

All norms here act on finitely supported real or complex vectors and are
invariant under permutations and sign changes; they only see the
non-increasing rearrangement of the absolute values.
"""

import numpy as np

__all__ = ["rearrange", "lorentz_norm", "gweak_norm"]


def _abs(x, owned=False):
    """|x| in float64: in x itself if owned (a fresh float64 array no one
    else holds), else in a fresh array; bool and integer x are cast first,
    since in int8 |-128| wraps to -128."""
    x = np.asarray(x)
    if not owned and x.dtype.kind in "biu":
        x, owned = x.astype(float), True
    a = np.abs(x, out=x) if owned else np.abs(x)
    return a if a.dtype == np.float64 else a.astype(float)


def rearrange(x):
    """Non-increasing rearrangement of |x|.

    Ties keep their original relative order (stable sort), which is
    irrelevant for any rearrangement-invariant norm but makes runs
    reproducible bit-for-bit.
    """
    a = _abs(x).ravel()
    return -np.sort(-a, kind="stable")


def _support(x):
    s = rearrange(x)
    return s[s > 0.0]


def lorentz_norm(x, p, q):
    """Two-parameter Lorentz norm of a finitely supported vector.

    For finite q this is (sum_n (n^(1/p) x*_n)^q / n)^(1/q); for q = inf
    it is sup_n n^(1/p) x*_n, where x* is the non-increasing
    rearrangement. The q = p diagonal coincides with the plain l_p norm.
    """
    p = float(p)
    if p < 1.0:
        raise ValueError(f"lorentz_norm requires p >= 1, got p={p}")
    s = _support(x)
    if s.size == 0:
        return 0.0
    n = np.arange(1, s.size + 1, dtype=float)
    if q == np.inf:
        return float(np.max(n ** (1.0 / p) * s))
    q = float(q)
    if q < 1.0:
        raise ValueError(f"lorentz_norm requires q >= 1, got q={q}")
    # exponent q/p - 1 is exactly 0.0 when q == p, so the l_p diagonal is
    # reproduced without rounding from the n^(1/p) factor
    e = q / p - 1.0
    return float(np.sum(s**q * n**e) ** (1.0 / q))


def gweak_norm(x, g):
    """Weak norm sup_n g(n) x*_n for a growth sequence g with g(1) = 1."""
    s = _support(x)
    if s.size == 0:
        return 0.0
    n = np.arange(1, s.size + 1)
    return float(np.max(g(n) * s))
