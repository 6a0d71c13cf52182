"""Rearrangements and Lorentz / weak-gauge sequence norms.

All norms here act on finitely supported real or complex vectors and are
invariant under permutations and sign changes; they only see the
non-increasing rearrangement of the absolute values. The norm formulas
live in the row kernels of spaces.SeqSpace; the norms here are one-row
calls of them.
"""

import numpy as np

__all__ = ["rearrange", "as_row", "lorentz_norm", "gweak_norm"]


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


def as_row(x, g=None):
    """x as a one-row block for the row kernels of spaces.SeqSpace. A
    growth table g is never extrapolated, and a norm graded by it sees
    only the support of x, so an x longer than the table loses its
    zeros: they add nothing to a max or a sum."""
    row = np.asarray(x).reshape(1, -1)
    if g is not None and g.max_n is not None and row.shape[1] > g.max_n:
        row = row[:, row[0] != 0]
    return row


def lorentz_norm(x, p, q):
    """Two-parameter Lorentz norm of a finitely supported vector.

    For finite q this is (sum_n (n^(1/p) x*_n)^q / n)^(1/q); for q = inf
    it is sup_n n^(1/p) x*_n, where x* is the non-increasing
    rearrangement. The q = p diagonal coincides with the plain l_p norm.
    The value is the norm of spaces.lorentz(p, q), bit for bit.
    """
    from .spaces import lorentz  # spaces imports this module

    p, q = float(p), float(q)
    if p < 1.0:
        raise ValueError(f"lorentz_norm requires p >= 1, got p={p}")
    if q < 1.0:
        raise ValueError(f"lorentz_norm requires q >= 1, got q={q}")
    return lorentz(p, q).norm(x)


def gweak_norm(x, g):
    """Weak norm sup_n g(n) x*_n for a growth sequence g with g(1) = 1;
    the norm of spaces.gweak(g), bit for bit."""
    from .spaces import gweak  # spaces imports this module

    return gweak(g).norm(x)
