"""Symmetric sequence-space families and finite-dimensional norm oracles.

Three rearrangement-invariant families cover everything the toolkit
needs: the classical l_p scale, the two-parameter Lorentz scale, and the
weak spaces graded by a growth sequence. A NormedSpace fixes a dimension
on top of a family; a SubspaceSpace composes a basis matrix with an
ambient norm.

The l_{p,inf} and weak families are quasi-norms and are flagged as such
(is_quasi).

The exact routes of linmaps and snumbers dispatch on the capability
flags of a space (is_euclidean, is_l1, is_linf, has_exact_dual), never
on family strings. The two dimensioned spaces share one private base,
which holds the flags' defaults (all False: a SubspaceSpace has none of
them, a NormedSpace sets its own once) and the scalar forms, one-row
calls of the row kernels.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .growth import GrowthSequence
from .sequences import _abs, as_row

__all__ = [
    "SeqSpace",
    "lp",
    "lorentz",
    "gweak",
    "NormedSpace",
    "SubspaceSpace",
    "fundamental_function",
    "cotype_index",
    "parse_space",
    "parse_family",
    "DescriptorError",
]


def _conjugate(p):
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _descending_rows(m, owned=False):
    """|m| with every row in non-increasing order, as a float64 array
    sorted in place (m itself when owned, see sequences._abs)."""
    a = _abs(m, owned)
    np.negative(a, out=a)
    a.sort(axis=1)
    return np.negative(a, out=a)


@dataclass(frozen=True)
class SeqSpace:
    """Dimension-free descriptor of a symmetric sequence-space family."""

    family: str  # "lp" | "lorentz" | "gweak"
    p: float | None = None
    q: float | None = None
    g: GrowthSequence | None = None

    def __post_init__(self):
        if self.family == "lp":
            if self.p is None or self.p < 1:
                raise ValueError("lp family needs p >= 1")
        elif self.family == "lorentz":
            if self.p is None or self.p < 1 or self.q is None or (self.q != math.inf and self.q < 1):
                raise ValueError("lorentz family needs p >= 1 and q >= 1 (or inf)")
        elif self.family == "gweak":
            if self.g is None:
                raise ValueError("gweak family needs a growth sequence")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    # -- norm evaluation ------------------------------------------------

    def norm(self, x):
        """norm_rows of x as one row, bit for bit; 0.0 for an empty x."""
        x = as_row(x, self.g)
        return float(self._norm_rows(x, owned=False)[0]) if x.size else 0.0

    def norm_rows(self, m):
        """Vectorized norm of every row of a 2-d array; the one place the
        norm formulas live (norm is a one-row call of it).

        m is never written. The call works in one fresh float64 array,
        |m|, which it raises to the power, sorts and weights in place;
        bool and integer blocks are cast to float64 before abs.
        """
        return self._norm_rows(m, owned=False)

    def _norm_rows(self, m, owned, weights=None):
        """norm_rows, in m itself if m is owned (see sequences._abs); weights
        are _weights(m.shape[1]), computed here when not given."""
        # the ufunc reductions are those np.sum and np.max call, without
        # their Python wrappers: the same loops, so the same bits
        if self.family == "lp":
            a = _abs(m, owned)
            if self.p == math.inf:
                return np.maximum.reduce(a, axis=1)
            if self.p != 1.0:
                # **= dispatches on the scalar exponent as ** does (square
                # for 2), so the powers match m**p on any numpy
                a **= self.p
            return np.add.reduce(a, axis=1) ** (1.0 / self.p)
        a = _descending_rows(m, owned)
        if weights is None:
            weights = self._weights(a.shape[1])
        if self.family == "lorentz" and self.q != math.inf:
            a **= self.q
            a *= weights
            return np.add.reduce(a, axis=1) ** (1.0 / self.q)
        a *= weights
        return np.maximum.reduce(a, axis=1)

    def _weights(self, width):
        """What norm_rows multiplies descending rows of `width` entries by:
        n^(q/p - 1), n^(1/p) or g(n) at n = 1..width; None for l_p."""
        if self.family == "lp":
            return None
        n = np.arange(1, width + 1, dtype=float)
        if self.family == "gweak":
            return self.g(n)
        return n ** (1.0 / self.p if self.q == math.inf else self.q / self.p - 1.0)

    # -- structural data -------------------------------------------------

    @property
    def is_quasi(self):
        """True for the weak families, whose triangle inequality only
        holds up to a constant."""
        return self.family == "gweak" or (self.family == "lorentz" and self.q == math.inf)

    def fundamental(self, n):
        """Norm of the n-term constant-one sequence."""
        n = int(n)
        if n < 1:
            raise ValueError("fundamental function needs n >= 1")
        if self.family == "lp":
            return float(n ** (1.0 / self.p))
        if self.family == "lorentz":
            if self.q == math.inf:
                return float(n ** (1.0 / self.p))
            ks = np.arange(1, n + 1, dtype=float)
            return float(np.sum(ks ** (self.q / self.p - 1.0)) ** (1.0 / self.q))
        return float(self.g(n))

    def describe(self):
        if self.family == "lp":
            return f"lp:{self.p:g}"
        if self.family == "lorentz":
            return f"lorentz:{self.p:g}:{self.q:g}"
        return f"gweak:{self.g.label}"

    # -- duality ----------------------------------------------------------

    @property
    def has_exact_dual(self):
        """True where dual_exact has a closed form: l_p, lorentz:p:inf
        and the gweak family."""
        return self.family != "lorentz" or self.q == math.inf

    def dual_exact(self, y):
        """dual_upper(y) where it is the exact dual norm (has_exact_dual),
        else None."""
        return self.dual_upper(y) if self.has_exact_dual else None

    def dual_upper(self, y):
        """dual_upper_rows of y as one row, bit for bit; 0.0 for an empty y."""
        y = as_row(y, self.g)
        return float(self.dual_upper_rows(y)[0]) if y.size else 0.0

    def dual_upper_rows(self, m):
        """Certified upper bound on the dual norm of every row of a 2-d
        array, exact where has_exact_dual: l_p duals are l_{p'}; for the
        weak families, the rearrangement against the extreme profile
        k^(-1/p) or 1/g(k). For lorentz with finite q, Hardy-Littlewood
        plus Hoelder give <x,y> <= ||x||_{p,q} ||y||_{p',q'}."""
        m = np.asarray(m, dtype=float)
        return self._dual_upper_rows(m, self._dual_weights(m.shape[1]))

    def _dual_upper_rows(self, m, weights):
        """dual_upper_rows of a float64 m, which is not written, with
        weights _dual_weights(m.shape[1])."""
        if self._dual is not None:
            return self._dual._norm_rows(m, False, weights)
        a = _descending_rows(m)
        a *= weights
        return np.add.reduce(a, axis=1)

    @cached_property
    def _dual(self):
        """The space whose norm dual_upper_rows takes: l_{p'} for l_p and
        l_{p',q'} for lorentz:p:q with finite q; None for the weak families."""
        if self.family == "lp":
            return SeqSpace("lp", p=_conjugate(self.p))
        if self.family == "lorentz" and self.q != math.inf:
            return SeqSpace("lorentz", p=_conjugate(self.p), q=_conjugate(self.q))
        return None

    def _dual_weights(self, width):
        """What dual_upper_rows multiplies descending rows of `width` entries
        by: the _weights of _dual, else k^(-1/p) or 1/g(k) at k = 1..width."""
        if self._dual is not None:
            return self._dual._weights(width)
        ks = np.arange(1, width + 1)
        return ks ** (-1.0 / self.p) if self.family == "lorentz" else 1.0 / self.g(ks)


def lp(p):
    return SeqSpace("lp", p=float(p))


def lorentz(p, q):
    return SeqSpace("lorentz", p=float(p), q=float(q))


def gweak(g):
    return SeqSpace("gweak", g=g)


def fundamental_function(space, n):
    return space.fundamental(n)


def cotype_index(space, n_max):
    """Finite-range surrogate for the cotype index of a family.

    Returns sup over 2 <= n <= n_max of log n / log f(n); infinity when
    the fundamental function never rises above 1 on the range. The true
    index is an infimum over all n, so this is only an estimate on the
    stated range.
    """
    n_max = int(n_max)
    if n_max < 2:
        raise ValueError("cotype_index needs n_max >= 2")
    best = 0.0
    seen = False
    for n in range(2, n_max + 1):
        f = space.fundamental(n)
        if f > 1.0 + 1e-12:
            best = max(best, math.log(n) / math.log(f))
            seen = True
    return best if seen else math.inf


class _Dimensioned:
    """What the dimensioned spaces share: no capability unless a class or
    an instance sets one, and the scalar forms as one-row calls of the
    row kernels."""

    is_euclidean = is_l1 = is_linf = has_exact_dual = False

    def norm(self, x):
        return float(self.norm_rows(np.reshape(x, (1, -1)))[0])

    def dual_upper(self, y):
        return float(self.dual_upper_rows(np.reshape(y, (1, -1)))[0])

    def dual_exact(self, y):
        """dual_upper(y) where it is the exact dual norm (has_exact_dual),
        else None."""
        return self.dual_upper(y) if self.has_exact_dual else None

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"


class NormedSpace(_Dimensioned):
    """A sequence-space family pinned to a fixed dimension."""

    #: each row of a norm_rows block equals its one-row call bit for bit
    _rows_alone = True

    def __init__(self, space, dim):
        self.space = space
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if space.family == "gweak" and space.g.max_n is not None and space.g.max_n < self.dim:
            raise ValueError("growth table shorter than the space dimension")
        # the weights of the row kernels at this width, computed once
        self._norm_weights = space._weights(self.dim)
        self._dual_weights = space._dual_weights(self.dim)
        family, p = space.family, space.p
        self.is_euclidean = p == 2.0 and (family == "lp"
                                          or family == "lorentz" and space.q == 2.0)
        # l_1^n: its unit ball is the convex hull of the signed coordinate vectors
        self.is_l1 = family == "lp" and p == 1.0
        # l_inf^n: its unit ball is the sign cube, its norm the largest modulus
        self.is_linf = family == "lp" and p == math.inf
        self.is_quasi = space.is_quasi
        self.has_exact_dual = space.has_exact_dual

    def _check(self, x):
        x = np.asarray(x)
        if x.shape[-1] != self.dim:
            raise ValueError(f"vector of length {x.shape[-1]} in a {self.dim}-dimensional space")
        return x

    def norm(self, x):
        # the family's scalar norm, the one norm span the benchmark's tracer counts
        return self.space.norm(self._check(x))

    def norm_rows(self, m):
        """The family's norm_rows, with the weights of this dimension."""
        return self.space._norm_rows(self._check(m), False, self._norm_weights)

    def _row_kernel(self):
        """norm_rows as a function of an owned float64 (k, dim) array, which
        it works in. It calls no method of a space or a growth sequence
        that is not private: any thread may run it."""
        return partial(self.space._norm_rows, owned=True, weights=self._norm_weights)

    @property
    def row_width(self):
        """Widest row a norm_rows call forms: the rows it is given."""
        return self.dim

    # comparison constants against the Euclidean norm on the same
    # coordinates; used to convert spectral data into certified bounds
    def le_euclid(self):
        """c with ||x||_X <= c ||x||_2 for all x."""
        if self.space.family == "lp":
            return float(self.dim ** max(0.0, 1.0 / self.space.p - 0.5))
        return self.space.fundamental(self.dim)

    def ge_euclid(self):
        """c with ||x||_2 <= c ||x||_X for all x."""
        if self.space.family == "lp":
            return float(self.dim ** max(0.0, 0.5 - 1.0 / self.space.p))
        # every family here dominates the sup norm
        return math.sqrt(self.dim)

    def dual_upper_rows(self, m):
        """The family's dual_upper_rows, with the weights of this dimension."""
        return self.space._dual_upper_rows(np.asarray(self._check(m), dtype=float),
                                           self._dual_weights)

    def describe(self):
        return f"{self.space.describe()}:{self.dim}"

    def __eq__(self, other):
        return isinstance(other, NormedSpace) and self.describe() == other.describe()


class SubspaceSpace(_Dimensioned):
    """Subspace of an ambient space given by a basis matrix.

    Coordinates live in R^dim; the norm of c is the ambient norm of
    basis @ c. Rearrangement structure is lost, so only the plain norm
    oracle and the Euclidean comparison constants are available.
    """

    #: a block is multiplied by the basis in one gemm, which may round a
    #: row apart from its one-row call (a gemv)
    _rows_alone = False

    def __init__(self, basis, ambient):
        self.basis = np.asarray(basis, dtype=float)
        if self.basis.ndim != 2 or self.basis.shape[0] != ambient.dim:
            raise ValueError("basis must be (ambient.dim x dim)")
        self.ambient = ambient
        self.dim = self.basis.shape[1]
        sv = np.linalg.svd(self.basis, compute_uv=False)
        if sv[-1] <= 1e-12:
            raise ValueError("basis matrix is (numerically) rank deficient")
        self._smax, self._smin = float(sv[0]), float(sv[-1])
        self._ambient_rows = ambient._row_kernel()  # built once, with the space
        self.is_quasi = ambient.is_quasi

    def norm_rows(self, m):
        return self._rows(np.asarray(m, dtype=float))

    def _rows(self, m):
        # the fresh product is owned: the ambient kernel works in it
        return self._ambient_rows(m @ self.basis.T)

    def _row_kernel(self):
        """norm_rows of a float64 (k, dim) array as a function of it (see
        NormedSpace._row_kernel); a subspace may be the ambient space of
        another."""
        return self._rows

    @property
    def row_width(self):
        """Widest row a norm_rows call forms: rows mapped into the ambient
        space, which may be far wider than the subspace."""
        return max(self.dim, self.ambient.row_width)

    def le_euclid(self):
        return self.ambient.le_euclid() * self._smax

    def ge_euclid(self):
        return self.ambient.ge_euclid() / self._smin

    def dual_upper_rows(self, m):
        # <c, y> <= ||c||_2 ||y||_2 <= ge_euclid ||c||_X ||y||_2
        return self.ge_euclid() * np.linalg.norm(m, axis=1)

    def describe(self):
        return f"sub:{self.dim}<{self.ambient.describe()}"


# -- descriptor grammar ----------------------------------------------------
#
#   lp:<p>:<n>   lorentz:<p>:<q>:<n>   gweak:pow:<a>:<n>   gweak:file:<path>:<n>
#
# The trailing dimension is optional wherever only the family is needed.


class DescriptorError(ValueError):
    def __init__(self, descriptor, token, why):
        self.token = token
        super().__init__(f"bad descriptor {descriptor!r}: token {token!r} ({why})")


def _parse_scalar(descriptor, token):
    if token in ("inf", "Inf", "INF"):
        return math.inf
    try:
        return float(token)
    except ValueError:
        raise DescriptorError(descriptor, token, "not a number") from None


def parse_family(descriptor):
    """Parse a family descriptor; returns (SeqSpace, dim-or-None)."""
    parts = descriptor.split(":")
    kind = parts[0]
    try:
        if kind == "lp" and len(parts) in (2, 3):
            space = lp(_parse_scalar(descriptor, parts[1]))
            dim = int(parts[2]) if len(parts) == 3 else None
        elif kind == "lorentz" and len(parts) in (3, 4):
            space = lorentz(
                _parse_scalar(descriptor, parts[1]), _parse_scalar(descriptor, parts[2])
            )
            dim = int(parts[3]) if len(parts) == 4 else None
        elif kind == "gweak" and len(parts) in (3, 4) and parts[1] == "pow":
            space = gweak(GrowthSequence.power(_parse_scalar(descriptor, parts[2])))
            dim = int(parts[3]) if len(parts) == 4 else None
        elif kind == "gweak" and len(parts) in (3, 4) and parts[1] == "file":
            space = gweak(GrowthSequence.from_file(parts[2]))
            dim = int(parts[3]) if len(parts) == 4 else None
        else:
            raise DescriptorError(descriptor, kind, "unknown family or wrong arity")
    except ValueError as exc:
        if isinstance(exc, DescriptorError):
            raise
        raise DescriptorError(descriptor, descriptor, str(exc)) from None
    return space, dim


def parse_space(descriptor):
    """Parse a descriptor that must carry a dimension."""
    space, dim = parse_family(descriptor)
    if dim is None:
        raise DescriptorError(descriptor, descriptor, "missing dimension suffix")
    return NormedSpace(space, dim)
