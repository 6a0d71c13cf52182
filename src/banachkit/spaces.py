"""Symmetric sequence-space families and finite-dimensional norm oracles.

Three rearrangement-invariant families cover everything the toolkit
needs: the classical l_p scale, the two-parameter Lorentz scale, and the
weak spaces graded by a growth sequence. A NormedSpace fixes a dimension
on top of a family; a SubspaceSpace composes a basis matrix with an
ambient norm.

The l_{p,inf} and weak families are quasi-norms and are flagged as such
with an explicit quasi-triangle constant.

The exact routes of linmaps and snumbers dispatch on the capability
properties of a space (is_euclidean, is_l1, is_linf, has_exact_dual),
never on family strings; a SubspaceSpace has none of them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .growth import GrowthSequence
from .sequences import _abs, gweak_norm, lorentz_norm, rearrange

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
        if self.family == "lp":
            a = _abs(x)
            if self.p == math.inf:
                return float(np.max(a)) if a.size else 0.0
            return float(np.sum(a**self.p) ** (1.0 / self.p))
        if self.family == "lorentz":
            return lorentz_norm(x, self.p, self.q)
        return gweak_norm(x, self.g)

    def norm_rows(self, m):
        """Vectorized norm of every row of a 2-d array.

        m is never written. The call works in one fresh float64 array,
        |m|, which it raises to the power, sorts and weights in place; the
        results equal those of the out-of-place expressions it replaces
        (np.abs(m).astype(float), -np.sort(-m), s**q * w) bit for bit on
        float input; bool and integer blocks are cast before abs.
        """
        return self._norm_rows(m, owned=False)

    def _norm_rows(self, m, owned, weights=None):
        """norm_rows, in m itself if m is owned (see sequences._abs); weights
        are _weights(m.shape[1]), computed here when not given."""
        if self.family == "lp":
            a = _abs(m, owned)
            if self.p == math.inf:
                return np.max(a, axis=1)
            if self.p != 1.0:
                # **= dispatches on the scalar exponent as ** does (square
                # for 2), so the powers match m**p on any numpy
                a **= self.p
            return np.sum(a, axis=1) ** (1.0 / self.p)
        a = _descending_rows(m, owned)
        if weights is None:
            weights = self._weights(a.shape[1])
        if self.family == "lorentz" and self.q != math.inf:
            a **= self.q
            a *= weights
            return np.sum(a, axis=1) ** (1.0 / self.q)
        a *= weights
        return np.max(a, axis=1)

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

    def quasi_constant(self, n):
        """Quasi-triangle constant valid on vectors of length <= n."""
        if not self.is_quasi:
            return 1.0
        if self.family == "lorentz":
            return 2.0 ** (1.0 / self.p)
        # (x+y)*_{2m} <= x*_m + y*_m, then the doubling constant of g
        ks = np.arange(1, n + 1)
        s2 = float(np.max(self.g(2 * ks) / self.g(ks))) if self.g.max_n is None or self.g.max_n >= 2 * n else 2.0
        return s2

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
        """Exact dual-norm value where a closed form exists
        (has_exact_dual), else None.

        l_p duals are l_{p'}; for the weak families the dual pairing is
        maximized by aligning the rearrangement of y against the extreme
        profile 1/g(k), giving sum_k y*_k / g(k) exactly.
        """
        if not self.has_exact_dual:
            return None
        y = np.asarray(y, dtype=float)
        if self.family == "lp":
            return SeqSpace("lp", p=_conjugate(self.p)).norm(y)
        s = rearrange(y)
        s = s[s > 0]
        if s.size == 0:
            return 0.0
        ks = np.arange(1, s.size + 1)
        if self.family == "lorentz":
            return float(np.sum(s * ks ** (-1.0 / self.p)))
        return float(np.sum(s / self.g(ks)))

    def dual_upper(self, y):
        """Certified upper bound on the dual norm of y (exact where a
        closed form exists; the l_{p',q'} Lorentz norm otherwise)."""
        exact = self.dual_exact(y)
        if exact is not None:
            return exact
        # lorentz with finite q: Hardy-Littlewood plus Hoelder in the
        # weighted l_q pairing gives <x,y> <= ||x||_{p,q} ||y||_{p',q'}
        return lorentz_norm(y, _conjugate(self.p), _conjugate(self.q))

    def dual_upper_rows(self, m):
        """dual_upper of every row of a 2-d array, up to rounding."""
        m = np.asarray(m, dtype=float)
        if self.family == "lp":
            return SeqSpace("lp", p=_conjugate(self.p)).norm_rows(m)
        if self.family == "lorentz" and self.q != math.inf:
            return SeqSpace("lorentz", p=_conjugate(self.p), q=_conjugate(self.q)).norm_rows(m)
        # the closed forms of dual_exact: the rearrangement against the
        # extreme profile k^(-1/p) or 1/g(k)
        a = _descending_rows(m)
        ks = np.arange(1, m.shape[1] + 1)
        a *= ks ** (-1.0 / self.p) if self.family == "lorentz" else 1.0 / self.g(ks)
        return np.sum(a, axis=1)


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


class NormedSpace:
    """A sequence-space family pinned to a fixed dimension."""

    def __init__(self, space, dim):
        self.space = space
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if space.family == "gweak" and space.g.max_n is not None and space.g.max_n < self.dim:
            raise ValueError("growth table shorter than the space dimension")

    def _check(self, x):
        x = np.asarray(x)
        if x.shape[-1] != self.dim:
            raise ValueError(f"vector of length {x.shape[-1]} in a {self.dim}-dimensional space")
        return x

    def norm(self, x):
        return self.space.norm(self._check(x))

    def norm_rows(self, m):
        return self.space.norm_rows(self._check(m))

    def _row_kernel(self):
        """norm_rows as a function of an owned float64 (k, dim) array, which
        it works in. The weights are computed now, so the function calls no
        method of a space or a growth sequence: any thread may run it."""
        weights = self.space._weights(self.dim)
        return lambda m: self.space._norm_rows(m, True, weights)

    @property
    def row_width(self):
        """Widest row a norm_rows call forms: the rows it is given."""
        return self.dim

    @property
    def is_euclidean(self):
        return (self.space.family == "lp" and self.space.p == 2.0) or (
            self.space.family == "lorentz" and self.space.p == 2.0 and self.space.q == 2.0
        )

    @property
    def is_l1(self):
        """True for l_1^n, whose unit ball is the convex hull of the signed
        coordinate vectors."""
        return self.space.family == "lp" and self.space.p == 1.0

    @property
    def is_linf(self):
        """True for l_inf^n, whose unit ball is the sign cube and whose
        norm is the largest coordinate modulus."""
        return self.space.family == "lp" and self.space.p == math.inf

    @property
    def is_quasi(self):
        return self.space.is_quasi

    @property
    def has_exact_dual(self):
        return self.space.has_exact_dual

    def quasi_constant(self):
        return self.space.quasi_constant(self.dim)

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

    def dual_exact(self, y):
        return self.space.dual_exact(self._check(y))

    def dual_upper(self, y):
        return self.space.dual_upper(self._check(y))

    def dual_upper_rows(self, m):
        return self.space.dual_upper_rows(self._check(m))

    def describe(self):
        return f"{self.space.describe()}:{self.dim}"

    def __eq__(self, other):
        return isinstance(other, NormedSpace) and self.describe() == other.describe()

    def __repr__(self):
        return f"NormedSpace({self.describe()})"


class SubspaceSpace:
    """Subspace of an ambient space given by a basis matrix.

    Coordinates live in R^dim; the norm of c is the ambient norm of
    basis @ c. Rearrangement structure is lost, so only the plain norm
    oracle and the Euclidean comparison constants are available.
    """

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

    def norm(self, x):
        return self.ambient.norm(self.basis @ np.asarray(x, dtype=float))

    def norm_rows(self, m):
        return self._row_kernel()(np.asarray(m, dtype=float))

    def _row_kernel(self):
        """norm_rows of a float64 (k, dim) array as a function of it (see
        NormedSpace._row_kernel); a subspace may be the ambient space of
        another."""
        ambient, basis_t = self.ambient._row_kernel(), self.basis.T
        # the fresh product is owned: the ambient kernel works in it
        return lambda m: ambient(m @ basis_t)

    @property
    def row_width(self):
        """Widest row a norm_rows call forms: rows mapped into the ambient
        space, which may be far wider than the subspace."""
        return max(self.dim, self.ambient.row_width)

    @property
    def is_euclidean(self):
        return False

    @property
    def is_l1(self):
        return False

    @property
    def is_linf(self):
        return False

    @property
    def is_quasi(self):
        return self.ambient.is_quasi

    @property
    def has_exact_dual(self):
        return False

    def le_euclid(self):
        return self.ambient.le_euclid() * self._smax

    def ge_euclid(self):
        return self.ambient.ge_euclid() / self._smin

    def dual_exact(self, y):
        return None

    def dual_upper(self, y):
        # <c, y> <= ||c||_2 ||y||_2 <= ge_euclid ||c||_X ||y||_2
        return self.ge_euclid() * float(np.linalg.norm(y))

    def dual_upper_rows(self, m):
        return self.ge_euclid() * np.linalg.norm(m, axis=1)

    def describe(self):
        return f"sub:{self.dim}<{self.ambient.describe()}"

    def __repr__(self):
        return f"SubspaceSpace({self.describe()})"


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
