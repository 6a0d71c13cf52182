"""Dense linear maps between normed spaces and their operator data.

Operator norms are exact where a closed form exists (Euclidean to
Euclidean, out of l_1, into l_inf, out of a small l_inf cube) and are
otherwise reported as witnessed lower bounds with a companion upper
bound from Euclidean comparison constants; meta["route"] names the
route (see operator_norm). Out of a larger l_inf cube the lower bound
comes from single-flip ascent over the cube's vertices, everywhere else
from the sphere search of search.multistart_maximize. Both score whole
blocks of proposals through norm_rows; operator_norms climbs the cube
ascents of a stack of maps in lockstep.

Every sign enumeration and Monte Carlo average of the package goes
through sign_norms, which streams the product of a weight table and a
configuration in row blocks of at most SIGN_BLOCK entries. A sign
enumeration writes each block of patterns directly and a Monte Carlo
chunk draws its weights block by block, so peak memory is one block,
whatever the dimension.
"""

import math

import numpy as np

from .estimates import Estimate, EXACT, LOWER
from .search import child_seeds, multistart_maximize, split_budget

__all__ = ["LinearMap", "identity_map", "operator_norm", "operator_norms", "dual_norm",
           "weak_lq_functional", "ENUM_CAP", "sign_norms", "sign_pattern"]

#: sign patterns are enumerated exactly up to this many vectors
ENUM_CAP = 20

#: entries of signs @ config that sign_norms holds at once
SIGN_BLOCK = 1 << 18

#: entries per norm_rows block of the vertex ascent, which makes several
#: passes over each block: small enough to stay in cache
ASCENT_BLOCK = SIGN_BLOCK >> 3


def sign_patterns(n):
    """All sign vectors of length n with first entry +1 (global flip
    symmetry halves the enumeration), as a (2^(n-1), n) int8 array.

    The entries are exact in any dtype, so products and scalings of the
    table equal those of a float table bit for bit at an eighth of the
    memory. Column j alternates runs of 2^(n-1-j) plus and minus signs.
    """
    if n > ENUM_CAP:
        raise ValueError(f"sign enumeration capped at {ENUM_CAP} vectors")
    m = 2 ** (n - 1)
    out = np.empty((m, n), dtype=np.int8)
    out[:, 0] = 1
    for j in range(1, n):
        run = 2 ** (n - 1 - j)
        cols = out.reshape(m // (2 * run), 2, run, n)[..., j]
        cols[:, 0] = 1
        cols[:, 1] = -1
    return out


def sign_pattern(n, i):
    """Row i of sign_patterns(n) as a float array, without the table:
    entry j is 1 - 2 * bit (n - 1 - j) of i."""
    return 1.0 - 2.0 * ((i >> np.arange(n - 1, -1, -1)) & 1)


def _pattern_blocks(n, rows, buf):
    """The rows of sign_patterns(n), `rows` (a power of two) at a time,
    written into the float array buf, without the table. With rows = 2^b,
    the last b columns of a block are the same in every block (those of
    sign_patterns(b + 1) past its first), and its first n - b columns are
    constants, set from the block index t: column j holds
    1 - 2 * bit (n - b - 1 - j) of t. A table that fits in one block is
    that block."""
    if n > ENUM_CAP:
        raise ValueError(f"sign enumeration capped at {ENUM_CAP} vectors")
    m = 2 ** (n - 1)
    if m <= rows:
        buf[:m] = sign_patterns(n)
        yield buf[:m]
        return
    b = rows.bit_length() - 1
    block = buf[:rows]
    block[:, n - b:] = sign_patterns(b + 1)[:, 1:]
    shifts = np.arange(n - b - 1, -1, -1)
    for t in range(m // rows):
        block[:, :n - b] = 1 - 2 * ((t >> shifts) & 1)
        yield block


def _spans(m, rows):
    """(start, stop) of blocks of `rows` rows over m rows; a one-row tail
    joins the block before it."""
    starts = list(range(0, m, rows))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [m])


def _weight_blocks(signs, m, rows, buf):
    """(start, stop, block) over the rows of the weight table W that signs
    gives (see sign_norms); pattern and drawn blocks are written into buf."""
    if isinstance(signs, (int, np.integer)):
        for t, block in enumerate(_pattern_blocks(signs, rows, buf)):
            yield t * rows, t * rows + block.shape[0], block
        return
    for start, stop in _spans(m, rows):
        if callable(signs):
            block = buf[:stop - start]
            signs(block)
        else:
            # an explicit float block: numpy multiplies a mixed int8 x
            # float pair several times slower than two float arrays
            block = np.asarray(signs[start:stop], dtype=float)
        yield start, stop, block


def sign_norms(signs, config, space, count=None):
    """space.norm_rows(W @ config) for a weight table W, in row blocks.

    signs gives W in one of three ways:
      - an int n: the table sign_patterns(n), written block by block and
        never built whole (see _pattern_blocks); sign_pattern(n, i)
        rebuilds row i, such as the row of a maximum;
      - a 2-d array: W itself, such as a weighted sign table;
      - a callable draw(block) with a row count `count`: draw fills the
        (k, n) float array block with the next k rows of W, block after
        block in order, as a Monte Carlo chunk drawn from its own
        generator.

    config is one (n, dim) configuration, or a (k, n, dim) stack of them
    with an int or a table; a stack gives the (k, len(W)) norms of each
    configuration.

    Each block holds at most SIGN_BLOCK entries of the widest array
    formed on it: the block of weights, W @ config, or the rows
    space.norm_rows forms from that (a subspace maps them into its
    ambient space). So peak memory is one block, whatever the dimension.
    A call allocates one working array, for the weight block and the
    product, and reuses it for every block: blocks of this size taken
    afresh each time went back to the operating system between uses and
    faulted their pages in again. The space works in each product in
    place. The rows per block are a power
    of two, which splits a sign table into equal blocks; a one-row tail
    joins the block before it, since numpy hands a one-row product to
    gemv, which rounds differently from gemm. Up to a few hundred
    coordinates the row norms then equal those of the one-shot product
    bit for bit; past that BLAS may round a block in another order. A
    stack is multiplied whole tables at a time, as many configurations
    per block as fit; once one table fills a block, each configuration
    takes the one-configuration path. A stack so gives the norms of its
    configurations one by one, bit for bit within the same limit.
    """
    n, dim = config.shape[-2:]
    width = max(n, dim, space.row_width)
    rows = 1 << (max(1, SIGN_BLOCK // width).bit_length() - 1)
    whole = isinstance(signs, (int, np.integer))
    m = count if callable(signs) else 2 ** (signs - 1) if whole else signs.shape[0]
    if config.ndim == 3:
        out = np.empty((config.shape[0], m))
        if m >= rows:
            for i, c in enumerate(config):
                out[i] = sign_norms(signs, c, space, count)
            return out
        step = rows // m
        table = np.asarray(sign_patterns(signs) if whole else signs, dtype=float)
        prod = np.empty((min(step, config.shape[0]), m, dim))
        for start in range(0, config.shape[0], step):
            part = config[start:start + step]
            block = np.matmul(table, part, out=prod[:len(part)])
            out[start:start + step] = space._norm_rows(
                block.reshape(-1, dim), owned=True).reshape(-1, m)
        return out
    k = min(m, rows + 1)  # rows of the tallest block: a joined tail adds one
    work = np.empty(k * (n + dim))
    buf, prod = work[:k * n].reshape(k, n), work[k * n:]
    out = np.empty(m)
    for start, stop, block in _weight_blocks(signs, m, rows, buf):
        p = np.matmul(block, config, out=prod[:(stop - start) * dim].reshape(-1, dim))
        out[start:stop] = space._norm_rows(p, owned=True)
    return out


class LinearMap:
    """Dense matrix of shape (codomain.dim, domain.dim) between spaces."""

    def __init__(self, matrix, domain, codomain):
        self.matrix = np.asarray(matrix)
        self.domain = domain
        self.codomain = codomain
        if self.matrix.shape != (codomain.dim, domain.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{codomain.dim}x{domain.dim}"
            )

    def apply(self, x):
        return self.matrix @ np.asarray(x)

    def compose(self, other):
        """self after other."""
        if other.codomain.describe() != self.domain.describe():
            raise ValueError("composition spaces do not match")
        return LinearMap(self.matrix @ other.matrix, other.domain, self.codomain)

    @property
    def is_square(self):
        return self.matrix.shape[0] == self.matrix.shape[1]

    @property
    def is_euclidean(self):
        return self.domain.is_euclidean and self.codomain.is_euclidean

    def __repr__(self):
        return f"LinearMap({self.domain.describe()} -> {self.codomain.describe()})"


def identity_map(space):
    return LinearMap(np.eye(space.dim), space, space)


def norm_upper(T):
    """Certified upper bound on the operator norm via the Euclidean
    comparison constants of the two spaces."""
    smax = float(np.linalg.svd(T.matrix, compute_uv=False)[0]) if T.matrix.size else 0.0
    return T.codomain.le_euclid() * smax * T.domain.ge_euclid()


def _to_sphere(space, x):
    """x scaled onto the unit sphere of space; None for the zero vector."""
    nrm = space.norm(x)
    return None if nrm == 0.0 else x / nrm


def _on_sphere(space, f):
    """Batch evaluator for the search: f of the rows of X scaled onto the
    unit sphere of space, -inf where a row has norm zero (the rows that
    _to_sphere rejects)."""
    def rows(X):
        nrm = space.norm_rows(X)
        out = np.full(X.shape[0], -np.inf)
        ok = nrm != 0.0
        out[ok] = f(X[ok] / nrm[ok, None])
        return out
    return rows


def _vertex_ascents(A, cod, budget, seeds):
    """Best vertex of the sign cube for x -> cod.norm(A_i @ x), for each
    map of a (k, n, N) stack, by single-flip ascent; (value, witness) pairs.

    Starts of map i: the sign of the top right singular vector of A_i,
    the all-ones vector and split_budget(budget)[0] random sign vectors
    seeded from seeds[i]. Each step, every active start of every map
    scores all its flips y - 2 eps_j A_i[:, j] through norm_rows and takes
    the best if it gains more than a relative 1e-12, else stops; every
    norm_rows block holds at most ASCENT_BLOCK entries. The images
    E_i @ A_i.T are recomputed from the active starts, one stacked product
    per count of active starts, so each has the rows of the one-map ascent
    (numpy sends one row to gemv, which rounds unlike gemm) and each map
    climbs bit for bit as alone. The scalar norm re-reads the final
    vertices; the first maximum wins.
    """
    k, n, N = A.shape
    top = np.linalg.svd(A, full_matrices=False)[2][:, 0]
    E = np.ones((k, 2 + split_budget(budget)[0], N))
    E[:, 0] = np.where(top < 0, -1.0, 1.0)
    for i, seed in enumerate(seeds):
        for j, s in enumerate(child_seeds(seed, E.shape[1] - 2), 2):
            E[i, j] = np.where(np.random.default_rng(s).random(N) < 0.5, -1.0, 1.0)
    rows = max(1, ASCENT_BLOCK // max(n, cod.row_width))  # rows per block
    pairs, step = max(1, rows // N), min(N, rows)  # starts x flips per block
    Y = np.matmul(E, A.transpose(0, 2, 1))
    flat = Y.reshape(-1, n)
    score = np.concatenate([cod.norm_rows(flat[i:i + rows])
                            for i in range(0, len(flat), rows)]).reshape(k, -1)
    # row j of map i: what flipping entry j moves y by; C order keeps gathers contiguous
    flips = np.multiply(2.0, A.transpose(0, 2, 1), order="C")
    active = np.ones(score.shape, dtype=bool)
    while active.any():
        mi, si = np.nonzero(active)
        vals = np.empty((mi.size, N))
        for p in range(0, mi.size, pairs):
            m, t = mi[p:p + pairs], si[p:p + pairs]
            for j in range(0, N, step):
                block = flips[m, j:j + step]  # y - eps_j flips_j as -eps_j flips_j + y
                block *= -E[m, t, j:j + step, None]
                block += Y[m, t, None]
                vals[p:p + m.size, j:j + step] = cod.norm_rows(
                    block.reshape(-1, n)).reshape(m.size, -1)
        arg = np.argmax(vals, axis=1)
        best = vals[np.arange(mi.size), arg]
        gain = best > score[mi, si] * (1.0 + 1e-12)
        active[mi[~gain], si[~gain]] = False
        mi, si, arg = mi[gain], si[gain], arg[gain]
        score[mi, si] = best[gain]
        E[mi, si, arg] *= -1.0
        count = active.sum(axis=1)
        for r in np.unique(count[count > 0]):
            mi, si = np.nonzero(active & (count == r)[:, None])
            Y[mi, si] = np.matmul(E[mi, si].reshape(-1, r, N),
                                  A[mi[::r]].transpose(0, 2, 1)).reshape(-1, n)
    out = []
    for a, final in zip(A, E):
        values = [cod.norm(a @ e) for e in final]
        i = int(np.argmax(values))
        out.append((values[i], final[i].copy()))  # a witness does not hold the stack
    return out


def _vertex_ascent(A, cod, budget, seed):
    """_vertex_ascents of the one map A; returns (value, witness)."""
    return _vertex_ascents(np.asarray(A, dtype=float)[None], cod, budget, [seed])[0]


def operator_norm(T, budget=32, seed=0):
    """Operator norm of T, exact on the closed-form routes.

    meta["route"] names the route that produced the value:
      - "zero": the zero map, exact.
      - "svd": Euclidean to Euclidean, the largest singular value, exact.
      - "l1-columns": domain l_1, the largest column norm, exact.
      - "linf-rows": codomain l_inf and a domain with a closed-form dual
        norm, the largest dual norm of a row, exact.
      - "enumeration": domain l_inf with at most ENUM_CAP coordinates,
        every vertex of the cube, exact.
      - "vertex-ascent": a larger l_inf domain and a normed codomain,
        single-flip ascent over the cube's vertices (_vertex_ascent), a
        witnessed lower bound: a convex norm of A x peaks at a vertex.
      - "search": everything else, the sphere search of
        search.multistart_maximize, a witnessed lower bound. On a
        quasi-normed codomain an interior point can beat every vertex,
        so out of a large l_inf cube the best vertex of the ascent is one
        more start of the search.
    The lower routes carry the comparison-constant upper bound in
    meta["upper"].
    """
    A = np.asarray(T.matrix, dtype=float)
    if not np.any(A):
        return Estimate(0.0, EXACT, witness=None, budget=0, seed=seed,
                        meta={"route": "zero"})
    dom, cod = T.domain, T.codomain

    def exact(value, witness, route):
        return Estimate(float(value), EXACT, witness=witness, budget=0, seed=seed,
                        meta={"route": route})

    def lower(value, witness, route):
        return Estimate(float(value), LOWER, witness=witness, budget=budget, seed=seed,
                        meta={"upper": norm_upper(T), "route": route})

    if T.is_euclidean:
        u, s, vt = np.linalg.svd(A)
        return exact(s[0], vt[0], "svd")

    if dom.is_l1:
        vals = cod.norm_rows(A.T)
        j = int(np.argmax(vals))
        w = np.zeros(dom.dim)
        w[j] = 1.0
        return exact(vals[j], w, "l1-columns")

    if cod.is_linf and dom.has_exact_dual:
        duals = dom.dual_upper_rows(A)  # the closed forms of dual_exact, row-wise
        i = int(np.argmax(duals))
        return exact(duals[i], {"row": i}, "linf-rows")

    vertex = []
    if dom.is_linf:
        if dom.dim <= ENUM_CAP:
            vals = sign_norms(dom.dim, A.T, cod)
            i = int(np.argmax(vals))
            return exact(vals[i], sign_pattern(dom.dim, i), "enumeration")
        val, wit = _vertex_ascent(A, cod, budget, seed)
        if not cod.is_quasi:
            return lower(val, wit, "vertex-ascent")
        vertex = [wit]

    val, wit = multistart_maximize(
        lambda x: cod.norm(A @ x),
        shape=(dom.dim,),
        structured=[*np.eye(dom.dim), np.ones(dom.dim), *vertex],
        budget=budget,
        seed=seed,
        project=lambda x: _to_sphere(dom, x),
        rows=_on_sphere(dom, lambda U: cod.norm_rows(U @ A.T)),
    )
    return lower(val, wit, "search")


def operator_norms(matrices, domain, codomain, budget=32, *, seeds):
    """operator_norm of each map of a (k, n, N) stack with its own seed, bit
    for bit. On the vertex-ascent route (an l_inf domain past ENUM_CAP, a
    normed codomain other than l_inf, no zero map) the maps climb in one
    _vertex_ascents call and meta["upper"] takes one stacked svd, in
    norm_upper's order; every other route is a loop of operator_norm.
    """
    raw = np.asarray(matrices)
    maps = [LinearMap(M, domain, codomain) for M in raw]
    if len(seeds) != len(maps):
        raise ValueError(f"{len(seeds)} seeds for {len(maps)} maps")
    if not (maps and domain.is_linf and domain.dim > ENUM_CAP and not codomain.is_linf
            and not codomain.is_quasi and np.any(raw, axis=(1, 2)).all()):
        return [operator_norm(T, budget, seed) for T, seed in zip(maps, seeds)]
    # float64 before the products, as norm_upper's float() of each map's svd
    smax = np.linalg.svd(raw, compute_uv=False)[:, 0].astype(float)
    upper = codomain.le_euclid() * smax * domain.ge_euclid()
    ascents = _vertex_ascents(np.asarray(raw, dtype=float), codomain, budget, seeds)
    return [Estimate(float(v), LOWER, witness=w, budget=budget, seed=seed,
                     meta={"upper": float(u), "route": "vertex-ascent"})
            for (v, w), seed, u in zip(ascents, seeds, upper)]


def dual_norm(space, functional, budget=32, seed=0):
    """Dual-norm value of a functional against the space's unit ball.

    Exact (closed form) for the l_p scale and the weak families;
    otherwise a certified lower bound from a seeded search over the unit
    sphere, with the maximizing unit vector as witness. The certified
    upper bound from Lorentz duality rides along in meta["upper"].
    """
    y = np.asarray(functional, dtype=float)
    if y.shape != (space.dim,):
        raise ValueError(f"functional of length {y.size} in a {space.dim}-dimensional space")
    exact = space.dual_exact(y)
    if exact is not None:
        return Estimate(float(exact), EXACT, witness=None, budget=0, seed=seed)
    if not np.any(y):
        return Estimate(0.0, EXACT, witness=None, budget=0, seed=seed)

    # rearrangement-aligned profile: the extreme configuration for
    # rearrangement-invariant balls, plus coordinate and sign starts
    order = np.argsort(-np.abs(y))
    aligned = np.zeros(space.dim)
    aligned[order] = np.sign(y[order]) / np.arange(1, space.dim + 1)
    structured = [aligned, np.sign(y) + (y == 0), *np.eye(space.dim)]
    val, wit = multistart_maximize(
        lambda x: abs(float(x @ y)),
        shape=(space.dim,),
        structured=structured,
        budget=budget,
        seed=seed,
        project=lambda x: _to_sphere(space, x),
        rows=_on_sphere(space, lambda U: np.abs(U @ y)),
    )
    return Estimate(float(val), LOWER, witness=wit, budget=budget, seed=seed,
                    meta={"upper": space.dual_upper(y)})


def _weak_moment(config, x_star, q):
    a = np.abs(config @ x_star)
    if q == math.inf:
        return float(np.max(a))
    return float(np.sum(a**q) ** (1.0 / q))


def weak_lq_upper(config, space, q):
    """Certified upper bound on sup over the dual unit ball of the
    weak l_q moment of a configuration.

    config is one (n, dim) configuration, or a (k, n, dim) stack of
    them with one bound each. A stack takes its vector norms from
    norm_rows; one configuration takes them from norm, whose last bits
    set the witness normalization of the summing searches.
    """
    config = np.asarray(config, dtype=float)
    stacked = config.ndim == 3
    n, dim = config.shape[-2:]
    if stacked:
        norms = space.norm_rows(config.reshape(-1, dim)).reshape(-1, n)
    else:
        norms = np.array([space.norm(x) for x in config])
    if q == math.inf:
        bound = np.max(norms, axis=-1)
    else:
        bounds = [np.sum(norms**q, axis=-1) ** (1.0 / q)]
        if space.is_euclidean:
            smax = np.linalg.svd(config, compute_uv=False)[..., 0] \
                if stacked or np.any(config) else 0.0
            bounds.append(smax if q >= 2.0 else n ** (1.0 / q - 0.5) * smax)
        if n <= ENUM_CAP:
            # weak-1 moment equals the sign sup of the configuration, and
            # dominates every weak-q moment for q >= 1
            bounds.append(np.max(sign_norms(n, config, space), axis=-1))
        bound = np.min(bounds, axis=0)
    return bound if stacked else float(bound)


def weak_lq_functional(config, space, q, budget=32, seed=0):
    """sup over the dual unit ball of (sum_k |<x_k, x*>|^q)^(1/q).

    Exact for q = 1 with few vectors (sign enumeration through the
    bidual) and for q = 2 on Euclidean spaces (largest singular value);
    otherwise a witnessed lower bound with a certified upper bound in
    meta["upper"].
    """
    config = np.asarray(config, dtype=float)
    if config.ndim != 2:
        raise ValueError("config must be a (n_vectors, dim) array")
    n, dim = config.shape
    if dim != space.dim:
        raise ValueError("config dimension does not match the space")
    q = float(q)
    if q < 1.0:
        raise ValueError("weak moment needs q >= 1")
    if not np.any(config):
        return Estimate(0.0, EXACT, witness=None, budget=0, seed=seed)

    if q == 2.0 and space.is_euclidean:
        u, s, vt = np.linalg.svd(config)
        return Estimate(float(s[0]), EXACT, witness=vt[0], budget=0, seed=seed,
                        meta={"upper": float(s[0])})

    if q == 1.0 and n <= ENUM_CAP:
        vals = sign_norms(n, config, space)
        i = int(np.argmax(vals))
        v = float(vals[i])
        return Estimate(v, EXACT, witness={"signs": sign_pattern(n, i)}, budget=0,
                        seed=seed, meta={"upper": v})

    upper = weak_lq_upper(config, space, q)

    def project(z):
        du = space.dual_upper(z)
        return None if du == 0.0 else z / du

    def rows(Z):
        du = space.dual_upper_rows(Z)
        out = np.full(Z.shape[0], -np.inf)
        ok = du != 0.0
        a = np.abs((Z[ok] / du[ok, None]) @ config.T)
        out[ok] = np.max(a, axis=1) if q == math.inf else np.sum(a**q, axis=1) ** (1.0 / q)
        return out

    structured = list(np.eye(dim))
    structured.append(config.sum(axis=0))
    val, wit = multistart_maximize(
        lambda z: _weak_moment(config, z, q),
        shape=(dim,),
        structured=structured,
        budget=budget,
        seed=seed,
        project=project,
        rows=rows,
    )
    return Estimate(float(val), LOWER, witness=wit, budget=budget, seed=seed,
                    meta={"upper": upper})
