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
chunk draws its weights block by block, so peak memory is a few blocks,
whatever the dimension. The blocks of a large enumeration or table, and
the chunks of a large Monte Carlo average, run on the calling thread and
one pool thread (see _fan_out), with the same results bit for bit.
"""

import math
import os
import threading
from collections import deque

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


#: blocks of entries a job must hold before it is spread over threads;
#: smaller jobs gained no time from a second thread and paid its memory
_FAN_OUT = 4


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: threads a fanned-out job runs on: the calling thread and at most one
#: pool thread. Each holds a working array of up to two blocks, so a job
#: holds at most four.
_WORKERS = min(2, _cpus())

_pool = None
_pool_lock = threading.Lock()


def _pool_thread():
    """The one pool thread, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here, not with the package: it adds to every start-up
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="banachkit")
        return _pool


def _forget_pool():
    """In a forked child, which has no pool thread, only the executor."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _fan_out(job, count, scratch):
    """[job(i, s) for i in range(count)] with s one of scratch, whose
    length is the thread count: the calling thread works with scratch[0]
    and the pool thread with scratch[1], each taking the next i when it
    is free. The results keep the order of i. An exception in either
    thread stops the handing out and is raised here once both stopped."""
    if len(scratch) == 1:
        return [job(i, scratch[0]) for i in range(count)]
    results = [None] * count
    todo = deque(range(count))

    def run(s):
        try:
            while True:
                try:
                    i = todo.popleft()  # deque pops are atomic
                except IndexError:
                    return
                results[i] = job(i, s)
        except BaseException:
            todo.clear()
            raise

    future = _pool_thread().submit(run, scratch[1])
    try:
        run(scratch[0])
    finally:
        error = future.exception()  # waits for the pool thread
    if error is not None:
        raise error
    return results


def _spans(m, rows):
    """(start, stop) of blocks of `rows` rows over m rows; a one-row tail
    joins the block before it."""
    starts = list(range(0, m, rows))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [m]))


def _keep(buf):
    """buf itself: the prepare of a table or a draw, which share nothing
    between blocks, and the reduce of sign_norms' one chunk."""
    return buf


def _pattern_fill(n, rows, scale):
    """(spans, prepare, fill) of the table sign_patterns(n) * scale (scale
    None: the signs), `rows` (a power of two) rows at a time, without the
    table; see _weight_fill. With blocks of 2^b rows, the last b columns
    are the same in every block (those of sign_patterns(b + 1) past its
    first), and prepare writes them; the first n - b columns of block t
    are constants, which fill sets: column j holds 1 - 2 * bit
    (n - b - 1 - j) of t. A table that fits in one block is that block.
    A sign times scale[j] is exact, so the blocks equal the rows of the
    scaled table bit for bit."""
    if n > ENUM_CAP:
        raise ValueError(f"sign enumeration capped at {ENUM_CAP} vectors")
    m = 2 ** (n - 1)
    if m <= rows:
        table = sign_patterns(n) if scale is None else sign_patterns(n) * scale

        def prepare(buf):
            buf[:m] = table

        return [(0, m)], prepare, lambda start, stop, buf: buf[:m]
    b = rows.bit_length() - 1
    tail = sign_patterns(b + 1)[:, 1:]
    shifts = np.arange(n - b - 1, -1, -1)

    def prepare(buf):
        if scale is None:
            buf[:rows, n - b:] = tail
        else:
            np.multiply(tail, scale[n - b:], out=buf[:rows, n - b:])

    def fill(start, stop, buf):
        block = buf[:stop - start]
        head = 1 - 2 * ((start >> b >> shifts) & 1)
        block[:, :n - b] = head if scale is None else head * scale[:n - b]
        return block

    return [(start, start + rows) for start in range(0, m, rows)], prepare, fill


def _weight_fill(signs, m, rows, scale):
    """(spans, prepare, fill) of the weight table W that signs gives (see
    sign_norms): spans lists the (start, stop) rows of its blocks;
    prepare(buf), run on the calling thread, writes into a working
    buffer what every block shares; fill(start, stop, buf)
    returns that block of W, written into buf unless it is a view of W."""
    if isinstance(signs, (int, np.integer)):
        return _pattern_fill(int(signs), rows, scale)
    if callable(signs):
        def fill(start, stop, buf):
            signs(buf[:stop - start])
            return buf[:stop - start]
    else:
        def fill(start, stop, buf):
            block = signs[start:stop]
            if block.dtype != np.float64:
                # numpy multiplies a mixed int8 x float pair several times
                # slower than two float arrays
                buf[:stop - start] = block
                block = buf[:stop - start]
            return block
    return _spans(m, rows), _keep, fill


class _Blocks:
    """The blocks of sign_norms on an (n, dim) configuration (see
    sign_norms): the widest row formed, the rows per block (the largest
    power of two whose widest array fits in SIGN_BLOCK entries), the
    row-norm kernel and working arrays. They are made on the calling
    thread; norms then calls no function of the package that is not
    private, so any thread may run it."""

    def __init__(self, config, space):
        n, dim = config.shape[-2:]
        self.width = max(n, dim, space.row_width)
        self.rows = 1 << (max(1, SIGN_BLOCK // self.width).bit_length() - 1)
        self.config = config
        self.kernel = space._row_kernel()

    def threads(self, m):
        """Threads for a job of m rows of weights: _WORKERS from _FAN_OUT
        blocks of entries on, else one."""
        return _WORKERS if m * self.width >= _FAN_OUT * SIGN_BLOCK else 1

    def work(self, m):
        """A working array for the blocks of a table of m rows, as the
        weight buffer and the product buffer."""
        n, dim = self.config.shape[-2:]
        k = min(m, self.rows + 1)  # rows of the tallest block: a joined tail adds one
        work = np.empty(k * (n + dim))
        return work[:k * n].reshape(k, n), work[k * n:]

    def norms(self, fill, start, stop, work):
        """The row norms of rows start:stop of W @ config, with fill writing
        the weight block into work (see _weight_fill)."""
        buf, prod = work
        dim = self.config.shape[-1]
        block = fill(start, stop, buf)
        return self.kernel(np.matmul(block, self.config,
                                     out=prod[:(stop - start) * dim].reshape(-1, dim)))


def _blockwise(plan, signs, m, scale, each):
    """[each(start, stop, norms) for every block of sign_norms(signs,
    plan.config, space)], with norms the row norms of rows start:stop of
    W @ config (m rows), for an int or a table. The blocks run on
    plan.threads(m) threads (see _fan_out); each may run on either."""
    spans, prepare, fill = _weight_fill(signs, m, plan.rows, scale)
    works = [plan.work(m) for _ in range(plan.threads(m))]
    for buf, _ in works:
        prepare(buf)
    return _fan_out(lambda i, work: each(*spans[i], plan.norms(fill, *spans[i], work)),
                    len(spans), works)


def _all_norms(plan, signs, m, scale, out):
    """The m norms of _blockwise, written into out."""
    def keep(start, stop, norms):
        out[start:stop] = norms

    _blockwise(plan, signs, m, scale, keep)
    return out


def _sign_sum(n, config, space, f):
    """np.sum(f(sign_norms(n, config, space))) bit for bit, for an f that
    works elementwise in place (f runs on any thread).

    numpy sums a float64 vector pairwise, halving it down to runs of 128
    entries. Blocks of a power of two rows, at least 128, are whole
    subtrees of that sum, so a job spread over threads sums each block
    and adds the sums pairwise, without the vector of 2^(n-1) norms.
    """
    plan = _Blocks(config, space)
    m = 2 ** (n - 1)
    if plan.rows < 128 or plan.threads(m) == 1:
        return np.sum(f(_all_norms(plan, n, m, None, np.empty(m))))
    sums = np.array(_blockwise(plan, n, m, None, lambda start, stop, norms: np.sum(f(norms))))
    while sums.size > 1:
        sums = sums[0::2] + sums[1::2]
    return sums[0]


def _chunk_norms(draws, counts, config, space, reduce):
    """[reduce(sign_norms(draw, config, space, count)) for each draw and
    count], bit for bit, reduce working in place on any thread. Two or
    more chunks run on plan.threads(rows in all) threads (see _fan_out),
    each thread drawing the chunks it takes block by block in order."""
    plan = _Blocks(config, space)
    fills = [_weight_fill(draw, m, plan.rows, None) for draw, m in zip(draws, counts)]
    threads = plan.threads(sum(counts)) if len(counts) > 1 else 1
    longest = max(counts)
    scratch = [(plan.work(longest), np.empty(longest)) for _ in range(threads)]

    def chunk(i, scratch):
        work, out = scratch
        spans, _, fill = fills[i]
        for start, stop in spans:
            out[start:stop] = plan.norms(fill, start, stop, work)
        return reduce(out[:counts[i]])

    return _fan_out(chunk, len(counts), scratch)


def sign_norms(signs, config, space, count=None, *, scale=None):
    """space.norm_rows(W @ config) for a weight table W, in row blocks.

    signs gives W in one of three ways:
      - an int n: the table sign_patterns(n), or sign_patterns(n) * scale
        given a length-n scale, written block by block and never built
        whole (see _pattern_fill); sign_pattern(n, i) rebuilds row i,
        such as the row of a maximum;
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
    ambient space). The rows per block are a power of two, which splits
    a sign table into equal blocks; a one-row tail joins the block before
    it, since numpy hands a one-row product to gemv, which rounds
    differently from gemm. Up to a few hundred coordinates the row norms
    then equal those of the one-shot product bit for bit; past that BLAS
    may round a block in another order. A stack is multiplied whole
    tables at a time, as many configurations per block as fit; once one
    table fills a block, each configuration takes the one-configuration
    path. A stack so gives the norms of its configurations one by one,
    bit for bit within the same limit.

    An int or a table of at least four blocks of entries runs on two
    threads, the calling thread and one pool thread, where the process
    may use two CPUs; there is no setting for it. Each block keeps its
    rows and its place, so the norms are those of one thread bit for
    bit. Each thread works in one working array, for the weight block
    and the product, allocated on the calling thread and reused for
    every block it takes: blocks of this size taken afresh each time
    went back to the operating system between uses and faulted their
    pages in again. The space works in each product in place. So peak
    memory is a few blocks, whatever the dimension.
    """
    whole = isinstance(signs, (int, np.integer))
    m = count if callable(signs) else 2 ** (signs - 1) if whole else signs.shape[0]
    if config.ndim == 3:
        return _stack_norms(signs, config, space, m, scale)
    if callable(signs):
        return _chunk_norms([signs], [m], config, space, _keep)[0]
    return _all_norms(_Blocks(config, space), signs, m, scale, np.empty(m))


def _stack_norms(signs, config, space, m, scale):
    """sign_norms of a (k, n, dim) stack of configurations."""
    out = np.empty((config.shape[0], m))
    plan = _Blocks(config, space)
    if m >= plan.rows:
        for i, c in enumerate(config):
            _all_norms(_Blocks(c, space), signs, m, scale, out[i])
        return out
    step = plan.rows // m
    dim = config.shape[-1]
    if isinstance(signs, (int, np.integer)):
        signs = sign_patterns(signs) if scale is None else sign_patterns(signs) * scale
    table = np.asarray(signs, dtype=float)
    prod = np.empty((min(step, config.shape[0]), m, dim))
    for start in range(0, config.shape[0], step):
        part = config[start:start + step]
        block = np.matmul(table, part, out=prod[:len(part)])
        out[start:start + step] = plan.kernel(block.reshape(-1, dim)).reshape(-1, m)
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
