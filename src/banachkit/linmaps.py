"""Dense linear maps between normed spaces and their operator data.

Operator norms are exact where a closed form exists (Euclidean to
Euclidean, out of l_1, into l_inf, out of a small l_inf cube) and are
otherwise reported as witnessed lower bounds with a companion upper
bound from Euclidean comparison constants, rounded outward so that it
bounds the computed value too; meta["route"] names the route. The
routes are listed once, as the rows of _ROUTES. Out of a larger l_inf
cube the lower bound comes from single-flip ascent over the cube's
vertices, everywhere else from the sphere search of
search.multistart_maximize. Both score whole blocks of proposals
through norm_rows; into a Euclidean codomain the ascent first screens
its flips by inner products, and only the flips near the best reach
norm_rows (see _vertex_ascents). operator_norms takes a stack of maps
at once by the first row of _ROUTES that applies (the cube ascents
climb in lockstep); operator_norm is its one-map call.

Every sign enumeration and Monte Carlo average of the package forms
the product of a weight table and a configuration, or a stack of them,
in row blocks of at most SIGN_BLOCK = 2^16 entries (see _Blocks), so
that a block's float64 arrays fit a 2 MiB L2 cache, through one job
runner, _run_jobs, and one block product, _Blocks.norms, and reduces
each block as it comes: every sign maximum in _sign_max, which keeps
each block's first maximum, every sign sum or mean in _sign_sum, which
sums each block, and each Monte Carlo chunk in _chunk_norms. A job is a
fill, a run of configurations and the blocks it runs in order on one
thread: one block of a sign table times as many whole tables'
configurations as fit in it, else one, or one Monte Carlo chunk, which
draws its weights block by block. A sign enumeration writes each block
of patterns directly and no (k, 2^(n-1)) array of norms is held, so peak
memory is a few blocks, whatever the dimension. The jobs of a table or
average of at least _FAN_OUT = 2^20 entries run on the calling thread
and a helper thread started for the call (see _fan_out), with the same
results bit for bit, and no thread of the package outlives a call.
"""

import math
import os
import threading
from collections import deque
from functools import partial

import numpy as np

from .estimates import Estimate, EXACT, LOWER
from .search import (_scaled_rows, batch_forms, best_start, child_seeds, multistart_maximize,
                     split_budget)
from .spaces import lp

__all__ = ["LinearMap", "identity_map", "operator_norm", "operator_norms", "dual_norm",
           "weak_lq_functional", "ENUM_CAP", "sign_pattern", "sign_weights"]

#: sign patterns are enumerated exactly up to this many vectors
ENUM_CAP = 20

#: entries of the widest array formed on one block (see _Blocks): the
#: one block budget of the package, cube ascents and searches included
SIGN_BLOCK = 1 << 16


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


#: entries (rows of weights times the widest row) from which the jobs of
#: a runner call spread over threads; fewer gained no time and paid memory
_FAN_OUT = 1 << 20


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: threads a fanned-out job runs on: the calling thread and at most one
#: helper thread started for the call. Each holds a working array of up
#: to two blocks, so a job holds at most four.
_WORKERS = min(2, _cpus())


def _fan_out(job, count, scratch):
    """[job(i, s) for i in range(count)] with s one of scratch, whose
    length is the thread count: the calling thread works with scratch[0]
    and a helper thread, started here and joined before this returns or
    raises, with scratch[1], each taking the next i when it is free. The
    results keep the order of i. An exception in either thread stops the
    handing out and is raised here once both stopped, the calling
    thread's if both raised."""
    if len(scratch) == 1:
        return [job(i, scratch[0]) for i in range(count)]
    results = [None] * count
    todo = deque(range(count))
    failed = []

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

    def helper():
        try:
            run(scratch[1])
        except BaseException as error:  # raised on the calling thread
            failed.append(error)

    thread = threading.Thread(target=helper, name="banachkit")
    thread.start()
    try:
        run(scratch[0])
    finally:
        thread.join()
    if failed:
        raise failed[0]
    return results


def _spans(m, rows):
    """(start, stop) of blocks of `rows` rows over m rows; a one-row tail
    joins the block before it."""
    stops = range(rows, m - 1, rows)
    return list(zip([0, *stops], [*stops, m]))


def _as_is(buf):
    """buf itself: the prepare of a table or a Monte Carlo chunk, whose
    blocks share nothing, and the f of a plain _sign_sum."""
    return buf


def _pattern_fill(n, rows, scale):
    """(spans, prepare, fill) of the table sign_patterns(n) * scale (scale
    None: the signs), of more than `rows` (a power of two) rows, `rows`
    rows at a time, without the table; see _weight_fill. With blocks of
    2^b rows, the last b columns are the same in every block (those of
    sign_patterns(b + 1) past its first), and prepare writes them; the
    first n - b columns of block t are constants, which fill sets: column
    j holds 1 - 2 * bit (n - b - 1 - j) of t. A sign times scale[j] is
    exact, so the blocks equal the rows of the scaled table bit for bit."""
    if n > ENUM_CAP:
        raise ValueError(f"sign enumeration capped at {ENUM_CAP} vectors")
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

    return [(start, start + rows) for start in range(0, 2 ** (n - 1), rows)], prepare, fill


def _weight_fill(signs, m, rows, scale):
    """(spans, prepare, fill) of the m-row weight table W that signs and
    scale give (see _sign_sum), in blocks of `rows` rows: spans lists the
    (start, stop) rows of its blocks; prepare(buf), run on the calling
    thread, writes into a working buffer what every block shares;
    fill(start, stop, buf) returns that block of W, written into buf
    unless it is a view of W. An int whose table fits in one block is
    that table, built here; a larger one is streamed (see _pattern_fill)."""
    if isinstance(signs, (int, np.integer)):
        if m > rows:
            return _pattern_fill(int(signs), rows, scale)
        signs = sign_patterns(signs) if scale is None else sign_patterns(signs) * scale

    def fill(start, stop, buf):
        block = signs[start:stop]
        if block.dtype != np.float64:
            # numpy multiplies a mixed int8 x float pair several times
            # slower than two float arrays
            buf[:stop - start] = block
            block = buf[:stop - start]
        return block

    return _spans(m, rows), _as_is, fill


def _drawn(draw, start, stop, buf):
    """The fill of a Monte Carlo chunk (see _chunk_norms): its next
    stop - start rows, drawn into buf."""
    draw(buf[:stop - start])
    return buf[:stop - start]


def _block_rows(width):
    """Rows per block when the widest row formed on it holds `width`
    entries: the largest power of two that keeps a block in SIGN_BLOCK."""
    return 1 << (max(1, SIGN_BLOCK // width).bit_length() - 1)


def _width(n, dim, space):
    """The widest row a block of (n, dim) configurations forms: the
    weights, their product, or the rows space.norm_rows forms from it."""
    return max(n, dim, space.row_width)


def sign_weights(n, dim, space, scale=None):
    """(signs, scale) for _sign_max and _sign_sum calls on (n, dim)
    configurations, or stacks of them, that share the table
    sign_patterns(n) * scale (scale None: the signs): the table itself,
    built once, with scale None where it fits in one block of those calls;
    else n and scale, and each call streams the table (see _pattern_fill).
    Either way a call gives the same result bit for bit."""
    if n < 1 or 2 ** (n - 1) > _block_rows(_width(n, dim, space)):
        return n, scale
    table = sign_patterns(n)
    return (table.astype(float) if scale is None else table * scale), None


class _Blocks:
    """The blocks of the products W @ config of a (k, n, dim) stack of
    configurations and an m-row weight table W (see _sign_sum).

    Each block holds at most SIGN_BLOCK entries of the widest array
    formed on it: the block of weights, W @ config, or the rows
    space.norm_rows forms from that (a subspace maps them into its
    ambient space). At 2^16 entries a block's float64 arrays, over which
    the row kernel makes several passes, fit a 2 MiB L2 cache. The rows
    per block are a power of two, which splits a sign table into equal
    blocks; a one-row tail joins the block before it, since numpy hands
    a one-row product to gemv, which rounds differently from gemm. Up to
    a few hundred coordinates the row norms then equal those of the
    one-shot space.norm_rows(W @ config) bit for bit; past that BLAS may
    round a block in another order. A block multiplies as many whole
    tables, one per configuration of a stack, as fit in it, else one
    configuration's rows; each configuration's product is its own, so a
    stack gives the norms of its configurations one by one, bit for bit
    within the same limit, but for a SubspaceSpace of dimension 33 or
    more: its norm_rows multiplies a whole block by the basis in one
    gemm, and BLAS may round a row apart with the block's height at such
    inner dimensions (18 to 28 of 2,072 norms of a stack came out apart
    at dimensions 33 to 65, none at 5 and 16). Within the same limits no
    result depends on the block height.

    The plan holds the widest row formed, the rows per block, the
    configurations a block multiplies, the row-norm kernel and working
    arrays. It is made on the calling thread; norms then calls no
    function of the package that is not private, so any thread may run
    it."""

    def __init__(self, config, space, m):
        _, n, dim = config.shape
        self.width = _width(n, dim, space)
        self.rows = _block_rows(self.width)
        self.per = max(1, self.rows // m)
        self.tallest = min(m, self.rows + 1)  # a one-row tail joins its block
        self.config = config
        self.kernel = space._row_kernel()

    def jobs(self, fill, spans):
        """One job (fill, c, [span]) per block of a table (see _run_jobs):
        each span of rows for each run of self.per configurations."""
        return [(fill, c, [span]) for c in range(0, len(self.config), self.per)
                for span in spans]

    def work(self):
        """A working array for blocks of up to self.tallest rows, as the
        weight buffer and the product buffer."""
        k, n, dim = self.config.shape
        rows = self.tallest
        work = np.empty(rows * (n + min(k, self.per) * dim))
        return work[:rows * n].reshape(rows, n), work[rows * n:]

    def norms(self, fill, c, start, stop, buf, prod):
        """The (configurations, rows) row norms of rows start:stop of
        W @ config[c:c + per], with fill writing the weight block into buf
        (see _weight_fill): one product per configuration, stacked."""
        part = self.config[c:c + self.per]
        k, _, dim = part.shape
        block = np.matmul(fill(start, stop, buf), part,
                          out=prod[:k * (stop - start) * dim].reshape(k, -1, dim))
        return self.kernel(block.reshape(-1, dim)).reshape(k, -1)


def _run_jobs(plan, jobs, reduce, m, prepare=_as_is, gather=0):
    """[reduce(norms, c, start) for each job (fill, c, spans)], with norms
    the (configurations, rows) row norms of the rows of W @ plan.config[c:
    c + plan.per] that spans lists, in order, start the first of them, and
    fill writing each block of W (see _weight_fill). A job runs its spans
    in order on one thread. Two or more jobs over m rows of weights that
    form at least _FAN_OUT entries in all run on _WORKERS threads, the
    calling thread and a helper thread started for the call (see
    _fan_out), any others on the calling thread alone; each thread has
    its own working array, which prepare readies on the calling thread. A
    job of one span hands its fresh norms straight to reduce; a longer
    one, of one configuration and at most `gather` rows, gathers them
    first. reduce may work in its argument in place, on either thread.
    Each block keeps its rows and its place, so the results do not depend
    on the thread count. A thread's working array is reused for every
    block it takes (blocks taken afresh went back to the operating system
    between uses and faulted their pages in again), and the space works
    in each product in place."""
    fan_out = len(jobs) > 1 and m * plan.width >= _FAN_OUT
    works = []
    for _ in range(_WORKERS if fan_out else 1):
        buf, prod = plan.work()
        prepare(buf)
        works.append((buf, prod, np.empty((1, gather)) if gather else None))

    def run(i, work):
        fill, c, spans = jobs[i]
        buf, prod, out = work
        if len(spans) == 1:
            (start, stop), = spans
            return reduce(plan.norms(fill, c, start, stop, buf, prod), c, start)
        for start, stop in spans:
            out[:, start:stop] = plan.norms(fill, c, start, stop, buf, prod)
        return reduce(out[:, :stop], c, 0)

    return _fan_out(run, len(jobs), works)


def _sign_sum(signs, config, space, f, *, scale=None):
    """np.sum(f(space.norm_rows(W @ config))) for a weight table W, in row
    blocks (see _Blocks), for an f that works elementwise in place (f
    runs on any thread; _as_is for the plain sum), or the sums of a
    (k, n, dim) stack, each its one-configuration call; bit for bit
    within the limit of _Blocks. Divided by len(W), a sum is the mean.

    signs gives W in one of two ways, and _sign_max takes it alike:
      - an int n: the table sign_patterns(n), or sign_patterns(n) * scale
        given a length-n scale, written block by block and never built
        whole unless it fits in one block (see _weight_fill). Calls that
        share one such table take it from sign_weights, built once where
        it fits one block;
      - a 2-d array: W itself, such as a weighted sign table or a drawn
        sample. Monte Carlo chunks, which draw W block by block, take the
        same blocks through _chunk_norms.

    numpy sums a float64 vector pairwise, halving it down to runs of 128
    entries. Equal blocks of a power of two rows, at least 128, of a
    table of a power of two rows are whole subtrees of that sum, so each
    is summed alone, one job per block and run of configurations, and
    each configuration's block sums are added pairwise, without the
    (k, len(W)) norms. Every other table of several blocks (shorter
    blocks, another length, a joined one-row tail) gathers each
    configuration's norms first.
    """
    m = 2 ** (signs - 1) if isinstance(signs, (int, np.integer)) else len(signs)
    plan = _Blocks(config if config.ndim == 3 else config[None], space, m)
    spans, prepare, fill = _weight_fill(signs, m, plan.rows, scale)
    k = len(plan.config)
    whole = len(spans) > 1 and (m & (m - 1) or plan.rows < 128)
    jobs = [(fill, c, spans) for c in range(k)] if whole else plan.jobs(fill, spans)
    sums = np.empty((1 if whole else len(spans), k))  # one row per block

    def add(norms, c, start):
        np.add.reduce(f(norms), axis=1, out=sums[start // plan.rows, c:c + len(norms)])

    _run_jobs(plan, jobs, add, m, prepare, gather=m if whole else 0)
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return sums[0] if config.ndim == 3 else sums[0, 0]


def _chunk_norms(draws, counts, config, space, reduce):
    """[reduce(norms) for each draw and count], reduce working in place on
    any thread: norms are the count row norms of W @ config, bit for bit
    (see _Blocks), with draw(block) filling the float block with the next
    rows of W, block after block in order, as a Monte Carlo chunk drawn
    from its own generator. Each chunk is one job (see _run_jobs)."""
    plan = _Blocks(config[None], space, max(counts))
    jobs = [(partial(_drawn, draw), 0, _spans(m, plan.rows)) for draw, m in zip(draws, counts)]
    return _run_jobs(plan, jobs, lambda v, c, start: reduce(v[0]), sum(counts),
                     gather=max(counts))


def _sign_max(signs, config, space, *, scale=None):
    """(values, firsts): the largest row norm of W @ config and the first
    row that reaches it, signs and scale giving W as for _sign_sum; for a
    (k, n, dim) stack two length-k arrays, for one (n, dim) configuration
    two scalars. Over the sign table, the exact sign maximum
    sup_eps ||sum_k eps_k x_k||, and sign_pattern(n, first) its signs.
    Each block writes the first maximum of each configuration it
    multiplies, and a configuration takes the first block that holds its
    largest, so no (k, len(W)) array of norms is held; each value is the
    max of the one-shot norms, and its one-configuration call, bit for bit
    within the limit of _Blocks."""
    m = 2 ** (signs - 1) if isinstance(signs, (int, np.integer)) else len(signs)
    plan = _Blocks(config if config.ndim == 3 else config[None], space, m)
    spans, prepare, fill = _weight_fill(signs, m, plan.rows, scale)
    k = len(plan.config)
    values = np.empty((len(spans), k))  # one row per block
    firsts = np.empty((len(spans), k), dtype=np.intp)

    def first_max(norms, c, start):
        b, rows = start // plan.rows, slice(c, c + len(norms))
        np.maximum.reduce(norms, axis=1, out=values[b, rows])
        norms.argmax(axis=1, out=firsts[b, rows])  # within the block

    _run_jobs(plan, plan.jobs(fill, spans), first_max, m, prepare)
    if len(spans) == 1:
        values, firsts = values[0], firsts[0]
    else:  # the first block holding each largest, which starts at row b * plan.rows
        b, c = values.argmax(axis=0), np.arange(k)
        values, firsts = values[b, c], firsts[b, c] + b * plan.rows
    return (values, firsts) if config.ndim == 3 else (values[0], firsts[0])


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


def _on_sphere(space):
    """The feasible of the sphere searches (see search.batch_forms): the
    rows of P scaled onto the unit sphere of space, rows of norm zero
    rejected."""
    return lambda P: _scaled_rows(P, space.norm_rows(P))


#: the screen of _vertex_ascents keeps every flip whose screened square is
#: within SCREEN_ULPS (n + 2) eps (||y|| + max_j ||f_j||)^2 of the best
SCREEN_ULPS = 64


def _vertex_ascents(A, cod, budget, seeds, vt=None):
    """Best vertex of the sign cube for x -> cod.norm(A_i @ x), for each
    map of a (k, n, N) stack, by single-flip ascent; (value, witness) pairs.
    vt is np.linalg.svd(A, full_matrices=False)[2], taken here if not given.

    Starts of map i: the sign of the top right singular vector of A_i,
    the all-ones vector and split_budget(budget)[0] random sign vectors
    seeded from seeds[i]. Each step, every active start of every map
    scores its flips y - eps_j f_j, f_j = 2 A_i[:, j], and takes the best
    if it gains more than a relative 1e-12, else stops. One loop scores
    the kept (start, flip) pairs of a step, those of every map together:
    each flip is formed as -eps_j f_j + y, with -eps_j f_j a row of the
    signed flips +-f_j taken once, and goes through norm_rows in blocks
    of `rows` rows, at most SIGN_BLOCK entries. Every flip is kept but
    into a Euclidean codomain.

    Into a codomain with is_euclidean (a NormedSpace, which reads each
    row of a block as alone) only the flips near the best are kept; the
    others are screened out by the identity
    ||y - eps_j f_j||^2 = ||y||^2 + d_j, d_j = ||f_j||^2 - 2 eps_j <y, f_j>,
    with one stacked product Y @ F^T per step and the ||f_j||^2 taken
    once. A screened-out flip scores -inf. With F = max_j ||f_j||, each
    computed d_j is within gamma_(n+1) (||y|| + F)^2 of d_j, and norm_rows
    reads ||x|| within a relative gamma_(n+2) (Higham, ch. 3: the row and
    its squares round once each, the sum by gamma_(n-1), the root once;
    gamma_m = m u / (1 - m u), u = eps / 2). So a flip whose d_j lies
    more than 6 gamma_(n+2) (||y|| + F)^2 below the largest scores
    strictly below that flip's norm_rows value, and the argmax, the gain
    test and the first maximum pick the flip that scoring every flip
    picks, bit for bit. The screen keeps every flip within SCREEN_ULPS
    (n + 2) eps (||y|| + F)^2 of the largest d_j, about twenty times
    that, which also covers the rounding of ||y|| and F themselves.

    The starts' images are one stacked product E @ A^T; after that the
    row scored for the flip a start takes becomes its image, so an image
    changes only by that elementwise add and each map climbs as alone.
    The final vertices of every map are re-read from their gemv images
    a @ e, as the scalar norm of a @ e reads them: through norm_rows in
    the same blocks, or one by one into a subspace, whose rows of a block
    may round apart from a lone row. The first maximum wins.
    """
    k, n, N = A.shape
    top = (np.linalg.svd(A, full_matrices=False)[2] if vt is None else vt)[:, 0]
    E = np.ones((k, 2 + split_budget(budget)[0], N))
    E[:, 0] = np.where(top < 0, -1.0, 1.0)
    for i, seed in enumerate(seeds):
        for j, s in enumerate(child_seeds(seed, E.shape[1] - 2), 2):
            E[i, j] = np.where(np.random.default_rng(s).random(N) < 0.5, -1.0, 1.0)
    rows = max(1, SIGN_BLOCK // max(n, cod.row_width))  # rows per block

    def norms(Y):
        """cod.norm_rows of a (k, starts, n) stack of images, in blocks."""
        flat = Y.reshape(-1, n)
        return np.concatenate([cod.norm_rows(flat[i:i + rows])
                               for i in range(0, len(flat), rows)]).reshape(k, -1)

    Y = np.matmul(E, A.transpose(0, 2, 1))
    score = norms(Y)
    # flips[0, i, j] = f_j of map i and flips[1, i, j] = -f_j, so that each
    # -eps_j f_j is a row of `signed`; C order keeps gathers contiguous
    flips = np.empty((2, k, N, n))
    np.multiply(2.0, A.transpose(0, 2, 1), out=flips[0])
    np.negative(flips[0], out=flips[1])
    signed = flips.reshape(-1, n)
    if cod.is_euclidean:
        sq = np.einsum("kjn,kjn->kj", flips[0], flips[0])  # ||f_j||^2
        far = np.sqrt(sq.max(axis=1))
        tol = SCREEN_ULPS * (n + 2) * np.finfo(float).eps

    def screen(mi, si, y, eps):
        """The flips the screen keeps of each active start, as a (starts, N)
        mask."""
        live = np.unique(mi)
        whole = live.size == k  # no gather of the maps
        dots = np.matmul(Y if whole else Y[live],
                         (flips[0] if whole else flips[0, live]).transpose(0, 2, 1))  # <y, f_j>
        d = sq[mi] - 2.0 * eps * dots[np.searchsorted(live, mi), si]
        reach = np.sqrt(np.einsum("pn,pn->p", y, y)) + far[mi]
        return d >= (d.max(axis=1) - tol * reach * reach)[:, None]

    def flip_values(mi, si):
        """The norm_rows value of every kept flip of each active start,
        -inf elsewhere."""
        y, eps = Y[mi, si], E[mi, si]
        keep = screen(mi, si, y, eps) if cod.is_euclidean else np.ones((mi.size, N), dtype=bool)
        pairs = np.flatnonzero(keep)  # kept (start, flip) pairs, start by start
        at = ((eps > 0) * k + mi[:, None]) * N + np.arange(N)  # the row of -eps_j f_j
        vals = np.full((mi.size, N), -np.inf)
        for start in range(0, pairs.size, rows):
            pb = pairs[start:start + rows]
            block = signed.take(at.take(pb), axis=0)  # y - eps_j f_j as -eps_j f_j + y
            block += y.take(pb // N, axis=0)
            vals.put(pb, cod.norm_rows(block))
        return vals

    active = np.ones(score.shape, dtype=bool)
    while active.any():
        mi, si = np.nonzero(active)
        vals = flip_values(mi, si)
        arg = np.argmax(vals, axis=1)
        best = vals[np.arange(mi.size), arg]
        gain = best > score[mi, si] * (1.0 + 1e-12)
        active[mi[~gain], si[~gain]] = False
        mi, si, arg = mi[gain], si[gain], arg[gain]
        score[mi, si] = best[gain]
        # the new image is the row scored for the flip taken, the operands of
        # flip_values in its order, so it is that row bit for bit
        Y[mi, si] = signed[((E[mi, si, arg] > 0) * k + mi) * N + arg] + Y[mi, si]
        E[mi, si, arg] *= -1.0
    # one gemv image per final vertex, as the scalar norm of a @ e forms it
    images = np.array([[a @ e for e in final] for a, final in zip(A, E)])
    values = (norms(images) if cod._rows_alone
              else np.array([[cod.norm(y) for y in ys] for ys in images]))
    best = values.argmax(axis=1)
    # a witness does not hold the stack
    return [(float(v[i]), final[i].copy()) for v, final, i in zip(values, E, best)]


def operator_norm(T, budget=32, seed=0):
    """Operator norm of T: operator_norms of the one map T.

    meta["route"] names the route that produced the value: "zero" for the
    zero map, exact, else a row of _ROUTES. The lower routes carry the
    comparison-constant upper bound le_euclid(Y) smax(A) ge_euclid(X) in
    meta["upper"], rounded outward by a stated bound on the rounding of
    both ends (_outward), so the value never exceeds it.
    """
    return operator_norms(T.matrix[None], T.domain, T.codomain, budget, seeds=[seed])[0]


def operator_norms(matrices, domain, codomain, budget=32, *, seeds):
    """operator_norm of each map of a (k, n, N) stack with its own seed;
    every estimate equals the one-map call bit for bit.

    Zero maps take the zero route one by one; the others are taken as one
    stack by the first row of _ROUTES that applies. A lower row reads
    meta["upper"] off one stacked svd, whose right singular vectors start
    the cube ascents out of an l_inf domain.
    """
    A = np.asarray(matrices, dtype=float)
    seeds = list(seeds)
    if len(seeds) != len(A):
        raise ValueError(f"{len(seeds)} seeds for {len(A)} maps")
    if not seeds:
        return []
    if A.shape[1:] != (codomain.dim, domain.dim):
        raise ValueError(f"matrix shape {A.shape[1:]} does not match "
                         f"{codomain.dim}x{domain.dim}")
    nonzero = np.any(A, axis=(1, 2))
    out = [None if nz else Estimate(0.0, EXACT, witness=None, budget=0, seed=seed,
                                    meta={"route": "zero"})
           for nz, seed in zip(nonzero, seeds)]
    live = np.flatnonzero(nonzero)
    if not live.size:
        return out
    if live.size < len(A):
        A, seeds = A[live], [seeds[i] for i in live]
    route, tag, norms = next((name, tag, norms) for name, tag, applies, norms in _ROUTES
                             if applies(domain, codomain))
    vt = None
    if tag == LOWER:
        if domain.is_linf:  # the cube ascents start from the top right singular vectors
            s, vt = np.linalg.svd(A, full_matrices=False)[1:]
        else:
            s = np.linalg.svd(A, compute_uv=False)
        le, ge = codomain.le_euclid(), domain.ge_euclid()
        metas = [{"upper": _outward(le * smax * ge, *A.shape[1:]), "route": route}
                 for smax in s[:, 0]]
    else:  # an exact row spends no budget
        budget, metas = 0, [{"route": route} for _ in seeds]
    found = norms(A, domain, codomain, budget, seeds, vt)
    for i, (v, w), seed, meta in zip(live, found, seeds, metas):
        out[i] = Estimate(float(v), tag, witness=w, budget=budget, seed=seed, meta=meta)
    return out


def _outward(upper, n, N):
    """The comparison bound le smax ge of an n x N map, rounded outward by
    a factor 1 + rho, so that it bounds the value a lower route computes,
    not only the exact norm. With u = eps / 2 and gamma_m = m u / (1 - m u)
    (Higham, ch. 3), rho is at least twice the sum of:
      - 4 max(n, N) u: LAPACK's largest singular value, relative (a
        modest multiple of max(n, N) u, by backward stability and Weyl);
      - 4 u: le, ge and their two products, rounded once each;
      - gamma_N sqrt(min(n, N)): the value is a norm of fl(A x) =
        (A + dA) x with |dA| <= gamma_N |A|, and ||dA x||_Y <= le ||dA||_F
        ||x||_2 <= gamma_N ||A||_F le ge ||x||_X;
      - gamma_(n+4) and gamma_(N+4): norm_rows reads a norm of either
        space within them (a search witness is scaled onto the domain's
        sphere by one).
    """
    u = np.finfo(float).eps / 2
    rho = 2.0 * (4 * max(n, N) + N * math.sqrt(min(n, N)) + n + N + 16) * u
    return float(upper * (1.0 + rho))


def _svd_norms(A, *_):
    """Full svds, in chunks of maps whose factors hold at most SIGN_BLOCK
    entries."""
    step = max(1, SIGN_BLOCK // max(A.shape[1:]) ** 2)
    return [(s[0], v[0].copy()) for i in range(0, len(A), step)
            for s, v in zip(*np.linalg.svd(A[i:i + step])[1:])]


def _l1_columns(A, dom, cod, *_):
    """The largest column norm of each map, read as the rows of a.T, with
    its unit vector e_j as witness."""
    out = []
    for a in A:
        vals = cod.norm_rows(a.T)
        j = int(np.argmax(vals))
        w = np.zeros(dom.dim)
        w[j] = 1.0
        out.append((vals[j], w))
    return out


def _enumeration(A, dom, cod, *_):
    """The sign maximum of the columns of each map, with the first
    maximizing vertex of the cube as witness."""
    values, firsts = _sign_max(dom.dim, A.transpose(0, 2, 1), cod)
    return [(v, sign_pattern(dom.dim, i)) for v, i in zip(values, firsts)]


def _linf_rows(A, dom, *_):
    """One dual_upper_rows over the rows of every map: the closed forms of
    dual_exact, row-wise."""
    duals = dom.dual_upper_rows(A.reshape(-1, dom.dim)).reshape(A.shape[:2])
    return [(d[i], {"row": int(i)}) for d, i in zip(duals, np.argmax(duals, axis=1))]


def _searches(A, dom, cod, budget, seeds, vt=None):
    """(value, witness) of the sphere search of every map: starts e_1, ...,
    e_N, the all-ones vector and, out of an l_inf cube, the map's best
    vertex (vt as in _vertex_ascents). At budget 0 the starts of a chunk
    of maps, at most about SIGN_BLOCK entries of starts and images, are
    scored at once."""
    N = dom.dim
    starts = np.concatenate([np.eye(N), np.ones((1, N))])
    if dom.is_linf:
        vertices = [w for _, w in _vertex_ascents(A, cod, budget, seeds, vt)]
        starts_of = lambda i: np.concatenate([starts, vertices[i][None]])
    else:
        starts_of = lambda i: starts
    sphere = _on_sphere(dom)
    forms = lambda a: batch_forms(sphere, lambda U: cod.norm_rows(U @ a.T))
    if budget > 0:
        return [multistart_maximize(**forms(a), shape=(N,), structured=list(starts_of(i)),
                                    budget=budget, seed=seed)
                for i, (a, seed) in enumerate(zip(A, seeds))]
    S = len(starts_of(0))
    step = max(1, SIGN_BLOCK // (S * max(N, cod.row_width)))  # maps per chunk
    out = []
    for i in range(0, len(A), step):
        X = np.array([starts_of(j) for j in range(i, min(i + step, len(A)))])
        U = sphere(X.reshape(-1, N))[0].reshape(X.shape)  # no start has norm zero
        Y = np.matmul(U, A[i:i + step].transpose(0, 2, 1))
        vals = cod.norm_rows(Y.reshape(-1, Y.shape[2])).reshape(len(X), S)
        for a, x, v in zip(A[i:i + step], X, vals):
            f = forms(a)
            out.append(best_start(x, v, f["objective"], f["project"]))
    return out


#: The routes of operator_norms for nonzero maps dom -> cod, in the order
#: they are tried: the first whose applies(dom, cod) holds takes the stack.
#: A row is (name, tag, applies, norms), and norms(A, dom, cod, budget,
#: seeds, vt) gives one (value, witness) per map of the (k, n, N) stack A,
#: with vt the right singular vectors of its stacked svd on a LOWER row out
#: of an l_inf cube, else None.
#:   - svd: Euclidean to Euclidean, the largest singular value, exact.
#:   - l1-columns: domain l_1, the largest column norm, exact.
#:   - linf-rows: codomain l_inf and a domain with a closed-form dual norm,
#:     the largest dual norm of a row, exact.
#:   - enumeration: domain l_inf with at most ENUM_CAP coordinates, every
#:     vertex of the cube, exact: one _sign_max over the stack, the columns
#:     of each map one configuration (_enumeration).
#:   - vertex-ascent: a larger l_inf domain and a normed codomain, where a
#:     convex norm of A x peaks at a vertex: the maps climb the cube's
#:     vertices in lockstep in one _vertex_ascents call, a witnessed lower
#:     bound.
#:   - search: everything else, the sphere search (_searches), a witnessed
#:     lower bound. On a quasi-normed codomain an interior point can beat
#:     every vertex, so out of a large l_inf cube the best vertex of the
#:     ascent is one more start.
_ROUTES = (
    ("svd", EXACT, lambda dom, cod: dom.is_euclidean and cod.is_euclidean, _svd_norms),
    ("l1-columns", EXACT, lambda dom, cod: dom.is_l1, _l1_columns),
    ("linf-rows", EXACT, lambda dom, cod: cod.is_linf and dom.has_exact_dual, _linf_rows),
    ("enumeration", EXACT, lambda dom, cod: dom.is_linf and dom.dim <= ENUM_CAP,
     _enumeration),
    ("vertex-ascent", LOWER, lambda dom, cod: dom.is_linf and not cod.is_quasi,
     lambda A, dom, cod, budget, seeds, vt: _vertex_ascents(A, cod, budget, seeds, vt)),
    ("search", LOWER, lambda dom, cod: True, _searches),
)


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
        **batch_forms(_on_sphere(space), lambda U: np.abs(U @ y)),
        shape=(space.dim,),
        structured=structured,
        budget=budget,
        seed=seed,
    )
    return Estimate(float(val), LOWER, witness=wit, budget=budget, seed=seed,
                    meta={"upper": space.dual_upper(y)})


def weak_lq_upper(config, space, q, signs=None):
    """Certified upper bound on sup over the dual unit ball of the
    weak l_q moment of a configuration.

    config is one (n, dim) configuration, or a (k, n, dim) stack of
    them with one bound each; the vector norms come from norm_rows.
    signs is what the sign sup hands _sign_max: by default n, or
    sign_weights(n, dim, space)[0], a table that calls on configurations
    of one shape share, with the same bound bit for bit.
    """
    config = np.asarray(config, dtype=float)
    stacked = config.ndim == 3
    n, dim = config.shape[-2:]
    norms = space.norm_rows(config.reshape(-1, dim)).reshape(config.shape[:-1])
    if q == math.inf:
        bound = norms.max(axis=-1)
    else:
        bounds = [np.add.reduce(norms**q, axis=-1) ** (1.0 / q)]
        if space.is_euclidean:
            smax = np.linalg.svd(config, compute_uv=False)[..., 0] \
                if stacked or config.any() else 0.0
            bounds.append(smax if q >= 2.0 else n ** (1.0 / q - 0.5) * smax)
        if n <= ENUM_CAP:
            # weak-1 moment equals the sign sup of the configuration, and
            # dominates every weak-q moment for q >= 1
            bounds.append(_sign_max(n if signs is None else signs, config, space)[0])
        bound = np.minimum.reduce(bounds, axis=0)
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
        v, first = _sign_max(n, config, space)
        return Estimate(float(v), EXACT, witness={"signs": sign_pattern(n, first)}, budget=0,
                        seed=seed, meta={"upper": float(v)})

    upper = weak_lq_upper(config, space, q)
    moment = lp(q)

    # rows scaled into the dual unit ball by their dual upper bounds; rows
    # with bound zero rejected
    dual_ball = lambda Z: _scaled_rows(Z, space.dual_upper_rows(Z))
    structured = list(np.eye(dim))
    structured.append(config.sum(axis=0))
    val, wit = multistart_maximize(
        **batch_forms(dual_ball, lambda Z: moment.norm_rows(Z @ config.T)),
        shape=(dim,),
        structured=structured,
        budget=budget,
        seed=seed,
    )
    return Estimate(float(val), LOWER, witness=wit, budget=budget, seed=seed,
                    meta={"upper": upper})
