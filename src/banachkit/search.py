"""Seeded multi-start maximization used by all sup-type estimators.

The strategy is deliberately simple and derivative-free: evaluate a set
of structured starts plus seeded random starts, then polish the best by
coordinate ascent (single-entry perturbations with a shrinking step).
Every candidate is scored, so results are a deterministic function of
the master seed.

Operator norms out of an l_inf cube do not come here: a convex norm of
A x peaks at a vertex of the cube, so linmaps climbs the vertices by
single sign flips instead. Only a quasi-normed codomain, where an
interior point can beat every vertex, still takes the search from there,
with the best vertex as one more start.

Every estimator writes its search once, as two batch functions:
feasible(P), which projects a (k, size) block of raw proposals into the
feasible set and returns the accepted rows with a mask of which rows
were accepted, and score(X), the objective of each feasible row.
batch_forms builds from them the three callables the search takes: the
batch evaluator rows, score of feasible with -inf on rejected rows, and
objective and project, one-row calls of score and feasible. So
objective(project(p)) is rows of the one-row block p, bit for bit, and
no estimator keeps a second copy of its objective in step by hand.

The starts are scored as one block, and so are the proposals still
ahead in each polish sweep: the first proposal whose batch score beats
the current score by more than SCREEN_SLACK (relative) is taken, and
the block is rebuilt from the new point at the next entry. A proposal
within the slack of the current score is never taken, and costs no
single-point call, though a search scoring one proposal at a time could
take it. A row of a block product may round apart from the same row
alone (numpy sends one row to gemv and a block to gemm), far below the
slack. So batch scores only pick rows: every accepted point is made by
project, and the value returned is objective(witness), re-read from the
witness. best_start is the start phase alone: the budget-0 operator
norms of a stack of maps score all their starts in one block and settle
each map with it.
"""

import numpy as np

__all__ = ["child_seeds", "split_budget", "batch_forms", "best_start", "multistart_maximize"]

#: most polish sweeps a search makes (see split_budget)
SWEEPS = 8

#: starting step of the coordinate ascent
STEP0 = 0.5

#: proposals per polish sweep (two per visited entry)
MAX_PROPOSALS = 48

#: relative gain over the current score that a batch score must exceed to
#: be taken; far above the few ulps by which a gemm and a gemv can differ,
#: so a batch gain is a gain of the objective too
SCREEN_SLACK = 1e-12


#: the hash constants of numpy's SeedSequence, which child_seeds follows
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


def child_seeds(master, n):
    """Derive n independent integer seeds from a non-negative int master:
    [int(s.generate_state(1)[0]) for s in SeedSequence(master).spawn(n)],
    without building the n children.

    Child i hashes the master's entropy words, padded with zeros to its
    pool of four words, and then the spawn word i into the pool. The pool
    of SeedSequence(master) is the child's pool before the spawn word, by
    then the hash constant has advanced 16 + 4 max(0, words - 4) times,
    and generate_state(1) reads only the pool's first word. So a child
    seed is that word mixed with the hash of i alone.
    """
    seq = np.random.SeedSequence(master)
    words = max(1, -(-int(seq.entropy).bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & _MASK
    mult, out_mult = const * _MULT_A & _MASK, _INIT_B * _MULT_B & _MASK
    first = _MIX_L * int(seq.pool[0])
    seeds = []
    for i in range(n):
        # SeedSequence's hashmix of the spawn word, its mix into the first
        # pool word, then the first word of generate_state
        h = (i ^ const) * mult & _MASK
        w = first - _MIX_R * (h ^ h >> 16) & _MASK
        s = (w ^ w >> 16 ^ _INIT_B) * out_mult & _MASK
        seeds.append(s ^ s >> 16)
    return seeds


def split_budget(budget):
    """Split a scalar budget into (random starts, polish sweeps).

    budget is interpreted as starts x sweeps, with at most SWEEPS
    sweeps; budget 0 means structured starts only, no polish.
    """
    budget = int(budget)
    if budget <= 0:
        return 0, 0
    sweeps = min(SWEEPS, budget)
    return max(1, budget // sweeps), sweeps


def batch_forms(feasible, score):
    """The objective, project and rows that multistart_maximize and
    best_start take, as a dict of those names, from two batch functions:

    feasible(P): (X, ok) for a (k, size) block P of raw proposals, with
        ok the mask of the rows accepted and X those rows projected into
        the feasible set, in order;
    score(X): the objective of each row of a block of feasible rows.

    rows(P) is score(X) on the accepted rows and -inf on the others;
    objective(x) and project(x) are one-row calls of score and feasible,
    project returning a new array of x's shape, or None if x is rejected.
    """
    def objective(x):
        return score(x.reshape(1, -1))[0]

    def project(x):
        X, ok = feasible(x.reshape(1, -1))
        return X[0].reshape(x.shape).copy() if ok[0] else None  # a witness owns its data

    def rows(P):
        X, ok = feasible(P)
        if len(X) == len(P):  # every row accepted: no mask to apply
            return score(X)
        out = np.full(len(P), -np.inf)
        out[ok] = score(X)
        return out

    return {"objective": objective, "project": project, "rows": rows}


def _scaled_rows(P, s):
    """The feasible (see batch_forms) that divides each row of the block P
    by its entry of s, rows where s is 0 rejected; with no such row, P is
    divided whole, which gives the same rows without a mask."""
    ok = s != 0.0
    if ok.all():
        return P / s[:, None], ok
    return P[ok] / s[ok, None], ok


def _first_gain(P, x, score, project, vals):
    """First row of the proposal block P whose batch score beats the
    current score by more than the slack, projected by project.

    vals holds the batch scores of the rows of P; a row is taken if
    vals[i] > floor + SCREEN_SLACK * |floor|, with floor = score + 1e-15,
    and project does not reject it. Rows within the slack, and NaN
    scores, are never taken.

    Returns (row, point, score) of the gain; (None, x, score) if no row
    gains.
    """
    floor = score + 1e-15
    for i in (vals > floor + SCREEN_SLACK * abs(floor)).nonzero()[0]:
        cand = project(P[i].reshape(x.shape))
        if cand is not None:
            return i, cand, vals[i]
    return None, x, score


def _polish(x, value, objective, project, sweeps, rng, rows):
    """Greedy coordinate ascent on the flattened entries of x.

    A sweep visits up to MAX_PROPOSALS // 2 entries in a random order
    and proposes x + step, then x - step, at each; the first proposal
    taken by _first_gain moves x and the sweep goes on at the next entry.
    A sweep without a gain halves the step. The proposals still ahead in
    a sweep form one block scored by rows, and only batch scores decide.

    Returns (objective(x), x) for the final point x: value if x never
    moved, else objective(x) re-read once at the end.
    """
    x = np.array(x, dtype=float)
    score = value
    step = STEP0
    for _ in range(sweeps):
        order = rng.permutation(x.size)[: MAX_PROPOSALS // 2]
        # proposal j moves entry entries[j] by deltas[j]
        entries = order.repeat(2)
        deltas = np.full(entries.size, step)
        deltas[1::2] = -step
        improved = False
        j = 0
        while j < entries.size:
            flat, moved = x.ravel(), entries[j:]
            P = flat[None].repeat(moved.size, axis=0)
            P[np.arange(moved.size), moved] = flat[moved] + deltas[j:]
            i, x, score = _first_gain(P, x, score, project, rows(P))
            if i is None:
                break
            improved, value = True, None
            j = 2 * ((j + i) // 2 + 1)  # skip the other sign at this entry
        if not improved:
            step *= 0.5
            if step < 1e-4:
                break
    return (objective(x) if value is None else value), x


def best_start(starts, vals, objective, project):
    """The first start maximizing objective(project(start)), read only for
    the starts whose batch score in vals lies within 2 SCREEN_SLACK
    (relative) of the best: no other start can be the first maximum of
    objective, whose one-point reading may round apart from the block's.
    objective and project are those of batch_forms.

    Returns (objective(x), x) for the projected start x. Raises if
    project rejects every start read, or the objective rejects them all.
    """
    keep = []
    if len(vals):
        top = vals.max()
        keep = (~(vals < top - 2 * SCREEN_SLACK * abs(top))).nonzero()[0]
    feasible = False
    best_val, best_x = -np.inf, None
    for i in keep:
        cand = project(starts[i])
        if cand is None:
            continue
        feasible = True
        v = objective(cand)
        if v > best_val:
            best_val, best_x = v, cand
    if not feasible:
        raise ValueError("no feasible start for the search")
    if best_x is None or not np.isfinite(best_val):
        raise ValueError("all starts were rejected by the objective")
    return best_val, best_x


def multistart_maximize(objective, *, shape, rows, structured=(), budget=0, seed=0,
                        project=None, random_start=None):
    """Maximize objective over arrays of the given shape.

    objective, project and rows are the forms of one objective, which
    an estimator builds with batch_forms from its batch functions:
    objective: array -> float (larger is better); may return -inf to
        reject a candidate.
    project: map an arbitrary array back into the feasible set (return
        None to reject); defaults to identity.
    rows: batch evaluator. It takes a (k, size) stack of raw,
        unprojected proposals, each flattened from `shape`, and returns
        objective(project(p)) for every row p, with -inf where project
        would reject p. A row of a block may differ from the same point
        read alone in the last bits: rows screens the starts and decides
        each polish block, the points it picks are projected by project,
        and objective scores the kept starts and the final point; both
        only ever see single arrays of `shape`.
    structured: iterable of starting arrays always evaluated first.
    random_start: rng -> array; defaults to standard normal entries.

    Returns (best value, best array), the value being objective(best
    array). Raises if no candidate is feasible.
    """
    if project is None:
        project = lambda a: a
    if random_start is None:
        random_start = lambda rng: rng.standard_normal(shape)

    n_starts, sweeps = split_budget(budget)
    # budget 0 draws no random start and makes no polish: no seeds to spawn
    seeds = child_seeds(seed, n_starts + 1) if sweeps else []

    starts = [np.array(s, dtype=float) for s in structured]
    starts += [random_start(np.random.default_rng(s)) for s in seeds[:-1]]
    vals = rows(np.array([s.ravel() for s in starts])) if starts else np.empty(0)
    best_val, best_x = best_start(starts, vals, objective, project)

    if sweeps > 0:
        best_val, best_x = _polish(best_x, best_val, objective, project, sweeps,
                                   np.random.default_rng(seeds[-1]), rows)
    return best_val, best_x
