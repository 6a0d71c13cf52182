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

Every caller passes a batch evaluator `rows` that scores many proposals
at once. The starts are scored as one block, and so are the proposals
still ahead in each polish sweep: the first proposal that improves is
taken and the block is rebuilt from the new point at the next entry.
Batch scores may differ from the scalar objective in the last bits, so
they only pick rows: every accepted point is made by the scalar
`project`, a score too close to call is settled by the scalar
`objective`, and the value returned is objective(witness), re-read from
the witness. The search therefore takes the same path, and returns the
same witness and value, as a search that scored every proposal one at a
time by project and objective.
"""

import numpy as np

__all__ = ["child_seeds", "split_budget", "multistart_maximize"]

#: most polish sweeps a search makes (see split_budget)
SWEEPS = 8

#: starting step of the coordinate ascent
STEP0 = 0.5

#: proposals per polish sweep (two per visited entry)
MAX_PROPOSALS = 48

#: relative gap between a batch score and the scalar objective that the
#: screen still lets through to the scalar check; far above the few ulps
#: by which norm_rows and norm, or a gemm and a gemv, can differ
SCREEN_SLACK = 1e-12


def child_seeds(master, n):
    """Derive n independent integer seeds from a master seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(master).spawn(n)]


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


def _first_gain(P, x, score, value, objective, project, vals):
    """First row of the proposal block P whose projection beats the
    current point x by more than 1e-15.

    x has batch score `score` (its value, where no batch scored it) and
    value objective(x), or None while nothing has needed it. vals holds
    the batch scores of the rows of P. A batch score further than the
    slack from the threshold decides a row alone; a closer one is
    decided by the scalar values, as a one-at-a-time search would
    decide it.

    Returns (row, point, score, value) of the gain, its value None if
    only the batch scored it; (None, x, score, value) if no row gains.
    """
    floor = score + 1e-15
    slack = SCREEN_SLACK * abs(floor)
    for i in np.flatnonzero(~(vals <= floor - slack)):
        cand = project(P[i].reshape(x.shape))
        if cand is None:
            continue
        if vals[i] > floor + slack:
            return i, cand, vals[i], None
        if np.array_equal(cand, x):  # a proposal projected back onto x
            continue
        if value is None:
            value = objective(x)
        v = objective(cand)
        if v > value + 1e-15:
            return i, cand, v, v
    return None, x, score, value


def _polish(x, value, objective, project, sweeps, rng, rows):
    """Greedy coordinate ascent on the flattened entries of x.

    A sweep visits up to MAX_PROPOSALS // 2 entries in a random order
    and proposes x + step, then x - step, at each; the first proposal
    that beats the current value by more than 1e-15 is taken and the
    sweep goes on at the next entry. A sweep without a gain halves the
    step. The proposals still ahead in a sweep form one block scored by
    rows.

    Returns (objective(x), x) for the final point x.
    """
    x = np.array(x, dtype=float)
    score = value
    step = STEP0
    for _ in range(sweeps):
        order = rng.permutation(x.size)[: MAX_PROPOSALS // 2]
        # proposal j moves entry entries[j] by deltas[j]
        entries = np.repeat(order, 2)
        deltas = np.tile([step, -step], order.size)
        improved = False
        j = 0
        while j < entries.size:
            flat, moved = x.ravel(), entries[j:]
            P = flat[None].repeat(moved.size, axis=0)
            P[np.arange(moved.size), moved] = flat[moved] + deltas[j:]
            i, x, score, value = _first_gain(P, x, score, value, objective, project, rows(P))
            if i is None:
                break
            improved = True
            j = 2 * ((j + i) // 2 + 1)  # skip the other sign at this entry
        if not improved:
            step *= 0.5
            if step < 1e-4:
                break
    return (objective(x) if value is None else value), x


def multistart_maximize(objective, *, shape, rows, structured=(), budget=0, seed=0,
                        project=None, random_start=None):
    """Maximize objective over arrays of the given shape.

    objective: array -> float (larger is better); may return -inf to
        reject a candidate.
    structured: iterable of starting arrays always evaluated first.
    project: map an arbitrary array back into the feasible set (return
        None to reject); defaults to identity.
    random_start: rng -> array; defaults to standard normal entries.
    rows: batch evaluator. It takes a (k, size) stack of raw,
        unprojected proposals, each flattened from `shape`, and returns
        objective(project(p)) for every row p, with -inf where project
        would reject p. It may differ from the scalar value in the last
        bits: it only screens the starts and each polish block, and the
        points it picks are projected and scored again by project and
        objective, which only ever see single arrays of `shape`.

    Returns (best value, best array), the value being objective(best
    array). Raises if no candidate is feasible.
    """
    if project is None:
        project = lambda a: a
    if random_start is None:
        random_start = lambda rng: rng.standard_normal(shape)

    n_starts, sweeps = split_budget(budget)
    seeds = child_seeds(seed, n_starts + 1)
    rng_polish = np.random.default_rng(seeds[-1])

    starts = [np.array(s, dtype=float) for s in structured]
    starts += [random_start(np.random.default_rng(s)) for s in seeds[:-1]]
    keep = []
    if starts:
        # only starts within the slack of the best batch score can be
        # the first maximum of the scalar objective
        vals = rows(np.array([s.ravel() for s in starts]))
        top = np.max(vals)
        keep = np.flatnonzero(~(vals < top - 2 * SCREEN_SLACK * abs(top)))

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

    if sweeps > 0:
        best_val, best_x = _polish(best_x, best_val, objective, project, sweeps,
                                   rng_polish, rows)
    return best_val, best_x
