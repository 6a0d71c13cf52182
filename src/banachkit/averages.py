"""Rademacher and gaussian averages of vector configurations.

Sign averages are exact by enumeration up to ENUM_CAP vectors (the
global flip symmetry halves the pattern count). Beyond the cap, and
for gaussian weights always, chunked Monte Carlo with per-chunk seeds
derived from the master seed keeps results reproducible; each chunk
draws its weights in row blocks, one after another, from its own
generator. Both run as jobs of the one sign-block runner of linmaps
(_run_jobs), in blocks of 2^16 entries, whose arrays fit a 2 MiB L2
cache, so peak memory is a few blocks, whatever the dimension: each
block of an enumeration is a job whose norms are summed alone (the sums
added pairwise, as numpy adds the whole vector), and each Monte Carlo
chunk a job that draws and scores its blocks in order.

Jobs of at least 2^20 entries in all run on the calling thread and a
helper thread started for the call, each with its own working array,
and their results are combined in order, as on one thread bit for bit.
"""

import math
from functools import partial

import numpy as np

from .estimates import AverageResult
from .linmaps import ENUM_CAP, _chunk_norms, _sign_max, _sign_sum, sign_pattern
# sign_patterns is unused here but stays bound: the benchmark's tracer patches it here too
from .linmaps import sign_patterns  # noqa: F401
from .search import batch_forms, child_seeds, multistart_maximize

__all__ = [
    "rademacher_average",
    "gaussian_average",
    "ell_norm",
    "contraction_check",
    "gauss_vs_rademacher",
]

_CHUNK = 20_000


def _as_config(config):
    c = np.asarray(config, dtype=float)
    if c.ndim == 1:
        c = c[None, :]
    return c


def _moments(values, moment):
    """values (a fresh array), squared in place for the second moment."""
    if moment == 2:
        values **= 2
    return values


def _finish(mean, var_of_mean, moment, method, samples, seed):
    if moment == 1:
        return AverageResult(float(mean), method, samples, float(math.sqrt(var_of_mean)), seed)
    value = math.sqrt(max(mean, 0.0))
    # delta method for the square root of the estimated second moment
    se = math.sqrt(var_of_mean) / (2.0 * value) if value > 0 else 0.0
    return AverageResult(float(value), method, samples, float(se), seed)


def _draw_signs(rng, block):
    # rng.choice([-1.0, 1.0]) draws these indices and looks them up: the
    # same stream, mapped to +-1 in place
    np.multiply(rng.integers(0, 2, size=block.shape), 2.0, out=block)
    block -= 1.0


def _draw_gaussians(rng, block):
    rng.standard_normal(out=block)


def _chunk_sums(moment, vals):
    """(sum, sum of squares) of the moments of a chunk's norms, worked out
    in vals itself."""
    vals = _moments(vals, moment)
    total = float(np.sum(vals))
    vals **= 2
    return total, float(np.sum(vals))


def _mc_average(config, space, moment, sampler, samples, seed):
    """Chunked Monte Carlo of ||sum_k w_k x_k||; sampler(rng, block) fills
    a float block with the next rows of weights from rng."""
    if samples < 1:
        raise ValueError(f"Monte Carlo needs samples >= 1, got {samples}")
    counts = [min(_CHUNK, samples - start) for start in range(0, samples, _CHUNK)]
    # drawn in pieces, a generator gives the stream of one whole draw
    draws = [partial(sampler, np.random.default_rng(s))
             for s in child_seeds(seed, len(counts))]
    total, total_sq = 0.0, 0.0
    for s, s_sq in _chunk_norms(draws, counts, config, space, partial(_chunk_sums, moment)):
        total += s
        total_sq += s_sq
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0) / samples
    return _finish(mean, var, moment, "monte-carlo", samples, seed)


def rademacher_average(config, space, moment=1, samples=100_000, seed=0, enum_cap=ENUM_CAP):
    """E || sum_k eps_k x_k || (moment 1) or the square root of the
    second moment (moment 2), over independent signs."""
    if moment not in (1, 2):
        raise ValueError("moment must be 1 or 2")
    config = _as_config(config)
    if config.shape[0] <= enum_cap:
        return _enumerated_averages(config[None], space, moment, seed)[0]
    return _mc_average(config, space, moment, _draw_signs, samples, seed)


def _enumerated_averages(configs, space, moment, seed):
    """The exact sign averages of a (k, n, dim) stack of configurations,
    from one _sign_sum call; each is its rademacher_average within the
    limit of linmaps._Blocks."""
    n = configs.shape[1]
    m = 2 ** (n - 1)
    sums = _sign_sum(n, configs, space, partial(_moments, moment=moment))
    return [_finish(float(total) / m, 0.0, moment, "exact-enumeration", m, seed)
            for total in sums]


def gaussian_average(config, space, moment=1, samples=100_000, seed=0):
    """Monte-Carlo E || sum_k g_k x_k || with reported standard error."""
    if moment not in (1, 2):
        raise ValueError("moment must be 1 or 2")
    config = _as_config(config)
    return _mc_average(config, space, moment, _draw_gaussians, samples, seed)


def ell_norm(u, samples=100_000, seed=0):
    """Gaussian second-moment average of a Euclidean-domain map applied
    to the coordinate basis; invariant under orthogonal change of basis."""
    if not u.domain.is_euclidean:
        raise ValueError("the ell norm needs a Euclidean domain")
    columns = np.asarray(u.matrix, dtype=float).T
    return gaussian_average(columns, u.codomain, moment=2, samples=samples, seed=seed)


def contraction_check(config, space, budget=16, seed=0):
    """(sup over the coefficient box, sup over signs) of ||sum a_k x_k||.

    The sign sup is enumerated exactly; the box sup additionally runs a
    continuous ascent over [-1, 1]^n, which by the extreme-point
    structure of the real cube can never exceed the sign value. For real
    scalars the two returned values agree.
    """
    config = _as_config(config)
    if np.iscomplexobj(config):
        raise ValueError("the contraction check is a real-scalar statement")
    n = config.shape[0]
    if n > ENUM_CAP:
        raise ValueError(f"sign enumeration capped at {ENUM_CAP} vectors")
    value, first = _sign_max(n, config, space)
    sup_signs, eps = float(value), sign_pattern(n, first)

    box_val, _ = multistart_maximize(
        **batch_forms(lambda P: (np.clip(P, -1.0, 1.0), np.ones(len(P), dtype=bool)),
                      lambda X: space.norm_rows(X @ config)),
        shape=(n,),
        structured=[eps, np.zeros(n), 0.5 * eps],
        budget=budget,
        seed=seed,
        random_start=lambda rng: rng.uniform(-1.0, 1.0, n),
    )
    return max(float(box_val), sup_signs), sup_signs


def gauss_vs_rademacher(config, space, samples=100_000, seed=0):
    """Both first-moment averages and their ratio.

    The gaussian average dominates sqrt(2/pi) times the sign average;
    with Monte Carlo on the gaussian side the comparison is meaningful
    up to a few standard errors. Zero configurations are flagged as
    degenerate rather than raising.
    """
    config = _as_config(config)
    s_gauss, s_rade = child_seeds(seed, 2)
    gauss = gaussian_average(config, space, moment=1, samples=samples, seed=s_gauss)
    rade = rademacher_average(config, space, moment=1, samples=samples, seed=s_rade)
    if rade.value == 0.0:
        return {"gaussian": gauss, "rademacher": rade, "ratio": None,
                "floor": math.sqrt(2.0 / math.pi), "degenerate": True}
    ratio = gauss.value / rade.value
    se = math.hypot(gauss.stderr, rade.stderr * ratio) / rade.value
    return {"gaussian": gauss, "rademacher": rade, "ratio": ratio,
            "ratio_stderr": se, "floor": math.sqrt(2.0 / math.pi), "degenerate": False}
