"""Seeded workloads of the banachkit benchmark.

A workload turns a seed into a list of ops. An op is one call into the
package (the timed part) and a check of what it returned (run after the
timer stops). The seed decides every input; the package only sees the
generated matrices, configurations, descriptors and sub-seeds.

The mix of sizes, families and kinds in each workload is fixed; the seed
decides the values (matrices, vectors, sub-seeds) and the order. That
keeps the work of one pass nearly the same from seed to seed, so the
timing metrics compare across seeds.

Ops reach the package through ``_call``, which looks a function up on
its module when the op runs, never through a name bound at import, so
the tracer's patches reach these calls too.
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from banachkit import (averages, cli, gauges, linmaps, pipeline, snumbers, spaces,
                       suites, summing)
from banachkit.estimates import jsonable
from banachkit.growth import GrowthSequence

#: relative slack when a stored witness is re-evaluated
REEVAL_RTOL = 1e-12

#: ASSERT checks that fail at some seeds because of open defects in the
#: package: they count as failed ops but leave the run correct. Any other
#: failure marks the run incorrect.
KNOWN_DEFECTS = {
    # unit-vector-normalization: lp:2:3 normalizes to 0.9999999999999999 and
    # the suite compares with == 1.0; self-concavity fails at seed 0
    "suite:gauges": {"unit-vector-normalization", "self-concavity"},
}


@dataclass
class Outcome:
    """What the check of one op found."""

    ok: bool
    digest: str
    why: str = ""
    #: value / certified upper of a lower-tagged estimate, if the op made one
    tightness: float | None = None
    #: the failure is one of KNOWN_DEFECTS
    known: bool = False


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def digest(doc):
    """Hash of a JSON document; floats keep every digit through repr."""
    text = json.dumps(jsonable(doc), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _close(a, b):
    return abs(a - b) <= REEVAL_RTOL * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
# verify-all: the 17 suites, each serialized as `verify all --out` does


def _run_suite(name, seed):
    return suites.run_suite(name, seed=seed).to_json()


def _check_suite(label, text):
    doc = json.loads(text)
    for rec in doc["records"]:
        rec.pop("runtime", None)  # wall clock, outside the bitwise contract
    failed = [r["name"] for r in doc["records"]
              if r["tier"] == "ASSERT" and r["verdict"] == "fail"]
    return Outcome(not failed, digest(doc), why="ASSERT failed: " + ",".join(failed)
                   if failed else "", known=set(failed) <= KNOWN_DEFECTS.get(label, set()))


def verify_all(seed, scratch):
    ops = []
    for name in suites.SUITES:
        label = f"suite:{name}"
        ops.append(Op(label, partial(_run_suite, name, seed), partial(_check_suite, label)))
    return ops


# --------------------------------------------------------------------------
# sampling: sign enumeration, Monte Carlo averages and block certificates

#: (vectors, dim) of the enumerated sign averages; 2^(n-1) x dim arrays
ENUM_SHAPES = ((16, 32), (16, 64), (16, 128), (18, 32), (18, 64), (20, 32))
ENUM_FAMILIES = (
    ("lp:1.5", "lp:3", "lp:2", "lp:1", "lp:2.5", "lp:2"),
    ("lorentz:2:1", "lorentz:2:inf", "lorentz:3:2", "lorentz:1.5:inf", "lorentz:4:2",
     "lorentz:2:inf"),
    ("gweak:pow:0.5", "gweak:pow:0.3", "gweak:pow:0.7", "gweak:pow:0.5", "gweak:pow:0.4",
     "gweak:pow:0.6"),
)
MC_FAMILIES = ("lp:2", "lorentz:2:1", "gweak:pow:0.5")
MC_SAMPLES = 200_000
MC_GAUSS_SHAPE = (16, 64)
MC_SIGN_SHAPE = (24, 32)  # past the enumeration cap, so signs are sampled
PIPELINE_SPACES = ("lp:2:32", "lp:1:32")


def _space(family, dim):
    return spaces.parse_space(f"{family}:{dim}")


def _call(module, name, *args, **kwargs):
    """Call module.name, looked up now, so a traced pass sees the patch."""
    return getattr(module, name)(*args, **kwargs)


def _check_average(method, samples, res):
    doc = res.to_dict()
    bad = []
    if res.method != method:
        bad.append(f"method {res.method} != {method}")
    if res.samples != samples:
        bad.append(f"samples {res.samples} != {samples}")
    if not (math.isfinite(res.value) and res.value > 0.0 and math.isfinite(res.stderr)):
        bad.append(f"value {res.value!r} stderr {res.stderr!r}")
    return Outcome(not bad, digest(doc), why="; ".join(bad))


def _certificate(config, space, g, ledger, seed):
    cert = pipeline.run_pipeline(config, space, g, ledger, budget=8, samples=20_000,
                                 seed=seed)
    ok, mismatches = pipeline.revalidate(cert, config, space, g, ledger)
    return cert, ok, mismatches


def _check_certificate(res):
    cert, ok, mismatches = res
    return Outcome(ok, digest(cert.to_dict()),
                   why="" if ok else "revalidate: " + "; ".join(mismatches))


def sampling(seed, scratch):
    rng = np.random.default_rng(seed)
    ops = []
    for fams in ENUM_FAMILIES:
        for (n, dim), fam in zip(ENUM_SHAPES, fams):
            space = _space(fam, dim)
            config = rng.standard_normal((n, dim))
            moment = int(rng.integers(1, 3))
            ops.append(Op(
                f"enum:{fam}:{dim}:n{n}",
                partial(_call, averages, "rademacher_average", config, space, moment=moment),
                partial(_check_average, "exact-enumeration", 2 ** (n - 1)),
            ))
    for fam in MC_FAMILIES:
        n, dim = MC_GAUSS_SHAPE
        ops.append(Op(
            f"gauss:{fam}:{dim}:n{n}",
            partial(_call, averages, "gaussian_average", rng.standard_normal((n, dim)),
                    _space(fam, dim), moment=int(rng.integers(1, 3)),
                    samples=MC_SAMPLES, seed=int(rng.integers(2**31))),
            partial(_check_average, "monte-carlo", MC_SAMPLES),
        ))
        n, dim = MC_SIGN_SHAPE
        ops.append(Op(
            f"sign-mc:{fam}:{dim}:n{n}",
            partial(_call, averages, "rademacher_average", rng.standard_normal((n, dim)),
                    _space(fam, dim), moment=int(rng.integers(1, 3)),
                    samples=MC_SAMPLES, seed=int(rng.integers(2**31))),
            partial(_check_average, "monte-carlo", MC_SAMPLES),
        ))
    g = GrowthSequence.power(0.5)
    ledger = summing.constant_ledger(g, H=1.0, K=1.0)
    for desc in PIPELINE_SPACES:
        space = spaces.parse_space(desc)
        # a random orthonormal frame, scaled into the weak-2 premise
        q, _ = np.linalg.qr(rng.standard_normal((space.dim, space.dim)))
        config = q / linmaps.weak_lq_upper(q, space, 2.0)
        ops.append(Op(f"certificate:{desc}",
                      partial(_certificate, config, space, g, ledger,
                              int(rng.integers(2**31))),
                      _check_certificate))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# --------------------------------------------------------------------------
# desk-calls: single estimates on small inputs, a quarter through the CLI

ALL_FAMILIES = ("lp:1", "lp:1.5", "lp:2", "lp:3", "lp:inf", "lorentz:2:1", "lorentz:3:2",
                "lorentz:2:inf", "lorentz:1.5:inf", "gweak:pow:0.5", "gweak:pow:0.3")
#: (domain, codomain) families of the closed-form operator-norm routes:
#: Euclidean, out of l_1, into l_inf, out of a small l_inf cube
EXACT_ROUTES = (("lp:2", "lp:2"), ("lp:2", "lorentz:2:2"), ("lp:1", "lorentz:2:inf"),
                ("lp:1", "gweak:pow:0.5"), ("lp:1", "lp:3"), ("lp:1.5", "lp:inf"),
                ("lorentz:2:inf", "lp:inf"), ("gweak:pow:0.5", "lp:inf"), ("lp:inf", "lp:2"),
                ("lp:inf", "lorentz:3:2"), ("lp:inf", "gweak:pow:0.3"),
                ("lp:inf", "lorentz:2:inf"))
LINF_ENUM_DIM = 10  # l_inf domains stay small: their route enumerates 2^(dim-1) signs
#: (domain, codomain) families with no closed form: a witnessed search
SEARCH_ROUTES = tuple((d, c) for d in ("lp:1.5", "lp:3", "lorentz:2:1", "lorentz:3:2",
                                       "lorentz:2:inf", "gweak:pow:0.5")
                      for c in ("lp:1", "lp:2.5", "lorentz:3:2", "lorentz:2:inf",
                                "gweak:pow:0.3", "lp:1.5"))
#: dual norms: the finite-q Lorentz ones need a search, the rest are closed forms
DUAL_FAMILIES = ("lorentz:2:1", "lorentz:3:2", "lorentz:4:2", "lorentz:1.5:1", "lp:1.5",
                 "lorentz:2:inf", "gweak:pow:0.5", "lp:inf")
WEAK_QS = (1.0, 1.5, 2.0, 3.0, math.inf)
CODOMAIN_DIMS = (2, 3, 4, 6, 8, 12, 16, 24, 32)
DESIGN_SEED = 20240601

#: dims each request kind cycles through
DESK_DIMS = {
    "opnorm-exact": (2, 4, 8, 12, 16, 24, 32),
    "opnorm-search": (2, 3, 4, 6, 8, 12, 16, 24, 32),
    "dual": (2, 4, 8, 16, 24, 32),
    "weak-lq": (2, 4, 8, 16, 32),
    "approx": (2, 4, 8, 12, 16),
    "weyl": (2, 3, 4, 6),
    "eig": (2, 4, 8, 16, 32),
    "pi-pq": (2, 3, 4, 6),
    "cotype": (2, 3, 4, 6),
    "gauge": (2, 3, 4, 5),
}
#: The mix is unweighted: no record of real use exists to weight it, so
#: every kind gets the same count. It is a synthetic mix, not measured use.
PER_KIND = 48
#: kinds the CLI serves -> subcommand; 20 of each kind's 48 requests go
#: through cli.main, 6 x 20 = 120, a quarter of the 480 requests
CLI_KINDS = {"approx": "snum", "weyl": "snum", "eig": "eig", "pi-pq": "summing",
             "cotype": "cotype", "gauge": "gauge"}
CLI_PER_KIND = 20


@dataclass
class Request:
    kind: str
    args: dict
    cli: bool = False


def _cycle(values, count, rng):
    """count entries cycling through values, in a seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    return [out[i] for i in rng.permutation(count)]


def desk_requests(seed):
    """The seeded request stream of the desk-calls workload (in memory).

    The design (which dims, families and parameters go together) is the
    same at every seed: every parameter of a kind cycles through a fixed
    list, paired up by a fixed shuffle. The seed draws the matrices,
    vectors and sub-seeds, and orders the stream.
    """
    design = np.random.default_rng(DESIGN_SEED)
    rng = np.random.default_rng(seed)
    reqs = []
    for kind, dims in DESK_DIMS.items():
        draw = partial(_cycle, count=PER_KIND, rng=design)
        via_cli = draw((True,) * CLI_PER_KIND + (False,) * (PER_KIND - CLI_PER_KIND)) \
            if kind in CLI_KINDS else [False] * PER_KIND
        cols = {"dim": draw(dims), "fam": draw(ALL_FAMILIES), "cod": draw(ALL_FAMILIES),
                "m": draw(CODOMAIN_DIMS), "exact": draw(EXACT_ROUTES),
                "search": draw(SEARCH_ROUTES), "dual": draw(DUAL_FAMILIES),
                "q": draw(WEAK_QS), "n": draw((2, 3, 4, 5, 6, 7, 8)),
                "pq": draw(((1.0, 1.0), (2.0, 2.0), (2.0, 1.0))), "few": draw((2, 3, 4)),
                "cq": draw((2.0, 3.0)), "tau": draw((1, 2, 3)),
                "gk": draw(("summing", "cotype"))}
        for i in range(PER_KIND):
            c = {k: v[i] for k, v in cols.items()}
            dim, m = c["dim"], c["m"]
            args = {"seed": int(rng.integers(2**31))}
            if kind == "opnorm-exact":
                dom, cod = c["exact"]
                if dom == "lp:inf":
                    dim = min(dim, LINF_ENUM_DIM)
                args.update(dom=f"{dom}:{dim}", cod=f"{cod}:{m}",
                            matrix=rng.standard_normal((m, dim)))
            elif kind == "opnorm-search":
                dom, cod = c["search"]
                args.update(dom=f"{dom}:{dim}", cod=f"{cod}:{m}",
                            matrix=rng.standard_normal((m, dim)))
            elif kind == "dual":
                args.update(space=f"{c['dual']}:{dim}", y=rng.standard_normal(dim))
            elif kind == "weak-lq":
                args.update(space=f"{c['fam']}:{dim}", q=c["q"],
                            config=rng.standard_normal((c["n"], dim)))
            elif kind in ("approx", "weyl"):
                m = min(m, dim + 2)
                args.update(dom=f"{c['fam']}:{dim}", cod=f"{c['cod']}:{m}",
                            matrix=rng.standard_normal((m, dim)))
            elif kind == "eig":
                args.update(dom=f"{c['fam']}:{dim}", matrix=rng.standard_normal((dim, dim)))
            elif kind == "pi-pq":
                args.update(space=f"{c['fam']}:{dim}", p=c["pq"][0], q=c["pq"][1],
                            n=c["few"])
            elif kind == "cotype":
                args.update(space=f"{c['fam']}:{dim}", q=c["cq"], n=c["few"])
            elif kind == "gauge":
                args.update(space=f"{c['fam']}:{dim}", kind=c["gk"],
                            tau=rng.uniform(0.2, 1.0, c["tau"]))
            reqs.append(Request(kind, args, via_cli[i]))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def _linear_map(a):
    dom = spaces.parse_space(a["dom"])
    cod = spaces.parse_space(a["cod"]) if "cod" in a else dom
    return linmaps.LinearMap(a["matrix"], dom, cod)


def _check_lower(value_of_witness, feasible, est):
    """Checks of a lower-tagged estimate: the stored witness is feasible
    and reproduces the value, and the value stays below meta["upper"]."""
    doc = est.to_dict()
    if est.direction != "lower":
        return Outcome(True, digest(doc))
    upper = est.meta["upper"]
    bad = []
    again = value_of_witness(est.witness)
    if not _close(again, est.value):
        bad.append(f"witness gives {again!r}, reported {est.value!r}")
    if not feasible(est.witness):
        bad.append("witness outside the unit ball")
    if not est.value <= upper:
        bad.append(f"value {est.value!r} above upper {upper!r}")
    ratio = est.value / upper if upper > 0 else None
    return Outcome(not bad, digest(doc), why="; ".join(bad), tightness=ratio)


def _check_opnorm(T, est):
    A = np.asarray(T.matrix, dtype=float)
    return _check_lower(lambda w: T.codomain.norm(A @ w),
                        lambda w: T.domain.norm(w) <= 1.0 + REEVAL_RTOL, est)


def _check_dual(space, y, est):
    return _check_lower(lambda w: abs(float(w @ y)),
                        lambda w: space.norm(w) <= 1.0 + REEVAL_RTOL, est)


def _check_weak(space, config, q, est):
    def moment(z):
        a = np.abs(config @ z)
        return float(np.max(a)) if q == math.inf else float(np.sum(a**q) ** (1.0 / q))

    return _check_lower(moment, lambda z: space.dual_upper(z) <= 1.0 + REEVAL_RTOL, est)


def _check_finite(res):
    doc = jsonable(res.to_dict())
    vals = np.asarray(doc.get("values", [doc.get("value", 0.0)]), dtype=float)
    ok = bool(np.all(np.isfinite(vals)))
    return Outcome(ok, digest(doc), why="" if ok else "non-finite value")


def _check_eig(res):
    ok = bool(np.all(np.isfinite(res.moduli)))
    return Outcome(ok, digest(res.to_dict()), why="" if ok else "non-finite eigenvalue")


def _api_op(i, req):
    a = req.args
    kind = req.kind
    if kind in ("opnorm-exact", "opnorm-search"):
        T = _linear_map(a)
        return Op(f"{i}:operator_norm:{a['dom']}->{a['cod']}",
                  partial(_call, linmaps, "operator_norm", T, seed=a["seed"]),
                  partial(_check_opnorm, T))
    if kind == "dual":
        space = spaces.parse_space(a["space"])
        return Op(f"{i}:dual_norm:{a['space']}",
                  partial(_call, linmaps, "dual_norm", space, a["y"], seed=a["seed"]),
                  partial(_check_dual, space, a["y"]))
    if kind == "weak-lq":
        space = spaces.parse_space(a["space"])
        return Op(f"{i}:weak_lq_functional:{a['space']}:q{a['q']:g}",
                  partial(_call, linmaps, "weak_lq_functional", a["config"], space, a["q"],
                          seed=a["seed"]),
                  partial(_check_weak, space, a["config"], a["q"]))
    if kind == "approx":
        return Op(f"{i}:approximation_numbers:{a['dom']}->{a['cod']}",
                  partial(_call, snumbers, "approximation_numbers", _linear_map(a)),
                  _check_finite)
    if kind == "weyl":
        return Op(f"{i}:weyl_numbers:{a['dom']}->{a['cod']}",
                  partial(_call, snumbers, "weyl_numbers", _linear_map(a), seed=a["seed"]),
                  _check_finite)
    if kind == "eig":
        return Op(f"{i}:eigenvalue_sequence:{a['dom']}",
                  partial(_call, snumbers, "eigenvalue_sequence", _linear_map(a)), _check_eig)
    if kind == "pi-pq":
        T = linmaps.identity_map(spaces.parse_space(a["space"]))
        return Op(f"{i}:pi_pq_n:{a['space']}",
                  partial(_call, summing, "pi_pq_n", T, a["p"], a["q"], a["n"], budget=16,
                          seed=a["seed"]),
                  _check_finite)
    if kind == "cotype":
        return Op(f"{i}:cotype_q_constant:{a['space']}",
                  partial(_call, summing, "cotype_q_constant", spaces.parse_space(a["space"]),
                          a["q"], a["n"], budget=16, seed=a["seed"]),
                  _check_finite)
    if kind == "gauge":
        return Op(f"{i}:opt_gauge:{a['space']}:{a['kind']}",
                  partial(_call, gauges, "opt_gauge", a["tau"], spaces.parse_space(a["space"]),
                          a["kind"], budget=8, seed=a["seed"]),
                  _check_finite)
    raise ValueError(f"unknown request kind {kind!r}")


def _fmt(vec):
    return ",".join(repr(float(v)) for v in vec)


def _cli_argv(i, req, scratch):
    """argv for a CLI request; matrix inputs are written here, in set-up."""
    a = req.args
    kind = req.kind
    cmd = CLI_KINDS[kind]
    common = ["--seed", str(a["seed"]), "--out", str(scratch / f"req{i}.json")]
    if cmd in ("snum", "eig"):
        path = scratch / f"req{i}.txt"
        np.savetxt(path, a["matrix"], fmt="%.17g")
        argv = [cmd, "--matrix-file", str(path), "--domain", a["dom"]]
        if cmd == "snum":
            argv += ["--codomain", a["cod"], "--kind", kind, "--budget", "16"]
        return argv + common
    if cmd == "summing":
        return ["summing", "--space", a["space"], "--n", str(a["n"]), "--p", repr(a["p"]),
                "--q", repr(a["q"]), "--budget", "16", *common]
    if cmd == "cotype":
        return ["cotype", "--space", a["space"], "--n", str(a["n"]), "--q", repr(a["q"]),
                "--budget", "16", *common]
    return ["gauge", "--space", a["space"], f"--tau={_fmt(a['tau'])}", "--kind", a["kind"],
            "--budget", "8", *common]


def _run_cli(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
    return code, sink.getvalue()


def _check_cli(out_path, res):
    code, text = res
    if code != 0:
        return Outcome(False, f"exit{code}", why=f"exit {code}: {text.strip()[-200:]}")
    return Outcome(True, digest(json.loads(Path(out_path).read_text())))


def desk_calls(seed, scratch):
    ops = []
    for i, req in enumerate(desk_requests(seed)):
        if req.cli:
            argv = _cli_argv(i, req, scratch)
            out = argv[argv.index("--out") + 1]
            ops.append(Op(f"{i}:cli:{' '.join(argv[:2])}", partial(_run_cli, argv),
                          partial(_check_cli, out)))
        else:
            ops.append(_api_op(i, req))
    return ops


def tightness_probe(seed):
    """The lower-tagged requests of the seed's desk-calls stream.

    verify-all and sampling make no such estimate of their own; they run
    these after their timed passes so that every workload reports
    lower_tightness.
    """
    reqs = desk_requests(seed)
    return [_api_op(i, r) for i, r in enumerate(reqs)
            if r.kind in ("opnorm-search", "dual", "weak-lq")]


BUILDERS = {"verify-all": verify_all, "sampling": sampling, "desk-calls": desk_calls}


def build(name, seed, scratch):
    """Generate the inputs of a workload: its list of ops."""
    scratch = Path(scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, scratch)
