"""Command-line front door.

Space and growth descriptors share one grammar:

    lp:<p>:<n>    lorentz:<p>:<q>:<n>    gweak:pow:<a>:<n>    gweak:file:<path>:<n>

(the trailing dimension may be dropped where only the family matters).
Exit status: 0 on success, 1 when an asserted check fails, 2 on usage
errors; usage errors name the offending token.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .averages import gaussian_average, rademacher_average
from .estimates import jsonable
from .gauges import convexify, opt_gauge
from .growth import GrowthSequence, g_q, tilde_g, validate_growth
from .linmaps import LinearMap, identity_map, weak_lq_upper
from .pipeline import run_pipeline
from .snumbers import approximation_numbers, eigen_decay_vs_weyl, eigenvalue_sequence, weyl_numbers
from .spaces import DescriptorError, parse_family, parse_space
from .suites import SUITES, run_suite
from .summing import constant_ledger, cotype_q_constant, pi_pq_n


def _vector(text):
    try:
        return np.array([float(t) for t in text.split(",") if t != ""])
    except ValueError as exc:
        raise DescriptorError(text, text, "not a comma-separated vector") from exc


def _sample_count(text):
    """A Monte Carlo sample count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid sample count {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 sample, got {text!r}")
    return value


def _matrix(path):
    return np.loadtxt(path, ndmin=2)


def _config(args, dim):
    if getattr(args, "config_file", None):
        return _matrix(args.config_file)
    return np.eye(dim)


def _emit(args, payload, lines):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(jsonable(payload), indent=2))
    for line in lines:
        print(line)


def cmd_norm(args):
    space, dim = parse_family(args.descriptor)
    vec = _vector(args.vec) if args.vec else np.loadtxt(args.vec_file)
    if dim is not None and vec.size != dim:
        raise DescriptorError(args.descriptor, str(dim), "dimension does not match the vector")
    value = space.norm(vec)
    _emit(args, {"descriptor": args.descriptor, "value": value}, [f"{value:.6g}"])
    return 0


def _parse_growth(descriptor):
    """Growth descriptors reuse the gweak grammar and carry the range."""
    space, n = parse_family(descriptor)
    if space.family != "gweak" or n is None:
        raise DescriptorError(descriptor, descriptor, "expected gweak:...:<N>")
    return space.g, n


def cmd_growth(args):
    g, n_max = _parse_growth(args.descriptor)
    t = r = None
    if args.check:
        for token in args.check.split(","):
            if token == "S":
                continue
            if token.startswith("L:"):
                t = float(token[2:])
            elif token.startswith("M:"):
                r = int(token[2:])
            else:
                raise DescriptorError(args.check, token, "expected S, L:<t> or M:<r>")
    report = validate_growth(g, n_max, t=t, r=r)
    lines = [report.summary()]
    lines += [f"warning: {w}" for w in report.warnings]
    lines += [f"violation: {v}" for v in report.violations]
    if args.tilde:
        rr, nn = (int(x) for x in args.tilde.split(":"))
        lines.append(f"tilde({rr},{nn}) = {tilde_g(g, rr, nn):.6g}")
    if args.gq:
        qq, nn = args.gq.split(":")
        lines.append(f"gq({qq},{nn}) = {g_q(g, float(qq), int(nn)):.6g}")
    _emit(args, report.__dict__, lines)
    return 0 if report.ok else 1


def _map_from_args(args):
    dom = parse_space(args.domain)
    cod = parse_space(args.codomain) if args.codomain else dom
    mat = _matrix(args.matrix_file) if args.matrix_file else np.eye(cod.dim, dom.dim)
    return LinearMap(mat, dom, cod)


def cmd_snum(args):
    T = _map_from_args(args)
    if args.kind == "approx":
        seq = approximation_numbers(T)
    else:
        seq = weyl_numbers(T, budget=args.budget, seed=args.seed)
    vals = ", ".join(f"{v:.6g}({d})" for v, d in zip(seq.values, seq.directions))
    _emit(args, seq.to_dict(), [f"{seq.kind}: {vals}"])
    return 0


def cmd_eig(args):
    T = _map_from_args(args)
    eig = eigenvalue_sequence(T)
    lines = ["moduli: " + ", ".join(f"{m:.6g}" for m in eig.moduli)]
    payload = eig.to_dict()
    if args.growth:
        g, _ = _parse_growth(args.growth)
        report = eigen_decay_vs_weyl(T, g, budget=args.budget, seed=args.seed)
        payload = {"eigenvalues": payload, "decay": jsonable(report)}
        lines.append(f"sup g(k)|lambda_k| = {report['sup_g_eig']:.6g}, "
                     f"sup g(k) x_k >= {report['sup_g_weyl']:.6g}")
    _emit(args, payload, lines)
    return 0


def cmd_avg(args):
    space = parse_space(args.space)
    config = _config(args, space.dim)
    fn = gaussian_average if args.variable == "gaussian" else rademacher_average
    res = fn(config, space, moment=args.moment, samples=args.samples, seed=args.seed)
    _emit(args, res.to_dict(),
          [f"{res.value:.6g} ({res.method}, n={res.samples}, se={res.stderr:.2g})"])
    return 0


def cmd_summing(args):
    space = parse_space(args.space)
    T = identity_map(space) if not args.matrix_file else LinearMap(
        _matrix(args.matrix_file), space, space)
    est = pi_pq_n(T, args.p, args.q, args.n, budget=args.budget, seed=args.seed)
    _emit(args, est.to_dict(),
          [f"pi_{args.p:g}{args.q:g} with {args.n} vectors >= {est.value:.6g}"])
    return 0


def cmd_cotype(args):
    space = parse_space(args.space)
    est = cotype_q_constant(space, args.q, args.n, budget=args.budget, seed=args.seed,
                            variable=args.variable)
    _emit(args, est.to_dict(), [f"cotype-{args.q:g} with {args.n} vectors >= {est.value:.6g}"])
    return 0


def cmd_gauge(args):
    space = parse_space(args.space)
    tau = _vector(args.tau)
    if args.convexify:
        gv = convexify(tau, space, args.kind, budget=args.budget, seed=args.seed)
    else:
        gv = opt_gauge(tau, space, args.kind, budget=args.budget, seed=args.seed)
    _emit(args, gv.to_dict(), [f"{args.kind} gauge <= {gv.value:.6g}"])
    return 0


def cmd_pipeline(args):
    space = parse_space(args.space)
    config = _config(args, space.dim)
    if not getattr(args, "config_file", None):
        # default coordinate config, scaled into the weak-2 premise
        config = config / weak_lq_upper(config, space, 2.0)
    if args.growth:
        g, _ = _parse_growth(args.growth)
    else:
        g = GrowthSequence.power(0.5)
    ledger = constant_ledger(g, H=args.H, K=args.K, r=args.r)
    cert = run_pipeline(config, space, g, ledger, budget=args.budget,
                        samples=args.samples, seed=args.seed)
    lines = [
        f"plan: n={cert.plan.n} s={cert.plan.s} p={cert.plan.p} k={cert.plan.k}",
        f"final measured {cert.final_measured.value:.6g} vs floor {cert.final_floor:.3g}",
        f"verdict: {'all floors dominated' if cert.verdict else 'floor missed'}",
    ]
    _emit(args, cert.to_dict(), lines)
    return 0 if cert.verdict else 1


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    bad = [n for n in names if n not in SUITES]
    if bad:
        raise DescriptorError(args.suite, bad[0],
                              "unknown suite; see `banachkit verify --list`")
    status = 0
    reports = []
    for name in names:
        kwargs = {}
        if args.budget is not None:
            kwargs["budget"] = args.budget
        if args.tol is not None:
            kwargs["tol"] = args.tol
        rep = run_suite(name, seed=args.seed, **kwargs)
        reports.append(rep)
        for line in rep.summary_lines():
            print(line)
        if not rep.passed:
            status = 1
    if args.out:
        if args.format == "csv":
            text = "".join(r.to_csv() for r in reports)
        else:
            docs = [r.to_dict() for r in reports]
            text = json.dumps(docs[0] if len(docs) == 1 else docs, indent=2)
        with open(args.out, "w") as fh:
            fh.write(text)
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="banachkit",
        description="sequence-space norms, s-numbers, summing and cotype "
                    "estimators, and verification suites",
    )
    parser.add_argument("--version", action="version", version=f"banachkit {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="write a structured report here")
    # --budget only where a search uses it; verify leaves it to each
    # suite, so it is not in common either: set_defaults on an action
    # shared through a parent changes it everywhere
    budgeted = argparse.ArgumentParser(add_help=False, parents=[common])
    budgeted.add_argument("--budget", type=int, default=32)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", parents=[common], help="evaluate a sequence norm")
    p.add_argument("descriptor")
    p.add_argument("--vec", help="comma-separated entries")
    p.add_argument("--vec-file")

    p = sub.add_parser("growth", parents=[common], help="validate a growth sequence")
    p.add_argument("descriptor", help="gweak:pow:<a>:<N> or gweak:file:<path>:<N>")
    p.add_argument("--check", help="comma list of S, L:<t>, M:<r>")
    p.add_argument("--tilde", help="r:n")
    p.add_argument("--gq", help="q:n")

    p = sub.add_parser("snum", parents=[budgeted], help="s-number sequences")
    p.add_argument("--matrix-file")
    p.add_argument("--domain", required=True)
    p.add_argument("--codomain")
    p.add_argument("--kind", choices=("approx", "weyl"), default="approx")

    p = sub.add_parser("eig", parents=[budgeted], help="eigenvalue sequence and decay")
    p.add_argument("--matrix-file")
    p.add_argument("--domain", required=True)
    p.add_argument("--codomain")
    p.add_argument("--growth")

    p = sub.add_parser("avg", parents=[common], help="sign / gaussian averages")
    p.add_argument("--space", required=True)
    p.add_argument("--config-file")
    p.add_argument("--variable", choices=("rademacher", "gaussian"), default="rademacher")
    p.add_argument("--moment", type=int, choices=(1, 2), default=1)
    p.add_argument("--samples", type=_sample_count, default=100_000)

    p = sub.add_parser("summing", parents=[budgeted], help="summing norm lower bounds")
    p.add_argument("--space", required=True)
    p.add_argument("--matrix-file")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("cotype", parents=[budgeted], help="cotype constant lower bounds")
    p.add_argument("--space", required=True)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variable", choices=("rademacher", "gaussian"), default="rademacher")

    p = sub.add_parser("gauge", parents=[budgeted], help="optimal gauge upper bounds")
    p.add_argument("--space", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--kind", choices=("summing", "cotype"), default="summing")
    p.add_argument("--convexify", action="store_true")

    p = sub.add_parser("pipeline", parents=[budgeted], help="block lower-bound certificate")
    p.add_argument("--space", required=True)
    p.add_argument("--config-file")
    p.add_argument("--growth")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--H", type=float, default=1.0)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--samples", type=_sample_count, default=20_000)

    p = sub.add_parser("verify", parents=[common], help="run a named verification suite")
    p.add_argument("suite", nargs="?", default="all",
                   help="suite name or 'all'; --list shows the registry")
    p.add_argument("--list", action="store_true")
    p.add_argument("--budget", type=int, default=None,
                   help="search budget (default: each suite's own)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


#: the parser of main, built once per process, on import: building it
#: takes dozens of times as long as parsing one command line, and a
#: parser built on the first call would make that call unlike the rest
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    if getattr(args, "list", False):
        for name in SUITES:
            print(name)
        return 0
    # looked up on each call, not bound into the parser, so that a
    # rebinding of cmd_<command> in this module (a tracer's) takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except DescriptorError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
