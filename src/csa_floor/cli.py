"""Command-line interface: analytic prediction, simulation, and search.

Exit codes: 0 on success, 1 on the package's input errors (``CsaFloorError``:
bad flags, malformed distributions, invalid plans and design points), 2 on
any other failure, I/O errors and numpy's own ``ValueError`` among them.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import oracle as oracle_mod
from .decoder import DegreeKeying
from .density_evolution import threshold
from .distributions import ChannelModel, format_distribution, induce, parse_distribution
from .errors import CsaFloorError
from .harness import (
    CSV_HEADER,
    SweepPlan,
    csv_line,
    csv_lines,
    dump_json,
    run_sweep,
    write_csv_lines,
)
from .optimizer import ObjectiveSpec, optimize
from .predictor import analytic_report, design_point
from .stopping_sets import CATALOG_BY_ID, beta


class ConfigError(CsaFloorError):
    """Unusable command-line configuration."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def parse_loads(text: str) -> tuple[float, ...]:
    """Load grid: ``start:stop:step`` (inclusive) or a comma list."""
    try:
        if ":" in text:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if step <= 0 or stop < start:
                raise ValueError
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            return tuple(round(start + i * step, 12) for i in range(count))
        return tuple(float(x) for x in text.split(","))
    except (ValueError, OverflowError) as exc:  # floor(inf) overflows
        raise ConfigError(f"cannot parse load grid {text!r}") from exc


def _keying(value: str) -> DegreeKeying:
    try:
        return DegreeKeying(value)
    except ValueError as exc:
        raise ConfigError(f"keying must be 'induced' or 'original', got {value!r}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="csa-floor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, dist=True, n=False, eps=False, g=False, sim=False):
        if dist:
            p.add_argument("--dist", required=True, help="degree distribution, e.g. 2:0.25,3:0.6,8:0.15")
        if n:
            p.add_argument("--n", type=int, default=200, help="slots per frame")
        if eps:
            p.add_argument("--eps", type=float, default=0.0, help="packet erasure probability")
        if g:
            p.add_argument("--g", required=True, help="loads: start:stop:step or comma list")
        if sim:
            p.add_argument("--frames", type=int, default=100_000)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--workers", type=int, default=1)
            p.add_argument("--keying", default="induced", help="induced or original")
            p.add_argument("--out-csv", default=None)
            p.add_argument("--out-json", default=None)

    p = sub.add_parser("induce", help="erasure-induced degree distribution")
    add_common(p, eps=True)
    p.add_argument("--out-json", default=None)

    p = sub.add_parser("predict", help="analytic error-floor prediction")
    add_common(p, n=True, eps=True, g=True)
    p.add_argument("--keying", default="induced")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)

    p = sub.add_parser("simulate", help="Monte Carlo sweep with analytic overlay")
    add_common(p, n=True, eps=True, g=True, sim=True)

    p = sub.add_parser("classify", help="residual stopping-set histogram at one load")
    add_common(p, n=True, eps=True, g=True, sim=True)

    p = sub.add_parser("threshold", help="density-evolution load threshold")
    add_common(p)

    p = sub.add_parser("optimize", help="degree-distribution search")
    p.add_argument("--support", required=True, help="allowed degrees, e.g. 3,8")
    p.add_argument("--w-threshold", type=float, default=0.5)
    p.add_argument("--w-floor", type=float, default=0.5)
    p.add_argument("--g-target", type=float, default=0.5)
    add_common(p, dist=False, n=True, eps=True)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-json", default=None)

    p = sub.add_parser("oracle", help="exact rational ground truth")
    p.add_argument("--sclass", default=None, help="catalog id S1..S8")
    p.add_argument("--degrees", default=None, help="user degree multiset, e.g. 2,2,2")
    p.add_argument("--n", type=int, required=True)

    return parser


def _cmd_induce(args) -> int:
    dist = parse_distribution(args.dist)
    induced = induce(dist, ChannelModel(args.eps))
    print(format_distribution(induced))
    if args.out_json:
        payload = {"epsilon": args.eps, "original": list(dist.probs), "induced": list(induced.probs)}
        dump_json(payload, args.out_json)
    return 0


def _cmd_predict(args) -> int:
    dist = parse_distribution(args.dist)
    loads = parse_loads(args.g)
    keying = _keying(args.keying)
    channel, users = design_point(args.n, args.eps, loads, dist.max_support_degree())
    reports = [(g, m, analytic_report(m, args.n, dist, channel)) for g, m in zip(loads, users)]
    for g, m, rep in reports:
        print(f"g={g:g} m={m} n={args.n} eps={args.eps:g} avg_plr={rep.average:.6g}")
    if args.out_json:
        dump_json([dict(g=g, **rep.to_dict()) for g, _, rep in reports], args.out_json)
    if args.out_csv:
        lines = [CSV_HEADER]
        for g, m, rep in reports:
            for degree, value in [*enumerate(rep.keyed(keying)), ("avg", rep.average)]:
                lines.append(csv_line(g, m, args.n, 0, degree, "", "", value, keying.value))
        write_csv_lines(lines, args.out_csv)
    return 0


def _make_plan(args, out_json: str | None) -> SweepPlan:
    return SweepPlan(
        dist=parse_distribution(args.dist),
        n=args.n,
        epsilon=args.eps,
        loads=parse_loads(args.g),
        frames=args.frames,
        seed=args.seed,
        keying=_keying(args.keying),
        workers=args.workers,
        out_csv=args.out_csv,
        out_json=out_json,
    )


def _cmd_simulate(args) -> int:
    rows = run_sweep(_make_plan(args, args.out_json))
    for line in csv_lines(rows):
        print(line)
    return 0


def _cmd_classify(args) -> int:
    rows = run_sweep(_make_plan(args, None))  # the histogram payload is its JSON
    keys = ("g", "m", "frames", "histogram", "histogram_rates")
    payload = [{k: d[k] for k in keys} for d in (row.to_dict() for row in rows)]
    print(dump_json(payload, args.out_json), end="")
    return 0


def _cmd_threshold(args) -> int:
    dist = parse_distribution(args.dist)
    print(f"{threshold(dist):.6g}")
    return 0


def _cmd_optimize(args) -> int:
    try:
        support = tuple(int(d) for d in args.support.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse support {args.support!r}") from exc
    spec = ObjectiveSpec(
        support=support,
        w_threshold=args.w_threshold,
        w_floor=args.w_floor,
        g_target=args.g_target,
        n=args.n,
        epsilon=args.eps,
    )
    result = optimize(spec, budget=args.budget, rng=args.seed)
    print(format_distribution(result.best))
    print(f"score={result.best_score:.6g}", file=sys.stderr)
    if args.out_json:
        payload = {
            "best": list(result.best.probs),
            "best_text": format_distribution(result.best),
            "best_score": result.best_score,
            "trace": [{"probs": list(probs), "score": score} for probs, score in result.trace],
        }
        dump_json(payload, args.out_json)
    return 0


def _cmd_oracle(args) -> int:
    if (args.sclass is None) == (args.degrees is None):
        raise ConfigError("give exactly one of --sclass or --degrees")
    if args.sclass is not None:
        sclass = CATALOG_BY_ID.get(args.sclass)
        if sclass is None:
            raise ConfigError(f"unknown class {args.sclass!r}; expected S1..S8")
        exact = oracle_mod.exact_beta(sclass, args.n)
        payload = {
            "class": sclass.id,
            "n": args.n,
            "exact": str(exact),
            "exact_float": float(exact),
            "printed": beta(sclass, args.n),
        }
    else:
        try:
            degrees = tuple(int(d) for d in args.degrees.split(","))
        except ValueError as exc:
            raise ConfigError(f"cannot parse degrees {args.degrees!r}") from exc
        tally = oracle_mod.exact_event_probabilities(degrees, args.n)
        payload = {
            "degrees": list(tally.degrees),
            "n": tally.n,
            "assignments": tally.total,
            "unresolved": {str(k): str(v) for k, v in tally.unresolved.items()},
            "labels": {k: str(v) for k, v in tally.labels.items()},
        }
    print(dump_json(payload), end="")
    return 0


_COMMANDS = {
    "induce": _cmd_induce,
    "predict": _cmd_predict,
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "threshold": _cmd_threshold,
    "optimize": _cmd_optimize,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CsaFloorError as exc:  # bad input: flags, laws, plans, design points
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception as exc:  # I/O and internal failures
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
