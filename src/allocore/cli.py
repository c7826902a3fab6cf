"""Command-line front end.

Subcommands: ``analyze`` (core emptiness and every relaxation optimum),
``mst`` (the 2-approximation, the one-tree core allocation, or the full
cost table of a spanning-tree instance), ``separate`` (almost-core
membership of a given point), and ``bench`` (seeded random study of the
realized approximation ratio). All numeric output is exact "p/q" text;
``--decimal`` adds a clearly-labeled approximate rendering.

Exit codes: 0 success, 2 parse error, 3 enumeration limit exceeded,
4 precondition failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from random import Random

from . import instances
from .errors import EnumerationLimitError, InstanceParseError, PreconditionError
from .games import ENUM_LIMIT, Allocation, as_rational
from .generators import WEIGHT_MODELS, random_graph
from .mstgame import MstGame, almost_core_approx, granot_huberman
from .relaxations import (
    almost_core_optimum,
    brute_force_core_oracle,
    brute_force_nonneg_core_oracle,
    full_report,
    separate_almost_core,
    separate_almost_core_nonneg,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_LIMIT = 3
EXIT_PRECONDITION = 4


def _decimalize(value):
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except ValueError:
            return value
    if isinstance(value, list):
        return [_decimalize(v) for v in value]
    if isinstance(value, dict):
        return {k: _decimalize(v) for k, v in value.items()}
    return value


def _emit(report: dict, decimal: bool) -> None:
    if decimal:
        report = dict(report)
        report["approximate_decimal"] = _decimalize(
            {k: v for k, v in report.items() if k != "approximate_decimal"}
        )
    print(json.dumps(report, indent=2))


def _alloc(a: Allocation | None):
    return None if a is None else a.as_strings()


def _frac(v: Fraction | None):
    return None if v is None else str(v)


def cmd_analyze(args) -> int:
    instance = instances.load(args.file)
    game = instances.to_game(instance, monotonize=args.monotonize)
    report = full_report(game)
    out = {
        "format": instance.format,
        "n": instance.n,
        "monotonized": args.monotonize,
        "c_grand": _frac(report.c_grand),
        "core_nonempty": report.core_nonempty,
        "core_allocation": _alloc(report.core_allocation),
        "ac_opt": _frac(report.ac_opt),
        "ac_opt_allocation": _alloc(report.ac_opt_allocation),
    }
    if args.nonneg:
        out["ac_opt_nonneg"] = _frac(report.ac_opt_nonneg)
        out["ac_opt_nonneg_allocation"] = _alloc(report.ac_opt_nonneg_allocation)
    out.update(
        {
            "eps_strong": _frac(report.eps_strong),
            "eps_strong_allocation": _alloc(report.eps_strong_allocation),
            "eps_weak": _frac(report.eps_weak),
            "eps_weak_allocation": _alloc(report.eps_weak_allocation),
            "eps_mult": _frac(report.eps_mult),
            "eps_mult_allocation": _alloc(report.eps_mult_allocation),
            "gamma_approx": _frac(report.gamma_approx),
            "gamma_allocation": _alloc(report.gamma_allocation),
            "cost_of_stability": _frac(report.cost_of_stability),
            "extended_core_delta": _frac(report.extended_core_delta),
            "extended_core_x": _alloc(report.extended_core_x),
            "extended_core_t": _alloc(report.extended_core_t),
        }
    )
    _emit(out, args.decimal)
    return EXIT_OK


def _ratio(optimum: Fraction, value: Fraction) -> Fraction:
    """The realized approximation ratio optimum / value; 1 when both are 0."""
    if value > 0:
        return optimum / value
    if optimum != 0:
        raise AssertionError("approximation returned 0 against a positive optimum")
    return Fraction(1)


def cmd_mst(args) -> int:
    instance = instances.load(args.file)
    graph = instances.to_graph(instance)
    if args.action == "gh":
        allocation = granot_huberman(graph)
        _emit(
            {
                "format": instance.format,
                "n": instance.n,
                "command": "gh",
                "allocation": allocation.as_strings(),
                "value": str(allocation.total()),
            },
            args.decimal,
        )
        return EXIT_OK
    if args.action == "table":
        table = (
            graph.monotonized_table() if args.monotonize else graph.cost_table()
        )
        dump = instances.explicit_instance_from_table(graph.n, table)
        print(instances.serialize(dump), end="")
        return EXIT_OK
    # approx
    allocation, trace = almost_core_approx(graph)
    value = allocation.total()
    out = {
        "format": instance.format,
        "n": instance.n,
        "command": "approx",
        "allocation": allocation.as_strings(),
        "value": str(value),
        "trace": {
            "insertion_order": list(trace.insertion_order),
            "tree_edges": [list(e) for e in trace.tree_edges],
            "pre_update_shares": trace.pre_update_shares.as_strings(),
            "last_agent": trace.last_agent,
            "argmin_k": trace.argmin_k,
        },
    }
    if graph.n <= args.limit:
        optimum, _ = almost_core_optimum(MstGame(graph), require_nonneg=True)
        out["optimum"] = str(optimum)
        out["ratio"] = str(_ratio(optimum, value))
    _emit(out, args.decimal)
    return EXIT_OK


def cmd_separate(args) -> int:
    instance = instances.load(args.file)
    game = instances.to_game(instance, monotonize=args.monotonize)
    try:
        point = [as_rational(part.strip()) for part in args.point.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceParseError(f"bad --point value: {exc}") from None
    if len(point) != game.n:
        raise PreconditionError(
            f"--point has {len(point)} entries, the game has {game.n} agents"
        )
    if args.nonneg:
        oracle = brute_force_nonneg_core_oracle(game)
        result = separate_almost_core_nonneg(point, oracle, game)
    else:
        oracle = brute_force_core_oracle(game)
        result = separate_almost_core(point, oracle, game.grand_cost())
    out = {
        "format": instance.format,
        "n": instance.n,
        "nonneg": args.nonneg,
        "point": [str(v) for v in point],
        "verdict": result.verdict,
    }
    if result.coalition is not None:
        out["coalition"] = result.coalition.key()
    if result.negative_agent is not None:
        out["agent"] = result.negative_agent
    if result.amount is not None:
        out["amount"] = str(result.amount)
    _emit(out, args.decimal)
    return EXIT_OK


def _parse_n_range(spec: str) -> tuple[int, int]:
    parts = spec.split("-")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise PreconditionError(f"--n expects N or LO-HI, got {spec!r}") from None
    if lo < 2 or hi < lo:
        raise PreconditionError(f"--n range {spec!r} must satisfy 2 <= LO <= HI")
    if hi > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"--n upper end {hi} exceeds the enumeration limit {ENUM_LIMIT}"
        )
    return lo, hi


def cmd_bench(args) -> int:
    lo, hi = _parse_n_range(args.n)
    if args.count < 1:
        raise PreconditionError(f"--count must be at least 1, got {args.count}")
    rng = Random(args.seed)
    ratios: list[Fraction] = []
    for index in range(args.count):
        n = rng.randint(lo, hi)
        model = args.weights if args.weights != "mixed" else rng.choice(WEIGHT_MODELS)
        graph = random_graph(rng, n, model)
        allocation, _ = almost_core_approx(graph)
        value = allocation.total()
        optimum, _ = almost_core_optimum(MstGame(graph), require_nonneg=True)
        ratio = _ratio(optimum, value)
        if not 1 <= ratio <= 2:
            raise AssertionError(f"realized ratio {ratio} outside [1, 2] on instance {index}")
        ratios.append(ratio)
        record = {
            "index": index,
            "n": n,
            "model": model,
            "value": str(value),
            "optimum": str(optimum),
            "ratio": str(ratio),
        }
        if args.decimal:
            record["ratio_decimal"] = float(ratio)
        print(json.dumps(record))
    summary = {
        "count": args.count,
        "seed": args.seed,
        "ratio_min": str(min(ratios)),
        "ratio_mean": str(sum(ratios, Fraction(0)) / len(ratios)),
        "ratio_max": str(max(ratios)),
    }
    if args.decimal:
        summary["ratio_mean_decimal"] = float(Fraction(summary["ratio_mean"]))
    print(json.dumps(summary))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allocore",
        description="Exact stable cost allocation for transferable-utility games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="core emptiness and all relaxation optima")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--monotonize", action="store_true")
    p_analyze.add_argument("--nonneg", action="store_true",
                           help="also report the nonnegative almost-core optimum")
    p_analyze.add_argument("--decimal", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_mst = sub.add_parser("mst", help="spanning-tree game commands")
    p_mst.add_argument("file")
    p_mst.add_argument("action", choices=("approx", "gh", "table"))
    p_mst.add_argument("--monotonize", action="store_true",
                       help="dump the monotonized table (table action)")
    p_mst.add_argument("--limit", type=int, default=12,
                       help="compute the exact optimum and ratio when n <= LIMIT (approx action)")
    p_mst.add_argument("--decimal", action="store_true")
    p_mst.set_defaults(func=cmd_mst)

    p_sep = sub.add_parser("separate", help="almost-core membership of a point")
    p_sep.add_argument("file")
    p_sep.add_argument("--point", required=True, help="comma-separated rationals")
    p_sep.add_argument("--nonneg", action="store_true",
                       help="separate over the almost core intersected with x >= 0")
    p_sep.add_argument("--monotonize", action="store_true")
    p_sep.add_argument("--decimal", action="store_true")
    p_sep.set_defaults(func=cmd_separate)

    p_bench = sub.add_parser("bench", help="random approximation-ratio study")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--count", type=int, default=100)
    p_bench.add_argument("--n", default="3-7", help="agent count or LO-HI range")
    p_bench.add_argument("--weights", default="mixed", choices=WEIGHT_MODELS + ("mixed",))
    p_bench.add_argument("--decimal", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _join_negative_point(argv: list[str]) -> list[str]:
    """Spell ``--point -5,5,5`` as ``--point=-5,5,5``: argparse reads a value
    that starts with '-' and is not a plain number as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--point" and re.match(r"-[\d.]", arg):
            out[-1] = f"--point={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_point(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except InstanceParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationLimitError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (PreconditionError, ValueError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
