"""Command-line front end.

Subcommands: ``analyze`` (core emptiness and every relaxation optimum),
``mst`` (the 2-approximation, the one-tree core allocation, or the full
cost table of a spanning-tree instance), ``separate`` (almost-core
membership of a given point), and ``bench`` (seeded random study of the
realized approximation ratio). All numeric output is exact "p/q" text;
``--decimal`` adds an ``approximate_decimal`` block in which each exact
number is a float, or its exact text when it is beyond float range.

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
from .games import ENUM_LIMIT, as_rational
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


def _float_or_exact(value: Fraction) -> float | str:
    """The nearest float, or the exact "p/q" text when the value is beyond
    float range."""
    try:
        return float(value)
    except OverflowError:
        return str(value)


def _render(value, number):
    """The JSON form of a typed result: each Fraction becomes number(value),
    a tuple or list a list, and a dict keeps its key order; str, int, bool
    and None pass through."""
    if isinstance(value, Fraction):
        return number(value)
    if isinstance(value, (tuple, list)):
        return [_render(v, number) for v in value]
    if isinstance(value, dict):
        return {k: _render(v, number) for k, v in value.items()}
    return value


def _emit(result: dict, decimal: bool) -> None:
    out = _render(result, str)
    if decimal:
        out["approximate_decimal"] = _render(result, _float_or_exact)
    print(json.dumps(out, indent=2))


def _fields(record, *skip: str) -> dict:
    """A record's fields in declaration order, without those in ``skip``."""
    return {name: value for name, value in zip(record._fields, record) if name not in skip}


def cmd_analyze(args) -> int:
    instance = instances.load(args.file)
    game = instances.to_game(instance, monotonize=args.monotonize)
    skip = () if args.nonneg else ("ac_opt_nonneg", "ac_opt_nonneg_allocation")
    out = {"format": instance.format, "n": instance.n, "monotonized": args.monotonize}
    out.update(_fields(full_report(game), "n", *skip))
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
    if args.monotonize and args.action != "table":
        raise PreconditionError("--monotonize applies to the table action only")
    if args.action == "table":
        table = (
            graph.monotonized_table() if args.monotonize else graph.cost_table()
        )
        dump = instances.explicit_instance_from_table(graph.n, table)
        print(instances.serialize(dump), end="")
        return EXIT_OK
    head = {"format": instance.format, "n": instance.n, "command": args.action}
    if args.action == "gh":
        allocation = granot_huberman(graph)
        _emit({**head, "allocation": allocation, "value": sum(allocation)}, args.decimal)
        return EXIT_OK
    # approx
    allocation, trace = almost_core_approx(graph)
    value = sum(allocation)
    out = {
        **head,
        "allocation": allocation,
        "value": value,
        "trace": _fields(trace, "final_shares"),
    }
    if graph.n <= args.limit:
        optimum, _ = almost_core_optimum(MstGame(graph), require_nonneg=True)
        out["optimum"] = optimum
        out["ratio"] = _ratio(optimum, value)
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
        "point": point,
        "verdict": result.verdict,
    }
    if result.coalition is not None:
        out["coalition"] = result.coalition.key()
    if result.negative_agent is not None:
        out["agent"] = result.negative_agent
    if result.amount is not None:
        out["amount"] = result.amount
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
        value = sum(allocation)
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
    mean = sum(ratios, Fraction(0)) / len(ratios)
    summary = {
        "count": args.count,
        "seed": args.seed,
        "ratio_min": str(min(ratios)),
        "ratio_mean": str(mean),
        "ratio_max": str(max(ratios)),
    }
    if args.decimal:
        summary["ratio_mean_decimal"] = float(mean)
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
    p_mst.add_argument("--limit", type=int, default=ENUM_LIMIT,
                       help="compute the exact optimum and ratio when n <= LIMIT "
                            "(approx action; default %(default)s)")
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
    except (InstanceParseError, OSError) as exc:
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
