"""Reading and writing game instance files.

Two JSON formats are supported:

explicit games::

    {"format": "explicit", "n": 3,
     "costs": {"1": "1", "2": "1", "1,2": "1", ...},
     "default": "1"}          # optional cost for unlisted coalitions

spanning-tree games::

    {"format": "mst", "n": 3,
     "edges": [[0, 1, "1"], [1, 3, "1/4"], ...]}

Coalition keys are comma-separated strictly increasing agent lists; the
empty coalition is implicitly free and must not appear. Weights and costs
are integers or "p/q" strings; serialized files always use strings.
``serialize`` produces a normalized form on which parse/serialize round
trips are the identity.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InstanceParseError, PreconditionError
from .games import ENUM_LIMIT, ExplicitGame, Game, as_rational
from .mstgame import GraphInstance, MstGame

EXPLICIT = "explicit"
MST = "mst"


class InstanceFile(NamedTuple):
    """Parsed contents of an instance file, in canonical order."""

    format: str
    n: int
    # explicit: the 2^n cost table indexed by bitmask, entry 0 is 0, and an
    # entry is None where the file lists no cost and ``default`` applies
    costs: tuple[Fraction | None, ...] | None = None
    default: Fraction | None = None
    edges: tuple[tuple[int, int, Fraction], ...] | None = None  # (i, j, w), i < j


def _parse_rational(value: object, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InstanceParseError(f"{where}: values must be integers or 'p/q' strings")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return as_rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceParseError(f"{where}: bad rational {value!r} ({exc})") from None
    raise InstanceParseError(f"{where}: values must be integers or 'p/q' strings")


def _parse_coalition_key(key: str, n: int) -> int:
    if key == "":
        raise InstanceParseError(
            "the empty coalition must not be listed; its cost is implicitly 0"
        )
    if not key.isascii():
        raise InstanceParseError(f"malformed coalition key {key!r}")
    bits = 0
    previous = 0
    for part in key.split(","):
        if not part.isdigit():  # ASCII digits only: no sign, space or underscore
            raise InstanceParseError(f"malformed coalition key {key!r}")
        agent = int(part)
        if agent <= previous:
            raise InstanceParseError(
                f"coalition key {key!r} must list agents in strictly increasing order"
            )
        if agent > n:
            raise InstanceParseError(f"coalition key {key!r} names agent {agent} > n={n}")
        bits |= 1 << (agent - 1)
        previous = agent
    return bits


@lru_cache(maxsize=2)
def _coalition_keys(n: int) -> tuple[str, ...]:
    """The canonical key of every coalition over n agents, indexed by
    bitmask ("" for the empty one), built by doubling over the agents.
    Kept for the last two n, so an export and an import share one build."""
    keys = [""]
    for agent in map(str, range(1, n + 1)):
        keys += [k + "," + agent if k else agent for k in keys]
    return tuple(keys)


def _ascii_rational(text: str) -> Fraction | None:
    """An ASCII "p", "-p" or "p/q" with q != 0 as the Fraction of its
    integers; None for any other string, which the general parser reads."""
    num, slash, den = text.partition("/")
    if not (text.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash)):
        return None
    try:
        if not slash:
            return Fraction(int(num))
        q = int(den)
        return Fraction(int(num), q) if q else None
    except ValueError:  # beyond the int conversion limit
        return None


def _cost_values(raw: dict) -> list[Fraction]:
    """The cost of each entry of a 'costs' object, in its order."""
    # one Fraction per distinct cost string; only strings are memoized,
    # since 1 == 1.0 == True hash alike and a float or bool must still fail
    rationals: dict[str, Fraction] = {}
    values = []
    for key, value in raw.items():
        if type(value) is str:
            cost = rationals.get(value)
            if cost is None:
                cost = _ascii_rational(value)
                if cost is None:  # not ASCII "p", "-p" or "p/q": the general parser
                    cost = _parse_rational(value, f"cost of {key!r}")
                rationals[value] = cost
        else:
            cost = _parse_rational(value, f"cost of {key!r}")
        values.append(cost)
    return values


def _reject_duplicate_pairs(pairs):
    out = dict(pairs)
    if len(out) < len(pairs):  # some key repeats: name the first repeat
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InstanceParseError(f"duplicate key {key!r}")
            seen.add(key)
    return out


def parse(text: str) -> InstanceFile:
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_pairs)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InstanceParseError("JSON nesting is too deep") from None
    except ValueError as exc:  # an integer literal beyond the int conversion limit
        raise InstanceParseError(str(exc)) from None
    if not isinstance(data, dict):
        raise InstanceParseError("top level must be a JSON object")
    fmt = data.get("format")
    if fmt not in (EXPLICIT, MST):
        raise InstanceParseError(f"format must be '{EXPLICIT}' or '{MST}', got {fmt!r}")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InstanceParseError(f"n must be a positive integer, got {n!r}")

    if fmt == EXPLICIT:
        if n > ENUM_LIMIT:
            raise InstanceParseError(f"explicit games are limited to n <= {ENUM_LIMIT}")
        raw = data.get("costs")
        if not isinstance(raw, dict):
            raise InstanceParseError("explicit instances need a 'costs' object")
        default = None
        if "default" in data:
            default = _parse_rational(data["default"], "default")
        keys = _coalition_keys(n)
        if tuple(raw) == keys[1:]:  # serialize's own form: every key, in mask order
            costs = (Fraction(0), *_cost_values(raw))
        else:  # the general parser accepts or rejects each key off the canonical form
            canonical = dict(zip(keys[1:], range(1, len(keys))))
            table = [Fraction(0)] + [None] * (len(keys) - 1)
            masks = []
            for key in raw:  # every key before any value: key errors come first
                mask = canonical.get(key)
                if mask is None:
                    mask = _parse_coalition_key(key, n)
                if table[mask] is not None:  # holds the key that listed it first
                    raise InstanceParseError(f"coalition {key!r} is listed twice")
                table[mask] = key
                masks.append(mask)
            for mask, value in zip(masks, _cost_values(raw)):
                table[mask] = value
            costs = tuple(table)
        if default is None:
            missing = len(keys) - 1 - len(raw)
            if missing:
                raise InstanceParseError(
                    f"{missing} nonempty coalitions are missing and no default cost is declared"
                )
        return InstanceFile(format=EXPLICIT, n=n, costs=costs, default=default)

    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise InstanceParseError("mst instances need an 'edges' array")
    edges = []
    seen = set()
    for idx, entry in enumerate(raw_edges):
        if not isinstance(entry, list) or len(entry) != 3:
            raise InstanceParseError(f"edge #{idx}: expected [i, j, weight]")
        i, j, wv = entry
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise InstanceParseError(f"edge #{idx}: endpoints must be integers")
        if not (0 <= i <= n and 0 <= j <= n) or i == j:
            raise InstanceParseError(f"edge #{idx}: bad endpoints ({i},{j}) for n={n}")
        a, b = min(i, j), max(i, j)
        if (a, b) in seen:
            raise InstanceParseError(f"edge #{idx}: duplicate edge ({a},{b})")
        seen.add((a, b))
        w = _parse_rational(wv, f"edge ({a},{b})")
        if w < 0:
            raise InstanceParseError(f"edge ({a},{b}): negative weight {w}")
        edges.append((a, b, w))
    return InstanceFile(format=MST, n=n, edges=tuple(sorted(edges)))


def load(path: str) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise InstanceParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse(text)


def _check_table(n: int, costs) -> None:
    if len(costs) != 1 << n or costs[0] != 0:
        raise ValueError(f"need a 2^{n}-entry cost table whose entry 0 is 0")


def serialize(instance: InstanceFile) -> str:
    """Normalized JSON text, one coalition or edge per line; parse(serialize(x)) == x."""
    lines = ["{", f'  "format": {json.dumps(instance.format)},', f'  "n": {instance.n},']
    # keys hold only digits and commas, and str() of a rational only digits,
    # "-" and "/", so quoting them by hand gives json.dumps's bytes; !s skips
    # format(), whose empty spec gives str() anyway
    if instance.format == EXPLICIT:
        _check_table(instance.n, instance.costs)
        keys = _coalition_keys(instance.n)
        entries = [f'    "{key}": "{value!s}"' for key, value in zip(keys, instance.costs)
                   if value is not None]
        body = _json_block("costs", "{}", entries[1:])  # [0]: the empty coalition
        if instance.default is not None:
            body += f',\n  "default": "{instance.default}"'
        lines.append(body)
    else:
        edges, n = instance.edges, instance.n
        pairs = [(i, j) for i, j, _ in edges]  # parse's order: ascending, none repeated
        if pairs != sorted(set(pairs)) or not all(0 <= i < j <= n and w >= 0 for i, j, w in edges):
            raise ValueError(f"mst edges need 0 <= i < j <= {n}, ascending strictly, weights >= 0")
        entries = [f'    [{i}, {j}, "{w!s}"]' for i, j, w in edges]
        lines.append(_json_block("edges", "[]", entries))
    return "\n".join(lines) + "\n}\n"


def _json_block(key: str, brackets: str, entries: list[str]) -> str:
    """json.dumps(..., indent=2)'s bytes of a top-level object or list
    member whose items are already written, one per entry; an empty one is
    "{}" or "[]"."""
    inner = "\n" + ",\n".join(entries) + "\n  " if entries else ""
    return f'  "{key}": {brackets[0]}{inner}{brackets[1]}'


def to_graph(instance: InstanceFile) -> GraphInstance:
    if instance.format != MST:
        raise PreconditionError("this command needs an mst-format instance")
    return GraphInstance.from_edges(instance.n, instance.edges)


def to_game(instance: InstanceFile, monotonize: bool = False) -> Game:
    if instance.format == EXPLICIT:
        if monotonize:
            raise PreconditionError("--monotonize applies to mst instances only")
        table = instance.costs
        if instance.default is not None:
            table = [instance.default if value is None else value for value in table]
        return ExplicitGame(instance.n, table)
    return MstGame(to_graph(instance), monotonized=monotonize)


def explicit_instance_from_table(n: int, table) -> InstanceFile:
    """An explicit InstanceFile for a full 2^n table (entry 0 must be 0)."""
    costs = tuple(table)
    _check_table(n, costs)
    return InstanceFile(format=EXPLICIT, n=n, costs=costs)


def mst_instance_from_graph(graph: GraphInstance) -> InstanceFile:
    edges = tuple(
        (i, j, graph.weights[i][j])
        for i in range(graph.n + 1)
        for j in range(i + 1, graph.n + 1)
    )
    return InstanceFile(format=MST, n=graph.n, edges=edges)
