"""In-memory span tracing around the package's public functions.

Each wrapped function records a span: name, start, end, parent span and
operation id. Spans live in flat arrays until the run ends, then
:func:`layer_metrics` turns them into the per-layer metrics. A span's self
time is its duration minus the durations of its direct children (one
thread, so children never overlap).

Names are patched where they are looked up: ``from .lp import solve`` binds
``allocore.relaxations.solve``, so that is the attribute replaced, not
``allocore.lp.solve``. Methods are patched on their class.
"""

from __future__ import annotations

from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.max_bits: dict[int, int] = {}
        self.bytes: dict[tuple[str, int], int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; a call nested directly in a span of the same name adds none."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            stack = self.stack
            if stack and self.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def add_bytes(self, key: str, count: int) -> None:
        k = (key, self.current_op)
        self.bytes[k] = self.bytes.get(k, 0) + count


def _solution_bits(tracer: Tracer, _args, solution) -> None:
    numbers = [] if solution.value is None else [solution.value, *solution.point]
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in numbers), default=0)
    op = tracer.current_op
    tracer.max_bits[op] = max(tracer.max_bits.get(op, 0), bits)


def install(tracer: Tracer, api) -> None:
    """Wrap every traced boundary of the package's layers."""
    lp, rel, mst, io = api.lp, api.relaxations, api.mstgame, api.instances
    tracer.patch(rel, "solve", "lp.solve", _solution_bits)
    tracer.patch(lp, "verify_point", "lp.verify")
    tracer.patch(lp.LpProblem, "add", "lp.add")
    tracer.patch(rel, "full_report", "relaxations.full_report")
    tracer.patch(rel, "core_optimum", "relaxations.core_optimum")
    tracer.patch(rel, "almost_core_optimum", "relaxations.almost_core_optimum")
    tracer.patch(rel, "separate_almost_core", "relaxations.separate")
    tracer.patch(rel, "separate_almost_core_nonneg", "relaxations.separate")
    tracer.patch(rel, "subset_sums", "games.subset_sums")
    for attr in ("prim", "coalition_cost", "cost_table", "monotonized_table"):
        tracer.patch(mst.GraphInstance, attr, f"mstgame.{attr}")
    tracer.patch(mst, "almost_core_approx", "mstgame.approx")
    tracer.patch(io, "serialize", "instances.serialize",
                 lambda t, _a, text: t.add_bytes("serialize", len(text.encode())))
    tracer.patch(io, "parse", "instances.parse",
                 lambda t, a, _r: t.add_bytes("parse", len(a[0].encode())))
    tracer.patch(io, "to_game", "instances.to_game")
    # The oracle factories return closures; wrap what they return. The
    # nonnegative factory calls the plain one, whose oracle then runs nested
    # inside the outer oracle's span and adds no span of its own.
    tracer.name_id("relaxations.oracle")
    for attr in ("brute_force_core_oracle", "brute_force_nonneg_core_oracle"):
        factory = getattr(rel, attr)
        tracer.replace(rel, attr, lambda game, _f=factory: tracer.wrap("relaxations.oracle", _f(game)))


# Metric name, unit, kind and key. Kinds:
#   calls      spans named ``key`` per operation, over the count window
#   s, self_s  inclusive or self seconds of spans named ``key`` per traced operation
#   bytes      bytes recorded under ``key`` per operation, over the count window
#   max_bits   largest numerator or denominator bit length in an LP result, over the window
#   hit_ratio  share of coalition_cost lookups that did not run Prim, over the window
LAYER_METRICS = [
    ("lp.solve.calls", "calls/op", "calls", "lp.solve"),
    ("lp.solve.self_s", "s/op", "self_s", "lp.solve"),
    ("lp.verify.s", "s/op", "s", "lp.verify"),
    ("lp.add.calls", "calls/op", "calls", "lp.add"),
    ("lp.add.s", "s/op", "s", "lp.add"),
    ("lp.result_max_bits", "bits", "max_bits", None),
    ("relaxations.full_report.s", "s/op", "s", "relaxations.full_report"),
    ("relaxations.core_optimum.calls", "calls/op", "calls", "relaxations.core_optimum"),
    ("relaxations.almost_core_optimum.s", "s/op", "s", "relaxations.almost_core_optimum"),
    ("relaxations.separate.calls", "calls/op", "calls", "relaxations.separate"),
    ("relaxations.separate.s", "s/op", "s", "relaxations.separate"),
    ("relaxations.oracle.calls", "calls/op", "calls", "relaxations.oracle"),
    ("relaxations.oracle.s", "s/op", "s", "relaxations.oracle"),
    ("games.subset_sums.calls", "calls/op", "calls", "games.subset_sums"),
    ("games.subset_sums.s", "s/op", "s", "games.subset_sums"),
    ("mstgame.prim.calls", "calls/op", "calls", "mstgame.prim"),
    ("mstgame.prim.s", "s/op", "s", "mstgame.prim"),
    ("mstgame.coalition_cost.calls", "calls/op", "calls", "mstgame.coalition_cost"),
    ("mstgame.cost_cache_hit_ratio", "ratio", "hit_ratio", None),
    ("mstgame.cost_table.s", "s/op", "s", "mstgame.cost_table"),
    ("mstgame.monotonized_table.s", "s/op", "s", "mstgame.monotonized_table"),
    ("mstgame.approx.s", "s/op", "s", "mstgame.approx"),
    ("instances.serialize.s", "s/op", "s", "instances.serialize"),
    ("instances.serialize.bytes", "bytes/op", "bytes", "serialize"),
    ("instances.parse.s", "s/op", "s", "instances.parse"),
    ("instances.parse.bytes", "bytes/op", "bytes", "parse"),
    ("instances.to_game.s", "s/op", "s", "instances.to_game"),
]

#: Counts that two traced runs with one seed must reproduce exactly.
DETERMINISTIC_COUNTS = (
    "lp.solve.calls",
    "lp.add.calls",
    "relaxations.core_optimum.calls",
    "relaxations.oracle.calls",
    "mstgame.prim.calls",
)


def layer_metrics(tracer: Tracer, window: range) -> dict[str, float]:
    """Per-operation layer metrics.

    Counts (calls, bytes, bits, the cache-hit ratio) cover the operations in
    ``window``, a fixed prefix of the run, so they repeat exactly for one
    seed. Times are averaged over every traced operation (root span "op").
    """
    names, name, parent, op = tracer.names, tracer.name, tracer.parent, tracer.op
    total = len(tracer.start)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    covered = [0.0] * total
    for i in range(total):
        p = parent[i]
        if p >= 0:
            covered[p] += dur[i]
    inclusive = [0.0] * len(names)
    own = [0.0] * len(names)
    calls = [0] * len(names)
    calls_all = [0] * len(names)
    in_window = set(window)
    prim_id = names.index("mstgame.prim")
    cost_id = names.index("mstgame.coalition_cost")
    computed = set()
    for i in range(total):
        nid = name[i]
        inclusive[nid] += dur[i]
        own[nid] += dur[i] - covered[i]
        calls_all[nid] += 1
        if op[i] in in_window:
            calls[nid] += 1
            if nid == prim_id and parent[i] >= 0 and name[parent[i]] == cost_id:
                computed.add(parent[i])
    lookups = calls[cost_id]
    per_window = 1 / len(window)
    per_op = 1 / max(calls_all[names.index("op")], 1)
    out = {}
    for metric, _unit, kind, key in LAYER_METRICS:
        if kind == "calls":
            value = calls[names.index(key)] * per_window
        elif kind == "s":
            value = inclusive[names.index(key)] * per_op
        elif kind == "self_s":
            value = own[names.index(key)] * per_op
        elif kind == "bytes":
            value = sum(tracer.bytes.get((key, i), 0) for i in window) * per_window
        elif kind == "max_bits":
            value = max((tracer.max_bits.get(i, 0) for i in window), default=0)
        else:  # hit_ratio
            value = (lookups - len(computed)) / lookups if lookups else 0.0
        out[metric] = value
    return out
