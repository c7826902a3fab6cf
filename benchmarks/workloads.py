"""The three workloads: one operation each, and the checks of its output.

An operation is one user-level request on one freshly built game and is
what the benchmark times. It calls only public functions of the package,
through the module objects in ``api`` (so the tracer can patch them).

A check runs after the operation, outside its timed latency. It uses the
benchmark's own arithmetic (subset sums, spanning trees, brute-force
separation), never the package, and returns a list of problems plus a
summary of the exact values. For the default and held-out seeds the
summary of the first operations is compared with ``golden.json``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import SimpleNamespace
from typing import Callable

from inputs import WEIGHT_MODELS, ExplicitInput, GraphInput, empty_core_table, graph_input, rng_for


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    make_input: Callable[[int, int], object]
    run: Callable[[SimpleNamespace, object], object]
    check: Callable[[object, object], tuple[list[str], dict]]


# --- the benchmark's own exact arithmetic ------------------------------------------


def subset_sums(values: list) -> list:
    """x(S) for every bitmask S (ints or Fractions)."""
    sums = [0] * (1 << len(values))
    for bits in range(1, len(sums)):
        low = bits & -bits
        sums[bits] = sums[bits ^ low] + values[low.bit_length() - 1]
    return sums


def common_scale(*vectors) -> int:
    scale = 1
    for vec in vectors:
        for v in vec:
            scale = lcm(scale, v.denominator)
    return scale


def scaled(values, scale: int) -> list[int]:
    return [v.numerator * (scale // v.denominator) for v in values]


def mst_costs(weights) -> tuple[list[int], int]:
    """Spanning-tree cost of every coalition plus the supplier, times ``scale``."""
    n = len(weights) - 1
    scale = common_scale(*weights)
    w = [scaled(row, scale) for row in weights]
    costs = [0] * (1 << n)
    for bits in range(1, 1 << n):
        best = {v: w[0][v] for v in range(1, n + 1) if (bits >> (v - 1)) & 1}
        total = 0
        while best:
            v = min(best, key=best.__getitem__)
            total += best.pop(v)
            row = w[v]
            for u in best:
                if row[u] < best[u]:
                    best[u] = row[u]
        costs[bits] = total
    return costs, scale


def superset_min(costs: list[int], n: int) -> list[int]:
    bar = list(costs)
    for i in range(n):
        bit = 1 << i
        for bits in range(1 << n):
            if not bits & bit and bar[bits | bit] < bar[bits]:
                bar[bits] = bar[bits | bit]
    return bar


class Scaled:
    """A point and an integer cost table brought to one common denominator."""

    def __init__(self, point, costs: list[int], cost_scale: int):
        self.scale = lcm(cost_scale, common_scale(point))
        factor = self.scale // cost_scale
        self.sums = subset_sums(scaled(point, self.scale))
        self.costs = [c * factor for c in costs]
        self.full = len(costs) - 1

    def total(self) -> Fraction:
        return Fraction(self.sums[self.full], self.scale)

    def stable(self) -> bool:
        """x(S) <= c(S) for every proper coalition S, by brute-force scan."""
        sums, costs = self.sums, self.costs
        return all(sums[b] <= costs[b] for b in range(1, self.full))

    def in_core(self) -> bool:
        return all(s <= c for s, c in zip(self.sums, self.costs))

    def excess(self, bits: int) -> Fraction:
        return Fraction(self.sums[bits] - self.costs[bits], self.scale)


def digest(values) -> str:
    return hashlib.sha256("|".join(str(v) for v in values).encode()).hexdigest()[:16]


def strs(values) -> list[str]:
    return [str(v) for v in values]


# --- relax-explicit -----------------------------------------------------------------

RELAX_N = 6


def relax_input(seed: int, index: int) -> ExplicitInput:
    return empty_core_table(rng_for("relax-explicit", seed, index), RELAX_N)


def relax_run(api, raw: ExplicitInput):
    return api.relaxations.full_report(api.games.ExplicitGame(raw.n, raw.table))


def relax_check(raw: ExplicitInput, r) -> tuple[list[str], dict]:
    problems: list[str] = []
    c = raw.table
    n = raw.n
    full = (1 << n) - 1

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    def stable(x, slack, coalitions=range(1, full)) -> bool:
        sums = subset_sums(list(x))
        return all(sums[b] <= c[b] + slack(b) for b in coalitions)

    def zero(_bits):
        return 0

    c_n = c[full]
    need(r.n == n and r.c_grand == c_n, "wrong n or c(N)")
    need(not r.core_nonempty and r.core_allocation is None, "empty core reported nonempty")
    for label, value, x, nonneg in (
        ("almost-core", r.ac_opt, r.ac_opt_allocation, False),
        ("nonnegative almost-core", r.ac_opt_nonneg, r.ac_opt_nonneg_allocation, True),
    ):
        need(len(x) == n and stable(x, zero), f"{label} allocation unstable")
        need(sum(x) == value, f"{label} allocation misses its value")
        need(not nonneg or min(x) >= 0, f"{label} allocation negative")
    need(r.ac_opt_nonneg <= r.ac_opt < c_n, "almost-core optima out of order")
    eps_s, eps_w, eps_m = r.eps_strong, r.eps_weak, r.eps_mult
    need(eps_s > 0 and eps_w > 0 and eps_m is not None and eps_m > 0, "relaxation not positive")
    if problems:
        return problems, {}
    for label, x, slack in (
        ("strong epsilon", r.eps_strong_allocation, lambda b: eps_s),
        ("weak epsilon", r.eps_weak_allocation, lambda b: eps_w * b.bit_count()),
        ("multiplicative epsilon", r.eps_mult_allocation, lambda b: eps_m * c[b]),
    ):
        need(sum(x) == c_n and stable(x, slack), f"{label} allocation infeasible")
    gamma = r.gamma_approx
    need(sum(r.gamma_allocation) == gamma * c_n, "gamma allocation misses gamma c(N)")
    need(stable(r.gamma_allocation, zero, range(1, full + 1)), "gamma allocation unstable")
    x, t = r.extended_core_x, r.extended_core_t
    need(min(t) >= 0 and sum(t) == r.extended_core_delta, "subsidy vector wrong")
    need(sum(x) == c_n and stable([a - b for a, b in zip(x, t)], zero), "subsidized allocation infeasible")
    cos = r.cost_of_stability
    need(
        cos == r.extended_core_delta == n * eps_w == (1 - gamma) * c_n == eps_m / (1 + eps_m) * c_n,
        "relaxation identity chain broken",
    )
    need(r.ac_opt == c_n - cos, "almost-core optimum differs from the core program's optimum")
    summary = {
        "c_grand": str(c_n),
        "ac_opt": str(r.ac_opt),
        "ac_opt_nonneg": str(r.ac_opt_nonneg),
        "eps_strong": str(eps_s),
        "eps_weak": str(eps_w),
        "eps_mult": str(eps_m),
        "gamma": str(gamma),
        "cost_of_stability": str(cos),
    }
    return problems, summary


# --- mst-ratio ----------------------------------------------------------------------

RATIO_N = 9


def ratio_input(seed: int, index: int) -> GraphInput:
    model = WEIGHT_MODELS[index % len(WEIGHT_MODELS)]
    return graph_input(rng_for("mst-ratio", seed, index), RATIO_N, model)


def ratio_run(api, raw: GraphInput):
    graph = api.mstgame.GraphInstance(raw.n, raw.weights)
    approx, _ = api.mstgame.almost_core_approx(graph)
    optimum, x = api.relaxations.almost_core_optimum(
        api.mstgame.MstGame(graph), require_nonneg=True
    )
    return approx, optimum, x


def ratio_check(raw: GraphInput, out) -> tuple[list[str], dict]:
    approx, optimum, x = out
    problems: list[str] = []
    costs, scale = mst_costs(raw.weights)
    for label, alloc in (("approximation", approx), ("optimum", x)):
        if len(alloc) != raw.n or min(alloc) < 0 or not Scaled(alloc, costs, scale).stable():
            problems.append(f"{label} allocation is negative or unstable")
    value = sum(approx)
    if sum(x) != optimum:
        problems.append("optimum allocation misses the optimum")
    if value > 0:
        if not 1 <= optimum / value <= 2:
            problems.append(f"ratio {optimum / value} outside [1, 2]")
    elif optimum != 0:
        problems.append("approximation is 0 against a positive optimum")
    summary = {"value": str(value), "optimum": str(optimum), "approx": strs(approx)}
    return problems, summary


# --- mst-table ----------------------------------------------------------------------

TABLE_N = 11


def table_input(seed: int, index: int) -> GraphInput:
    model = WEIGHT_MODELS[index % len(WEIGHT_MODELS)]
    return graph_input(rng_for("mst-table", seed, index), TABLE_N, model)


def table_run(api, raw: GraphInput):
    mst, rel, io = api.mstgame, api.relaxations, api.instances
    graph = mst.GraphInstance(raw.n, raw.weights)
    table = graph.cost_table()
    mono = graph.monotonized_table()
    gh = mst.granot_huberman(graph)
    approx, _ = mst.almost_core_approx(graph)
    game = mst.MstGame(graph)
    oracle = rel.brute_force_core_oracle(game)
    c_n = game.grand_cost()
    sep = [rel.separate_almost_core(p, oracle, c_n) for p in (approx, raw.outside)]
    mono_game = mst.MstGame(graph, monotonized=True)
    nonneg_oracle = rel.brute_force_nonneg_core_oracle(mono_game)
    sep += [rel.separate_almost_core_nonneg(p, nonneg_oracle, mono_game) for p in (gh, raw.outside)]
    instance = io.explicit_instance_from_table(raw.n, table)
    text = io.serialize(instance)
    parsed = io.parse(text)
    reread = io.to_game(parsed)
    return SimpleNamespace(
        table=table, mono=mono, gh=gh, approx=approx, sep=sep,
        instance=instance, parsed=parsed, reread=reread.table(),
    )


def separation_problems(result, point, costs, scale, nonneg, expect_member, label) -> list[str]:
    pt = Scaled(point, costs, scale)
    negative = nonneg and min(point) < 0
    member = not negative and pt.stable()
    if member != expect_member:
        return [f"{label}: test point is not what the generator promised"]
    if result.member != member:
        return [f"{label}: verdict {result.verdict}, brute force says member={member}"]
    if member:
        return []
    if result.negative_agent is not None:
        i = result.negative_agent - 1
        ok = nonneg and point[i] < 0 and result.amount == -point[i]
    else:
        bits = result.coalition.bits
        ok = 0 < bits < pt.full and pt.sums[bits] > pt.costs[bits] and result.amount == pt.excess(bits)
    return [] if ok else [f"{label}: reported violation is wrong"]


def table_check(raw: GraphInput, out) -> tuple[list[str], dict]:
    problems: list[str] = []
    n = raw.n
    costs, scale = mst_costs(raw.weights)
    mono = superset_min(costs, n)
    if [v * scale for v in out.table] != costs:
        problems.append("cost table differs from the benchmark's spanning trees")
    if [v * scale for v in out.mono] != mono:
        problems.append("monotonized table differs from the superset minimum")
    gh = Scaled(out.gh, costs, scale)
    if gh.total() != out.table[-1] or not gh.in_core() or not Scaled(out.gh, mono, scale).in_core():
        problems.append("Granot-Huberman allocation is not in the core")
    if min(out.approx) < 0 or not Scaled(out.approx, costs, scale).stable():
        problems.append("approximation is negative or unstable")
    cases = (
        (out.approx, costs, False, True, "plain member"),
        (raw.outside, costs, False, False, "plain non-member"),
        (out.gh, mono, True, True, "nonneg member"),
        (raw.outside, mono, True, False, "nonneg non-member"),
    )
    for result, (point, table, nonneg, expect, label) in zip(out.sep, cases):
        problems += separation_problems(result, point, table, scale, nonneg, expect, label)
    if out.parsed != out.instance or tuple(out.reread) != tuple(out.table):
        problems.append("serialize/parse/to_game round trip changed the table")
    summary = {
        "cost_table": digest(out.table),
        "monotonized": digest(out.mono),
        "granot_huberman": strs(out.gh),
        "approx": strs(out.approx),
        "verdicts": [r.verdict for r in out.sep],
    }
    return problems, summary


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists: README.md and BENCHMARK.json.
        Workload("relax-explicit", RELAX_N, relax_input, relax_run, relax_check),
        Workload("mst-ratio", RATIO_N, ratio_input, ratio_run, ratio_check),
        Workload("mst-table", TABLE_N, table_input, table_run, table_check),
    )
}
