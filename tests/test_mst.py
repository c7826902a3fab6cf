import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import allocore
from allocore.coalition import Coalition
from allocore.errors import EnumerationLimitError, PreconditionError
from allocore.games import ExplicitGame, subset_sums
from allocore.generators import WEIGHT_MODELS, detour_instance, random_graph
from allocore.mstgame import (
    GraphInstance,
    MstGame,
    almost_core_approx,
    granot_huberman,
)
from allocore.relaxations import (
    SeparationResult,
    almost_core_optimum,
    brute_force_core_oracle,
    brute_force_nonneg_core_oracle,
)

from _oracles import (
    coalition_sum,
    first_failing_pair,
    reference_core_scan,
    reference_cost_table,
    reference_prim,
    shifted_graph,
    subadditive,
    superset_min_cost,
)


class TestGraphInstance:
    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            GraphInstance(1, [[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="negative"):
            GraphInstance(1, [[0, -1], [-1, 0]])
        with pytest.raises(ValueError):
            GraphInstance(2, [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="need at least one agent"):
            GraphInstance(0, [[0]])
        with pytest.raises(TypeError, match="n must be an int, got bool"):
            GraphInstance(True, [[0, 1], [1, 0]])
        # a float or str n is named before any other check fails on it
        w = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        for n, name in ((2.0, "float"), ("2", "str")):
            with pytest.raises(TypeError, match=f"^n must be an int, got {name}$"):
                GraphInstance(n, w)
            with pytest.raises(TypeError, match=f"^n must be an int, got {name}$"):
                GraphInstance.from_edges(n, [(0, 1, 1), (1, 2, 1)])

    def test_first_bad_weight_in_row_major_order_is_reported(self):
        # the negative entry (0,1) comes before the float (0,2)
        with pytest.raises(ValueError, match=r"^negative weight on edge \(0,1\): -1$"):
            GraphInstance(2, [[0, -1, 1.5], [-1, 0, 1], [1.5, 1, 0]])
        # the float (0,1) comes before the negative entry (0,2)
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            GraphInstance(2, [[0, 1.5, -1], [1.5, 0, 1], [-1, 1, 0]])
        # (1,0) is asymmetric with (0,1), but the negative (1,2) is reported
        with pytest.raises(ValueError, match=r"^negative weight on edge \(1,2\): -1/2$"):
            GraphInstance(2, [[0, 1, 1], [2, 0, Fraction(-1, 2)], [1, Fraction(-1, 2), 0]])
        with pytest.raises(ValueError, match=r"^weights are not symmetric at \(1,2\)$"):
            GraphInstance(2, [[0, 1, 1], [1, 0, "1/3"], [1, "1/2", 0]])
        assert GraphInstance(2, [[0, 1, 1], [1, 0, "1/3"], [1, "2/6", 0]]).weights[2][1] == Fraction(1, 3)
        # the diagonal is never read, so anything may stand there
        assert GraphInstance(1, [[None, "1/2"], [Fraction(1, 2), 1.5]]).weights == (
            (0, Fraction(1, 2)), (Fraction(1, 2), 0)
        )

    def test_from_edges_completion_never_enters_a_tree(self):
        # a path 0-1-2; the missing edge 0-2 is filled with something huge
        g = GraphInstance.from_edges(2, [(0, 1, 2), (1, 2, 3)])
        assert g.weights[0][2] == 6  # 1 + total input weight
        assert g.coalition_cost(0b11) == 5
        assert g.coalition_cost(0b10) == 6  # only agent 2: forced onto the filler

    def test_from_edges_rejects_disconnected(self):
        with pytest.raises(ValueError, match=r"\[2\]"):
            GraphInstance.from_edges(2, [(0, 1, 1)])

    def test_from_edges_rejects_duplicates_and_loops(self):
        with pytest.raises(ValueError, match="duplicate"):
            GraphInstance.from_edges(1, [(0, 1, 1), (1, 0, 2)])
        with pytest.raises(ValueError, match="bad edge"):
            GraphInstance.from_edges(1, [(1, 1, 1)])
        with pytest.raises(ValueError, match="negative weight on edge"):
            GraphInstance.from_edges(1, [(0, 1, -1)])


class TestMstCost:
    def test_grand_coalition_paths(self, tight_quarter, gap5):
        assert MstGame(tight_quarter).cost(Coalition(0b111, 3)) == 1
        assert MstGame(gap5).cost(Coalition(0b111, 3)) == 0

    def test_empty(self, tight_quarter):
        assert MstGame(tight_quarter).cost(Coalition(0, 3)) == 0

    def test_prim_tree_is_the_cheap_path(self, tight_quarter):
        total, order, edges = tight_quarter.prim([1, 2, 3])
        assert Fraction(total, tight_quarter.denominator) == 1
        assert order == [1, 2, 3]
        assert edges == [(0, 1), (1, 2), (2, 3)]


class TestMonotonized:
    def test_steiner_node_flattens_costs(self, steiner):
        assert MstGame(steiner, monotonized=True).cost(Coalition.from_members([2, 3], 3)) == 1
        assert MstGame(steiner, monotonized=True).cost(Coalition.from_members([1], 3)) == 1

    def test_grand_coalition_unchanged(self, steiner, gap5):
        for g in (steiner, gap5):
            full = (1 << g.n) - 1
            assert MstGame(g, monotonized=True).cost(Coalition(full, g.n)) == g.coalition_cost(full)

    def test_against_superset_enumeration(self):
        rng = Random(8)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 6), rng.choice(["uniform", "rational"]))
            bar = g.monotonized_table()
            for bits in range(1 << g.n):
                assert bar[bits] == superset_min_cost(g, bits)
                assert bar[bits] <= g.coalition_cost(bits)

    def test_monotone_under_inclusion(self):
        rng = Random(9)
        for _ in range(8):
            g = random_graph(rng, rng.randint(2, 5), "uniform")
            bar = g.monotonized_table()
            full = (1 << g.n) - 1
            for bits in range(full + 1):
                for i in range(g.n):
                    if not bits >> i & 1:
                        assert bar[bits] <= bar[bits | (1 << i)]


class TestGranotHuberman:
    def test_detour_instance(self, tight_quarter):
        assert [str(v) for v in granot_huberman(tight_quarter)] == ["1", "0", "0"]

    def test_free_tree(self, gap5):
        assert sum(granot_huberman(gap5)) == 0

    def test_star_graph_charges_supplier_edges(self):
        w = [3, 1, 4, 2]
        size = 5
        table = [[40] * size for _ in range(size)]
        for i in range(size):
            table[i][i] = 0
        for j, wj in enumerate(w, start=1):
            table[0][j] = wj
            table[j][0] = wj
        g = GraphInstance(4, table)
        assert list(granot_huberman(g)) == [Fraction(v) for v in w]

    def test_budget_balance_and_core_membership(self):
        rng = Random(10)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 6), rng.choice(["uniform", "euclidean"]))
            x = granot_huberman(g)
            assert sum(x) == g.coalition_cost((1 << g.n) - 1)
            bar = g.monotonized_table()
            sums = subset_sums(list(x))
            for bits in range(1, 1 << g.n):
                assert sums[bits] <= bar[bits] <= g.coalition_cost(bits)


class TestApproximation:
    def test_detour_family_run(self):
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            g = detour_instance(eps)
            alloc, trace = almost_core_approx(g)
            assert list(alloc) == [1, 0, eps]
            assert trace.insertion_order == (1, 2, 3)
            assert trace.last_agent == 3
            assert trace.argmin_k == 2
            assert [str(v) for v in trace.pre_update_shares] == ["1", "0", "0"]

    def test_exact_optimum_of_detour_family(self):
        # all three pair constraints bind: optimum 2 + eps/2, certified by
        # summing them (2 x(N) <= 4 + eps); the witness saturates each pair
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 100)):
            g = detour_instance(eps)
            value, x = almost_core_optimum(MstGame(g), require_nonneg=True)
            assert value == 2 + eps / 2
            witness = (eps / 2, 1 - eps / 2, 1 + eps / 2)
            assert coalition_sum(witness, 0b011) == g.coalition_cost(0b011)
            assert coalition_sum(witness, 0b101) == g.coalition_cost(0b101)
            assert coalition_sum(witness, 0b110) == g.coalition_cost(0b110)

    def test_subsidy_instance_yields_nothing(self, subsidy5):
        alloc, _ = almost_core_approx(subsidy5)
        assert sum(alloc) == 0

    def test_steiner_instance_output_and_monotonized_violation(self, steiner):
        alloc, _ = almost_core_approx(steiner)
        assert tuple(alloc) in {(0, 1, 1), (1, 0, 0)}
        bar = steiner.monotonized_table()
        sums = subset_sums(list(alloc))
        violated_pairs = [
            bits
            for bits in (0b011, 0b101, 0b110)
            if sums[bits] > bar[bits]
        ]
        assert violated_pairs  # stable for c, but not for the monotonized game

    def test_rejects_single_agent(self):
        g = GraphInstance(1, [[0, 1], [1, 0]])
        with pytest.raises(PreconditionError):
            almost_core_approx(g)

    def test_run_invariants_on_random_instances(self):
        rng = Random(11)
        for _ in range(30):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.choice(["uniform", "rational", "euclidean", "nearpath"]))
            alloc, trace = almost_core_approx(g)
            full = (1 << n) - 1
            c_grand = g.coalition_cost(full)

            # the tree spans {0..n}
            nodes = {0}
            for (i, j) in trace.tree_edges:
                assert i in nodes
                nodes.add(j)
            assert nodes == set(range(n + 1))

            # pre-update shares sum to c(N); prefixes are tight
            pre = list(trace.pre_update_shares)
            assert sum(pre) == c_grand
            prefix_bits = 0
            for agent in trace.insertion_order[:-1]:
                prefix_bits |= 1 << (agent - 1)
                assert coalition_sum(pre, prefix_bits) == g.coalition_cost(prefix_bits)

            # stability of the first n-1 agents' shares among themselves
            head_bits = full ^ (1 << (trace.last_agent - 1))
            sub = head_bits
            while sub:
                assert coalition_sum(pre, sub) <= g.coalition_cost(sub)
                sub = (sub - 1) & head_bits

            x = list(alloc)
            assert all(v >= 0 for v in x)
            sums = subset_sums(x)
            for bits in range(1, full):
                assert sums[bits] <= g.coalition_cost(bits)
            # both designated coalitions are exactly affordable
            drop_last = full ^ (1 << (trace.last_agent - 1))
            drop_kstar = full ^ (1 << (trace.argmin_k - 1))
            assert sums[drop_last] == g.coalition_cost(drop_last)
            assert sums[drop_kstar] == g.coalition_cost(drop_kstar)
            # the final share clears the one-tree fallback
            assert x[trace.last_agent - 1] >= c_grand - g.coalition_cost(drop_last)


class TestShiftWeights:
    def test_zero_shift_is_identity(self, subsidy5):
        assert shifted_graph(subsidy5, 0).weights == subsidy5.weights

    def test_default_shift_is_singleton_sum(self, subsidy5):
        # the shift of the reduction is the supplier edges' total, which is
        # the sum of the singleton costs
        shift = sum(subsidy5.weights[0])
        assert shift == sum(MstGame(subsidy5).cost_bits(1 << i) for i in range(3)) == 20
        assert shifted_graph(subsidy5, shift).weights[1][2] == subsidy5.weights[1][2] + 20

    def test_negative_rejected(self, subsidy5):
        with pytest.raises(ValueError, match="negative weight"):
            shifted_graph(subsidy5, -1)

    def test_cost_shift_identity(self):
        rng = Random(12)
        for _ in range(8):
            g = random_graph(rng, rng.randint(2, 5), "uniform")
            m = Fraction(rng.randint(0, 9))
            shifted = shifted_graph(g, m)
            for bits in range(1 << g.n):
                assert shifted.coalition_cost(bits) == g.coalition_cost(
                    bits
                ) + bits.bit_count() * m

    def test_shift_recovers_unrestricted_optimum(self, subsidy5):
        m = sum(subsidy5.weights[0])
        value, x = almost_core_optimum(MstGame(subsidy5), require_nonneg=False)
        shifted = shifted_graph(subsidy5, m)
        s_value, s_x = almost_core_optimum(MstGame(shifted), require_nonneg=True)
        assert s_value == value + 3 * m == 65
        recovered = [v - m for v in s_x]
        sums = subset_sums(recovered)
        for bits in range(1, (1 << 3) - 1):
            assert sums[bits] <= subsidy5.coalition_cost(bits)
        assert sum(recovered) == value


def test_mst_games_subadditive_and_tables_match():
    rng = Random(13)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 6), rng.choice(["uniform", "nearpath"]))
        assert first_failing_pair(MstGame(g), subadditive) is None
        game = ExplicitGame(g.n, g.cost_table())
        assert game.table() == g.cost_table()


def test_enumeration_limit_on_tables():
    g = GraphInstance.from_edges(17, [(0, j, 1) for j in range(1, 18)])
    with pytest.raises(EnumerationLimitError):
        g.cost_table()
    assert g.coalition_cost(0b1) == 1  # single queries stay fine


# --- the integer kernel against the Fraction reference --------------------------


# weights of the "ties" and "mixed" graphs besides the four weight models
WEIGHT_VALUES = {
    "ties": [0, 1, 2],
    "mixed": [Fraction(1, 3), Fraction(5, 7), Fraction(11, 13), Fraction(4, 3), 0, 2],
}


@st.composite
def graphs(draw):
    """n = 1..7 on the four weight models, on weights in {0, 1, 2} (many
    ties), or on mixed denominators such as 1/3, 5/7 and 11/13."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(WEIGHT_MODELS + tuple(WEIGHT_VALUES)))
    if kind in WEIGHT_MODELS:
        return random_graph(Random(draw(st.integers(0, 2**32))), n, kind)
    values = st.sampled_from(WEIGHT_VALUES[kind])
    w = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            w[i][j] = w[j][i] = draw(values)
    return GraphInstance(n, w)


def superset_minimum(table, n):
    return [
        min(table[sup] for sup in range(1 << n) if sup & bits == bits)
        for bits in range(1 << n)
    ]


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_prim_matches_reference_prim(graph, data):
    for _ in range(4):
        vertices = data.draw(st.lists(st.integers(1, graph.n), unique=True))
        total, order, edges = graph.prim(vertices)
        assert type(total) is int
        assert (Fraction(total, graph.denominator), order, edges) == reference_prim(graph, vertices)
    if graph.n >= 2:
        _, trace = almost_core_approx(graph)
        _, order, edges = reference_prim(graph, range(1, graph.n + 1))
        assert trace.insertion_order == tuple(order)
        assert trace.tree_edges == tuple(edges)
        assert trace.pre_update_shares == granot_huberman(graph)
        assert list(granot_huberman(graph)) == [
            graph.weights[i][j] for i, j in sorted(edges, key=lambda e: e[1])
        ]


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_tables_match_reference_prim(graph):
    reference = reference_cost_table(graph)
    assert graph.cost_table() == tuple(reference)
    assert graph.monotonized_table() == tuple(superset_minimum(reference, graph.n))
    assert all(isinstance(v, Fraction) for v in graph.monotonized_table())
    assert MstGame(graph, monotonized=True).table() == graph.monotonized_table()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_nearest_edge_shortcuts_match_reference_prim(data):
    # weights in {0, 1, 2} make the copy (an edge at least the supplier
    # edge, ties included), the fill (an edge at most every edge so far) and
    # the elementwise min all fire while the nearest-edge tables double
    n = data.draw(st.integers(1, 8))
    w = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            w[i][j] = w[j][i] = data.draw(st.integers(0, 2))
    graph = GraphInstance(n, w)
    reference = reference_cost_table(graph)
    assert graph.cost_table() == tuple(reference)
    assert graph.monotonized_table() == tuple(superset_minimum(reference, n))


def test_equal_weights_table_at_n_12():
    # every doubling step copies: each edge ties the supplier edge
    n = 12
    graph = GraphInstance(n, [[3] * (n + 1) for _ in range(n + 1)])
    table = graph.cost_table()
    assert table == tuple(reference_cost_table(graph))
    assert table == tuple(Fraction(3 * bits.bit_count()) for bits in range(1 << n))
    assert graph.monotonized_table() == table


def fixed_graph(kind, n, seed):
    """A seeded graph of one weight model, or of ties or mixed denominators
    (the value sets of ``graphs``), at sizes the strategy does not reach."""
    rng = Random(seed)
    if kind in WEIGHT_MODELS:
        return random_graph(rng, n, kind)
    w = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            w[i][j] = w[j][i] = rng.choice(WEIGHT_VALUES[kind])
    return GraphInstance(n, w)


@pytest.mark.parametrize(
    "kind, n",
    [("uniform", 8), ("rational", 9), ("euclidean", 10), ("nearpath", 11), ("ties", 12), ("mixed", 12)],
)
def test_leaf_removal_table_at_larger_n(kind, n):
    graph = fixed_graph(kind, n, seed=n)
    # single lookups run Prim until the table exists, and read it afterwards
    before = [graph.coalition_cost(bits) for bits in range(1 << n)]
    table = graph.cost_table()
    assert table == tuple(reference_cost_table(graph)) == tuple(before)
    assert [graph.coalition_cost(bits) for bits in range(1 << n)] == before
    # the monotonization sweep works on a copy of the stored table
    mono = graph.monotonized_table()
    assert graph.cost_table() == table
    assert mono[-1] == table[-1] and all(m <= c for m, c in zip(mono, table))
    d = graph.denominator
    assert MstGame(graph).scaled_table() == (tuple(v * d for v in before), d)


@pytest.mark.parametrize("model", WEIGHT_MODELS)
def test_table_exports_match_per_entry_fractions(model):
    rng = Random(len(model))
    for n in range(1, 10):
        graph = random_graph(rng, n, model)
        d = graph.denominator
        scaled = graph._scaled_cost_table()
        table = graph.cost_table()
        assert table == tuple(Fraction(v, d) for v in scaled)
        mono = graph.monotonized_table()
        assert graph._scaled_monotonized_table() == tuple(superset_minimum(scaled, n))
        assert mono == tuple(Fraction(v, d) for v in graph._scaled_monotonized_table())
        assert all(type(v) is Fraction for v in table + mono)


@pytest.mark.parametrize("kind", WEIGHT_MODELS + ("ties",))
def test_mst_game_table_reads_the_graph_table(kind, monkeypatch):
    trees = []
    tree = GraphInstance.prim
    monkeypatch.setattr(GraphInstance, "prim", lambda self, v: trees.append(v) or tree(self, v))
    for n in range(1, 8):
        graph = fixed_graph(kind, n, seed=n)
        for monotonized in (False, True):
            game = MstGame(graph, monotonized=monotonized)
            trees.clear()
            table = game.table()
            assert trees == []  # no Prim run per coalition
            assert table == (graph.monotonized_table() if monotonized else graph.cost_table())
            scaled, d = game.scaled_table()  # what the oracles and row generation read
            assert tuple(Fraction(v, d) for v in scaled) == table


@pytest.mark.parametrize("model", WEIGHT_MODELS)
def test_nonneg_almost_core_after_the_approximation_runs_no_prim(model, monkeypatch):
    # the row builder reads the table before its seed rows, so the bench
    # operation's LP takes every cost from the leaf-removal table
    graph = random_graph(Random(len(model)), 7, model)
    almost_core_approx(graph)
    trees = []
    tree = GraphInstance.prim
    monkeypatch.setattr(GraphInstance, "prim", lambda self, v: trees.append(v) or tree(self, v))
    almost_core_optimum(MstGame(graph), True)
    assert trees == []


@pytest.mark.parametrize("model", WEIGHT_MODELS)
def test_prim_runs_per_call(model, monkeypatch):
    # every Prim run goes through the one traced kernel, GraphInstance.prim
    runs = []
    prim = GraphInstance.prim
    monkeypatch.setattr(GraphInstance, "prim", lambda self, v: runs.append(v) or prim(self, v))

    def count(call, *args):
        runs.clear()
        call(*args)
        return len(runs)

    rng = Random(len(model))
    for n in range(2, 9):
        # one tree, then c(N - k) for every agent k but the last inserted
        assert count(almost_core_approx, random_graph(rng, n, model)) == n
        assert count(granot_huberman, random_graph(rng, n, model)) == 1
        graph = random_graph(rng, n, model)
        graph.cost_table()
        assert count(almost_core_approx, graph) == 1  # lookups read the table
        graph = random_graph(rng, n, model)
        almost_core_approx(graph)
        assert count(almost_core_optimum, MstGame(graph), True) == 0


def expected_separation(scan, n):
    if scan[0] == "member":
        return SeparationResult(True)
    if scan[0] == "bound":
        return SeparationResult(False, negative_agent=scan[1], amount=scan[2])
    return SeparationResult(False, Coalition(scan[1], n), scan[2])


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_oracles_match_fraction_scan(graph, data):
    n = graph.n
    gh = list(granot_huberman(graph))  # in the core of both games
    odd = st.builds(Fraction, st.integers(-10, 30), st.sampled_from([1, 2, 5, 17, 19]))
    points = [
        gh,
        [v + Fraction(1, 17) for v in gh],  # denominators that do not divide D
        data.draw(st.lists(odd, min_size=n, max_size=n)),
    ]
    reference = reference_cost_table(graph)
    tables = (reference, superset_minimum(reference, n))
    games = (
        MstGame(graph), MstGame(graph, monotonized=True), ExplicitGame(graph.n, graph.cost_table())
    )
    for game, table in zip(games, (tables[0], tables[1], tables[0])):
        plain = brute_force_core_oracle(game)
        nonneg = brute_force_nonneg_core_oracle(game)
        for point in points:
            for oracle, flag in ((plain, False), (nonneg, True)):
                result = oracle(point)
                assert result == expected_separation(reference_core_scan(table, point, flag), n)
                assert result.amount is None or isinstance(result.amount, Fraction)


@pytest.mark.parametrize("bits", [-1, 8])
def test_mst_lookups_reject_a_mask_outside_0_to_2n(bits):
    graph = detour_instance(Fraction(1, 4))
    plain, mono = MstGame(graph), MstGame(graph, monotonized=True)  # mono builds the table
    for lookup in (graph.coalition_cost, plain.cost_bits, mono.cost_bits):
        with pytest.raises(ValueError, match=f"bitmask {bits} out of range for n=3"):
            lookup(bits)


def test_mst_lookups_reject_a_mask_outside_0_to_2n_before_the_table_exists():
    # without a table a lookup runs Prim on bits_members(mask), and decoding
    # -1 would never end: a child process turns such a hang into a timeout
    code = """if True:
        import sys
        sys.path.insert(0, sys.argv[1])
        from fractions import Fraction
        from allocore.coalition import bits_members
        from allocore.generators import detour_instance
        from allocore.mstgame import MstGame
        graph = detour_instance(Fraction(1, 4))
        try:
            bits_members(-1)
        except ValueError as exc:
            print(exc)
        for bits in (-1, 8):
            for lookup in (graph.coalition_cost, MstGame(graph).cost_bits):
                try:
                    lookup(bits)
                except ValueError as exc:
                    print(exc)
        print(graph._table is None)
    """
    package_root = Path(allocore.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", code, str(package_root)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    messages = [f"bitmask {bits} out of range for n=3" for bits in (-1, -1, 8, 8)]
    assert result.stdout.splitlines() == ["bitmask -1 is negative", *messages, "True"]
