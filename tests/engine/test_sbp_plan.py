"""Tests for the cached SBP plan layer: caching, sweeps, batching, repairs."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from repro.coupling import fraud_matrix, homophily_matrix, synthetic_residual_matrix
from repro.core import SBP, sbp
from repro.core._sbp_reference import ReferenceSBP
from repro.engine import (
    SBPPlan,
    clear_plan_cache,
    get_sbp_plan,
    plan_cache_info,
    run_sbp_batch,
    sbp_plan_cache_info,
)
from repro.exceptions import ValidationError
from repro.graphs import (
    UNREACHABLE,
    Graph,
    chain_graph,
    geodesic_numbers,
    grid_graph,
    level_slices,
    modified_adjacency,
    random_graph,
    sbp_example_graph,
    torus_graph,
)


def _random_workload(seed: int, num_nodes: int = 40, num_labels: int = 6):
    graph = random_graph(num_nodes, 0.12, seed=seed)
    coupling = synthetic_residual_matrix(epsilon=0.5)
    rng = np.random.default_rng(seed + 100)
    explicit = np.zeros((num_nodes, 3))
    for node in rng.choice(num_nodes, size=num_labels, replace=False):
        values = rng.uniform(-0.1, 0.1, size=2)
        explicit[node] = [values[0], values[1], -values.sum()]
    return graph, coupling, explicit


class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()

    def test_same_graph_and_labels_share_a_plan(self):
        graph = torus_graph()
        first = get_sbp_plan(graph, [0, 1, 2])
        assert get_sbp_plan(graph, [0, 1, 2]) is first
        assert get_sbp_plan(graph, [2, 1, 0]) is first  # order-insensitive key
        info = sbp_plan_cache_info()
        assert info["sbp_hits"] == 2 and info["sbp_misses"] == 1

    def test_different_labels_build_different_plans(self):
        graph = torus_graph()
        assert get_sbp_plan(graph, [0]) is not get_sbp_plan(graph, [0, 1])

    def test_different_graphs_build_different_plans(self):
        first, second = chain_graph(5), chain_graph(5)
        assert get_sbp_plan(first, [0]) is not get_sbp_plan(second, [0])

    def test_clear_plan_cache_covers_sbp_plans(self):
        get_sbp_plan(torus_graph(), [0])
        clear_plan_cache()
        assert sbp_plan_cache_info() == {"sbp_size": 0, "sbp_hits": 0,
                                         "sbp_misses": 0}
        assert plan_cache_info()["sbp_size"] == 0

    def test_plan_survives_graph_collection_but_entry_is_evicted(self):
        graph = chain_graph(6)
        plan = get_sbp_plan(graph, [0])
        del graph
        import gc
        gc.collect()
        assert sbp_plan_cache_info()["sbp_size"] == 0
        assert plan.graph is None
        assert plan.max_level == 5  # artifacts stay usable


class TestPlanStructure:
    def test_geodesic_numbers_match_module_function(self):
        graph = sbp_example_graph()
        plan = SBPPlan(graph, [1, 6])
        assert np.array_equal(plan.geodesic_numbers,
                              geodesic_numbers(graph, [1, 6]))

    def test_level_slices_reassemble_modified_adjacency(self):
        for seed in range(4):
            graph = random_graph(30, 0.12, seed=seed)
            labeled = [0, 7, 13]
            levels, slices = level_slices(graph, labeled)
            dag = modified_adjacency(graph, labeled).toarray()
            rebuilt = np.zeros_like(dag)
            for level, block in enumerate(slices, start=1):
                rows = levels.nodes_at(level)
                cols = levels.nodes_at(level - 1)
                rebuilt[np.ix_(cols, rows)] = block.toarray().T
            assert np.allclose(rebuilt, dag)

    def test_edges_per_sweep_counts_dag_entries(self):
        graph = sbp_example_graph()
        plan = SBPPlan(graph, [1, 6])
        assert plan.edges_per_sweep == modified_adjacency(graph, [1, 6]).nnz

    def test_propagate_validates_block(self):
        plan = SBPPlan(chain_graph(4), [0])
        residual = homophily_matrix(epsilon=0.3).residual
        with pytest.raises(ValidationError):
            plan.propagate(np.zeros((3, 2)), residual)
        with pytest.raises(ValidationError):
            plan.propagate(np.zeros((4, 3)), residual)  # width not multiple


class TestVectorizedBFSAgainstScipy:
    def test_matches_csgraph_hop_distances_on_random_graphs(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            graph = random_graph(60, rng.uniform(0.02, 0.15), seed=seed)
            labeled = rng.choice(60, size=int(rng.integers(1, 6)),
                                 replace=False)
            numbers = geodesic_numbers(graph, labeled.tolist())
            hops = shortest_path(graph.adjacency, method="D", unweighted=True,
                                 indices=labeled)
            expected = np.min(np.atleast_2d(hops), axis=0)
            finite = np.isfinite(expected)
            assert np.array_equal(numbers[finite], expected[finite].astype(int))
            assert np.all(numbers[~finite] == UNREACHABLE)

    def test_weighted_graph_distances_count_hops_not_weights(self):
        graph = Graph.from_edges([(0, 1, 9.0), (1, 2, 0.1), (0, 2, 5.0)])
        assert geodesic_numbers(graph, [0]).tolist() == [0, 1, 1]


class TestBatchedSBP:
    def test_batch_matches_sequential_runs(self):
        graph, coupling, explicit = _random_workload(3)
        rng = np.random.default_rng(5)
        queries = [explicit * scale for scale in rng.uniform(0.5, 1.5, 6)]
        batched = run_sbp_batch(graph, coupling, queries)
        for query, result in zip(queries, batched):
            sequential = sbp(graph, coupling, query)
            assert np.abs(result.beliefs - sequential.beliefs).max() < 1e-10
            assert np.array_equal(result.extra["geodesic_numbers"],
                                  sequential.extra["geodesic_numbers"])
            assert result.iterations == sequential.iterations

    def test_mixed_labeled_sets_are_grouped_not_merged(self):
        graph, coupling, explicit = _random_workload(7)
        other = explicit.copy()
        labeled = np.nonzero(np.any(explicit != 0.0, axis=1))[0]
        other[labeled[0]] = 0.0  # different labeled set -> different plan
        results = run_sbp_batch(graph, coupling, [explicit, other, explicit])
        for query, result in zip([explicit, other, explicit], results):
            sequential = sbp(graph, coupling, query)
            assert np.abs(result.beliefs - sequential.beliefs).max() < 1e-10

    def test_empty_batch(self):
        graph, coupling, _ = _random_workload(1)
        assert run_sbp_batch(graph, coupling, []) == []

    def test_unlabeled_query_stays_zero(self):
        graph, coupling, explicit = _random_workload(2)
        results = run_sbp_batch(graph, coupling,
                                [explicit, np.zeros_like(explicit)])
        assert np.allclose(results[1].beliefs, 0.0)
        assert np.all(results[1].extra["geodesic_numbers"] == UNREACHABLE)

    def test_shape_mismatch_rejected(self):
        graph, coupling, explicit = _random_workload(4)
        with pytest.raises(ValidationError):
            run_sbp_batch(graph, coupling, [explicit[:, :2]])

    def test_batch_extra_metadata(self):
        graph, coupling, explicit = _random_workload(6)
        results = run_sbp_batch(graph, coupling, [explicit, explicit])
        assert results[0].extra["engine"] == "sbp_batch"
        assert results[0].extra["batch_size"] == 2


class TestVectorizedAgainstReference:
    def test_run_matches_reference_on_grid(self):
        graph = grid_graph(12, 12)
        coupling = fraud_matrix(epsilon=0.5)
        rng = np.random.default_rng(9)
        explicit = np.zeros((graph.num_nodes, 3))
        for node in rng.choice(graph.num_nodes, size=5, replace=False):
            values = rng.uniform(-0.1, 0.1, size=2)
            explicit[node] = [values[0], values[1], -values.sum()]
        runner = SBP(graph, coupling)
        result = runner.run(explicit)
        reference = ReferenceSBP(graph, coupling)
        reference_beliefs = reference.run(explicit)
        assert np.abs(result.beliefs - reference_beliefs).max() < 1e-10
        assert np.array_equal(result.extra["geodesic_numbers"],
                              reference.geodesic_numbers)


class TestRepairMatchesSweepExactly:
    @pytest.mark.parametrize("seed", range(6))
    def test_update_chain_equals_a_fresh_sweep_bit_for_bit(self, seed):
        """ΔSBP repairs sum parents in the full sweep's order, so a
        maintained view never differs from a fresh sweep, not even in
        which rows are exactly zero."""
        graph, coupling, explicit = _random_workload(seed, num_nodes=60,
                                                     num_labels=4)
        runner = SBP(graph, coupling)
        runner.run(explicit)
        rng = np.random.default_rng(seed + 500)
        for step in range(12):
            if step % 2:
                node = int(rng.integers(graph.num_nodes))
                values = rng.uniform(-0.1, 0.1, size=2)
                explicit[node] = [values[0], values[1], -values.sum()]
                runner.add_explicit_beliefs({node: explicit[node]})
            else:
                edges = set()
                while len(edges) < 2:
                    a, b = (int(x) for x in rng.integers(graph.num_nodes,
                                                         size=2))
                    if a != b and not runner.graph.has_edge(a, b):
                        edges.add((a, b))
                runner.add_edges(sorted(edges))
            fresh = sbp(runner.graph, coupling, explicit)
            assert np.array_equal(runner.beliefs, fresh.beliefs)
