"""Bit-for-bit parity of the batched Eq. 15 / Eq. 20 scorers.

``tree_truncated_trace_reduction`` and ``ApproxRanker.score_batch``
score whole sub-batches of candidates with array operations; their
oracles are the per-candidate loops
``tree_truncated_trace_reduction_reference`` and
``approximate_trace_reduction``.  Scores must agree bit for bit -- the
selected edges, and with them every RunRecord fingerprint, depend on it.
"""

import contextlib
import json
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.records import RunRecord
from repro.backends import base as backends_base
from repro.core import (
    ApproxRanker,
    BallCache,
    TreePhaseRanker,
    _kernels,
    approximate_trace_reduction,
    ranking,
    score_edges,
    sparsifier,
    tree_phase,
    tree_truncated_trace_reduction,
)
from repro.core._kernels import (
    ball_incidence,
    ball_pair_edge_sum_flat,
    edge_sums,
    incidence_codes,
    joining_edges,
    segment_sums,
)
from repro.core.sparsifier import SparsifierConfig, trace_reduction_sparsify
from repro.core.tree_phase import tree_truncated_trace_reduction_reference
from repro.graph import (
    GENERATOR_REGISTRY,
    Graph,
    grid2d,
    make_family_graph,
    regularization_shift,
    regularized_laplacian,
    triangular_mesh,
)
from repro.graph.bfs import BallFinder
from repro.graph.suitesparse_like import CASE_REGISTRY, make_case
from repro.linalg import cholesky, sparse_approximate_inverse
from repro.linalg.spai import sparse_approximate_inverse_reference
from repro.tree import RootedForest, mewst

FAMILIES = sorted(GENERATOR_REGISTRY)


def _bits(scores) -> bytes:
    return np.asarray(scores, dtype=np.float64).tobytes()


def _disjoint_union(graphs) -> Graph:
    """Side-by-side copies: a graph whose spanning forest has a tree each."""
    offsets = np.cumsum([0] + [g.n for g in graphs])
    return Graph(
        int(offsets[-1]),
        np.concatenate([g.u + off for g, off in zip(graphs, offsets)]),
        np.concatenate([g.v + off for g, off in zip(graphs, offsets)]),
        np.concatenate([g.w for g in graphs]),
    )


def _scenario(family, n, seed, components):
    graphs = [
        make_family_graph(family, n, seed=seed + k) for k in range(components)
    ]
    return graphs[0] if components == 1 else _disjoint_union(graphs)


def _general_setting(graph, extra=6, delta=0.1):
    """Forest plus *extra* off-tree edges, factored, with its SPAI."""
    forest = RootedForest(graph, mewst(graph))
    mask = forest.tree_edge_mask().copy()
    off = np.flatnonzero(~mask)
    mask[off[:extra]] = True
    subgraph = graph.subgraph(mask)
    factor = cholesky(
        regularized_laplacian(subgraph, regularization_shift(graph))
    )
    Z = sparse_approximate_inverse(factor.L, delta=delta)
    return subgraph, factor, Z, off[extra:]


scenarios = st.fixed_dictionaries({
    "family": st.sampled_from(FAMILIES),
    "n": st.integers(24, 90),
    "seed": st.integers(0, 2**16),
    "components": st.integers(1, 3),
    "beta": st.integers(1, 4),
    # None keeps the module cap; tiny caps force many sub-batches.
    "cap": st.sampled_from([None, 1, 200, 2000]),
})


def _cap(cap):
    """Patch the sub-batch cap; ``None`` keeps the module's."""
    if cap is None:
        return contextlib.nullcontext()
    return mock.patch.object(_kernels, "SCORE_PAIR_CAP", cap)


class TestFamilyParity:
    """Every workload family, bipartite hubs and disconnected forests."""

    @given(case=scenarios)
    @settings(max_examples=30, deadline=None)
    def test_tree_phase_bitwise(self, case):
        graph = _scenario(case["family"], case["n"], case["seed"],
                          case["components"])
        forest = RootedForest(graph, mewst(graph))
        expected, ids, res = tree_truncated_trace_reduction_reference(
            graph, forest, beta=case["beta"]
        )
        with _cap(case["cap"]):
            got, got_ids, got_res = tree_truncated_trace_reduction(
                graph, forest, beta=case["beta"]
            )
        assert np.array_equal(ids, got_ids)
        assert _bits(res) == _bits(got_res)
        assert _bits(got) == _bits(expected)

    @given(case=scenarios)
    @settings(max_examples=30, deadline=None)
    def test_general_round_bitwise(self, case):
        graph = _scenario(case["family"], case["n"], case["seed"],
                          case["components"])
        subgraph, factor, Z, off = _general_setting(graph)
        expected = approximate_trace_reduction(
            graph, subgraph, factor, Z, off, beta=case["beta"]
        )
        with _cap(case["cap"]):
            ranker = ApproxRanker(graph, subgraph, factor, Z,
                                  beta=case["beta"])
            got = ranker.score_batch(off)
        assert _bits(got) == _bits(expected)


class TestCoveredCases:
    def test_overlapping_tree_balls(self):
        """Where p- and q-balls share nodes the q potential must win."""
        graph = grid2d(9, 9, weights="uniform", seed=5)
        forest = RootedForest(graph, mewst(graph))
        indptr, nbr, _ = forest.tree.adjacency()
        finder = BallFinder(indptr, nbr)
        off = np.flatnonzero(~forest.tree_edge_mask())
        overlapping = np.array([
            e for e in off
            if np.intersect1d(
                finder.ball_nodes(int(graph.u[e]), 3),
                finder.ball_nodes(int(graph.v[e]), 3),
            ).size
        ])
        assert 0 < len(overlapping) < len(off)
        expected, _, _ = tree_truncated_trace_reduction_reference(
            graph, forest, edge_ids=overlapping, beta=3
        )
        got, _, _ = tree_truncated_trace_reduction(
            graph, forest, edge_ids=overlapping, beta=3
        )
        assert _bits(got) == _bits(expected)

    def test_candidate_without_ball_pair_edge_scores_zero(self):
        """joining_edges + edge_sums equal the scalar kernel per
        candidate, and a candidate with no qualifying edge sums to 0.0."""
        rng = np.random.default_rng(7)
        graph = triangular_mesh(120, seed=3)
        indptr, nbr, eid = graph.adjacency()
        n = graph.n
        values = rng.standard_normal(n)
        # Candidate 0: incidences but an empty second ball; 1: an empty
        # first ball; 2-4: random balls.
        first = [np.arange(0, 6), np.empty(0, dtype=np.int64)] + [
            rng.choice(n, 8, replace=False) for _ in range(3)
        ]
        second = [np.empty(0, dtype=np.int64), rng.choice(n, 5)] + [
            rng.choice(n, 10, replace=False) for _ in range(3)
        ]
        count = len(first)
        balls = [np.unique(ball) for ball in first + second]
        expected = []
        for ball_p, ball_q in zip(balls[:count], balls[count:]):
            starts, stops = indptr[ball_p], indptr[ball_p + 1]
            flat = np.concatenate(
                [np.arange(a, b) for a, b in zip(starts, stops)]
                + [np.empty(0, dtype=np.int64)]
            )
            stamp = np.zeros(n, dtype=np.int64)
            stamp[ball_q] = 1
            expected.append(ball_pair_edge_sum_flat(
                np.repeat(ball_p, stops - starts), nbr[flat], eid[flat],
                graph.w, stamp, 1, values,
            ))
        bounds = np.cumsum([0] + [len(ball) for ball in balls])
        incidence = ball_incidence(bounds, np.concatenate(balls),
                                   incidence_codes(graph))
        cand, edges = joining_edges(incidence, np.arange(count),
                                    np.arange(count, 2 * count))
        got = edge_sums(
            count, cand, graph.w[edges],
            values[graph.u[edges]] - values[graph.v[edges]],
        )
        assert got[0] == 0.0 and got[1] == 0.0
        assert _bits(got) == _bits(expected)
        for k, edge in zip(cand, edges):
            ends = {int(graph.u[edge]), int(graph.v[edge])}
            assert ends & set(balls[k].tolist())
            assert ends & set(balls[count + k].tolist())

    def test_forced_sub_batches(self, small_mesh):
        """A tiny cap splits both scorers into many sub-batches."""
        forest = RootedForest(small_mesh, mewst(small_mesh))
        subgraph, factor, Z, off = _general_setting(small_mesh, extra=10)
        tree_expected, _, _ = tree_truncated_trace_reduction_reference(
            small_mesh, forest, beta=4
        )
        approx_expected = approximate_trace_reduction(
            small_mesh, subgraph, factor, Z, off, beta=4
        )
        tree_spans = mock.Mock(wraps=tree_phase._score_span)
        approx_spans = mock.Mock(wraps=ApproxRanker._score_span,
                                 autospec=True)
        with mock.patch.object(_kernels, "SCORE_PAIR_CAP", 500), \
                mock.patch.object(tree_phase, "_score_span", tree_spans), \
                mock.patch.object(ApproxRanker, "_score_span",
                                  lambda self, *a: approx_spans(self, *a)):
            tree_got, _, _ = tree_truncated_trace_reduction(
                small_mesh, forest, beta=4
            )
            ranker = ApproxRanker(small_mesh, subgraph, factor, Z, beta=4)
            approx_got = ranker.score_batch(off)
        assert tree_spans.call_count > 3
        assert approx_spans.call_count > 3
        assert _bits(tree_got) == _bits(tree_expected)
        assert _bits(approx_got) == _bits(approx_expected)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="fork-based worker pool only runs on Linux")
    def test_worker_pool_chunks(self):
        """score_edges(workers=2, chunk_size=64) reproduces the oracles."""
        graph = triangular_mesh(260, shape="disk", weights="smooth", seed=9)
        forest = RootedForest(graph, mewst(graph))
        subgraph, factor, Z, off = _general_setting(graph, extra=12)
        assert len(off) > 3 * 64
        tree_off = np.flatnonzero(~forest.tree_edge_mask())
        tree_expected, _, _ = tree_truncated_trace_reduction_reference(
            graph, forest, edge_ids=tree_off
        )
        approx_expected = approximate_trace_reduction(
            graph, subgraph, factor, Z, off
        )
        with warnings.catch_warnings():
            # A pool that silently fell back to serial would pass
            # vacuously; the fallback's warning fails the test instead.
            warnings.simplefilter("error", RuntimeWarning)
            tree_got = score_edges(
                TreePhaseRanker(graph, forest), tree_off,
                workers=2, chunk_size=64,
            )
            approx_got = score_edges(
                ApproxRanker(graph, subgraph, factor, Z), off,
                workers=2, chunk_size=64,
            )
        assert _bits(tree_got) == _bits(tree_expected)
        assert _bits(approx_got) == _bits(approx_expected)


class TestCappedCache:
    def test_one_bfs_call_per_batch(self, small_mesh):
        """With nothing cached, balls come from one BallFinder.balls call
        per batch and ball incidences from one sparse product per
        score_batch; no per-candidate BFS runs."""
        subgraph, factor, Z, off = _general_setting(small_mesh)
        expected = approximate_trace_reduction(
            small_mesh, subgraph, factor, Z, off
        )
        cache = BallCache(5, max_entries=0)
        indptr, nbr, _ = subgraph.adjacency()
        cache.attach_subgraph(indptr, nbr)
        ranker = ApproxRanker(small_mesh, subgraph, factor, Z, cache=cache)
        balls = mock.Mock(wraps=cache._finder.balls)
        scalar = mock.Mock(wraps=cache._finder.ball)
        products = mock.Mock(wraps=ball_incidence)
        spans = mock.Mock(wraps=ranker._score_span)
        with mock.patch.object(cache._finder, "balls", balls), \
                mock.patch.object(cache._finder, "ball", scalar), \
                mock.patch.object(ranking, "ball_incidence", products), \
                mock.patch.object(ranker, "_score_span", spans), \
                mock.patch.object(_kernels, "SCORE_PAIR_CAP", 3000):
            got = ranker.score_batch(off)
        assert _bits(got) == _bits(expected)
        assert len(cache) == 0
        assert balls.call_count == 1
        assert scalar.call_count == 0
        assert spans.call_count > 1
        assert products.call_count == 1


class TestJoiningEdges:
    """ball_incidence + joining_edges against brute-force Python sets."""

    @staticmethod
    def _select(graph, balls, first, second):
        bounds = np.cumsum([0] + [len(ball) for ball in balls])
        nodes = np.concatenate(
            [np.asarray(ball, dtype=np.int64) for ball in balls]
            + [np.empty(0, dtype=np.int64)]
        )
        incidence = ball_incidence(bounds, nodes, incidence_codes(graph))
        return incidence, joining_edges(
            incidence, np.asarray(first, dtype=np.int64),
            np.asarray(second, dtype=np.int64),
        )

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_python_sets(self, data):
        n = data.draw(st.integers(1, 14), label="n")
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        # Sparse draws leave isolated nodes and disconnected pieces.
        chosen = data.draw(
            st.lists(st.sampled_from(pairs), unique=True) if pairs
            else st.just([]), label="edges",
        )
        graph = Graph(n, [a for a, _ in chosen], [b for _, b in chosen],
                      np.ones(len(chosen)))
        # Random balls (empty, disjoint or overlapping, any node order),
        # plus one ball nested in each of them.
        balls = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), unique=True),
            min_size=1, max_size=6,
        ), label="balls")
        balls += [
            data.draw(st.lists(st.sampled_from(ball), unique=True))
            if ball else [] for ball in list(balls)
        ]
        rows = st.integers(0, len(balls) - 1)
        first = data.draw(st.lists(rows, min_size=1, max_size=12),
                          label="first")
        second = data.draw(st.lists(rows, min_size=len(first),
                                    max_size=len(first)), label="second")
        # Identical balls, and each ball against its nested one.
        half = len(balls) // 2
        first += [0] + list(range(half))
        second += [0] + list(range(half, 2 * half))
        incidence, (got_pair, got_edges) = self._select(
            graph, balls, first, second
        )

        ends = list(zip(graph.u.tolist(), graph.v.tolist()))
        for x, ball in enumerate(balls):
            members = set(ball)
            coded = [
                (e, (a in members) + 2 * (b in members))
                for e, (a, b) in enumerate(ends)
            ]
            row = slice(incidence.indptr[x], incidence.indptr[x + 1])
            assert incidence.indices[row].tolist() == [
                e for e, code in coded if code
            ]
            assert incidence.data[row].tolist() == [
                code for _, code in coded if code
            ]
        want_pair, want_edges = [], []
        for k, (p, q) in enumerate(zip(first, second)):
            ball_p, ball_q = set(balls[p]), set(balls[q])
            for e, (a, b) in enumerate(ends):
                if (a in ball_p and b in ball_q) or (b in ball_p
                                                    and a in ball_q):
                    want_pair.append(k)
                    want_edges.append(e)
        assert got_pair.tolist() == want_pair
        assert got_edges.tolist() == want_edges

    @pytest.mark.parametrize("q_code", [1, 2, 3])
    @pytest.mark.parametrize("p_code", [1, 2, 3])
    def test_every_code_pair(self, p_code, q_code):
        """One edge (0, 1): the products 1 * 1 and 2 * 2 (both balls
        hold the same end only) exclude it; every other pair joins."""
        graph = Graph(3, [0], [1], [1.0])
        ball = {1: [0], 2: [1], 3: [1, 0]}
        incidence, (pair, edges) = self._select(
            graph, [ball[p_code], ball[q_code]], [0], [1]
        )
        assert incidence.data.tolist() == [p_code, q_code]
        joins = p_code * q_code not in (1, 4)
        assert edges.tolist() == ([0] if joins else [])
        assert pair.tolist() == ([0] if joins else [])


@contextlib.contextmanager
def _sparse_sizes(log):
    """Log the stored size of every sparse array built in the block."""
    with contextlib.ExitStack() as stack:
        for cls in (sp.csr_array, sp.csc_array, sp.coo_array):
            def init(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                log.append(max(self.nnz, len(getattr(self, "indices", ()))))
            stack.enter_context(mock.patch.object(cls, "__init__", init))
        yield


def _span_peaks(module, owner, call):
    """Run *call*; return the candidate costs, the sub-batches, the cap
    and, per sub-batch, the largest sparse array built inside it."""
    costs, peaks, log = [], [], []
    inside = []
    real_cap_spans = module.cap_spans
    real_span = owner._score_span

    def cap_spans(values, cap):
        if not inside:
            costs.append((np.asarray(values).copy(), cap))
        return real_cap_spans(values, cap)

    def span(*args):
        inside.append(True)
        del log[:]
        try:
            return real_span(*args)
        finally:
            inside.pop()
            peaks.append(max(log, default=0))

    with mock.patch.object(module, "cap_spans", cap_spans), \
            mock.patch.object(owner, "_score_span", span), \
            _sparse_sizes(log):
        call()
    [(values, cap)] = costs
    return values, real_cap_spans(values, cap), cap, peaks


def _hub_tail_graph():
    """Barabasi-Albert graph relabelled so the hubs get the largest ids:
    a hub is then the tail (``v``) of every edge it has."""
    graph = make_family_graph("ba", 300, seed=4)
    flip = graph.n - 1
    return Graph(graph.n, flip - graph.u, flip - graph.v, graph.w)


class TestSpanCosts:
    """Each sub-batch's largest sparse intermediate holds at most
    ``max(pair budget, its costliest candidate's cost)`` entries: the
    costs count every ball incidence a sub-batch materializes, head and
    tail alike."""

    @pytest.mark.parametrize("cap", [1, 200, 2000])
    @pytest.mark.parametrize("family", ["mesh", "ba_hub_tail"])
    @pytest.mark.parametrize("scorer", ["tree", "approx"])
    def test_intermediates_within_span_cost(self, scorer, family, cap):
        graph = (_hub_tail_graph() if family == "ba_hub_tail"
                 else make_family_graph("mesh", 300, seed=2))
        if scorer == "tree":
            forest = RootedForest(graph, mewst(graph))
            off = np.flatnonzero(~forest.tree_edge_mask())
            module, owner = tree_phase, tree_phase

            def call():
                tree_truncated_trace_reduction(graph, forest, beta=3)
        else:
            subgraph, factor, Z, off = _general_setting(graph)
            ranker = ApproxRanker(graph, subgraph, factor, Z, beta=3)
            module, owner = ranking, ApproxRanker

            def call():
                ranker.score_batch(off)
        if family == "ba_hub_tail":
            assert np.bincount(graph.v[off]).max() >= 20
        with _cap(cap):
            costs, spans, budget, peaks = _span_peaks(module, owner, call)
            assert budget == _kernels.pair_budget(graph.edge_count)
        assert len(peaks) == len(spans) > 1
        for (lo, hi), peak in zip(spans, peaks):
            assert 0 < peak <= max(budget, costs[lo:hi].max())
        if cap > 1:
            assert max(hi - lo for lo, hi in spans) > 1


class TestSegmentSums:
    @given(
        lengths=st.lists(st.integers(0, 700), min_size=0, max_size=40),
        seed=st.integers(0, 2**16),
        spread=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_np_sum_per_segment(self, lengths, seed, spread):
        rng = np.random.default_rng(seed)
        total = int(np.sum(lengths))
        values = rng.random(total) * 10.0 ** rng.uniform(-spread, spread,
                                                         total)
        values[rng.random(total) < 0.1] = 0.0
        got = segment_sums(values, lengths)
        bounds = np.concatenate([[0], np.cumsum(lengths)]).astype(int)
        expected = [
            np.sum(values[bounds[k] : bounds[k + 1]])
            for k in range(len(lengths))
        ]
        assert _bits(got) == _bits(expected)

    def test_long_segments(self):
        rng = np.random.default_rng(1)
        for length in (127, 128, 129, 1000, 4097, 8192, 8193, 20001):
            values = rng.random(length)
            assert _bits(segment_sums(values, [length])) == _bits(
                [np.sum(values)]
            )


class _OracleTreeRanker(TreePhaseRanker):
    """Tree-phase ranker scoring through the per-candidate oracle."""

    def score_batch(self, edge_ids):
        scores, _, _ = tree_truncated_trace_reduction_reference(
            self.graph, self.forest, edge_ids=edge_ids, beta=self.beta
        )
        return scores


class _OracleApproxRanker(ApproxRanker):
    """General-round ranker scoring through the per-candidate oracle.

    It still warms the shared ball cache, so ``cached_balls`` in the
    round log counts the same entries as production.
    """

    def __init__(self, graph, subgraph, factor, Z, **kwargs):
        super().__init__(graph, subgraph, factor, Z, **kwargs)
        self._oracle = (subgraph, factor, Z)

    def score_batch(self, edge_ids):
        self.prepare(edge_ids)
        subgraph, factor, Z = self._oracle
        return approximate_trace_reduction(
            self.graph, subgraph, factor, Z, edge_ids, beta=self.beta
        )


TABLE1 = sorted(name for name, spec in CASE_REGISTRY.items()
                if spec.paper_nodes)


@pytest.mark.parametrize("case", TABLE1)
def test_table1_fingerprint_matches_per_candidate_scoring(case, monkeypatch):
    """The ``proposed`` RunRecord fingerprint of every Table-1 case is
    byte-identical to the one the per-candidate loops produce: oracle
    rankers, and the per-column SPAI oracle building ``Z~``."""
    graph, _ = make_case(case, scale=0.02, seed=0)
    config = SparsifierConfig(edge_fraction=0.1)

    def fingerprint():
        result = trace_reduction_sparsify(graph, config)
        record = RunRecord.from_result(result, "proposed", label=case)
        return json.dumps(record.fingerprint(), sort_keys=True)

    batched = fingerprint()
    monkeypatch.setattr(sparsifier, "TreePhaseRanker", _OracleTreeRanker)
    monkeypatch.setattr(sparsifier, "ApproxRanker", _OracleApproxRanker)
    spai_oracle = mock.Mock(wraps=sparse_approximate_inverse_reference)
    monkeypatch.setattr(backends_base, "sparse_approximate_inverse",
                        spai_oracle)
    assert fingerprint() == batched
    assert spai_oracle.call_count > 0
