"""Batched edge-ranking engine for Algorithm 2.

Every round of :func:`~repro.core.sparsifier.trace_reduction_sparsify`
spends its time ranking off-subgraph candidate edges by (approximate)
trace reduction.  This module turns that per-edge scoring into a staged
engine with a uniform **batch API**:

* :class:`EdgeRanker` — the protocol every ranker implements:
  ``prepare(edge_ids)`` warms per-round caches, ``score_batch(edge_ids)``
  returns one criticality score per candidate;
* :class:`TreePhaseRanker` — round 1, the solve-free tree-phase
  truncated trace reduction (Eqs. 13-15);
* :class:`ExactRanker` — Eq. (11) through exact solves (validation);
* :class:`ApproxRanker` — Eq. (20), the production path.

The two production rankers have no per-candidate Python loop: they cut
the candidates into sub-batches of at most
:func:`~repro.core._kernels.pair_budget` gathered entries (a module
constant, scaled down for small graphs) and score each sub-batch with a
fixed number of array operations.  For Eq. 20 the ball-to-ball edges
come from scipy's compiled sparse products: one
:func:`~repro.core._kernels.ball_incidence` per ``score_batch`` lists
the edges touching the ball of every distinct endpoint, and one
:func:`~repro.core._kernels.joining_edges` per sub-batch multiplies the
head and tail rows elementwise.  Then ``u = z~_p - z~_q`` and the SPAI
columns are gathered once, ``np.bincount`` forms ``s`` at the joining
edges' ends only, and one :func:`~repro.core._kernels.segment_sums`
adds each sum.

The :class:`BallCache` persists across densification rounds: recovering
edges only changes BFS balls near the touched endpoints, so only those
entries are invalidated (see ``docs/architecture.md`` for the exact
contract).  Scores are bit-identical to the per-candidate reference
loops (:func:`repro.core.trace_reduction.approximate_trace_reduction`,
:func:`repro.core.tree_phase.tree_truncated_trace_reduction_reference`)
and independent of how candidates are chunked, which is what makes the
worker-pool execution in :mod:`repro.core.parallel` deterministic.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np
import scipy.sparse as sp

from repro.core import _kernels
from repro.core._kernels import (
    ball_incidence,
    cap_spans,
    edge_sums,
    incidence_codes,
    joining_edges,
    owners,
    segment_sums,
    unique_inverse,
)
from repro.core.trace_reduction import exact_trace_reduction_batch
from repro.core.tree_phase import tree_truncated_trace_reduction
from repro.tree.lca import batch_tree_resistances
from repro.graph.bfs import BallFinder
from repro.graph.graph import Graph
from repro.graph.laplacian import regularized_laplacian
from repro.kernels import resolve_kernel_set
from repro.linalg.cholesky import cholesky

__all__ = [
    "EdgeRanker",
    "BallCache",
    "TreePhaseRanker",
    "ExactRanker",
    "ApproxRanker",
]


@runtime_checkable
class EdgeRanker(Protocol):
    """Protocol of one ranking stage of Algorithm 2.

    A ranker scores candidate edges of a fixed original graph against a
    fixed current subgraph.  Implementations must be **chunk-stable**:
    ``score_batch`` of a concatenation equals the concatenation of
    ``score_batch`` of the pieces, bit for bit.  That property is what
    lets :func:`repro.core.parallel.score_edges` shard candidates across
    worker processes without changing the result.
    """

    def prepare(self, edge_ids) -> None:
        """Warm any caches needed to score *edge_ids* (idempotent)."""

    def score_batch(self, edge_ids) -> np.ndarray:
        """Return one criticality score per candidate edge id."""


class BallCache:
    """Per-round cache of BFS balls with touched-node invalidation.

    Algorithm 2 adds a few edges per round; a ball around ``a`` computed
    in round ``r`` is still correct in round ``r + 1`` unless some
    endpoint of a newly recovered edge lies within ``beta`` hops of
    ``a`` in the new subgraph.  The cache therefore persists across
    rounds and only drops entries inside the balls of touched endpoints
    (the exact rule — and why it is safe — is spelled out in
    ``docs/architecture.md``).

    Parameters
    ----------
    beta : int
        BFS truncation depth; all cached balls use this radius.
    max_entries : int, optional
        Upper bound on stored balls.  At capacity, further queries are
        computed transiently and returned without being stored — slower,
        but memory stays bounded.  ``None`` (default) means unbounded,
        which is at most one entry per graph node.
    kernels : KernelSet or str, optional
        Hot-path kernel tier executing the BFS expansion; defaults to
        the auto-resolved tier (see :mod:`repro.kernels`).
        Bit-identical across tiers.

    Notes
    -----
    The caller must call :meth:`attach_subgraph` whenever the subgraph
    adjacency changes, passing ``invalidate=<touched nodes>`` (every
    node whose incident edge set changed since the previous attach).

    Entries are read-only once created; worker processes forked after
    :meth:`ensure` share them copy-on-write without synchronization.
    """

    def __init__(self, beta: int, max_entries: int | None = None,
                 kernels=None) -> None:
        if beta < 1:
            raise ValueError(f"beta must be >= 1, got {beta}")
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.beta = int(beta)
        self.max_entries = max_entries
        self.kernels = resolve_kernel_set(kernels)
        self._balls: dict = {}
        self._finder: BallFinder | None = None
        self._sub_indptr = None
        self._sub_nbr = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """True once a subgraph adjacency has been attached."""
        return self._finder is not None

    def __len__(self) -> int:
        return len(self._balls)

    def attach_subgraph(self, indptr, neighbors, invalidate=None) -> None:
        """Point ball queries at a (possibly new) subgraph adjacency.

        Parameters
        ----------
        indptr, neighbors : numpy.ndarray
            CSR adjacency of the current subgraph ``S``.
        invalidate : array_like of int, optional
            Nodes whose incident edge set changed since the previous
            attach (the endpoints of inserted or deleted edges).  Omit
            only on the first attach or when the adjacency is
            unchanged; re-attaching a *changed* adjacency with cached
            entries and no touched set raises ``ValueError`` — silently
            serving stale balls would yield wrong scores.

        Raises
        ------
        ValueError
            When the adjacency differs from the previously attached one,
            entries are cached, and ``invalidate`` was not given.
        """
        old_finder = self._finder
        changed = (
            old_finder is not None
            and not (
                np.array_equal(self._sub_indptr, indptr)
                and np.array_equal(self._sub_nbr, neighbors)
            )
        )
        if changed and invalidate is None and self._balls:
            raise ValueError(
                "attach_subgraph: the adjacency changed but invalidate= "
                "was not given; cached balls would silently go stale. "
                "Pass the touched nodes (endpoints of every inserted or "
                "deleted edge), or an empty array if the change truly "
                "touches no cached entry."
            )
        self._finder = BallFinder(indptr, neighbors, kernels=self.kernels)
        self._sub_indptr = indptr
        self._sub_nbr = neighbors
        if invalidate is None:
            return
        invalidate = np.asarray(invalidate, dtype=np.int64)
        # A cached entry for ``a`` is stale iff a touched node is within
        # beta hops of ``a`` in the OLD or the NEW adjacency (the
        # adjacency is symmetric, so that is the union of the touched
        # nodes' balls in both).  Insertions only shrink distances (old
        # ball subset of new), so for the insert-only round loop the
        # union degenerates to the new balls alone; deletions *grow*
        # distances, and only the old balls reach the entries whose
        # routes ran through the removed edges.
        finders = [self._finder]
        if changed and old_finder is not None:
            finders.append(old_finder)
        stale: set = set()
        for finder in finders:
            for ball in finder.balls(invalidate, self.beta).values():
                stale.update(ball.tolist())
        for node in stale:
            self._balls.pop(node, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def ensure(self, nodes) -> None:
        """Compute and cache the balls of any missing *nodes*.

        One :meth:`BallFinder.balls <repro.graph.bfs.BallFinder.balls>`
        call grows them all; only as many as fit under ``max_entries``
        are computed.
        """
        missing = [
            node for node in dict.fromkeys(_node_list(nodes))
            if node not in self._balls
        ]
        if self.max_entries is not None:
            missing = missing[: max(0, self.max_entries - len(self._balls))]
        if missing:
            self.balls(missing)

    def balls(self, nodes) -> list:
        """Sorted beta-balls of *nodes* in the current subgraph, in order.

        Cached balls are returned as stored; the missing ones are grown
        by one :meth:`BallFinder.balls <repro.graph.bfs.BallFinder.balls>`
        call and cached while there is room.
        """
        if self._finder is None:
            raise RuntimeError("attach_subgraph() before querying balls")
        nodes = _node_list(nodes)
        fresh = self._finder.balls(
            [node for node in nodes if node not in self._balls], self.beta
        )
        for node, ball in fresh.items():
            if self.max_entries is None or len(self._balls) < self.max_entries:
                self._balls[node] = ball
        return [
            fresh[node] if node in fresh else self._balls[node]
            for node in nodes
        ]

    def ball(self, node: int) -> np.ndarray:
        """Sorted beta-ball around *node* in the current subgraph."""
        return self.balls([node])[0]


def _node_list(nodes) -> list:
    """*nodes* as a list of Python ints (dictionary keys of the cache)."""
    return np.asarray(nodes, dtype=np.int64).ravel().tolist()


class TreePhaseRanker:
    """Round-1 ranker: solve-free tree-phase criticality (Eqs. 13-15).

    Parameters
    ----------
    graph : Graph
        The original graph ``G``.
    forest : repro.tree.rooted.RootedForest
        Rooted spanning forest ``T`` (the initial subgraph).
    beta : int, optional
        BFS truncation depth (paper default 5).
    kernels : KernelSet or str, optional
        Hot-path kernel tier executing the batched range gathers;
        defaults to the auto-resolved tier.  Bit-identical across tiers.
    """

    def __init__(self, graph: Graph, forest, beta: int = 5,
                 kernels=None) -> None:
        self.graph = graph
        self.forest = forest
        self.beta = int(beta)
        self.kernels = resolve_kernel_set(kernels)
        self._resistances: np.ndarray | None = None

    def prepare(self, edge_ids) -> None:
        """Batch-compute tree resistances and warm shared structures.

        One Tarjan offline-LCA DFS covers the whole candidate set, so
        per-chunk ``score_batch`` calls (serial or in forked workers)
        skip the O(n) DFS; the Euler intervals, forest ball sizes and
        CSR adjacencies are materialized here too so workers inherit
        them copy-on-write.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if len(edge_ids) == 0:
            return
        if self._resistances is None:
            self._resistances = np.full(self.graph.edge_count, np.nan)
        missing = edge_ids[np.isnan(self._resistances[edge_ids])]
        if len(missing):
            resist, _ = batch_tree_resistances(
                self.forest, self.graph.u[missing], self.graph.v[missing]
            )
            self._resistances[missing] = resist
        self.forest.euler_intervals()
        self.forest.ball_sizes(self.beta)
        self.forest.tree.adjacency()
        self.graph.adjacency()

    def score_batch(self, edge_ids) -> np.ndarray:
        """Tree-phase truncated trace reduction per candidate edge.

        Parameters
        ----------
        edge_ids : array_like of int
            Off-tree candidate edge ids.

        Returns
        -------
        numpy.ndarray
            Truncated trace reduction (Eq. 15), aligned with
            *edge_ids*.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if len(edge_ids) == 0:
            return np.empty(0)
        self.prepare(edge_ids)
        crit, _, _ = tree_truncated_trace_reduction(
            self.graph, self.forest, edge_ids=edge_ids, beta=self.beta,
            resistances=self._resistances[edge_ids], kernels=self.kernels,
        )
        return crit


class ExactRanker:
    """Validation ranker: Eq. (11) verbatim through exact solves.

    Parameters
    ----------
    graph : Graph
        The original graph ``G``.
    solve : callable
        ``solve(rhs) -> x`` with the (regularized) subgraph Laplacian,
        e.g. ``CholeskyFactor.solve``.
    """

    def __init__(self, graph: Graph, solve) -> None:
        self.graph = graph
        self._solve = solve

    @classmethod
    def from_subgraph(
        cls, graph: Graph, subgraph: Graph, shift: float,
        cholesky_backend: str = "auto",
    ) -> "ExactRanker":
        """Factor ``L_S + shift I`` and build the ranker from it."""
        factor = cholesky(
            regularized_laplacian(subgraph, shift), backend=cholesky_backend
        )
        return cls(graph, factor.solve)

    def prepare(self, edge_ids) -> None:
        """No per-round caches; nothing to warm."""

    def score_batch(self, edge_ids) -> np.ndarray:
        """Exact trace reduction per candidate edge (one solve each)."""
        return exact_trace_reduction_batch(
            self.graph, self._solve, np.asarray(edge_ids, dtype=np.int64)
        )


class ApproxRanker:
    """Production ranker: SPAI-based approximate trace reduction (Eq. 20).

    Computes exactly what
    :func:`repro.core.trace_reduction.approximate_trace_reduction`
    computes -- bit for bit -- but for a whole sub-batch of candidates
    per pass of array operations instead of one candidate at a time:

    * BFS balls come from a :class:`BallCache` (persisted across
      rounds, invalidated only around touched nodes);
    * ``u = z~_p - z~_q`` and the SPAI columns of every ball-union node
      are gathered straight from ``Z`` for all candidates at once, keyed
      by ``(candidate, row)``, and ``s_a = z~_a . u`` is one
      ``np.bincount`` over ``(candidate, node)`` bins;
    * the ball-to-ball edges of every candidate come from scipy sparse
      products: one :func:`~repro.core._kernels.ball_incidence` of the
      batch's distinct endpoints, then one
      :func:`~repro.core._kernels.joining_edges` per sub-batch, and
      ``s`` is only formed at their endpoints.

    Sub-batches are cut so that each gathers at most
    :func:`~repro.core._kernels.pair_budget` entries.

    Parameters
    ----------
    graph : Graph
        The original graph ``G``.
    subgraph : Graph
        The current subgraph ``S`` (BFS balls are grown here).
    factor : repro.linalg.cholesky.CholeskyFactor
        Factor of the regularized ``L_S`` -- provides the ordering that
        maps original nodes to columns of ``Z``.
    Z : scipy.sparse.csc_matrix
        Output of :func:`repro.linalg.spai.sparse_approximate_inverse`
        on ``factor.L``.
    beta : int, optional
        BFS truncation depth (paper default 5).
    cache : BallCache, optional
        Cross-round ball cache.  When supplied it must already be
        attached to *subgraph*'s adjacency (the sparsifier driver owns
        invalidation); when omitted a private cache is created.
    kernels : KernelSet or str, optional
        Hot-path kernel tier executing the range gathers and BFS
        expansion; defaults to the auto-resolved tier.  Bit-identical
        across tiers, so the choice never changes scores -- only speed.

    Notes
    -----
    Scoring keeps no per-candidate state and grows balls without the
    :class:`~repro.graph.bfs.BallFinder` stamp arrays.  What is still
    shared and mutable is the :class:`BallCache`: a cache miss inserts
    into its dictionary without a lock (concurrent fills can overshoot
    ``max_entries``), so one ranker -- or one cache -- must not be used
    from several threads at once.  Worker *processes* are fine: each
    fork gets copy-on-write copies, and the scores are chunk-stable
    (independent of how candidates are split), so any sharding of the
    candidate list reproduces the serial result exactly.
    """

    def __init__(
        self, graph: Graph, subgraph: Graph, factor, Z,
        beta: int = 5, cache: BallCache | None = None, kernels=None,
    ) -> None:
        self.graph = graph
        self.beta = int(beta)
        self.kernels = resolve_kernel_set(kernels)
        self._iperm = np.asarray(factor.iperm, dtype=np.int64)
        self._z_indptr = Z.indptr.astype(np.int64)
        self._z_indices = Z.indices
        self._z_data = Z.data
        # SPAI column length per node: a sub-batch sizing weight.
        self._col_len = np.diff(self._z_indptr)[self._iperm]
        self._codes = incidence_codes(graph)
        if cache is None:
            cache = BallCache(beta, kernels=self.kernels)
        if cache.beta != self.beta:
            raise ValueError(
                f"cache radius {cache.beta} != ranker beta {self.beta}"
            )
        if not cache.attached:
            sub_indptr, sub_nbr, _ = subgraph.adjacency()
            cache.attach_subgraph(sub_indptr, sub_nbr)
        self.cache = cache

    def prepare(self, edge_ids) -> None:
        """Warm the ball cache for a batch.

        Idempotent and cheap when already warm.  The sparsifier driver
        calls this in the parent process before forking workers so the
        cached arrays are shared read-only.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if len(edge_ids) == 0:
            return
        # Heads first: at capacity they are the ones kept.
        self.cache.ensure(np.unique(self.graph.u[edge_ids]))
        self.cache.ensure(np.unique(self.graph.v[edge_ids]))

    def score_batch(self, edge_ids) -> np.ndarray:
        """Approximate trace reduction (Eq. 20) per candidate edge.

        Parameters
        ----------
        edge_ids : array_like of int
            Candidate off-subgraph edge ids (into ``graph``'s arrays).

        Returns
        -------
        numpy.ndarray
            Approximate trace reduction, aligned with *edge_ids*;
            bit-identical to
            :func:`~repro.core.trace_reduction.approximate_trace_reduction`
            on the same candidates.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if len(edge_ids) == 0:
            return np.empty(0)
        self.prepare(edge_ids)
        heads = self.graph.u[edge_ids]
        tails = self.graph.v[edge_ids]
        count = len(edge_ids)
        nodes, inverse = np.unique(
            np.concatenate([heads, tails]), return_inverse=True
        )
        balls = self.cache.balls(nodes)
        indptr = np.zeros(len(balls) + 1, dtype=np.int64)
        np.cumsum([len(ball) for ball in balls], out=indptr[1:])
        # One row per distinct endpoint: the edges touching its ball.
        incidence = ball_incidence(indptr, np.concatenate(balls), self._codes)
        at_head, at_tail = inverse[:count], inverse[count:]
        touching = np.diff(incidence.indptr)
        # Entries a candidate holds at once: u and both balls' edges.
        # The SPAI columns behind s are gathered in smaller groups (see
        # _spai_dots).
        costs = (
            self._col_len[heads] + self._col_len[tails]
            + touching[at_head] + touching[at_tail]
        )
        weights = self.graph.w[edge_ids]
        # Scratch map from SPAI rows to slab columns, -1 when unused.
        row_slot = np.full(self.graph.n, -1, dtype=np.int64)
        out = np.empty(count)
        for lo, hi in cap_spans(costs, _kernels.pair_budget(self.graph.edge_count)):
            out[lo:hi] = self._score_span(
                heads[lo:hi], tails[lo:hi], weights[lo:hi], incidence,
                at_head[lo:hi], at_tail[lo:hi], row_slot,
            )
        return out

    def _score_span(self, heads, tails, w_cand, incidence, at_head, at_tail,
                    row_slot) -> np.ndarray:
        """Eq. 20 for one sub-batch, with array operations only."""
        n = self.graph.n
        count = len(heads)
        concat_ranges = self.kernels.concat_ranges
        iperm = self._iperm
        z_indptr = self._z_indptr
        z_indices = self._z_indices
        z_data = self._z_data
        col_len = self._col_len

        # u = z~_p - z~_q, keyed (candidate, row) in ascending order; the
        # scatter adds and subtracts in the reference's order.
        p_flat = concat_ranges(z_indptr[iperm[heads]], col_len[heads])
        q_flat = concat_ranges(z_indptr[iperm[tails]], col_len[tails])
        u_keys, slot = unique_inverse(np.concatenate([
            owners(col_len[heads]) * n + z_indices[p_flat],
            owners(col_len[tails]) * n + z_indices[q_flat],
        ]))
        u = np.zeros(len(u_keys))
        u[slot[: len(p_flat)]] += z_data[p_flat]
        u[slot[len(p_flat):]] -= z_data[q_flat]
        del p_flat, q_flat, slot
        resistance = segment_sums(
            u ** 2, np.bincount(u_keys // n, minlength=count)
        )

        # The edges joining the two balls, in ascending edge id per
        # candidate, and s_a = z~_a . u only at their ends -- all the
        # numerator reads.
        e_cand, e_eid = joining_edges(incidence, at_head, at_tail)
        ends_u = self.graph.u[e_eid]
        ends_v = self.graph.v[e_eid]
        # The (candidate, node) pattern of those ends.  Built node-major
        # from pairs in candidate order, each node's candidates come out
        # sorted, so both conversions are linear: no sort.
        need = sp.csr_array(
            (np.ones(2 * len(e_eid), dtype=bool),
             (np.column_stack([ends_u, ends_v]).ravel(),
              np.repeat(e_cand, 2))),
            shape=(n, count),
        ).T.tocsr()
        s = sp.csr_array((
            self._spai_dots(owners(np.diff(need.indptr)), need.indices,
                            u_keys, u, row_slot, count),
            need.indices, need.indptr,
        ), shape=(count, n))
        numerator = edge_sums(
            count, e_cand, self.graph.w[e_eid],
            s[e_cand, ends_u] - s[e_cand, ends_v],
        )
        return w_cand * numerator / (1.0 + w_cand * resistance)

    def _spai_dots(self, cand, nodes, u_keys, u, row_slot, count):
        """``s = z~_node . u_cand`` for every ``(cand, node)`` pair.

        *cand* is sorted.  Each product is one ``np.bincount`` bin over
        the node's SPAI column in storage order, exactly as the reference
        adds it, with ``z * 0.0`` for rows off u's support.

        u is looked up densely without a ``candidates x n`` table.  A
        group of ``k`` candidates renumbers the rows of its u's support
        ``0 .. width - 2`` through *row_slot* (a scratch map, all ``-1``
        on entry and exit), scatters u into a ``k x width`` slab and
        gathers its nodes' columns.  ``width <= k * largest support``,
        so ``k`` is held to ``sqrt(budget / largest support)``; with
        the gather that keeps both within
        :func:`~repro.core._kernels.pair_budget` entries.  The last
        cell of every slab row stays zero, and a row off the support
        maps to slot ``-1``, which indexes exactly such a cell (the
        previous row's, or the slab's last).
        """
        n = self.graph.n
        budget = _kernels.pair_budget(self.graph.edge_count)
        concat_ranges = self.kernels.concat_ranges
        u_cand = u_keys // n
        u_rows = u_keys - u_cand * n
        u_bounds = np.searchsorted(u_cand, np.arange(count + 1))
        bounds = np.searchsorted(cand, np.arange(count + 1))
        lengths = self._col_len[nodes]
        starts = self._z_indptr[self._iperm[nodes]]
        widest = int(np.diff(u_bounds).max())
        group_max = max(1, math.isqrt(budget // max(1, widest)))
        entries = np.bincount(cand, weights=lengths, minlength=count)
        out = np.empty(len(cand))
        for lo, hi in cap_spans(np.maximum(entries, budget // group_max),
                                budget):
            rows = u_rows[u_bounds[lo] : u_bounds[hi]]
            # Number the distinct rows without sorting: the last writer
            # of each row names it, then the named ones get 0, 1, ...
            row_slot[rows] = np.arange(len(rows))
            support = rows[row_slot[rows] == np.arange(len(rows))]
            row_slot[support] = np.arange(len(support))
            width = len(support) + 1
            slab = np.zeros((hi - lo) * width)
            slab[(u_cand[u_bounds[lo] : u_bounds[hi]] - lo) * width
                 + row_slot[rows]] = u[u_bounds[lo] : u_bounds[hi]]
            b_lo, b_hi = bounds[lo], bounds[hi]
            flat = concat_ranges(starts[b_lo:b_hi], lengths[b_lo:b_hi])
            cells = np.repeat((cand[b_lo:b_hi] - lo) * width, lengths[b_lo:b_hi])
            cells += row_slot[self._z_indices[flat]]
            row_slot[support] = -1
            products = self._z_data[flat]
            del flat
            products *= slab[cells]
            del cells, slab
            out[b_lo:b_hi] = np.bincount(
                owners(lengths[b_lo:b_hi]), weights=products,
                minlength=b_hi - b_lo,
            )
        return out
