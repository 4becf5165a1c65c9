"""Breadth-first-search kernels.

The truncated trace reduction (Eqs. 12, 15, 20 of the paper) needs a
``beta``-layer BFS ball around each endpoint of every candidate edge.
Because this runs once per off-subgraph edge, the :class:`BallFinder`
keeps reusable "stamp" work arrays so a ball query allocates nothing of
size ``n``.

Two query families:

* :meth:`BallFinder.ball` — the original per-node Python BFS that also
  reports predecessors (required by the tree-phase potential
  propagation, Eqs. 13-14);
* :meth:`BallFinder.ball_nodes` / :meth:`BallFinder.balls` — vectorized
  frontier expansion returning only the (sorted) node set, used by the
  batched ranking engine where per-node Python loops would dominate;
  ``balls`` grows many balls at once, one layer per array pass.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BallFinder", "bfs_tree_order"]


class BallFinder:
    """Repeated beta-layer BFS ball queries over a fixed adjacency.

    Parameters
    ----------
    indptr, neighbors:
        CSR adjacency of the graph to traverse (typically the *current
        subgraph* in Algorithm 2, or the spanning tree in the tree phase).
    edge_ids:
        Optional array parallel to *neighbors* giving the id of the edge
        connecting each (node, neighbor) pair; when provided, ball
        queries also report the predecessor edge of every visited node.
    kernels:
        Optional :class:`~repro.kernels.KernelSet` (or tier name)
        executing the vectorized layer expansion of
        :meth:`ball_nodes`; defaults to the auto-resolved tier.  Every
        tier is bit-identical, so this only affects speed.
    """

    def __init__(self, indptr, neighbors, edge_ids=None, kernels=None) -> None:
        from repro.kernels import resolve_kernel_set  # deferred: cycle

        self.indptr = indptr
        self.neighbors = neighbors
        self.edge_ids = edge_ids
        self.kernels = resolve_kernel_set(kernels)
        n = len(indptr) - 1
        self._stamp = np.zeros(n, dtype=np.int64)
        self._clock = 0

    def ball(self, source: int, layers: int):
        """Nodes within *layers* hops of *source*.

        Returns
        -------
        nodes : numpy.ndarray
            Visited nodes in BFS order (``source`` first).
        pred : numpy.ndarray
            ``pred[k]`` is the BFS predecessor (a node id) of
            ``nodes[k]``, ``-1`` for the source.  Each predecessor
            appears in ``nodes`` before its successors, which the
            tree-phase voltage propagation (Eqs. 13-14) relies on.
        pred_eid : numpy.ndarray or None
            Ids of the predecessor edges (``-1`` for the source) when
            the finder was built with ``edge_ids``, else ``None``.
        """
        self._clock += 1
        clock = self._clock
        stamp = self._stamp
        indptr = self.indptr
        neighbors = self.neighbors
        edge_ids = self.edge_ids
        stamp[source] = clock
        visited = [int(source)]
        preds = [-1]
        pred_eids = [-1]
        frontier = [int(source)]
        for _ in range(layers):
            if not frontier:
                break
            next_frontier = []
            for node in frontier:
                start, stop = indptr[node], indptr[node + 1]
                for k in range(start, stop):
                    nbr = int(neighbors[k])
                    if stamp[nbr] != clock:
                        stamp[nbr] = clock
                        visited.append(nbr)
                        preds.append(node)
                        if edge_ids is not None:
                            pred_eids.append(int(edge_ids[k]))
                        next_frontier.append(nbr)
            frontier = next_frontier
        nodes = np.asarray(visited, dtype=np.int64)
        pred = np.asarray(preds, dtype=np.int64)
        if edge_ids is None:
            return nodes, pred, None
        return nodes, pred, np.asarray(pred_eids, dtype=np.int64)

    # Frontier size at which vectorized layer expansion overtakes the
    # plain Python loop (numpy per-call overhead vs per-node work).
    _VECTOR_FRONTIER = 32

    def ball_nodes(self, source: int, layers: int) -> np.ndarray:
        """Sorted node set within *layers* hops of *source* (no preds).

        Adaptive frontier expansion: small frontiers walk a plain
        Python loop (per-layer dispatch overhead would dominate), large
        ones hand the whole layer to the active kernel tier's
        :meth:`~repro.kernels.KernelSet.expand_frontier` (one CSR
        gather + stamp filter per layer).  For many sources at once,
        :meth:`balls` is faster.

        Parameters
        ----------
        source : int
            Ball center.
        layers : int
            BFS truncation depth (``beta`` in the paper).

        Returns
        -------
        numpy.ndarray
            Sorted ``int64`` array of the ball's nodes (``source``
            included).
        """
        self._clock += 1
        clock = self._clock
        stamp = self._stamp
        indptr = self.indptr
        neighbors = self.neighbors
        expand = self.kernels.expand_frontier
        stamp[source] = clock
        frontier: list | np.ndarray = [int(source)]
        parts = [np.asarray(frontier, dtype=np.int64)]
        for _ in range(layers):
            if len(frontier) < self._VECTOR_FRONTIER:
                fresh_list = []
                for node in frontier:
                    for k in range(indptr[node], indptr[node + 1]):
                        nbr = int(neighbors[k])
                        if stamp[nbr] != clock:
                            stamp[nbr] = clock
                            fresh_list.append(nbr)
                if not fresh_list:
                    break
                frontier = fresh_list
                parts.append(np.asarray(fresh_list, dtype=np.int64))
            else:
                fresh = expand(
                    indptr, neighbors,
                    np.asarray(frontier, dtype=np.int64), stamp, clock,
                )
                if len(fresh) == 0:
                    break
                parts.append(fresh)
                frontier = fresh
        if len(parts) == 1:
            return parts[0]
        return np.sort(np.concatenate(parts))

    def balls(self, sources, layers: int) -> dict:
        """Bulk :meth:`ball_nodes` for many sources, grown together.

        Every ball of a group of sources advances one BFS layer per
        step with array operations: the pairs ``(source, node)`` are
        keyed ``source_index * n + node``, and a layer's fresh nodes are
        the neighbors of the previous layer minus the two layers before
        it (in an undirected graph no neighbor lies further back).
        Groups are sized so one layer gathers about
        :func:`~repro.core._kernels.pair_budget` pairs.  The ranking
        engine's :class:`~repro.core.ranking.BallCache` fills itself
        through this entry point.

        Parameters
        ----------
        sources : array_like of int
            Ball centers (duplicates are computed once).
        layers : int
            BFS truncation depth.

        Returns
        -------
        dict
            Maps each source node to its sorted ball-node array, equal
            to ``ball_nodes(source, layers)``.
        """
        from repro.core._kernels import pair_budget  # deferred: cycle

        budget = pair_budget(len(self.neighbors) // 2)
        sources = np.unique(np.asarray(sources, dtype=np.int64).ravel())
        out = {}
        group = 1  # later groups are sized from the widest layer seen
        start = 0
        while start < len(sources):
            chunk = sources[start : start + group]
            keys, widest = self._grow(chunk, layers)
            n = len(self.indptr) - 1
            owner = keys // n
            nodes = keys - owner * n
            bounds = np.searchsorted(owner, np.arange(len(chunk) + 1))
            for k, source in enumerate(chunk.tolist()):
                out[source] = nodes[bounds[k] : bounds[k + 1]].copy()
            start += len(chunk)
            per_source = max(1, widest // len(chunk))
            group = max(1, budget // per_source)
        return out

    def _grow(self, chunk, layers: int):
        """Sorted ``(index, node)`` keys of the balls around *chunk*.

        Also returns the largest number of pairs one layer gathered.
        """
        from repro.core._kernels import sorted_lookup  # deferred: cycle

        indptr = self.indptr
        n = len(indptr) - 1
        concat_ranges = self.kernels.concat_ranges
        frontier = np.arange(len(chunk), dtype=np.int64) * n + chunk
        before = np.empty(0, dtype=np.int64)
        parts = [frontier]
        widest = len(frontier)
        for _ in range(layers):
            owner = frontier // n
            nodes = frontier - owner * n
            starts = indptr[nodes]
            lengths = indptr[nodes + 1] - starts
            flat = concat_ranges(starts, lengths)
            widest = max(widest, len(flat))
            reached = np.unique(
                np.repeat(owner * n, lengths) + self.neighbors[flat]
            )
            _, seen = sorted_lookup(frontier, reached)
            seen |= sorted_lookup(before, reached)[1]
            fresh = reached[~seen]
            if len(fresh) == 0:
                break
            before, frontier = frontier, fresh
            parts.append(fresh)
        return np.sort(np.concatenate(parts)), widest


def bfs_tree_order(indptr, neighbors, roots, n=None):
    """Full BFS over a graph from the given roots.

    Returns ``(order, pred)`` where *order* lists every reachable node in
    BFS order and ``pred`` maps each node to its BFS predecessor (``-1``
    for roots, ``-2`` for unreachable nodes).  Used to root spanning
    forests and for component sweeps.
    """
    if n is None:
        n = len(indptr) - 1
    pred = np.full(n, -2, dtype=np.int64)  # -2 == unvisited
    order = []
    for root in np.atleast_1d(np.asarray(roots, dtype=np.int64)):
        root = int(root)
        if pred[root] != -2:
            continue
        pred[root] = -1
        queue = [root]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            order.append(node)
            for nbr in neighbors[indptr[node] : indptr[node + 1]]:
                nbr = int(nbr)
                if pred[nbr] == -2:
                    pred[nbr] = node
                    queue.append(nbr)
    return np.asarray(order, dtype=np.int64), pred
