"""Rooted spanning forest structure.

:class:`RootedForest` wraps a spanning forest of a graph with parent
pointers, hop depths and *resistive* root distances (sum of ``1/w``
along the root path).  It provides tree effective resistances

    ``R_T(p, q) = rdist[p] + rdist[q] - 2 rdist[lca(p, q)]``

(Eq. 4 restricted to trees) and tree paths, both of which the tree phase
of Algorithm 2 consumes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotATreeError
from repro.graph.bfs import bfs_tree_order
from repro.graph.components import connected_components, component_roots
from repro.graph.graph import Graph

__all__ = ["RootedForest"]


class RootedForest:
    """A spanning forest of *graph* rooted at each component's min node.

    Parameters
    ----------
    graph:
        The parent graph.
    tree_edge_ids:
        Ids (into the parent graph's edge arrays) of the forest edges.
        Must be acyclic and span every component of the induced node set.

    Attributes
    ----------
    parent : numpy.ndarray
        Parent node of each node (``-1`` at roots).
    parent_edge : numpy.ndarray
        Global edge id of the (parent, node) edge (``-1`` at roots).
    depth : numpy.ndarray
        Hop distance from the component root.
    rdist : numpy.ndarray
        Resistive distance from the root: sum of ``1/w`` on the path.
    """

    def __init__(self, graph: Graph, tree_edge_ids, validate_spanning=True):
        tree_edge_ids = np.sort(np.asarray(tree_edge_ids, dtype=np.int64))
        self.graph = graph
        self.edge_ids = tree_edge_ids
        self.tree = graph.subgraph(tree_edge_ids)
        count, labels = connected_components(self.tree)
        if len(tree_edge_ids) != graph.n - count:
            raise NotATreeError(
                f"{len(tree_edge_ids)} edges cannot be a spanning forest of "
                f"{graph.n} nodes with {count} components"
            )
        if validate_spanning:
            graph_count, _ = connected_components(graph)
            if count != graph_count:
                raise NotATreeError(
                    f"forest has {count} components but the graph has "
                    f"{graph_count}: the forest does not span every component"
                )
        self.component_count = count
        self.component_labels = labels
        self.roots = component_roots(labels)

        indptr, nbr, local_eid = self.tree.adjacency()
        order, pred = bfs_tree_order(indptr, nbr, self.roots, n=graph.n)
        if len(order) != graph.n:
            raise NotATreeError("forest does not reach every node")
        self.order = order
        self.parent = pred

        # Map (parent, node) pairs back to global edge ids and accumulate
        # depth / resistive distance in BFS order (parents come first).
        local_lookup = self.tree.edge_lookup()
        parent_edge = np.full(graph.n, -1, dtype=np.int64)
        depth = np.zeros(graph.n, dtype=np.int64)
        rdist = np.zeros(graph.n, dtype=np.float64)
        weights = graph.w
        for node in order:
            par = pred[node]
            if par < 0:
                continue
            a, b = (int(par), int(node)) if par < node else (int(node), int(par))
            local = local_lookup[(a, b)]
            global_id = tree_edge_ids[local]
            parent_edge[node] = global_id
            depth[node] = depth[par] + 1
            rdist[node] = rdist[par] + 1.0 / weights[global_id]
        self.parent_edge = parent_edge
        self.depth = depth
        self.rdist = rdist
        self._tin = None
        self._tout = None
        self._ball_sizes: dict = {}

    # ------------------------------------------------------------------
    # membership helpers
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Node count of the parent graph."""
        return self.graph.n

    def tree_edge_mask(self) -> np.ndarray:
        """Boolean mask over the parent graph's edges (True = in forest)."""
        mask = np.zeros(self.graph.edge_count, dtype=bool)
        mask[self.edge_ids] = True
        return mask

    # ------------------------------------------------------------------
    # Euler tour intervals (subtree membership in O(1))
    # ------------------------------------------------------------------
    def euler_intervals(self):
        """DFS entry/exit times ``(tin, tout)`` for subtree tests.

        Node ``x`` lies in the subtree rooted at ``c`` iff
        ``tin[c] <= tin[x] < tout[c]``.  Used by the tree phase to test
        in O(1) whether a tree edge lies on the path between two nodes.
        """
        if self._tin is None:
            n = self.graph.n
            indptr, nbr, _ = self.tree.adjacency()
            tin = np.empty(n, dtype=np.int64)
            tout = np.empty(n, dtype=np.int64)
            parent = self.parent
            clock = 0
            stack_node = np.empty(n, dtype=np.int64)
            stack_cursor = np.empty(n, dtype=np.int64)
            for root in self.roots:
                top = 0
                stack_node[0] = root
                stack_cursor[0] = indptr[root]
                tin[root] = clock
                clock += 1
                while top >= 0:
                    node = stack_node[top]
                    cursor = stack_cursor[top]
                    if cursor < indptr[node + 1]:
                        stack_cursor[top] = cursor + 1
                        child = int(nbr[cursor])
                        if child == parent[node]:
                            continue
                        tin[child] = clock
                        clock += 1
                        top += 1
                        stack_node[top] = child
                        stack_cursor[top] = indptr[child]
                    else:
                        tout[node] = clock
                        top -= 1
            self._tin = tin
            self._tout = tout
        return self._tin, self._tout

    def edge_on_path(self, child: int, p: int, q: int) -> bool:
        """True when the tree edge (parent(child), child) is on path(p, q).

        The edge separates ``child``'s subtree from the rest of the
        tree, so it lies on the path iff exactly one endpoint is inside
        that subtree.
        """
        tin, tout = self.euler_intervals()
        in_p = tin[child] <= tin[p] < tout[child]
        in_q = tin[child] <= tin[q] < tout[child]
        return bool(in_p != in_q)

    # ------------------------------------------------------------------
    # ball sizes
    # ------------------------------------------------------------------
    def ball_sizes(self, radius: int):
        """Size of every node's *radius*-hop ball in the forest.

        Returns ``(nodes, incidences)``: per node, how many forest nodes
        lie within *radius* forest hops, and the summed original-graph
        degree of those nodes.  The batched tree phase sizes its
        sub-batches from these.  O(n * radius) array work, memoized per
        radius.

        The ball of ``x`` is its subtree down to depth *radius*, plus,
        for each ancestor ``a_k`` at ``k <= radius`` hops, the nodes of
        ``a_k``'s subtree within ``radius - k`` hops of it that are not
        below ``a_{k-1}``.
        """
        radius = int(radius)
        if radius not in self._ball_sizes:
            n = self.graph.n
            parent = self.parent
            indptr, _, _ = self.graph.adjacency()
            below = np.flatnonzero(parent >= 0)
            above = parent[below]
            out = []
            for weight in (np.ones(n), np.diff(indptr).astype(np.float64)):
                # within[j][x]: weight of x's subtree down to depth j.
                ring = weight
                within = [ring]
                for _ in range(radius):
                    ring = np.bincount(above, weights=ring[below], minlength=n)
                    within.append(within[-1] + ring)
                total = within[radius].copy()
                child = np.arange(n)
                anc = parent.copy()
                for k in range(1, radius + 1):
                    live = np.flatnonzero(anc >= 0)
                    if len(live) == 0:
                        break
                    a, c = anc[live], child[live]
                    total[live] += within[radius - k][a]
                    if k < radius:
                        total[live] -= within[radius - k - 1][c]
                    child[live] = a
                    anc[live] = parent[a]
                out.append(total.astype(np.int64))
            self._ball_sizes[radius] = tuple(out)
        return self._ball_sizes[radius]

    # ------------------------------------------------------------------
    # LCA and paths
    # ------------------------------------------------------------------
    def lca_naive(self, p: int, q: int) -> int:
        """LCA by climbing parent pointers (reference implementation)."""
        if self.component_labels[p] != self.component_labels[q]:
            raise NotATreeError("nodes are in different components")
        depth = self.depth
        parent = self.parent
        while depth[p] > depth[q]:
            p = parent[p]
        while depth[q] > depth[p]:
            q = parent[q]
        while p != q:
            p = parent[p]
            q = parent[q]
        return int(p)

    def tree_resistance(self, p: int, q: int, lca: int = None) -> float:
        """Effective resistance between *p* and *q* through the forest."""
        if lca is None:
            lca = self.lca_naive(p, q)
        return float(self.rdist[p] + self.rdist[q] - 2.0 * self.rdist[lca])

    def path_edges(self, p: int, q: int, lca: int = None) -> np.ndarray:
        """Global edge ids on the unique forest path from *p* to *q*."""
        if lca is None:
            lca = self.lca_naive(p, q)
        edges = []
        node = p
        while node != lca:
            edges.append(int(self.parent_edge[node]))
            node = int(self.parent[node])
        tail = []
        node = q
        while node != lca:
            tail.append(int(self.parent_edge[node]))
            node = int(self.parent[node])
        edges.extend(reversed(tail))
        return np.asarray(edges, dtype=np.int64)

    def path_nodes(self, p: int, q: int, lca: int = None) -> np.ndarray:
        """Nodes on the forest path from *p* to *q* (inclusive)."""
        if lca is None:
            lca = self.lca_naive(p, q)
        front = []
        node = p
        while node != lca:
            front.append(int(node))
            node = int(self.parent[node])
        back = []
        node = q
        while node != lca:
            back.append(int(node))
            node = int(self.parent[node])
        return np.asarray(front + [int(lca)] + list(reversed(back)), dtype=np.int64)
