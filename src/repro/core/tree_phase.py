"""Tree-phase truncated trace reduction (Eqs. 13-15).

When the current subgraph is a spanning tree ``T``, no linear solves are
needed at all: the paper's physical model injects a unit current at
``p`` and extracts it at ``q``; the current flows only along the unique
tree path, so node potentials are piecewise constant off the path and
drop by ``1/w_e`` across each path edge.  Concretely:

* ``R_T(p, q)`` comes from Tarjan's offline LCA over all queries;
* the potential of every node in the beta-ball around ``p`` (resp.
  ``q``) is propagated by BFS: crossing a path edge changes the
  potential by ``-1/w`` (resp. ``+1/w``), any other tree edge keeps it
  (Eqs. 13-14);
* the truncated numerator is the usual restricted quadratic form over
  original-graph edges joining the two balls (Eq. 15).

The "is this tree edge on path(p, q)?" test uses Euler-tour subtree
intervals, making it O(1) per edge with no per-candidate path walks.

:func:`tree_truncated_trace_reduction` scores whole sub-batches of
candidates with array operations: every ball of the sub-batch grows one
BFS layer per step.  The balls then become one sparse matrix; one
:func:`~repro.core._kernels.ball_incidence` product and one
:func:`~repro.core._kernels.joining_edges` select every ball-to-ball
edge, and the potential at each edge end is read back from that matrix.
Sub-batches are sized from
:meth:`~repro.tree.rooted.RootedForest.ball_sizes` so scratch memory
stays within :func:`~repro.core._kernels.pair_budget` gathered
entries.  :func:`tree_truncated_trace_reduction_reference` keeps the
per-candidate loop as the test oracle; the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core import _kernels
from repro.core._kernels import (
    ball_incidence,
    ball_pair_edge_sum,
    cap_spans,
    edge_sums,
    incidence_codes,
    joining_edges,
    owners,
)
from repro.graph.bfs import BallFinder
from repro.graph.graph import Graph
from repro.tree.lca import batch_tree_resistances
from repro.tree.rooted import RootedForest

__all__ = [
    "tree_truncated_trace_reduction",
    "tree_truncated_trace_reduction_reference",
]


def tree_truncated_trace_reduction(
    graph: Graph, forest: RootedForest, edge_ids=None, beta: int = 5,
    resistances=None, kernels=None,
):
    """Truncated trace reduction for off-tree edges (Eq. 15).

    Parameters
    ----------
    graph : Graph
        The original graph ``G``.
    forest : RootedForest
        Rooted spanning forest ``T`` (the initial subgraph).
    edge_ids : array_like of int, optional
        Candidate off-tree edge ids; defaults to every non-tree edge.
    beta : int, optional
        BFS truncation depth (paper default 5).
    resistances : array_like of float, optional
        Precomputed tree effective resistances aligned with
        *edge_ids*.  When scoring in chunks (the batched ranking
        engine), computing them once for the whole candidate set avoids
        repeating the offline-LCA DFS per chunk; omitted, they are
        computed here.
    kernels : KernelSet or str, optional
        Hot-path kernel tier executing the batched range gathers;
        defaults to the auto-resolved tier (see :mod:`repro.kernels`).
        Bit-identical across tiers.

    Returns
    -------
    (criticality, edge_ids, resistances)
        Arrays aligned with each other: the truncated trace reduction,
        the candidate ids, and the tree effective resistances.
    """
    edge_ids, resistances = _candidates(graph, forest, edge_ids, resistances)
    if len(edge_ids) == 0:
        return np.empty(0), edge_ids, resistances
    heads = graph.u[edge_ids]
    tails = graph.v[edge_ids]
    from repro.kernels import resolve_kernel_set  # deferred: cycle

    concat_ranges = resolve_kernel_set(kernels).concat_ranges
    weights = graph.w
    codes = incidence_codes(graph)
    sizes, incidences = forest.ball_sizes(beta)
    # Scratch per candidate: both balls' propagation entries (each also
    # gathers its forest neighbors) plus both balls' incidences.
    costs = (
        2 * (sizes[heads] + sizes[tails]) + incidences[heads]
        + incidences[tails]
    )
    out = np.empty(len(edge_ids))
    for lo, hi in cap_spans(costs, _kernels.pair_budget(graph.edge_count)):
        out[lo:hi] = _score_span(
            graph, forest, heads[lo:hi], tails[lo:hi],
            weights[edge_ids[lo:hi]], resistances[lo:hi], beta,
            concat_ranges, codes,
        )
    return out, edge_ids, resistances


def _candidates(graph, forest, edge_ids, resistances):
    """Normalize the candidate ids and their tree resistances."""
    if edge_ids is None:
        mask = forest.tree_edge_mask()
        edge_ids = np.flatnonzero(~mask)
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    if len(edge_ids) == 0:
        return edge_ids, np.empty(0)
    if resistances is None:
        resistances, _ = batch_tree_resistances(
            forest, graph.u[edge_ids], graph.v[edge_ids]
        )
    else:
        resistances = np.asarray(resistances, dtype=np.float64)
        if len(resistances) != len(edge_ids):
            raise ValueError("resistances/edge_ids length mismatch")
    return edge_ids, resistances


def _score_span(graph, forest, heads, tails, w_cand, resistances, beta,
                concat_ranges, codes):
    """Eq. 15 for a sub-batch of candidates, with array operations only.

    Grows all ``2 * count`` forest balls (p-balls first, then q-balls)
    level by level.  In a forest every node of a ball has a unique path
    to its center, so a BFS layer is just the forest neighbors of the
    previous layer minus each node's predecessor, and the potential of
    a node is its predecessor's plus ``sign / w`` when the connecting
    edge lies on the p-q path -- the same single addition the
    per-candidate reference makes (Eqs. 13-14).
    """
    n = graph.n
    count = len(heads)
    weights = graph.w
    tin, tout = forest.euler_intervals()
    depth = forest.depth
    t_indptr, t_nbr, t_local = forest.tree.adjacency()
    t_eid = forest.edge_ids[t_local]

    ball = np.arange(2 * count)
    node = np.concatenate([heads, tails])
    pred = np.full(2 * count, -1, dtype=np.int64)
    value = np.concatenate([resistances, np.zeros(count)])
    balls, nodes, values = [ball], [node], [value]
    for _ in range(beta):
        starts = t_indptr[node]
        lengths = t_indptr[node + 1] - starts
        flat = concat_ranges(starts, lengths)
        owner = owners(lengths)
        nbr = t_nbr[flat]
        keep = nbr != pred[owner]
        if not np.any(keep):
            break
        flat, owner, nbr = flat[keep], owner[keep], nbr[keep]
        ball, pred, value = ball[owner], node[owner], value[owner]
        cand = ball % count
        # The deeper endpoint of the forest edge roots the subtree that
        # separates p from q iff exactly one of them lies inside it.
        child = np.where(depth[nbr] > depth[pred], nbr, pred)
        lo, hi = tin[child], tout[child]
        tin_p, tin_q = tin[heads[cand]], tin[tails[cand]]
        on_path = ((lo <= tin_p) & (tin_p < hi)) != ((lo <= tin_q) & (tin_q < hi))
        sign = np.where(ball < count, -1.0, 1.0)
        value = np.where(on_path, value + sign / weights[t_eid[flat]], value)
        node = nbr
        balls.append(ball)
        nodes.append(node)
        values.append(value)
    ball = np.concatenate(balls)
    node = np.concatenate(nodes)
    value = np.concatenate(values)
    del balls, nodes, values

    # The balls as one canonical CSR, p-balls in rows 0 .. count - 1.
    # Entry k of the BFS arrays is stored as k + 1, plus ``total`` in a
    # q-ball, so where a candidate's two balls overlap the larger code
    # -- the q-ball potential -- wins (Eq. 14 is applied after Eq. 13).
    total = len(ball)
    entry = np.arange(1, total + 1)
    entry[ball >= count] += total
    coded = sp.csr_array((entry, (ball, node)), shape=(2 * count, n))
    del ball, node, entry
    incidence = ball_incidence(coded.indptr, coded.indices, codes)
    e_cand, e_eid = joining_edges(
        incidence, np.arange(count), np.arange(count, 2 * count)
    )
    del incidence
    potential = coded[:count].maximum(coded[count:])
    at_u = potential[e_cand, graph.u[e_eid]] - 1
    at_v = potential[e_cand, graph.v[e_eid]] - 1
    numerator = edge_sums(
        count, e_cand, weights[e_eid],
        value[at_u % total] - value[at_v % total],
    )
    return w_cand * numerator / (1.0 + w_cand * resistances)


def tree_truncated_trace_reduction_reference(
    graph: Graph, forest: RootedForest, edge_ids=None, beta: int = 5,
    resistances=None,
):
    """Per-candidate loop computing Eq. 15: the oracle of the tests.

    Same parameters and return value as
    :func:`tree_truncated_trace_reduction`, which must match it bit for
    bit.  One Python BFS per ball, then Eqs. 13-14 node by node.
    """
    edge_ids, resistances = _candidates(graph, forest, edge_ids, resistances)
    tin, tout = forest.euler_intervals()
    depth = forest.depth
    tree_indptr, tree_nbr, tree_local_eid = forest.tree.adjacency()
    finder = BallFinder(
        tree_indptr, tree_nbr, edge_ids=forest.edge_ids[tree_local_eid]
    )
    g_indptr, g_nbr, g_eid = graph.adjacency()
    weights = graph.w
    v_dense = np.zeros(graph.n)
    in_q_stamp = np.zeros(graph.n, dtype=np.int64)
    out = np.empty(len(edge_ids))
    for k in range(len(edge_ids)):
        p = int(graph.u[edge_ids[k]])
        q = int(graph.v[edge_ids[k]])
        w_pq = float(weights[edge_ids[k]])
        r_pq = float(resistances[k])
        clock = k + 1

        nodes_p, preds_p, eids_p = finder.ball(p, beta)
        nodes_q, preds_q, eids_q = finder.ball(q, beta)
        in_q_stamp[nodes_q] = clock

        # Potential propagation, Eq. (13): v(p) = R_T(p, q), descending
        # by 1/w across path edges when walking away from p toward q.
        v_dense[p] = r_pq
        _propagate(
            nodes_p, preds_p, eids_p, v_dense, weights, depth, tin, tout,
            p, q, -1.0,
        )
        # Eq. (14): v(q) = 0, ascending across path edges toward p.
        v_dense[q] = 0.0
        _propagate(
            nodes_q, preds_q, eids_q, v_dense, weights, depth, tin, tout,
            p, q, +1.0,
        )

        numerator = ball_pair_edge_sum(
            g_indptr, g_nbr, g_eid, weights, nodes_p, in_q_stamp, clock,
            v_dense,
        )
        out[k] = w_pq * numerator / (1.0 + w_pq * r_pq)
    return out, edge_ids, resistances


def _propagate(nodes, preds, eids, v_dense, weights, depth, tin, tout, p, q, sign):
    """Propagate potentials over one BFS ball (Eqs. 13-14).

    ``nodes[0]`` is the source whose potential the caller has already
    set; every other node copies its BFS predecessor's potential,
    adjusted by ``sign / w`` when the connecting tree edge lies on the
    p-q path.  The on-path test: the edge (parent, child) is on the path
    iff exactly one of p, q lies in child's subtree (Euler intervals).
    """
    tin_p, tin_q = tin[p], tin[q]
    for idx in range(1, len(nodes)):
        node = int(nodes[idx])
        pred = int(preds[idx])
        value = v_dense[pred]
        # The deeper endpoint of the tree edge is the subtree root.
        child = node if depth[node] > depth[pred] else pred
        lo, hi = tin[child], tout[child]
        in_p = lo <= tin_p < hi
        in_q = lo <= tin_q < hi
        if in_p != in_q:
            value += sign / weights[eids[idx]]
        v_dense[node] = value
