"""Vectorized micro-kernels shared by the criticality computations.

Both the tree phase (Eq. 15) and the general phase (Eq. 20) end with the
same restricted Laplacian quadratic form: given per-node values ``s``
(voltages or SPAI inner products), sum ``w_ij (s_i - s_j)^2`` over the
original graph's edges joining the two BFS balls.

:func:`ball_pair_edge_sum` and :func:`ball_pair_edge_sum_flat` do that
for one candidate; the per-candidate reference loops use them.  The
batched scorers find the ball-to-ball edges of many candidates with
scipy's compiled sparse products instead.  :func:`incidence_codes`
builds the ``n x m`` edge incidence matrix ``Ie`` with one code per
endpoint (1 at ``u_e``, 2 at ``v_e``).  :func:`ball_incidence`
multiplies a 0/1 ball matrix by it, so row ``x`` lists the edges touching ball ``x``,
coded by which endpoints lie inside.  :func:`joining_edges` multiplies
two such rows elementwise: an edge joins the balls iff the product of
its codes is not 1 or 4.  :func:`edge_sums` / :func:`segment_sums` then
add every candidate's edges in numpy's pairwise order, so each sum is
bit-identical to the one-candidate kernel's.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SCORE_PAIR_CAP",
    "SCORE_PAIRS_PER_EDGE",
    "pair_budget",
    "concat_ranges",
    "ball_pair_edge_sum",
    "ball_pair_edge_sum_flat",
    "cap_spans",
    "sorted_lookup",
    "unique_inverse",
    "segment_sums",
    "incidence_codes",
    "ball_incidence",
    "joining_edges",
    "owners",
    "edge_sums",
]

#: Most gathered ``(candidate, entry)`` pairs one scoring sub-batch may
#: hold (ball nodes, SPAI column entries, ball-edge incidences).  The
#: batched scorers of Eqs. 15 and 20 split their candidates so that scratch
#: memory stays proportional to this, never to ``candidates * n``;
#: larger values trade memory for fewer numpy calls per candidate.
SCORE_PAIR_CAP = 1 << 18

#: ... and at most this many per graph edge, so the scratch of a small
#: graph stays a small multiple of the graph's own arrays.
SCORE_PAIRS_PER_EDGE = 8


def pair_budget(edge_count: int) -> int:
    """Pairs one scoring sub-batch may gather on a graph this size."""
    return min(SCORE_PAIR_CAP, SCORE_PAIRS_PER_EDGE * max(int(edge_count), 128))


def concat_ranges(starts, lengths):
    """Concatenate integer ranges ``[starts[k], starts[k]+lengths[k])``.

    Equivalent to ``np.concatenate([np.arange(s, s+l) ...])`` but built
    from two cumsums, with no per-range Python overhead.

    Parameters
    ----------
    starts : array_like of int
        Range start offsets.
    lengths : array_like of int
        Range lengths (zero-length ranges are skipped).

    Returns
    -------
    numpy.ndarray
        The concatenated ranges as one ``int64`` array.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    positive = lengths > 0
    if not np.all(positive):
        # Non-positive lengths contribute nothing (empty CSR ranges).
        starts = starts[positive]
        lengths = lengths[positive]
    if len(lengths) == 0:
        # Covers empty input and all-zero lengths; bail out before any
        # cum[-1] indexing can see an empty cumsum.
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(lengths)
    out = np.ones(cum[-1], dtype=np.int64)
    out[0] = starts[0]
    if len(starts) > 1:
        out[cum[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out, out=out)


def ball_pair_edge_sum(
    indptr,
    neighbors,
    edge_ids,
    weights,
    nodes_p,
    in_q_stamp,
    clock,
    values,
):
    """``sum w_e (values[i] - values[j])^2`` over ball-to-ball edges.

    Edges of the original graph with one endpoint in ``nodes_p`` (the
    ball around p) and the other stamped as belonging to the ball
    around q.  Each undirected edge is counted once even when both
    orientations qualify.

    Parameters
    ----------
    indptr, neighbors, edge_ids:
        CSR adjacency of the *original* graph.
    weights:
        Edge weight array of the original graph.
    nodes_p:
        Ball around the first endpoint.
    in_q_stamp, clock:
        Stamp array marking the second ball: node ``x`` is in the ball
        iff ``in_q_stamp[x] == clock``.
    values:
        Dense per-node value array (voltages / inner products); only
        entries of ball nodes are read.

    Returns
    -------
    float
        The restricted quadratic form.
    """
    starts = indptr[nodes_p]
    lengths = indptr[nodes_p + 1] - starts
    flat = concat_ranges(starts, lengths)
    if len(flat) == 0:
        return 0.0
    nbrs = neighbors[flat]
    eids = edge_ids[flat]
    sources = np.repeat(nodes_p, lengths)
    return ball_pair_edge_sum_flat(
        sources, nbrs, eids, weights, in_q_stamp, clock, values
    )


def ball_pair_edge_sum_flat(
    sources,
    nbrs,
    eids,
    weights,
    in_q_stamp,
    clock,
    values,
):
    """:func:`ball_pair_edge_sum` on a pre-flattened adjacency slice.

    The batched rankers cache, per ball, the flattened incident-edge
    triples ``(sources, nbrs, eids)`` of the original graph; this entry
    point skips the per-call CSR gather that :func:`ball_pair_edge_sum`
    performs and goes straight to the stamped restriction.

    Parameters
    ----------
    sources, nbrs, eids : numpy.ndarray
        Parallel arrays: for every (directed) incidence of a ball node,
        the ball node itself, its neighbor, and the connecting edge id.
    weights : numpy.ndarray
        Edge weight array of the original graph.
    in_q_stamp, clock :
        Stamp array marking the second ball: node ``x`` is in the ball
        iff ``in_q_stamp[x] == clock``.
    values : numpy.ndarray
        Dense per-node value array; only ball-node entries are read.

    Returns
    -------
    float
        The restricted quadratic form.
    """
    mask = in_q_stamp[nbrs] == clock
    if not np.any(mask):
        return 0.0
    eids = eids[mask]
    nbrs = nbrs[mask]
    sources = sources[mask]
    # Dedupe: when both orientations qualify the edge appears twice.
    unique_eids, first = np.unique(eids, return_index=True)
    diffs = values[sources[first]] - values[nbrs[first]]
    return float(np.sum(weights[unique_eids] * diffs * diffs))


# ----------------------------------------------------------------------
# Batched scoring helpers: one call covers many candidates at once.
# ----------------------------------------------------------------------
def cap_spans(costs, cap: int):
    """Split consecutive items into spans whose summed cost is <= *cap*.

    Greedy from the left; a single item costlier than *cap* gets a span
    of its own.  The batched scorers size their sub-batches with this so
    scratch memory stays proportional to *cap*, not to the batch.

    Returns
    -------
    list of (int, int)
        Half-open ``[lo, hi)`` spans covering ``range(len(costs))``.
    """
    ends = np.cumsum(np.asarray(costs, dtype=np.int64))
    spans = []
    lo = 0
    base = 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, base + cap, side="right")))
        spans.append((lo, hi))
        base = int(ends[hi - 1])
        lo = hi
    return spans


def sorted_lookup(keys, queries):
    """Positions of *queries* in the sorted unique array *keys*.

    Returns ``(positions, found)``; ``positions`` is only meaningful
    where ``found`` is true.
    """
    if len(keys) == 0:
        return (np.zeros(len(queries), dtype=np.int64),
                np.zeros(len(queries), dtype=bool))
    positions = np.searchsorted(keys, queries)
    np.minimum(positions, len(keys) - 1, out=positions)
    return positions, keys[positions] == queries


def unique_inverse(keys):
    """``np.unique(keys, return_inverse=True)`` through a stable sort.

    numpy's stable sort merges presorted runs in linear time, so keys
    that are a concatenation of a few sorted arrays cost one merge
    instead of a full sort.
    """
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(fresh) - 1
    return ordered[fresh], inverse


def segment_sums(values, lengths):
    """``np.sum`` of each consecutive segment of *values*, bit for bit.

    ``np.sum`` adds pairwise, so ``np.add.reduceat`` (strictly
    sequential) would round differently.  This replays numpy's pairwise
    order for every segment at once: a segment of more than 128 values
    is the sum of its two halves (the first rounded down to a multiple
    of 8), and a shorter one runs 8 interleaved accumulators over its
    whole 8-blocks, folds them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
    and adds the remaining values one by one, all segments in step.  A
    segment of fewer than 8 values starts its sum from ``+0.0`` where
    numpy starts from ``-0.0``, which only differs for an all ``-0.0``
    segment: *values* must hold no ``-0.0`` (true of the non-negative
    terms the scorers sum).  Empty segments sum to ``0.0``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return _pairwise_sums(values, starts, lengths)


def _pairwise_sums(values, starts, lengths):
    out = np.empty(len(lengths))
    long = np.flatnonzero(lengths > _PAIRWISE_BLOCK)
    short = np.flatnonzero(lengths <= _PAIRWISE_BLOCK)
    out[short] = _blocked_sums(values, starts[short], lengths[short])
    if len(long):
        size = lengths[long]
        half = size // 2
        half -= half % 8
        both = _pairwise_sums(
            values,
            np.concatenate([starts[long], starts[long] + half]),
            np.concatenate([half, size - half]),
        )
        out[long] = both[: len(long)] + both[len(long):]
    return out


#: numpy's pairwise summation runs 8 accumulators up to this length.
_PAIRWISE_BLOCK = 128


def _blocked_sums(values, starts, lengths):
    """numpy's unrolled pairwise base case, for segments of <= 128."""
    # Longest first, so the segments still in a block are a prefix.
    order = np.argsort(-lengths, kind="stable")
    starts = starts[order]
    lengths = lengths[order]
    whole = lengths - lengths % 8
    live = np.searchsorted(-whole, -np.arange(0, 129, 8), side="left")
    acc = np.zeros((len(lengths), 8))
    lanes = np.arange(8)
    for block in range(0, int(whole.max(initial=0)), 8):
        m = live[block // 8]
        block_values = values[starts[:m, None] + block + lanes]
        if block:
            acc[:m] += block_values
        else:
            acc[:m] = block_values
    folded = ((acc[:, 0] + acc[:, 1]) + (acc[:, 2] + acc[:, 3])) + (
        (acc[:, 4] + acc[:, 5]) + (acc[:, 6] + acc[:, 7])
    )
    rest = lengths - whole
    for k in range(int(rest.max(initial=0))):
        more = np.flatnonzero(rest > k)
        folded[more] += values[starts[more] + whole[more] + k]
    out = np.empty(len(lengths))
    out[order] = folded
    return out


def incidence_codes(graph) -> sp.csr_array:
    """The edge incidence matrix, coded by endpoint, stored transposed.

    Row ``e`` of this ``m x n`` CSR holds 1 at ``u_e`` and 2 at
    ``v_e``: it is ``Ie^T`` for the ``n x m`` incidence ``Ie`` with
    ``Ie[u_e, e] = 1`` and ``Ie[v_e, e] = 2``.  O(m) to build.
    """
    m = graph.edge_count
    return sp.csr_array(
        (np.tile(np.array([1, 2], dtype=np.int8), m),
         np.column_stack([graph.u, graph.v]).ravel(),
         np.arange(0, 2 * m + 1, 2)),
        shape=(m, graph.n),
    )


def ball_incidence(indptr, nodes, codes) -> sp.csr_array:
    """The edges touching each ball, coded by which ends lie inside.

    Parameters
    ----------
    indptr, nodes : numpy.ndarray
        CSR of balls: ``nodes[indptr[x]:indptr[x+1]]`` is ball ``x``,
        no node twice, in any order.
    codes : scipy.sparse.csr_array
        :func:`incidence_codes` of the graph.

    Returns
    -------
    scipy.sparse.csr_array
        ``B @ Ie`` for the 0/1 ball matrix ``B``: row ``x`` lists every
        edge with an endpoint in ball ``x`` in ascending edge id, valued
        1 (only ``u_e`` inside), 2 (only ``v_e``) or 3 (both).  It is
        computed as ``(Ie^T @ B^T)^T``, whose conversion back to CSR
        sorts the edge ids in linear time.
    """
    balls = sp.csr_array(
        (np.ones(len(nodes), dtype=np.int8), nodes, indptr),
        shape=(len(indptr) - 1, codes.shape[1]),
    )
    return (codes @ balls.T).T.tocsr()


def joining_edges(incidence, first, second):
    """The edges joining ball ``first[k]`` to ball ``second[k]``, per k.

    An edge joins the balls iff one end lies in the first and the other
    in the second.  The product of its two :func:`ball_incidence` codes
    is then 2, 3, 6 or 9; it is 1 (1 * 1) or 4 (2 * 2) when both balls
    hold the same end only, and 0 when a ball misses the edge.

    Parameters
    ----------
    incidence : scipy.sparse.csr_array
        :func:`ball_incidence` of the balls (sorted indices).
    first, second : numpy.ndarray
        Row indices into *incidence*, one pair of balls per ``k``.

    Returns
    -------
    (pair, edges) : numpy.ndarray
        One entry per joining edge, sorted by ``k``, then edge id --
        per pair the order :func:`ball_pair_edge_sum_flat` sums in.
    """
    both = incidence[first].multiply(incidence[second])
    keep = (both.data != 1) & (both.data != 4)
    return owners(np.diff(both.indptr))[keep], both.indices[keep]


def owners(lengths) -> np.ndarray:
    """``k`` repeated ``lengths[k]`` times: the owner of each entry."""
    return np.repeat(np.arange(len(lengths)), lengths)


def edge_sums(count, cand, weights, diffs):
    """Per candidate, ``np.sum(weights * diffs * diffs)`` over its edges.

    *cand* must be sorted (as :func:`joining_edges` orders it); each
    candidate's sum is bit-identical to the scalar scoring kernel's, and
    a candidate without edges scores ``0.0``.
    """
    return segment_sums(
        weights * diffs * diffs, np.bincount(cand, minlength=count)
    )
