"""Vectorized micro-kernels shared by the criticality computations.

Both the tree phase (Eq. 15) and the general phase (Eq. 20) end with the
same restricted Laplacian quadratic form: given per-node values ``s``
(voltages or SPAI inner products), sum ``w_ij (s_i - s_j)^2`` over the
original graph's edges joining the two BFS balls.

:func:`ball_pair_edge_sum` and :func:`ball_pair_edge_sum_flat` do that
for one candidate; the per-candidate reference loops use them.  The
batched scorers use the many-candidate forms instead:
:func:`ball_pair_edges` selects every candidate's ball-to-ball edges at
once, and :func:`edge_sums` / :func:`segment_sums` add them per
candidate in numpy's pairwise order, so each sum is bit-identical to
the one-candidate kernel's.
"""

from __future__ import annotations

import numpy as np

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
    "ball_pair_edges",
    "owners",
    "edge_sums",
]

#: Most gathered ``(candidate, entry)`` pairs one scoring sub-batch may
#: hold (ball nodes, SPAI column entries, incidences).  The batched
#: scorers of Eqs. 15 and 20 split their candidates so that scratch
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


def ball_pair_edges(n, cand, pick, nbrs, eids, q_keys, edge_count):
    """Select and dedupe the ball-to-ball edges of many candidates.

    The batched :meth:`~repro.kernels.KernelSet.select_ball_pair_edges`:
    keep the incidences whose neighbor lies in the candidate's second
    ball and collapse both orientations of an edge to one.

    Parameters
    ----------
    n : int
        Node count; ``(candidate, node)`` pairs are keyed
        ``candidate * n + node``.
    cand, pick : numpy.ndarray
        Parallel arrays, in any order: one entry per original-graph
        incidence of a candidate's first ball -- the candidate index and
        the incidence's position in *nbrs* / *eids*.
    nbrs, eids : numpy.ndarray
        Neighbor and edge id of every incidence position (a CSR
        adjacency's neighbor and edge arrays, or cached bundles').
    q_keys : numpy.ndarray
        Sorted keys of every ``(candidate, node)`` in a second ball.
    edge_count : int
        Edge count of the original graph (keys edges per candidate).

    Returns
    -------
    numpy.ndarray
        Indices into *cand* / *pick* of the qualifying incidences, one
        per ``(candidate, edge)``, sorted by candidate, then edge id --
        per candidate the order :func:`ball_pair_edge_sum_flat` sums in.
        Which of the two orientations is kept does not matter:
        ``(a - b)**2 == (b - a)**2`` exactly.
    """
    keys = cand * n
    keys += nbrs[pick]
    _, hit = sorted_lookup(q_keys, keys)
    del keys
    hit = np.flatnonzero(hit)
    edge_keys = cand[hit] * edge_count
    edge_keys += eids[pick[hit]]
    _, first = np.unique(edge_keys, return_index=True)
    return hit[first]


def owners(lengths) -> np.ndarray:
    """``k`` repeated ``lengths[k]`` times: the owner of each entry."""
    return np.repeat(np.arange(len(lengths)), lengths)


def edge_sums(count, cand, weights, diffs):
    """Per candidate, ``np.sum(weights * diffs * diffs)`` over its edges.

    *cand* must be sorted (as :func:`ball_pair_edges` orders it); each
    candidate's sum is bit-identical to the scalar scoring kernel's, and
    a candidate without edges scores ``0.0``.
    """
    return segment_sums(
        weights * diffs * diffs, np.bincount(cand, minlength=count)
    )
