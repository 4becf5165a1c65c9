"""Algorithm 1 — sparse approximate inverse of a Cholesky factor.

Given the lower Cholesky factor ``L`` of an SDD matrix, the exact
inverse ``Z = L^{-1}`` satisfies the column recurrence (Proposition 2 of
the paper)::

    z_j = (1 / L_jj) e_j + sum_{i > j, L_ij != 0} (-L_ij / L_jj) z_i

Because ``L`` comes from an SDD M-matrix, its off-diagonal entries are
nonpositive and every entry of ``Z`` is nonnegative (Proposition 1).
Each built column is pruned by magnitude: entries smaller than
``delta * max`` are dropped, columns with at most ``keep_threshold``
(default ``log n``) entries are kept exactly, and a pruned column keeps
at least its ``keep_threshold`` largest entries.  The pruning can drop
the diagonal entry ``1 / L_jj`` too, when the column's mass sits
further down.  The result ``Z~`` approximates ``L^{-1}`` with
per-column error bounded by the worst pruned column (Eq. 19).

**Level schedule.**  Column ``j`` reads only the columns ``i`` with
``L_ij != 0``; for a Cholesky factor these are ancestors of ``j`` in
the elimination tree.  :func:`sparse_approximate_inverse` therefore
groups the columns into levels -- a column's level is one more than the
deepest level it reads -- and builds a whole level at once: one gather
of the scaled columns ``coeff * z~_i`` of every ``(j, i)`` pair, one
``np.bincount`` over ``(column, row)`` bins, a segmented max for the
``delta`` cut and a segmented sort for the ``keep_threshold`` floor.
``np.bincount`` adds each bin in input order, which is the order the
per-column recurrence adds in, so ``Z~`` is bit-identical to the
column-by-column loop kept as :func:`sparse_approximate_inverse_reference`.
A level whose columns each read at most one column needs no sort: its
rows are already distinct.  The only per-column call left is
``np.argpartition`` for a floor whose ``keep_threshold``-th largest
value is tied, where the choice among the tied entries is
``argpartition``'s own.  Kept columns live in one flat pool addressed
by per-column ``start`` / ``length`` arrays; a level that would gather
more than ``SPAI_GATHER_CAP`` terms is built in several passes.

With ``delta = 0.1`` the paper observes ``nnz(Z~) ~ n log n``; the
ablation benchmark ``bench_ablation_delta`` measures the same curve for
this implementation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import FactorizationError
from repro.utils.validation import check_square_sparse

__all__ = [
    "SPAI_GATHER_CAP",
    "sparse_approximate_inverse",
    "sparse_approximate_inverse_reference",
    "spai_nnz_profile",
    "extract_columns",
]

#: Most gathered ``(column, entry)`` terms one pass may hold; a larger
#: level is built in several passes, so scratch memory stays
#: proportional to this rather than to the widest level.
SPAI_GATHER_CAP = 1 << 18


def _prepare(L, delta, keep_threshold):
    """Validate the arguments; return ``(L, n, keep_threshold)``."""
    check_square_sparse("L", L)
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    if keep_threshold is not None and (
        isinstance(keep_threshold, bool)
        or not isinstance(keep_threshold, (int, np.integer))
        or keep_threshold < 0
    ):
        raise ValueError(
            "keep_threshold must be None or an integer >= 0, "
            f"got {keep_threshold!r}"
        )
    L = sp.csc_matrix(L)
    if not L.has_sorted_indices:
        L.sort_indices()
    n = L.shape[0]
    if keep_threshold is None:
        keep_threshold = max(1, int(np.ceil(np.log(max(n, 2)))))
    return L, n, int(keep_threshold)


def _assemble(n, lengths, indices, data):
    """The CSC matrix ``Z~`` from per-column lengths and flat entries."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    Z = sp.csc_matrix(
        (data, np.asarray(indices, dtype=np.int32), indptr), shape=(n, n)
    )
    Z.has_sorted_indices = True  # every column is built in row order
    return Z


def sparse_approximate_inverse(L, delta=0.1, keep_threshold=None):
    """Compute ``Z~ ~= L^{-1}`` for a lower-triangular Cholesky factor.

    Builds one level of the column dependency order at a time (see the
    module docstring); bit-identical to
    :func:`sparse_approximate_inverse_reference`.

    Parameters
    ----------
    L:
        Lower-triangular CSC factor with positive diagonal and
        nonpositive off-diagonal entries (e.g. ``CholeskyFactor.L``).
    delta:
        Pruning threshold: entries below ``delta * max(column)`` are
        dropped (paper default 0.1).
    keep_threshold:
        Columns with at most this many nonzeros are never pruned, and a
        pruned column keeps at least this many of its largest entries;
        defaults to ``log(n)`` as in Algorithm 1.  Must be ``None`` or
        an integer ``>= 0``.

    Returns
    -------
    scipy.sparse.csc_matrix
        Sparse approximation to ``L^{-1}`` (lower triangular,
        nonnegative entries).  The diagonal entry of a column can be
        pruned like any other.

    Raises
    ------
    ValueError
        For ``delta`` outside ``[0, 1)`` or an invalid ``keep_threshold``.
    FactorizationError
        For a missing or nonpositive diagonal entry, naming the highest
        such column (the first one the recurrence reaches).
    """
    L, n, keep_threshold = _prepare(L, delta, keep_threshold)
    indptr = L.indptr.astype(np.int64)
    indices, data = L.indices, L.data
    inv_diag = 1.0 / _checked_diagonal(indptr, indices, data, n)
    sub_count = np.diff(indptr) - 1
    builder = _LevelBuilder(n, delta, keep_threshold)
    order, level_bounds = _level_order(
        indptr, indices, sub_count, builder.concat_ranges
    )

    # The terms of every column, in level order: its diagonal first --
    # coefficient 1/L_jj on the unit pseudo-column n + j -- then each
    # off-diagonal row i of L with coefficient -L_ij/L_jj, skipping the
    # zero ones.
    counts = sub_count[order]
    pos = builder.concat_ranges(indptr[order] + 1, counts)
    owner = np.repeat(np.arange(n), counts)
    coeff = -data[pos] * inv_diag[order][owner]
    live = coeff != 0.0
    slot = np.concatenate([np.arange(n), owner[live]])
    by_column = np.argsort(slot, kind="stable")
    slot = slot[by_column]
    src = np.concatenate([n + order, indices[pos[live]]])[by_column]
    scale = np.concatenate([inv_diag[order], coeff[live]])[by_column]
    term_count = np.bincount(slot, minlength=n)
    term_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(term_count, out=term_start[1:])

    for lo, hi in zip(level_bounds[:-1], level_bounds[1:]):
        t0, t1 = term_start[lo], term_start[hi]
        builder.build(
            order[lo:hi], slot[t0:t1] - lo, src[t0:t1], scale[t0:t1],
            single=term_count[lo:hi].max() <= 2,
            prunable=counts[lo:hi] > 0,
        )
    return builder.result()


def _checked_diagonal(indptr, indices, data, n):
    """Each column's diagonal entry, raising as the recurrence would.

    The per-column loop walks ``j = n-1 .. 0`` and stops at the first
    column whose leading entry is not ``(j, j)`` or is ``<= 0``; the
    error names that same column.
    """
    head = indptr[:-1]
    present = indptr[1:] > head
    present[present] = indices[head[present]] == np.flatnonzero(present)
    diag = np.ones(n, dtype=data.dtype)
    diag[present] = data[head[present]]
    bad = np.flatnonzero(~present | (diag <= 0))
    if len(bad):
        j = int(bad[-1])
        if not present[j]:
            raise FactorizationError(f"missing diagonal in column {j}")
        raise FactorizationError(f"nonpositive diagonal at column {j}")
    return diag


def _level_order(indptr, indices, sub_count, concat_ranges):
    """Columns grouped by level, and the level bounds in that order.

    A column's level is one more than the highest level among the
    columns it reads (0 when it reads none), so each level only reads
    earlier ones.  For a Cholesky factor that is the column's depth in
    the elimination tree -- its parent is its first off-diagonal row,
    and every row it reads is an ancestor -- found by pointer doubling.
    Any other pattern is relaxed from there to the same rule.  Needs a
    validated diagonal, so every off-diagonal row exceeds its column.
    """
    n = len(sub_count)
    reads = sub_count > 0
    up = np.full(n + 1, n, dtype=np.int64)  # n: past the root
    up[:-1][reads] = indices[indptr[:-1][reads] + 1]
    level = np.zeros(n + 1, dtype=np.int64)
    level[:-1] = reads
    while (up[:-1] < n).any():
        level = level + level[up]
        up = up[up]
    level = level[:-1]
    readers = np.flatnonzero(reads)
    rows = indices[concat_ranges(indptr[readers] + 1, sub_count[readers])]
    seg = np.zeros(len(readers), dtype=np.int64)
    np.cumsum(sub_count[readers][:-1], out=seg[1:])
    while len(readers):
        need = np.maximum.reduceat(level[rows], seg) + 1
        if (need <= level[readers]).all():
            break
        level[readers] = np.maximum(level[readers], need)
    order = np.argsort(level, kind="stable")
    bounds = np.zeros(int(level.max(initial=-1)) + 2, dtype=np.int64)
    np.cumsum(np.bincount(level), out=bounds[1:])
    return order, bounds


class _LevelBuilder:
    """Builds and prunes the columns of ``Z~`` one level at a time.

    Kept columns live in one flat pool, grown geometrically, addressed
    by ``start`` / ``length``; ids ``n .. 2n-1`` are unit pseudo-columns
    (row ``j``, value ``1.0``) that carry each column's diagonal term.
    """

    def __init__(self, n, delta, keep_threshold):
        from repro.core._kernels import (  # deferred: core imports linalg
            concat_ranges,
            unique_inverse,
        )

        self.concat_ranges = concat_ranges
        self.unique_inverse = unique_inverse
        self.n = n
        self.delta = delta
        self.keep_threshold = keep_threshold
        capacity = n * (min(keep_threshold, 16) + 2)
        self.rows = np.empty(capacity, dtype=np.int32)
        self.values = np.empty(capacity)
        self.rows[:n] = np.arange(n)
        self.values[:n] = 1.0
        self.size = n
        self.start = np.concatenate([np.zeros(n, np.int64), np.arange(n)])
        self.length = np.repeat(np.arange(2, dtype=np.int64), n)

    def build(self, cols, slot, src, scale, single, prunable):
        """Build, prune and store the columns *cols* of one level.

        Each column's terms are consecutive in ``slot`` / ``src`` /
        ``scale`` (``slot`` indexes *cols*), diagonal first: column
        ``cols[s]`` is the sum of ``scale[t] * z~_src[t]`` over its terms
        ``t``.  *single* says no column has more than one term besides
        its diagonal, so no two terms share a row.  *prunable* marks the
        columns that have off-diagonal entries in ``L``.
        """
        src_len = self.length[src]
        if src_len.sum() > SPAI_GATHER_CAP and len(cols) > 1:
            half = len(cols) // 2
            cut = np.searchsorted(slot, half)
            self.build(cols[:half], slot[:cut], src[:cut], scale[:cut],
                       single, prunable[:half])
            self.build(cols[half:], slot[cut:] - half, src[cut:],
                       scale[cut:], single, prunable[half:])
            return
        gather = self.concat_ranges(self.start[src], src_len)
        rows = self.rows[gather]
        sums = self.values[gather]
        sums *= np.repeat(scale, src_len)
        if single:
            # Rows are already sorted and distinct per column; adding to
            # 0.0 rounds exactly as np.bincount's one-term bins do.
            sums += 0.0
            seg_len = np.zeros(len(cols), dtype=np.int64)
            np.add.at(seg_len, slot, src_len)
        else:
            # np.bincount adds each (column, row) bin in input order:
            # diagonal, then the read columns in L's order.
            keys, inverse = self.unique_inverse(
                np.repeat(slot, src_len) * self.n + rows
            )
            sums = np.bincount(inverse, weights=sums)
            slot = keys // self.n
            rows = keys - slot * self.n
            seg_len = np.bincount(slot, minlength=len(cols))
        keep, seg_len = self._prune(
            sums, seg_len, prunable & (seg_len > self.keep_threshold)
        )
        self._store(cols, rows, sums, keep, seg_len)

    def _prune(self, sums, seg_len, prunable):
        """Algorithm 1's pruning: ``(keep mask or None, kept lengths)``.

        The entries of column ``s`` are the ``seg_len[s]`` consecutive
        ones of *sums*.  A *prunable* column keeps its entries
        ``>= delta * max``; when fewer than ``keep_threshold`` survive it
        keeps its ``keep_threshold`` largest instead.  Those are read off
        a segmented sort, unless the threshold-th and next values tie:
        then ``np.argpartition`` picks, as in the per-column loop.
        """
        if not prunable.any():
            return None, seg_len
        k = self.keep_threshold
        seg_start = np.zeros(len(seg_len), dtype=np.int64)
        np.cumsum(seg_len[:-1], out=seg_start[1:])
        bound = self.delta * np.maximum.reduceat(sums, seg_start)
        keep = sums >= np.repeat(bound, seg_len)
        if not prunable.all():
            keep |= np.repeat(~prunable, seg_len)
        kept = np.add.reduceat(keep, seg_start, dtype=np.int64)
        floor = np.flatnonzero(prunable & (kept < k))
        if len(floor) == 0:
            return keep, kept
        kept[floor] = k
        entries = self.concat_ranges(seg_start[floor], seg_len[floor])
        keep[entries] = False
        owner = np.repeat(np.arange(len(floor)), seg_len[floor])
        ranked = entries[np.lexsort((-sums[entries], owner))]
        offset = np.zeros(len(floor), dtype=np.int64)
        np.cumsum(seg_len[floor][:-1], out=offset[1:])
        clear = sums[ranked[offset + k - 1]] > sums[ranked[offset + k]]
        top = self.concat_ranges(
            offset[clear], np.full(np.count_nonzero(clear), k)
        )
        keep[ranked[top]] = True
        for s in floor[~clear]:
            lo = seg_start[s]
            top = np.argpartition(-sums[lo:lo + seg_len[s]], k - 1)
            keep[lo + top[:k]] = True
        return keep, kept

    def _store(self, cols, rows, values, keep, lengths):
        """Append the kept entries of columns *cols* to the pool."""
        end = self.size + int(lengths.sum())
        if end > len(self.rows):
            capacity = max(end, 2 * len(self.rows))
            for name in ("rows", "values"):
                old = getattr(self, name)
                grown = np.empty(capacity, dtype=old.dtype)
                grown[: self.size] = old[: self.size]
                setattr(self, name, grown)
        if keep is None or end - self.size == len(rows):
            self.rows[self.size:end] = rows
            self.values[self.size:end] = values
        else:
            np.compress(keep, rows, out=self.rows[self.size:end])
            np.compress(keep, values, out=self.values[self.size:end])
        self.start[cols] = self.size + np.cumsum(lengths) - lengths
        self.length[cols] = lengths
        self.size = end

    def result(self):
        """``Z~`` as a CSC matrix, columns in order."""
        start, length = self.start[: self.n], self.length[: self.n]
        flat = self.concat_ranges(start, length)
        return _assemble(self.n, length, self.rows[flat], self.values[flat])


def sparse_approximate_inverse_reference(L, delta=0.1, keep_threshold=None):
    """Column-by-column oracle for :func:`sparse_approximate_inverse`.

    Same contract and bit-identical output; builds ``z~_j`` for
    ``j = n-1 .. 0`` with one ``np.unique`` per column.  Only tests and
    the benchmark gate call it.
    """
    L, n, keep_threshold = _prepare(L, delta, keep_threshold)
    indptr, indices, data = L.indptr, L.indices, L.data
    col_idx: list = [None] * n
    col_val: list = [None] * n
    one = np.ones(1, dtype=np.float64)

    for j in range(n - 1, -1, -1):
        start, stop = indptr[j], indptr[j + 1]
        if start == stop or indices[start] != j:
            raise FactorizationError(f"missing diagonal in column {j}")
        diag = data[start]
        if diag <= 0:
            raise FactorizationError(f"nonpositive diagonal at column {j}")
        inv_diag = 1.0 / diag
        sub_rows = indices[start + 1 : stop]
        sub_vals = data[start + 1 : stop]
        if len(sub_rows) == 0:
            col_idx[j] = np.array([j], dtype=np.int64)
            col_val[j] = np.array([inv_diag], dtype=np.float64)
            continue
        # Gather the already-computed columns z~_i scaled by -L_ij/L_jj.
        parts_idx = [np.array([j], dtype=np.int64)]
        parts_val = [one * inv_diag]
        coeffs = -sub_vals * inv_diag
        for i, coeff in zip(sub_rows, coeffs):
            if coeff == 0.0:
                continue
            parts_idx.append(col_idx[i])
            parts_val.append(col_val[i] * coeff)
        cat_idx = np.concatenate(parts_idx)
        cat_val = np.concatenate(parts_val)
        uniq, inverse = np.unique(cat_idx, return_inverse=True)
        sums = np.bincount(inverse, weights=cat_val)
        # Proposition 1: every entry is a sum of nonnegative terms.
        if len(uniq) > keep_threshold:
            keep = sums >= delta * sums.max()
            if np.count_nonzero(keep) < keep_threshold:
                # Algorithm 1 deems columns with <= log n entries sparse
                # enough to keep verbatim; enforcing the same floor after
                # pruning reproduces the paper's observed nnz(Z~) ~ n log n
                # and keeps the column error bounded on near-singular
                # factors (see DESIGN.md).
                top = np.argpartition(-sums, keep_threshold - 1)
                keep = np.zeros(len(sums), dtype=bool)
                keep[top[:keep_threshold]] = True
            uniq = uniq[keep]
            sums = sums[keep]
        col_idx[j] = uniq
        col_val[j] = sums

    lengths = np.asarray([len(col_idx[j]) for j in range(n)], dtype=np.int64)
    out_indices = np.concatenate(col_idx) if n else np.empty(0, dtype=np.int64)
    out_data = np.concatenate(col_val) if n else np.empty(0)
    return _assemble(n, lengths, out_indices, out_data)


def extract_columns(Z, cols, kernels=None):
    """Gather many columns of a CSC matrix in one pass.

    The batched rankers need the SPAI columns of every candidate-edge
    endpoint; slicing ``Z`` column by column costs one Python call per
    endpoint.  This helper gathers all requested columns through the
    active kernel tier's
    :meth:`~repro.kernels.KernelSet.gather_csc_columns` (a single
    ``concat_ranges`` pass on the default vector tier).

    Parameters
    ----------
    Z : scipy.sparse.csc_matrix
        Column-sparse matrix (e.g. the output of
        :func:`sparse_approximate_inverse`).
    cols : array_like of int
        Column indices to extract (duplicates allowed).
    kernels : KernelSet or str, optional
        Hot-path kernel tier; defaults to the auto-resolved tier (see
        :mod:`repro.kernels`).  Bit-identical across tiers.

    Returns
    -------
    indptr : numpy.ndarray
        ``int64`` offsets into *indices*/*data*; column ``cols[k]``
        occupies ``[indptr[k], indptr[k + 1])``.
    indices : numpy.ndarray
        Row indices of the gathered entries (``int64``).
    data : numpy.ndarray
        Values of the gathered entries.
    """
    from repro.kernels import resolve_kernel_set  # deferred: cycle

    cols = np.asarray(cols, dtype=np.int64)
    return resolve_kernel_set(kernels).gather_csc_columns(
        Z.indptr, Z.indices, Z.data, cols
    )


def spai_nnz_profile(L, deltas):
    """nnz(Z~) for each pruning threshold (used by the delta ablation)."""
    return [
        int(sparse_approximate_inverse(L, delta=float(d)).nnz) for d in deltas
    ]
