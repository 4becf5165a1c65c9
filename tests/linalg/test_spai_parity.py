"""Bit-for-bit parity of the level-scheduled SPAI with its per-column oracle.

``sparse_approximate_inverse`` builds a whole elimination-tree level of
``Z~`` at once; ``sparse_approximate_inverse_reference`` is the
column-by-column recurrence of Algorithm 1.  The two must agree byte for
byte -- ``indptr``, ``indices``, ``data``, their dtypes and the sorted
flag -- and must raise the same errors: the ranking scores, and with
them every RunRecord fingerprint, are computed from ``Z~``.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FactorizationError
from repro.graph import (
    GENERATOR_REGISTRY,
    grid2d,
    make_family_graph,
    regularization_shift,
    regularized_laplacian,
)
from repro.linalg import cholesky, spai
from repro.linalg.spai import (
    sparse_approximate_inverse,
    sparse_approximate_inverse_reference,
)
from repro.tree import mewst

FAMILIES = sorted(GENERATOR_REGISTRY)
DELTAS = [0.0, 0.05, 0.1, 0.5]
KEEP = [None, 1, 10**9]


def assert_same_bytes(Z, expected):
    assert Z.shape == expected.shape
    assert Z.has_sorted_indices == expected.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        got, want = getattr(Z, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def assert_parity(L, **kwargs):
    expected = sparse_approximate_inverse_reference(L, **kwargs)
    Z = sparse_approximate_inverse(L, **kwargs)
    assert_same_bytes(Z, expected)
    return Z


def subgraph_factor(graph, keep_fraction, seed):
    """Factor of a spanning tree plus a random share of the other edges,
    regularized with the full graph's shift (a general round's input)."""
    mask = np.zeros(graph.edge_count, dtype=bool)
    mask[mewst(graph)] = True
    rng = np.random.default_rng(seed)
    mask |= rng.random(graph.edge_count) < keep_fraction
    subgraph = graph.subgraph(mask)
    return cholesky(
        regularized_laplacian(subgraph, regularization_shift(graph))
    ).L


@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(16, 120),
    seed=st.integers(0, 2**16),
    keep_fraction=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    delta=st.sampled_from(DELTAS),
    keep_threshold=st.sampled_from(KEEP),
)
@settings(max_examples=60, deadline=None)
def test_family_subgraph_factors(family, n, seed, keep_fraction, delta,
                                 keep_threshold):
    graph = make_family_graph(family, n, seed=seed)
    L = subgraph_factor(graph, keep_fraction, seed)
    assert_parity(L, delta=delta, keep_threshold=keep_threshold)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_at_default_settings(family):
    graph = make_family_graph(family, 200, seed=3)
    for keep_fraction in (0.0, 0.2):
        assert_parity(subgraph_factor(graph, keep_fraction, seed=3))


@pytest.mark.parametrize("side", [3, 7, 12])
@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("keep_threshold", KEEP)
def test_unit_weight_grids(side, delta, keep_threshold):
    """Equal weights give equal-valued entries inside a column."""
    graph = grid2d(side, side, weights="unit", seed=0)
    for keep_fraction in (0.0, 0.3, 1.0):
        L = subgraph_factor(graph, keep_fraction, seed=side)
        assert_parity(L, delta=delta, keep_threshold=keep_threshold)


def lower_factor(n, density, values, seed, zero_share=0.0):
    """Random lower-triangular CSC factor with a positive diagonal.

    Off-diagonal values come from the small alphabet *values*, so
    columns hold many exactly tied entries; the pattern is arbitrary
    (not closed under elimination) and a *zero_share* of the
    off-diagonal entries are explicit zeros.
    """
    rng = np.random.default_rng(seed)
    dense = np.tril(rng.random((n, n)) < density, k=-1)
    rows, cols = np.nonzero(dense)
    vals = rng.choice(values, size=len(rows))
    vals[rng.random(len(rows)) < zero_share] = 0.0
    diag = rng.choice([1.0, 2.0, 4.0], size=n)
    coo = sp.coo_matrix(
        (np.concatenate([vals, diag]),
         (np.concatenate([rows, np.arange(n)]),
          np.concatenate([cols, np.arange(n)]))),
        shape=(n, n),
    )
    L = sp.csc_matrix(coo)
    L.sort_indices()
    return L


@given(
    n=st.integers(1, 60),
    density=st.sampled_from([0.05, 0.2, 0.6]),
    seed=st.integers(0, 2**16),
    zero_share=st.sampled_from([0.0, 0.3]),
    # Mixed signs (not an M-matrix) cancel to exact zeros, which a
    # negative coefficient turns into -0.0 terms.
    values=st.sampled_from([(-1.0, -0.5), (-1.0, 1.0, 2.0)]),
    delta=st.sampled_from(DELTAS),
    keep_threshold=st.sampled_from([None, 0, 1, 2, 3, 10**9]),
)
@settings(max_examples=100, deadline=None)
def test_tied_values_and_arbitrary_patterns(n, density, seed, zero_share,
                                            values, delta, keep_threshold):
    L = lower_factor(n, density, values, seed, zero_share)
    assert_parity(L, delta=delta, keep_threshold=keep_threshold)


def test_negative_zero_terms_sum_to_positive_zero():
    """Column 1 cancels to an exact 0.0 in row 3; column 0 reads it
    alone with coefficient -1, a -0.0 term that sums to +0.0."""
    L = sp.csc_matrix(np.array([[1.0, 0.0, 0.0, 0.0],
                                [1.0, 1.0, 0.0, 0.0],
                                [0.0, -1.0, 1.0, 0.0],
                                [0.0, 1.0, -1.0, 1.0]]))
    Z = assert_parity(L, keep_threshold=10**9)
    assert Z[3, 0] == 0.0 and not np.signbit(Z[3, 0])


def test_boundary_ties_take_the_argpartition_path():
    """Tied floors exist in the tied-value factors, and go through
    np.argpartition exactly as the per-column loop does."""
    calls = 0
    for seed in range(20):
        L = lower_factor(40, 0.2, [-1.0, -0.5], seed)
        with mock.patch.object(
            np, "argpartition", wraps=np.argpartition
        ) as argpartition:
            assert_parity(L, delta=0.5, keep_threshold=3)
        calls += argpartition.call_count
    assert calls > 0


def test_explicit_zero_off_diagonals_are_skipped():
    """A stored 0.0 below the diagonal contributes nothing (the
    coefficient == 0.0 skip) but still makes its column prunable."""
    graph = grid2d(9, 9, seed=4)
    L = subgraph_factor(graph, 0.3, seed=4).tocoo()
    n = L.shape[0]
    below = np.flatnonzero(L.row > L.col)
    vals = L.data.copy()
    vals[below[::3]] = 0.0
    # Zeros also at positions outside the factor's fill pattern.
    extra_rows = np.arange(2, n, 5)
    extra_cols = extra_rows - 2
    Lz = sp.csc_matrix(
        (np.concatenate([vals, np.zeros(len(extra_rows))]),
         (np.concatenate([L.row, extra_rows]),
          np.concatenate([L.col, extra_cols]))),
        shape=(n, n),
    )
    Lz.sort_indices()
    assert (Lz.data == 0.0).sum() > 0
    for delta in DELTAS:
        for keep_threshold in KEEP + [0]:
            assert_parity(Lz, delta=delta, keep_threshold=keep_threshold)


@pytest.mark.parametrize("n", [0, 1])
def test_trivial_sizes(n):
    L = sp.csc_matrix(2.0 * np.eye(n))
    for keep_threshold in KEEP + [0]:
        Z = assert_parity(L, keep_threshold=keep_threshold)
        assert Z.shape == (n, n)
        assert Z.nnz == n


def test_levels_wider_than_the_gather_cap():
    """A level split into several passes builds the same columns."""
    graph = make_family_graph("mesh", 300, seed=2)
    L = subgraph_factor(graph, 0.2, seed=2)
    for cap in (1, 50, 400):
        with mock.patch.object(spai, "SPAI_GATHER_CAP", cap):
            assert_parity(L, delta=0.1)
            assert_parity(L, delta=0.0, keep_threshold=10**9)


@given(
    n=st.integers(1, 25),
    seed=st.integers(0, 2**16),
    defects=st.lists(
        st.tuples(st.integers(0, 24),
                  st.sampled_from(["missing", "above", "zero", "negative",
                                   "nan"])),
        min_size=1, max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_bad_diagonals_raise_the_same_error(n, seed, defects):
    """The error names the column the per-column loop stops at: the
    highest bad one, missing (or led by an entry above the diagonal)
    reported before nonpositive."""
    L = lower_factor(n, 0.3, [-1.0, -0.5], seed).tocoo()
    keep = np.ones(L.nnz, dtype=bool)
    above = []
    for column, kind in defects:
        j = column % n
        at = np.flatnonzero((L.row == L.col) & (L.col == j))
        if kind == "missing":
            keep[at] = False
        elif kind == "above":
            above += [j - 1] if j else []
        else:
            L.data[at] = {"zero": 0.0, "negative": -1.0, "nan": np.nan}[kind]
    above = np.asarray(above, dtype=np.int64)
    L = sp.csc_matrix(
        (np.concatenate([L.data[keep], np.full(len(above), -1.0)]),
         (np.concatenate([L.row[keep], above]),
          np.concatenate([L.col[keep], above + 1]))),
        shape=L.shape,
    )
    outcomes = []
    for fn in (sparse_approximate_inverse_reference,
               sparse_approximate_inverse):
        try:
            Z = fn(L)
        except FactorizationError as exc:
            outcomes.append(("error", str(exc)))
        else:
            outcomes.append(("ok", Z))
    (kind_ref, ref), (kind_new, new) = outcomes
    assert kind_ref == kind_new
    if kind_ref == "error":
        assert new == ref
    else:  # NaN diagonals pass the check (NaN <= 0 is False) in both.
        assert_same_bytes(new, ref)


def test_missing_diagonal_in_empty_column():
    L = sp.csc_matrix(np.array([[1.0, 0.0, 0.0],
                                [-0.5, 0.0, 0.0],
                                [0.0, 0.0, 1.0]]))
    for fn in (sparse_approximate_inverse_reference,
               sparse_approximate_inverse):
        with pytest.raises(FactorizationError,
                           match="missing diagonal in column 1"):
            fn(L)
