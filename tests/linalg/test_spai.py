"""Tests for Algorithm 1 (sparse approximate inverse of the Cholesky factor)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FactorizationError
from repro.graph import grid2d, regularization_shift, regularized_laplacian
from repro.linalg import cholesky, sparse_approximate_inverse
from repro.linalg.spai import (
    sparse_approximate_inverse_reference,
    spai_nnz_profile,
)


@pytest.fixture(scope="module")
def factor(small_grid_for_spai=None):
    g = grid2d(10, 10, seed=21)
    shift = regularization_shift(g, 1e-4)
    return cholesky(regularized_laplacian(g, shift))


def test_exact_when_unpruned(factor):
    Z = sparse_approximate_inverse(factor.L, delta=0.0, keep_threshold=10**9)
    expected = np.linalg.inv(factor.L.toarray())
    np.testing.assert_allclose(Z.toarray(), expected, atol=1e-10)


def test_lower_triangular_and_nonnegative(factor):
    """Proposition 1: Z = L^-1 is lower triangular with entries >= 0."""
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    coo = Z.tocoo()
    assert (coo.row >= coo.col).all()
    assert (coo.data >= 0).all()


def test_pruning_reduces_nnz(factor):
    full = sparse_approximate_inverse(factor.L, delta=0.0, keep_threshold=10**9)
    pruned = sparse_approximate_inverse(factor.L, delta=0.1)
    assert pruned.nnz < full.nnz


def test_monotone_in_delta(factor):
    profile = spai_nnz_profile(factor.L, [0.02, 0.05, 0.1, 0.3])
    assert profile == sorted(profile, reverse=True)


def test_pruned_columns_keep_the_floor(factor):
    """Every column keeps at least ``min(keep_threshold, unpruned
    support)`` entries, all inside that support -- but not necessarily
    its diagonal, which the ``delta`` cut can drop like any entry."""
    L = factor.L.tocsc()
    keep = max(1, int(np.ceil(np.log(factor.n))))
    Z = sparse_approximate_inverse(L, delta=0.1)
    reference = sparse_approximate_inverse_reference(L, delta=0.1)
    assert Z.indptr.tobytes() == reference.indptr.tobytes()
    assert Z.indices.tobytes() == reference.indices.tobytes()
    assert Z.data.tobytes() == reference.data.tobytes()
    dropped_diagonals = 0
    for j in range(factor.n):
        rows = set(Z.indices[Z.indptr[j]:Z.indptr[j + 1]].tolist())
        # Unpruned support: j plus the kept rows of every column read.
        support = {j}
        for i in L.indices[L.indptr[j] + 1:L.indptr[j + 1]]:
            support.update(Z.indices[Z.indptr[i]:Z.indptr[i + 1]].tolist())
        assert rows <= support
        assert len(rows) >= min(keep, len(support))
        dropped_diagonals += j not in rows
    assert dropped_diagonals > 0


def test_small_columns_kept_exactly(factor):
    """Columns with <= log n entries are not pruned (Alg. 1, line 3)."""
    n = factor.n
    exact = np.linalg.inv(factor.L.toarray())
    Z = sparse_approximate_inverse(factor.L, delta=0.99)
    keep = max(1, int(np.ceil(np.log(n))))
    for j in range(n - 1, -1, -1):
        col_exact = exact[:, j]
        nnz_exact = int(np.sum(np.abs(col_exact) > 0))
        if nnz_exact <= keep:
            col = Z[:, j].toarray().ravel()
            np.testing.assert_allclose(col, col_exact, atol=1e-10)
        else:
            break  # earlier columns depend on pruned later ones


def test_error_bound_eq19(factor):
    """Eq. (19): column errors do not amplify through the recurrence.

    If every previously computed column has error <= eps, the new
    unpruned column z*_j also has error <= eps.  We verify the global
    consequence: max column error of Z~ <= max *pruning* error injected
    at any single column.
    """
    L = factor.L
    delta = 0.1
    Z = sparse_approximate_inverse(L, delta=delta)
    exact = np.linalg.inv(L.toarray())
    col_errors = np.linalg.norm(Z.toarray() - exact, axis=0)
    # The pruning step drops entries < delta * max of a nonnegative
    # column whose max is <= max(Z) — bound the injected error.
    injected = []
    dense_z = Z.toarray()
    for j in range(factor.n):
        col = dense_z[:, j]
        maximum = col.max() if col.max() > 0 else 0.0
        injected.append(delta * maximum * np.sqrt(factor.n))
    assert col_errors.max() <= max(injected) + 1e-9


def test_approximation_quality_at_default_delta(factor):
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    exact = np.linalg.inv(factor.L.toarray())
    rel = np.abs(Z.toarray() - exact).max() / np.abs(exact).max()
    assert rel < 0.25


def test_applies_spd_inverse_roughly(factor):
    """Z~ Z~^T approximates (L L^T)^{-1} in action."""
    Z = sparse_approximate_inverse(factor.L, delta=0.05)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(factor.n)
    approx = Z.T @ (Z @ b)
    A = (factor.L @ factor.L.T).toarray()
    exact = np.linalg.solve(A, b)
    cos = approx @ exact / (np.linalg.norm(approx) * np.linalg.norm(exact))
    assert cos > 0.98


def test_rejects_bad_delta(factor):
    with pytest.raises(ValueError):
        sparse_approximate_inverse(factor.L, delta=1.0)
    with pytest.raises(ValueError):
        sparse_approximate_inverse(factor.L, delta=-0.1)


@pytest.mark.parametrize("keep_threshold", [2.5, -1, True, "3", 3.0])
def test_rejects_bad_keep_threshold(factor, keep_threshold):
    """Rejected up front, not on the first column that hits the floor."""
    for fn in (sparse_approximate_inverse,
               sparse_approximate_inverse_reference):
        with pytest.raises(ValueError, match="keep_threshold"):
            fn(factor.L, keep_threshold=keep_threshold)


def test_accepts_numpy_integer_keep_threshold(factor):
    Z = sparse_approximate_inverse(factor.L, keep_threshold=np.int64(3))
    expected = sparse_approximate_inverse(factor.L, keep_threshold=3)
    assert Z.data.tobytes() == expected.data.tobytes()
    assert sparse_approximate_inverse(factor.L, keep_threshold=0).nnz > 0


def test_rejects_missing_diagonal():
    L = sp.csc_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(FactorizationError):
        sparse_approximate_inverse(L)


def test_identity_factor():
    Z = sparse_approximate_inverse(sp.eye(6, format="csc"))
    np.testing.assert_allclose(Z.toarray(), np.eye(6))


@given(seed=st.integers(0, 30), delta=st.sampled_from([0.0, 0.05, 0.2]))
@settings(max_examples=12, deadline=None)
def test_random_grids_nonneg_lower(seed, delta):
    g = grid2d(5, 5, seed=seed)
    shift = regularization_shift(g, 1e-3)
    f = cholesky(regularized_laplacian(g, shift))
    Z = sparse_approximate_inverse(f.L, delta=delta)
    coo = Z.tocoo()
    assert (coo.data >= -1e-12).all()
    assert (coo.row >= coo.col).all()
