import re

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from hessketch.linops import (
    LinearOperator,
    OpCounters,
    RankDeficiencyError,
    condition_number,
    dense_qr_ls,
    save_array,
    stacked_tikhonov_ls,
    tracked_dot,
    tracked_norm,
)


def test_forward_small_example():
    A = LinearOperator.from_matrix([[1.0, 2.0], [3.0, 4.0]])
    out = A.apply(np.array([1.0, 1.0]))
    assert np.array_equal(out, [3.0, 7.0])


def test_transpose_small_example():
    A = LinearOperator.from_matrix([[1.0, 2.0], [3.0, 4.0]])
    out = A.apply_transpose(np.array([1.0, 1.0]))
    assert np.array_equal(out, [4.0, 6.0])


def test_rectangular_shapes():
    M = np.arange(12, dtype=float).reshape(3, 4)
    A = LinearOperator.from_matrix(M)
    assert A.shape == (3, 4)
    assert not A.is_square
    x = np.ones(4)
    assert np.allclose(A.apply(x), M @ x)
    y = np.ones(3)
    assert np.allclose(A.apply_transpose(y), M.T @ y)


def test_adjoint_consistency_random():
    # <Ax, y> == <x, A^T y> for the matrix-backed operator
    rng = np.random.default_rng(7)
    M = rng.standard_normal((6, 4))
    A = LinearOperator.from_matrix(M)
    for _ in range(5):
        x = rng.standard_normal(4)
        y = rng.standard_normal(6)
        lhs = np.dot(A.apply(x), y)
        rhs = np.dot(x, A.apply_transpose(y))
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


def test_dimension_mismatch_raises():
    A = LinearOperator.from_matrix(np.ones((3, 2)))
    with pytest.raises(ValueError):
        A.apply(np.ones(3))
    with pytest.raises(ValueError):
        A.apply_transpose(np.ones(2))


def test_counters_increment_only_on_counted_calls():
    A = LinearOperator.from_matrix(np.eye(3))
    A.apply(np.ones(3))
    A.apply(np.ones(3))
    A.apply_transpose(np.ones(3))
    assert A.counters.matvec_count == 2
    assert A.counters.transpose_matvec_count == 1
    assert A.counters.dot_product_count == 0
    # raw access is the uncounted path
    A.forward(np.ones(3))
    assert A.counters.matvec_count == 2


def test_with_fresh_counters_shares_action():
    A = LinearOperator.from_matrix(np.diag([2.0, 3.0]))
    A.apply(np.ones(2))
    B = A.with_fresh_counters()
    assert B.counters.matvec_count == 0
    assert np.array_equal(B.apply(np.ones(2)), [2.0, 3.0])
    assert A.counters.matvec_count == 1
    assert B.counters.matvec_count == 1


def test_tracked_dot_and_norm_count():
    c = OpCounters()
    v = np.array([3.0, 4.0])
    assert tracked_dot(c, v, v) == 25.0
    assert tracked_norm(c, v) == 5.0
    assert c.dot_product_count == 2
    # a block is one GEMV that charges one inner product per column; it and
    # the column-wise dots each err by at most gamma_4 |X|^T |y| (Higham,
    # Accuracy and Stability, sec. 3.1), and 2 gamma_4 < 1e-15
    rng = np.random.default_rng(8)
    X, y = rng.standard_normal((4, 6)), rng.standard_normal(4)
    block = tracked_dot(c, X, y)
    assert c.dot_product_count == 2 + 6
    columns = np.array([tracked_dot(OpCounters(), X[:, j], y) for j in range(6)])
    assert np.all(np.abs(block - columns) <= 1e-15 * (np.abs(X).T @ np.abs(y)))


def test_ls_mean_of_two_points():
    # min over y of (y-1)^2 + (y-3)^2 has the closed form (1+3)/2
    y = dense_qr_ls(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    assert np.allclose(y, [2.0])


def test_ls_matches_normal_equations():
    M = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rhs = np.array([1.0, 2.0, 0.0])
    y = dense_qr_ls(M, rhs)
    # independent route: solve the 2x2 normal equations directly
    y_ref = np.linalg.solve(M.T @ M, M.T @ rhs)
    assert np.allclose(y, y_ref, atol=1e-12)


def test_ls_random_rectangular_normal_equations():
    rng = np.random.default_rng(21)
    for _ in range(5):
        M = rng.standard_normal((9, 4))
        rhs = rng.standard_normal(9)
        y = dense_qr_ls(M, rhs)
        y_ref = np.linalg.solve(M.T @ M, M.T @ rhs)
        assert np.allclose(y, y_ref, atol=1e-10)


def test_ls_square_exact():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    rhs = rng.standard_normal(5)
    y = dense_qr_ls(M, rhs)
    assert np.allclose(M @ y, rhs, atol=1e-10)


def test_ls_rank_deficient_raises_with_rank():
    M = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(RankDeficiencyError) as exc:
        dense_qr_ls(M, np.array([1.0, 2.0, 3.0]))
    assert exc.value.rank == 1


def test_ls_underdetermined_rejected():
    with pytest.raises(ValueError):
        dense_qr_ls(np.ones((2, 3)), np.ones(2))


def test_tikhonov_scalar_closed_form():
    # min (y-1)^2 + lam^2 y^2  =>  y = 1/(1+lam^2); lam=1 gives 0.5
    M = np.array([[1.0]])
    N = np.array([[1.0]])
    y = stacked_tikhonov_ls(M, N, np.array([1.0]), 1.0)
    assert np.allclose(y, [0.5], atol=1e-14)
    y = stacked_tikhonov_ls(M, N, np.array([1.0]), 2.0)
    assert np.allclose(y, [1.0 / 5.0], atol=1e-14)


def test_tikhonov_matches_regularized_normal_equations():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((8, 3))
    N = rng.standard_normal((4, 3))
    rhs = rng.standard_normal(8)
    lam = 0.7
    y = stacked_tikhonov_ls(M, N, rhs, lam)
    y_ref = np.linalg.solve(M.T @ M + lam**2 * (N.T @ N), M.T @ rhs)
    assert np.allclose(y, y_ref, atol=1e-10)


def test_tikhonov_zero_lam_is_bitwise_plain_ls():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 3))
    rhs = rng.standard_normal(6)
    y0 = stacked_tikhonov_ls(M, np.eye(3), rhs, 0.0)
    y1 = dense_qr_ls(M, rhs)
    assert np.array_equal(y0, y1)


def test_tikhonov_regularizes_rank_deficiency():
    # plain LS fails on a rank-1 matrix, the damped problem is fine
    M = np.array([[1.0, 1.0], [2.0, 2.0]])
    rhs = np.array([1.0, 2.0])
    with pytest.raises(RankDeficiencyError):
        dense_qr_ls(M, rhs)
    y = stacked_tikhonov_ls(M, np.eye(2), rhs, 0.5)
    y_ref = np.linalg.solve(M.T @ M + 0.25 * np.eye(2), M.T @ rhs)
    assert np.allclose(y, y_ref, atol=1e-12)


def test_tikhonov_negative_lam_rejected():
    with pytest.raises(ValueError):
        stacked_tikhonov_ls(np.eye(2), np.eye(2), np.ones(2), -1.0)


def spectral_condition_number(M):
    # sigma_max / sigma_min of a dense matrix, from its SVD
    return condition_number(np.linalg.svd(M, compute_uv=False))


def test_condition_number_diagonal():
    assert spectral_condition_number(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    assert spectral_condition_number(np.eye(4)) == pytest.approx(1.0)


def test_condition_number_constructed_svd():
    # build a matrix with known singular values through explicit factors
    rng = np.random.default_rng(13)
    U, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    s = np.array([10.0, 5.0, 2.0, 0.5])
    M = U[:, :4] @ np.diag(s) @ V.T
    assert spectral_condition_number(M) == pytest.approx(20.0, rel=1e-10)


def test_condition_number_singular_is_inf():
    M = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert spectral_condition_number(M) == np.inf


def test_condition_number_zero_matrix_rejected():
    with pytest.raises(ValueError):
        spectral_condition_number(np.zeros((2, 2)))


def test_matrixmarket_roundtrip_vector(tmp_path):
    v = np.array([1.5, -2.25, 0.0, 7.0])
    p = tmp_path / "v.mm"
    save_array(p, v)
    assert np.array_equal(scipy.io.mmread(p), v[:, None])


def test_matrixmarket_roundtrip_matrix(tmp_path):
    rng = np.random.default_rng(2)
    M = rng.standard_normal((3, 5))
    p = tmp_path / "m.mm"
    save_array(p, M)
    assert np.allclose(scipy.io.mmread(p), M)


@pytest.mark.parametrize(
    "M",
    [
        1j * np.eye(2),
        np.eye(2, dtype=np.complex64),
        scipy.sparse.csr_matrix(1j * np.eye(2)),
    ],
    ids=["dense", "dense64", "sparse"],
)
def test_complex_matrix_rejected(M):
    # casting would drop the imaginary part and wrap another operator
    with pytest.raises(ValueError, match="^matrix must be real"):
        LinearOperator.from_matrix(M)


@pytest.mark.parametrize(
    "rows, cols, message",
    [
        (2.5, 3, "operator rows must be an integer, got 2.5"),
        (2, 3.0, "operator cols must be an integer, got 3.0"),
        (True, 3, "operator rows must be an integer, got True"),
    ],
)
def test_operator_dimensions_must_be_integers(rows, cols, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LinearOperator(rows, cols, lambda x: x, lambda y: y)
    assert LinearOperator(np.int64(2), 3, lambda x: x, lambda y: y).shape == (2, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ls_names_the_non_finite_input(bad):
    # checked before the QR, so a NaN never reaches LAPACK, which would
    # return NaN silently without scipy's own check
    M, rhs = np.eye(3), np.ones(3)
    with pytest.raises(ValueError, match="^M must be finite"):
        dense_qr_ls(np.where(np.eye(3) == 1, bad, 0.0), rhs)
    with pytest.raises(ValueError, match="^rhs must be finite"):
        dense_qr_ls(M, np.array([1.0, bad, 1.0]))


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_tikhonov_rejects_non_finite_lam_by_name(lam):
    # NaN passes a lam < 0 test, so finiteness is checked on its own
    with pytest.raises(ValueError, match="^lam must be finite"):
        stacked_tikhonov_ls(np.eye(2), np.eye(2), np.ones(2), lam)


def test_tikhonov_names_a_non_finite_penalty():
    N = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^N must be finite"):
        stacked_tikhonov_ls(np.eye(2), N, np.ones(2), 0.5)
