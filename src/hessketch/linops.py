"""Matrix-free linear operators, dense least-squares kernels, and operation counters.

The counters exist so that solvers can *prove* which primitive operations they
performed: every forward/transpose application and sketch application is
tallied, and the only way a solver increments ``dot_product_count`` is by
calling :func:`tracked_dot` / :func:`tracked_norm` explicitly.  Test-only
checks (adjoint consistency, oracles) use plain numpy and leave the counters
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse

__all__ = [
    "OpCounters",
    "LinearOperator",
    "RankDeficiencyError",
    "tracked_dot",
    "tracked_norm",
    "dense_qr_ls",
    "stacked_tikhonov_ls",
    "spectral_condition_number",
    "save_array",
    "load_array",
    "load_operator",
]

# Relative threshold on the R diagonal below which a pivoted QR is declared
# rank deficient.
RANK_TOL = 1e-14


class RankDeficiencyError(np.linalg.LinAlgError):
    """Raised when a dense least-squares matrix is numerically rank deficient.

    Attributes
    ----------
    rank : int
        Numerical rank detected from the pivoted-QR diagonal.
    """

    def __init__(self, message, rank):
        super().__init__(message)
        self.rank = rank


@dataclass
class OpCounters:
    """Tallies of the operations performed during a solve."""

    matvec_count: int = 0
    transpose_matvec_count: int = 0
    dot_product_count: int = 0
    sketch_apply_count: int = 0

    def snapshot(self):
        return (
            self.matvec_count,
            self.transpose_matvec_count,
            self.dot_product_count,
            self.sketch_apply_count,
        )


def _checked_output(out, direction, length):
    out = np.asarray(out, dtype=float)
    if out.shape != (length,):
        raise ValueError(
            f"operator {direction} returned shape {out.shape}, expected ({length},)"
        )
    if not np.isfinite(out).all():
        raise ValueError(f"operator {direction} returned NaN or inf")
    return out


@dataclass
class LinearOperator:
    """A real m-by-n linear map accessed only through its action on vectors.

    Parameters
    ----------
    rows, cols : int
        Output and input dimensions (m and n).
    forward : callable
        Maps an n-vector to an m-vector.  Must be linear.
    transpose : callable
        Maps an m-vector to an n-vector; the adjoint of ``forward``.
    counters : OpCounters
        Mutable tally updated by :meth:`apply` / :meth:`apply_transpose`.
        Direct calls to ``forward`` / ``transpose`` bypass the tally and are
        reserved for diagnostics and tests.
    """

    rows: int
    cols: int
    forward: object
    transpose: object
    counters: OpCounters = field(default_factory=OpCounters)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("operator dimensions must be positive")

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_square(self):
        return self.rows == self.cols

    def apply(self, x):
        """Return A @ x and count one forward application."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.cols,):
            raise ValueError(
                f"operator expects a vector of length {self.cols}, got shape {x.shape}"
            )
        self.counters.matvec_count += 1
        return _checked_output(self.forward(x), "forward", self.rows)

    def apply_transpose(self, y):
        """Return A.T @ y and count one transpose application."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.rows,):
            raise ValueError(
                f"operator transpose expects a vector of length {self.rows}, got shape {y.shape}"
            )
        self.counters.transpose_matvec_count += 1
        return _checked_output(self.transpose(y), "transpose", self.cols)

    def with_fresh_counters(self):
        """A view of the same map with a new, zeroed counter object.

        Solvers call this on entry so their traces report per-solve counts
        even when one operator is shared by several solves.
        """
        return LinearOperator(self.rows, self.cols, self.forward, self.transpose)

    @classmethod
    def from_matrix(cls, M):
        """Wrap a dense array or scipy sparse matrix."""
        if scipy.sparse.issparse(M):
            M = M.tocsr()
            Mt = M.T.tocsr()
            return cls(M.shape[0], M.shape[1], lambda x: M @ x, lambda y: Mt @ y)
        M = np.asarray(M, dtype=float)
        if M.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        return cls(M.shape[0], M.shape[1], lambda x: M @ x, lambda y: M.T @ y)

    @classmethod
    def identity(cls, n):
        return cls(n, n, lambda x: x.copy(), lambda y: y.copy())


def tracked_dot(counters, x, y):
    """Inner product that charges one unit to ``dot_product_count``.

    Only the reference solvers (GMRES, LSQR) call this; the Hessenberg-based
    solvers never do, which is what their zero dot counts certify.
    """
    counters.dot_product_count += 1
    return float(np.dot(x, y))


def tracked_norm(counters, x):
    # a Euclidean norm costs one inner product
    counters.dot_product_count += 1
    return float(np.linalg.norm(x))


def dense_qr_ls(M, rhs):
    """Solve min_y ||M y - rhs||_2 for a small dense M via pivoted QR.

    Parameters
    ----------
    M : (l, k) array with l >= k
    rhs : (l,) array

    Returns
    -------
    (k,) array, the least-squares minimizer.

    Raises
    ------
    RankDeficiencyError
        If the smallest |R| diagonal falls below ``RANK_TOL`` times the
        largest; the exception carries the detected numerical rank.
    """
    M = np.asarray(M, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if M.ndim != 2:
        raise ValueError("M must be 2-D")
    l, k = M.shape
    if l < k:
        raise ValueError(f"need at least as many rows as columns, got {M.shape}")
    if rhs.shape != (l,):
        raise ValueError(f"rhs must have length {l}, got shape {rhs.shape}")

    Q, R, piv = scipy.linalg.qr(M, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    largest = diag.max() if k else 0.0
    if largest == 0.0 or diag.min() < RANK_TOL * largest:
        rank = int(np.count_nonzero(diag >= RANK_TOL * largest)) if largest else 0
        raise RankDeficiencyError(
            f"matrix is numerically rank deficient (rank {rank} of {k})", rank
        )
    y_perm = scipy.linalg.solve_triangular(R, Q.T @ rhs)
    y = np.empty(k)
    y[piv] = y_perm
    return y


def stacked_tikhonov_ls(M, N, rhs, lam):
    """Solve min_y ||M y - rhs||^2 + lam^2 ||N y||^2.

    Computed by pivoted QR on the vertically stacked system
    ``[[M], [lam * N]]`` with right-hand side ``[rhs, 0]``.  With ``lam == 0``
    this takes exactly the :func:`dense_qr_ls` path, so the reduction is
    bit-for-bit.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return dense_qr_ls(M, rhs)
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if N.shape[1] != M.shape[1]:
        raise ValueError("M and N must have the same number of columns")
    stacked = np.vstack([M, lam * N])
    stacked_rhs = np.concatenate([rhs, np.zeros(N.shape[0])])
    return dense_qr_ls(stacked, stacked_rhs)


def spectral_condition_number(M):
    """sigma_max / sigma_min of a dense matrix, by SVD.

    Returns ``inf`` when the smallest singular value underflows (below
    1e-300).  Raises on an empty or identically zero matrix.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("expected a nonempty 2-D matrix")
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        raise ValueError("condition number of the zero matrix is undefined")
    if s[-1] < 1e-300:
        return np.inf
    return float(s[0] / s[-1])


def save_array(path, arr):
    """Write a dense vector or matrix in MatrixMarket array format.

    The file object is opened here so the path is used verbatim (mmwrite
    appends ``.mtx`` to names it does not recognize).
    """
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, arr)


def load_array(path):
    """Read a MatrixMarket file into a dense array; vectors come back 1-D."""
    with open(path, "rb") as fh:
        arr = scipy.io.mmread(fh)
    if scipy.sparse.issparse(arr):
        arr = arr.toarray()
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 1:
        return arr[:, 0].copy()
    return arr


def load_operator(path):
    """Build a LinearOperator from a MatrixMarket file.

    Coordinate-format files become sparse operators; array-format files
    become dense ones.
    """
    with open(path, "rb") as fh:
        M = scipy.io.mmread(fh)
    return LinearOperator.from_matrix(M)
