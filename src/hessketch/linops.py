"""Matrix-free linear operators, dense least-squares kernels, and operation counters.

The counters exist so that solvers can *prove* which primitive operations they
performed: every forward/transpose application and sketch application is
tallied, and the only way a solver increments ``dot_product_count`` is by
calling :func:`tracked_dot` / :func:`tracked_norm` explicitly.  Test-only
checks (adjoint consistency, oracles) use plain numpy and leave the counters
untouched.
"""

from __future__ import annotations

# the executor's module is loaded with this one, not by the first two-core
# apply, whose peak memory would then hold its 70 KB or so
import concurrent.futures.thread
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dormqr
from scipy.sparse import _sparsetools

__all__ = [
    "OpCounters",
    "LinearOperator",
    "RankDeficiencyError",
    "tracked_dot",
    "tracked_norm",
    "dense_qr_ls",
    "stacked_tikhonov_ls",
    "condition_number",
    "save_array",
    "run_blocks",
]

# Relative threshold on the R diagonal below which a pivoted QR is declared
# rank deficient.
RANK_TOL = 1e-14

# a sparse matrix's rows are cut into at most this many blocks of about
# equal nonzeros, which the caller and the helper thread take in turn.
# On tomography matrices (2 vCPUs, two rounds) 2, 4, 8 and 16 blocks were
# within 5% of each other at 1.76 million nonzeros, and 8 was within 2% of
# the fastest at 0.46 and 0.66 million
_SPMV_BLOCKS = 8

# a sparse matrix with fewer nonzeros is applied inline and starts no
# thread: the handoff to the helper costs 55-100 us, so the split lost at
# 0.22 million nonzeros (172-292 against 148-255 us inline) and won at
# 0.46 million (267-418 against 369-499 us).  No benchmark workload has a
# sparse matrix this small: only tests and isolated timings reach this side
_SPMV_INLINE_NNZ = 1 << 18


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def _real(name, value):
    """``value`` as a float array; a complex one is refused by name, since
    the cast would drop its imaginary part."""
    value = np.asarray(value)
    if np.iscomplexobj(value):
        raise ValueError(f"{name} must be real; it has complex dtype {value.dtype}")
    return np.asarray(value, dtype=float)


def _checked_output(out, direction, length):
    out = np.asarray(out)
    if np.iscomplexobj(out):
        raise ValueError(f"operator {direction} returned complex values")
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
        for name in ("rows", "cols"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"operator {name} must be an integer, got {value!r}")
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
        x = _real("x", x)
        if x.shape != (self.cols,):
            raise ValueError(
                f"operator expects a vector of length {self.cols}, got shape {x.shape}"
            )
        self.counters.matvec_count += 1
        return _checked_output(self.forward(x), "forward", self.rows)

    def apply_transpose(self, y):
        """Return A.T @ y and count one transpose application."""
        y = _real("y", y)
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
        """Wrap a real dense array or scipy sparse matrix.

        A sparse matrix is applied on two cores.  Its CSR rows are cut
        into at most ``_SPMV_BLOCKS`` blocks of about equal nonzeros.  The
        caller and one helper thread take blocks from one iterator
        (:func:`run_blocks`), and each block is scipy's own ``csr_matvec``
        over a view of ``indptr`` into the whole matrix's ``indices`` and
        ``data``, never a copy, added to zeroed rows: every row is summed
        from 0.0 over the same entries in the same order, so the product
        is bit-identical to ``M @ x``.  The caller does not wait for the
        helper's last block: it computes that block again itself, into a
        copy of the result.  The helper is the process's one helper
        thread, which the sketch applies share too, started on first use
        (a forked child starts its own).  A matrix of under
        ``_SPMV_INLINE_NNZ`` nonzeros, of one block, or with data other
        than float64 is applied as ``M @ x`` inline and starts no thread.
        So is any input but a float64 ndarray vector of the input length:
        a wrong-length vector still raises scipy's ``ValueError``, and a
        2-D block gives the same product as before.  ``csr_matvec`` is
        private to scipy: the split needs its present signature,
        ``(n_row, n_col, indptr, indices, data, x, y)`` adding the rows'
        products to y, which ``tests/test_spmv.py`` checks.

        The transpose is applied the same way from a CSR copy of A^T:
        serving it from the CSC view of A instead saves the copy but took
        2.3-2.5 ms against 1.6-1.9 ms per apply on the 128-grid, 90-angle
        tomography matrix (one BLAS thread, 2-vCPU host).
        """
        if np.iscomplexobj(M):
            raise ValueError("matrix must be real; it has a complex dtype")
        if scipy.sparse.issparse(M):
            M = M.tocsr()
            forward, transpose = _RowBlocks(M), _RowBlocks(M.T.tocsr())
            return cls(M.shape[0], M.shape[1], forward, transpose)
        M = np.asarray(M, dtype=float)
        if M.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        return cls(M.shape[0], M.shape[1], lambda x: M @ x, lambda y: M.T @ y)

    @classmethod
    def identity(cls, n):
        return cls(n, n, lambda x: x.copy(), lambda y: y.copy())


def run_blocks(work, count, wait_for_helper=True):
    """Call ``work(blocks)`` on the caller and on the process's one helper
    thread (:func:`_helper_pool`), and return the blocks that a late
    helper still holds.

    Both threads take indices from one shared iterator over
    ``range(count)``, so each index is handed out once, to whichever
    thread asks first, and ``work`` computes each block it is handed into
    its rows of the result.  An exception on either thread drains the
    iterator, so the other takes no new index.  One on the caller is
    raised here, and so is one on the helper that comes before the caller
    has stopped waiting for it.

    Every two-core apply in the process, sparse or sketch, submits to the
    same helper, so this call's task may be queued behind another's.
    When the indices run out, a task the helper has not started is
    cancelled, so the caller never waits for another apply's work.  One
    that started is waited for, unless ``wait_for_helper`` is false: then
    the blocks it has not finished are returned at once.  Their rows are
    not computed and the helper may still be writing them, so the caller
    computes them again into a result of its own, and a helper whose core
    the host has descheduled delays the call by the one block it holds.
    When the helper is waited for, the list is empty.  An exception on
    the caller is raised without waiting: the helper may still finish its
    block into the result that the caller drops.
    """
    # a range iterator hands out each index once, whichever thread asks
    blocks = iter(range(count))
    # block i is in its rows; list items are set whole under the GIL
    done = [False] * count
    failed = []

    def marked(mine):
        for i in mine:
            yield i
            done[i] = True

    def helper():
        try:
            work(marked(blocks))
        except BaseException as exc:
            # recorded before the drain, so a caller that runs out of
            # indices because of it sees it
            failed.append(exc)
            _drain(blocks)
            raise

    # the caller claims the first index before the helper can ask, so a
    # helper that starts at once and is fast still leaves it a share
    first = list(islice(blocks, 1))
    future = _helper_pool().submit(helper)
    try:
        work(marked(chain(first, blocks)))
    except BaseException:
        _drain(blocks)
        raise
    if not future.cancel() and wait_for_helper:
        concurrent.futures.wait((future,))
    if failed:
        raise failed[0]
    return [i for i in range(count) if not done[i]]


def _drain(blocks):
    # takes every index left, so the other thread is handed no new one
    deque(blocks, maxlen=0)


_helper = None
_helper_lock = threading.Lock()


def _helper_pool():
    """The one helper thread that every two-core apply shares, sparse and
    sketch alike, started on first use; an executor per apply costs a
    thread start each time."""
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="hessketch-helper"
            )
        return _helper


def _forget_helper():
    # a forked child has no helper thread, and its copy of the parent's
    # executor would queue work that never runs: it starts its own
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


class _RowBlocks:
    """The product ``M @ x`` of a CSR matrix, in row blocks of about equal
    nonzeros shared with the helper thread (see
    :meth:`LinearOperator.from_matrix`)."""

    def __init__(self, M):
        self.matrix = M
        m = M.shape[0]
        cuts = np.searchsorted(M.indptr, np.arange(1, _SPMV_BLOCKS) * (M.nnz / _SPMV_BLOCKS))
        # block i is rows bounds[i]:bounds[i + 1]; a block ends where its
        # share of the nonzeros does, and empty ones collapse
        self.bounds = np.unique(np.concatenate([[0], cuts.clip(0, m), [m]]))
        # csr_matvec would convert data of another dtype on every block
        self.inline = (
            M.dtype != np.float64 or M.nnz < _SPMV_INLINE_NNZ or len(self.bounds) < 3
        )

    def __call__(self, x):
        M, bounds = self.matrix, self.bounds
        if (
            self.inline
            or x.__class__ is not np.ndarray
            or x.dtype != np.float64
            or x.shape != (M.shape[1],)
        ):
            return M @ x
        # a strided x is copied once here, not by csr_matvec for each block
        x = np.ascontiguousarray(x)
        out = np.zeros(M.shape[0])
        # the caller does not wait for the helper's last block but computes
        # it again: that costs about what the wait did on a quiet host, and
        # it never sleeps through the time the host takes to give a
        # descheduled helper's core back
        late = run_blocks(
            lambda blocks: self._add(x, out, blocks), len(bounds) - 1, wait_for_helper=False,
        )
        if not late:
            return out
        # the late helper may still be adding to their rows of out
        own = out.copy()
        for i in late:
            own[bounds[i] : bounds[i + 1]] = 0.0
        self._add(x, own, late)
        return own

    def _add(self, x, out, blocks):
        M, bounds = self.matrix, self.bounds
        for i in blocks:
            a, b = bounds[i], bounds[i + 1]
            # the block's slice of indptr indexes M's own indices and data,
            # so no array is copied; csr_matvec adds to out's rows a:b
            _sparsetools.csr_matvec(
                b - a, M.shape[1], M.indptr[a : b + 1], M.indices, M.data, x, out[a:b]
            )


def tracked_dot(counters, x, y):
    """Inner products x . y, or x.T @ y (one GEMV) for a 2-D block x.

    Each inner product charges one unit to ``dot_product_count``, so a
    block of b columns charges b.  Only the reference solvers (GMRES, LSQR)
    call this; the Hessenberg-based solvers never do, which is what their
    zero dot counts certify.
    """
    block = np.ndim(x) == 2
    counters.dot_product_count += x.shape[1] if block else 1
    return x.T @ y if block else float(np.dot(x, y))


def tracked_norm(counters, x):
    # a Euclidean norm costs one inner product
    counters.dot_product_count += 1
    return float(np.linalg.norm(x))


def dense_qr_ls(M, rhs):
    """Solve min_y ||M y - rhs||_2 for a small dense M via pivoted QR.

    No Q is formed: the column-pivoted QR M P = Q R is kept in LAPACK's
    Householder form (``scipy.linalg.qr(..., mode="raw")``, the same
    ``dgeqp3`` as the economic QR, so R's diagonal, the pivots and the
    rank decision are the same bits), and ``dormqr`` applies Q^T to rhs
    from it.  R y_P = (Q^T rhs)[:k] is then one back substitution.

    Parameters
    ----------
    M : (l, k) array with l >= k
    rhs : (l,) array

    Returns
    -------
    (k,) array, the least-squares minimizer.

    Raises
    ------
    ValueError
        If M or rhs is complex or holds NaN or inf; the message names which.
    RankDeficiencyError
        If the smallest |R| diagonal falls below ``RANK_TOL`` times the
        largest; the exception carries the detected numerical rank.
    """
    M = _real("M", M)
    rhs = _real("rhs", rhs)
    if M.ndim != 2:
        raise ValueError("M must be 2-D")
    l, k = M.shape
    if l < k:
        raise ValueError(f"need at least as many rows as columns, got {M.shape}")
    if rhs.shape != (l,):
        raise ValueError(f"rhs must have length {l}, got shape {rhs.shape}")
    for name, value in (("M", M), ("rhs", rhs)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite; it contains NaN or inf")

    (house, tau), R, piv = scipy.linalg.qr(
        M, mode="raw", pivoting=True, check_finite=False
    )
    diag = np.abs(np.diag(R))
    largest = diag.max() if k else 0.0
    if largest == 0.0 or diag.min() < RANK_TOL * largest:
        rank = int(np.count_nonzero(diag >= RANK_TOL * largest)) if largest else 0
        raise RankDeficiencyError(
            f"matrix is numerically rank deficient (rank {rank} of {k})", rank
        )
    # Q^T rhs from the reflectors; one column needs no blocked workspace
    qt_rhs, _, info = dormqr("L", "T", house, tau, rhs[:, None], 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dormqr failed with info {info}")
    y_perm = scipy.linalg.solve_triangular(R, qt_rhs[:k, 0], check_finite=False)
    y = np.empty(k)
    y[piv] = y_perm
    return y


def stacked_tikhonov_ls(M, N, rhs, lam):
    """Solve min_y ||M y - rhs||^2 + lam^2 ||N y||^2.

    Computed by pivoted QR on the vertically stacked system
    ``[[M], [lam * N]]`` with right-hand side ``[rhs, 0]``.  With ``lam == 0``
    this takes exactly the :func:`dense_qr_ls` path, so the reduction is
    bit-for-bit.  A NaN or inf ``lam`` or ``N`` is rejected by name.
    """
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return dense_qr_ls(M, rhs)
    M = _real("M", M)
    N = _real("N", N)
    rhs = _real("rhs", rhs)
    if N.shape[1] != M.shape[1]:
        raise ValueError("M and N must have the same number of columns")
    if not np.isfinite(N).all():
        raise ValueError("N must be finite; it contains NaN or inf")
    stacked = np.vstack([M, lam * N])
    stacked_rhs = np.concatenate([rhs, np.zeros(N.shape[0])])
    return dense_qr_ls(stacked, stacked_rhs)


def condition_number(*spectra):
    """sigma_max / sigma_min over one or more arrays of singular values.

    Several arrays stand for the block-diagonal matrix of tall blocks with
    those singular values: its own are their union, so its condition
    number needs neither the block-diagonal copy nor its SVD.  Returns
    ``inf`` when the smallest value underflows (below 1e-300).  Raises when
    every value is zero.
    """
    s = np.concatenate(spectra)
    if s.max() == 0.0:
        raise ValueError("condition number of the zero matrix is undefined")
    if s.min() < 1e-300:
        return np.inf
    return float(s.max() / s.min())


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
