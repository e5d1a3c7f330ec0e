"""Pivoted Hessenberg processes: inner-product-free Krylov basis construction.

Square operators get the classic process with partial pivoting: after k
steps it holds columns l_1..l_{k+1} and an upper Hessenberg H with

    A L_k = L_{k+1} H_{k+1,k},

where L is unit lower triangular once its rows are reordered by the pivot
permutation t.  Rectangular operators get the generalized process, which
grows a data-space basis D and a solution-space basis L simultaneously:

    A L_k = D_{k+1} H_{k+1,k},        A^T D_{k+1} = L_{k+1} W_{k+1},

with D unit lower triangular under t, L under g, and W upper triangular.
Both processes return a :class:`KrylovFactorization`, the state shape the
solver driver also gets from its Arnoldi and Golub-Kahan builders: the
data basis (L or D) is its ``U_cols``, the solution basis L its ``V_cols``;
each basis lives in one column-major array (a :class:`ColumnStore`).

A new column u is eliminated against the k it follows with one triangular
solve and one GEMV: its k coefficients c solve the unit lower triangular
system of its entries at the k pivot rows, and the remainder is u - L_k c.
Each row of L_k c is a length-k product of that row with c, which every
row holds, not a sum over the n entries of a vector, so the construction
performs no inner products; the counters on the operator certify that.
Pivots are chosen as the largest-magnitude entry over the not-yet-pivoted
positions, either over all of them (full) or over a random subset redrawn
each step (sampled).  A sampled subset can land entirely on zeros of a
nonzero vector; since a zero pivot is fatal, selection then falls back to
scanning the whole admissible set, and only an all-zero set signals
breakdown.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgemv, dtpsv

from .linops import _check_int, _is_integer, save_array

__all__ = [
    "PivotStrategy",
    "TrivialSolution",
    "ColumnStore",
    "KrylovFactorization",
    "pivot_select",
    "init_square",
    "step_square",
    "init_generalized",
    "step_generalized",
    "dump_factorization",
]


@dataclass(frozen=True)
class PivotStrategy:
    """How elimination pivots are chosen.

    kind "full" scans every admissible position; "sampled" scans a random
    subset of ``sample_size`` positions drawn without replacement, redrawn
    at every selection, from a generator seeded with ``seed``.
    """

    kind: str = "full"
    sample_size: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("full", "sampled"):
            raise ValueError(f"unknown pivot kind {self.kind!r}")
        # a full scan reads no sample size, but still refuses a negative one
        _check_int("pivot sample_size", self.sample_size, int(self.kind == "sampled"))
        _check_int("pivot seed", self.seed, 0)

    @classmethod
    def full(cls):
        return cls("full")

    @classmethod
    def sampled(cls, sample_size, seed=0):
        return cls("sampled", sample_size, seed)


_FULL = PivotStrategy.full()


class TrivialSolution(Exception):
    """The start vector already solves the problem; no iteration is needed.

    Raised by a builder's init when the initial residual is zero (square
    or rectangular) or when the initial transposed residual is zero
    (rectangular: the normal equations are already satisfied).  The
    message gives the reason; the solver driver returns the start vector.
    """


def pivot_select(v, admissible, strategy, rng=None):
    """Choose a pivot position for v among the admissible row indices.

    Returns ``(index, value)`` with ``value = v[index]`` signed.  Ties in
    magnitude are broken toward the smallest row index, so the result does
    not depend on the order the candidates are listed in.  A returned
    value of exactly 0 means every candidate was zero (breakdown signal);
    the index is then arbitrary.
    """

    admissible = np.asarray(admissible, dtype=int)
    if admissible.size == 0:
        raise ValueError("admissible index set is empty")
    if strategy.kind == "sampled" and strategy.sample_size < admissible.size:
        if rng is None:
            raise ValueError("sampled pivoting requires a random generator")
        admissible = rng.choice(admissible, size=strategy.sample_size, replace=False)
    else:
        # the first largest |entry| of all is the first max or min; if it is
        # admissible, none beats it (a remainder is 0 at its pivoted rows)
        idx = min((-abs(v[i]), i) for i in (int(np.argmax(v)), int(np.argmin(v))))[1]
        if v[idx] != 0.0 and idx in admissible:
            return idx, float(v[idx])
    vals = np.abs(v[admissible])
    top = vals.max()
    if top == 0.0:
        return int(admissible.min()), 0.0
    idx = int(admissible[vals == top].min())
    return idx, float(v[idx])


def _pivot_with_fallback(v, admissible, strategy, rng):
    # a sampled subset may miss every nonzero entry; rescan everything
    # before declaring breakdown, since dividing by a zero pivot is fatal
    idx, val = pivot_select(v, admissible, strategy, rng)
    if val == 0.0 and strategy.kind == "sampled":
        idx, val = pivot_select(v, admissible, _FULL)
    return idx, val


def _swap_to_position(perm, used, idx):
    pos = used + int(np.nonzero(perm[used:] == idx)[0][0])
    perm[used], perm[pos] = perm[pos], perm[used]


def _reduce(u, store, perm, tri, strategy, rng):
    """Eliminate u against the store's k columns at the pivots perm[:k],
    then pivot the rest.

    ``tri`` holds P, the unit lower triangle of the pivot rows
    (P[i, j] = l_j[perm[i]]), packed by rows: the column-major packed
    upper storage of P^T, so its first k(k+1)/2 entries are P_k.  The k
    coefficients c solve P_k c = u[perm[:k]], one triangular solve; the
    remainder u - L_k c is formed in the store's next column by one GEMV,
    and its pivoted rows are set to the exact zeros that unit
    triangularity asks for.  The pivot then divides in place, and its row
    of L (and a 1) is appended to P.  Returns the k+1 coefficients (the
    last is the new pivot value, 0 on breakdown), whether the column was
    added (not when no nonzero entry is left or the basis spans the whole
    space), and P, reallocated when it had no room for the new row.
    """
    k = len(store)
    h = np.empty(k + 1)
    # u may be an operator's output, which is never written
    col = store._slot()
    col[:] = u
    del u
    if k:
        pivots = perm[:k]
        h[:k] = dtpsv(k, tri, col[pivots], trans=1, diag=1, overwrite_x=1)
        dgemv(-1.0, store.matrix(k), h[:k], beta=1.0, y=col, overwrite_y=1)
        col[pivots] = 0.0
    if k < col.size:
        idx, val = _pivot_with_fallback(col, perm[k:], strategy, rng)
    else:
        val = 0.0
    h[k] = val
    if val == 0.0:
        return h, False, tri
    _swap_to_position(perm, k, idx)
    col /= val
    end = (k + 1) * (k + 2) // 2
    if tri.size < end:
        # room for as many rows as the store has columns; keeps P_k
        tri = np.resize(tri, store.capacity * (store.capacity + 1) // 2)
    tri[end - k - 1 : end - 1] = store.matrix(k)[idx]
    tri[end - 1] = 1.0
    store._commit()
    return h, True, tri


def _pivoted_start(r0, store, strategy):
    # reduce r0 into the empty store; its scale beta, its pivots, the
    # packed triangle of its pivot rows (grown from empty) and the sampling
    # generator; TrivialSolution if r0 = 0
    rng = np.random.default_rng(strategy.seed) if strategy.kind == "sampled" else None
    t = np.arange(r0.size)
    h, added, tri = _reduce(r0, store, t, np.empty(0), strategy, rng)
    if not added:
        raise TrivialSolution("initial residual is zero; starting point is exact")
    return h[0], t, tri, rng


class ColumnStore(Sequence):
    """Basis columns kept side by side in one Fortran-order array.

    Reads like a list of columns: ``len``, indexing, slicing (which gives a
    list), ``[-1]`` and iteration return read-only views into the array,
    never copies.  ``append`` writes the next column, of shape (rows,),
    into the next free slot, and ``matrix(k)`` is the first k columns
    (0 <= k <= len) as one (rows, k) view, ready for a single BLAS call.
    The Hessenberg builders build the next column in place instead.
    A store made without a ``capacity`` doubles it when full (earlier views
    stay valid, on the old array); the solver driver passes the most
    columns a solve can produce.
    """

    def __init__(self, rows, capacity=None):
        self._data = np.empty((rows, capacity or 16), order="F")
        self._views = []

    @classmethod
    def from_column(cls, column, capacity=None):
        store = cls(column.size, capacity)
        store.append(column)
        return store

    @property
    def capacity(self):
        """Columns the current array has room for."""
        return self._data.shape[1]

    def __len__(self):
        return len(self._views)

    def __getitem__(self, index):
        return self._views[index]

    def __iter__(self):
        return iter(self._views)

    def append(self, column):
        rows = self._data.shape[0]
        if np.shape(column) != (rows,):
            raise ValueError(
                f"column must have shape ({rows},), got {np.shape(column)}"
            )
        self._slot()[:] = column
        self._commit()

    def _slot(self):
        # the next free column, writable; a builder fills it, then commits
        k = len(self._views)
        if k == self.capacity:
            data = np.empty((self._data.shape[0], 2 * k), order="F")
            data[:, :k] = self._data
            self._data = data
            self._views = [self._readonly(data[:, j]) for j in range(k)]
        return self._data[:, k]

    def _commit(self):
        self._views.append(self._readonly(self._data[:, len(self._views)]))

    def matrix(self, k=None):
        """The first k columns (all by default) as one read-only view."""
        if k is None:
            k = len(self._views)
        elif not _is_integer(k):
            raise TypeError(f"column count must be an integer, got {k!r}")
        elif not 0 <= k <= len(self._views):
            raise IndexError(f"store holds {len(self._views)} columns, asked for {k}")
        return self._readonly(self._data[:, :k])

    @staticmethod
    def _readonly(view):
        view.flags.writeable = False
        return view


@dataclass
class KrylovFactorization:
    """Running factorization A V_k = U_{k+1} H_{k+1,k}, the one state every
    basis builder returns and the solver driver reads.

    After k steps, with u the data-space and v the solution-space basis:

    * ``U_cols`` holds u_1..u_{k+1} (only k after a breakdown), with
      r0 = beta u_1, so r0 itself is not kept;
    * ``V_cols`` holds v_1..v_{k+1} (fewer after a breakdown); the square
      builders pass the same store as ``U_cols``;
    * ``h_cols`` holds the columns of H_{k+1,k}, column j with its first
      j+2 entries, so k = len(h_cols).

    ``orthonormal`` marks bases built with inner products; their damped
    block condition number kappa(diag(U_{k+1}, V_k)) is 1.  The remaining
    fields belong to single builders and stay None elsewhere: ``alpha``,
    the scale of A^T r0 (Golub-Kahan then keeps its next diagonal entry
    there); ``t`` and ``g``, the pivot orders
    under which U and V are unit lower triangular; ``t_rows`` and
    ``g_rows``, the unit lower triangles of U's rows at t and V's rows at
    g, packed by rows, from which each step solves for its elimination
    coefficients; ``w_cols``, the columns
    of the generalized process's upper triangular W with
    A^T U_{k+1} = V_{k+1} W_{k+1}; ``strategy`` and ``rng``, the pivot
    rule and its sampling generator.

    Both bases are :class:`ColumnStore` objects: their columns are
    read-only views into one array per basis.
    """

    beta: float
    U_cols: ColumnStore
    V_cols: ColumnStore
    h_cols: list = field(default_factory=list)
    breakdown: bool = False
    orthonormal: bool = False
    alpha: float = None
    t: np.ndarray = None
    g: np.ndarray = None
    t_rows: np.ndarray = None
    g_rows: np.ndarray = None
    w_cols: list = None
    strategy: PivotStrategy = None
    rng: object = None

    def H_matrix(self, rows=None):
        """Dense H with k+1 rows; pass rows=len(U_cols) at breakdown to
        drop the structurally zero last row."""
        k = len(self.h_cols)
        H = np.zeros((k + 1, k))
        for j, col in enumerate(self.h_cols):
            H[: j + 2, j] = col
        return H if rows is None else H[:rows]

    def W_matrix(self, rows=None):
        """Upper triangular W with one column per U column."""
        cols = len(self.w_cols)
        W = np.zeros((cols, cols))
        for j, col in enumerate(self.w_cols):
            W[: j + 1, j] = col
        return W if rows is None else W[:rows]


def init_square(A, r0, strategy=_FULL, *, capacity=None):
    """Start the square Hessenberg process from the residual r0.

    One basis L serves as both ``U_cols`` and ``V_cols``; ``capacity``
    reserves room for that many columns (see :class:`ColumnStore`).
    """
    if not A.is_square:
        raise ValueError("the square Hessenberg process needs a square operator")
    L = ColumnStore(r0.size, capacity)
    beta, t, t_rows, rng = _pivoted_start(r0, L, strategy)
    return KrylovFactorization(
        beta=beta, U_cols=L, V_cols=L, t=t, t_rows=t_rows, strategy=strategy, rng=rng
    )


def step_square(state, A):
    """Advance the data side of the factorization by one column.

    Applies A to the newest solution-basis column, eliminates it against
    all data-basis columns with coefficients solved for at the t pivots,
    then pivots the remainder.  An all-zero remainder is a lucky
    breakdown: H gains a column with a zero subdiagonal entry and the
    basis stops growing.  A v_k itself is left as the operator returned it.
    """
    if state.breakdown:
        raise RuntimeError("factorization already broke down")
    # A's output is not bound here, so _reduce can drop it once copied
    h, added, state.t_rows = _reduce(
        A.apply(state.V_cols[-1]),
        state.U_cols,
        state.t,
        state.t_rows,
        state.strategy,
        state.rng,
    )
    state.breakdown = not added
    state.h_cols.append(h)
    return state


def init_generalized(A, r0, strategy=_FULL, *, capacity=None):
    """Start the generalized process from r0 and A^T r0.

    Pivots r0 to get the first data column u_1 and scale beta, pivots
    A^T r0 to get the first solution column v_1 and scale alpha, and
    seeds W with the coefficient of A^T u_1 along v_1.  ``capacity``
    reserves room for that many columns in each basis.
    """
    U, V = ColumnStore(r0.size, capacity), ColumnStore(A.cols, capacity)
    beta, t, t_rows, rng = _pivoted_start(r0, U, strategy)
    g = np.arange(A.cols)
    h, added, g_rows = _reduce(A.apply_transpose(r0), V, g, np.empty(0), strategy, rng)
    if not added:
        raise TrivialSolution(
            "transposed residual is zero; the normal equations already hold"
        )
    r = A.apply_transpose(U[0])
    return KrylovFactorization(
        beta=beta,
        U_cols=U,
        V_cols=V,
        alpha=h[0],
        t=t,
        g=g,
        t_rows=t_rows,
        g_rows=g_rows,
        w_cols=[np.array([r[g[0]]])],
        strategy=strategy,
        rng=rng,
    )


def step_generalized(state, A):
    """Advance both bases by one column.

    Data side: :func:`step_square`, which gives H column k and u_{k+1}.
    Solution side: A^T u_{k+1} is eliminated against v_1..v_k with
    coefficients solved for at the g pivots, giving W column k+1 and
    v_{k+1}.  Breakdown on either side (all remaining entries zero, or a
    basis reaching full dimension) is terminal.
    """
    step_square(state, A)
    if state.breakdown:
        return state
    q = state.U_cols[-1]
    w, added, state.g_rows = _reduce(
        A.apply_transpose(q),
        state.V_cols,
        state.g,
        state.g_rows,
        state.strategy,
        state.rng,
    )
    state.w_cols.append(w)
    state.breakdown = not added
    return state


def dump_factorization(state, directory):
    """Write the factorization pieces as MatrixMarket files for inspection.

    ``L.mm`` (the solution basis) and ``H.mm`` always; ``D.mm`` (the data
    basis) when it is a separate list; ``pivots_t.mm`` when the builder
    pivots; ``W.mm`` and ``pivots_g.mm`` for the generalized process.
    """
    import os

    def path(name):
        return os.path.join(str(directory), name)

    save_array(path("L.mm"), state.V_cols.matrix())
    save_array(path("H.mm"), state.H_matrix())
    if state.U_cols is not state.V_cols:
        save_array(path("D.mm"), state.U_cols.matrix())
    if state.t is not None:
        save_array(path("pivots_t.mm"), np.asarray(state.t, dtype=float))
    if state.w_cols is not None:
        save_array(path("W.mm"), state.W_matrix())
        save_array(path("pivots_g.mm"), np.asarray(state.g, dtype=float))
