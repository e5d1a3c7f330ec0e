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
data basis (L or D) is its ``U_cols``, the solution basis L its ``V_cols``.
Each basis (a :class:`ColumnStore`), H and W are fixed arrays, written in place.

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
    of L (and a 1) is written into P.  Returns the k+1 coefficients (the
    last is the new pivot value, 0 on breakdown) and whether the column
    was added (not when no nonzero entry is left or the basis spans the
    whole space).
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
        return h, False
    _swap_to_position(perm, k, idx)
    col /= val
    end = (k + 1) * (k + 2) // 2
    tri[end - k - 1 : end - 1] = store.matrix(k)[idx]
    tri[end - 1] = 1.0
    store._commit()
    return h, True


def _pivoted_start(r0, store, strategy):
    # reduce r0 into the empty store; its scale beta, its pivots, the
    # packed triangle of its pivot rows (room for as many as the store has
    # columns) and the sampling generator; TrivialSolution if r0 = 0
    rng = np.random.default_rng(strategy.seed) if strategy.kind == "sampled" else None
    t = np.arange(r0.size)
    tri = np.empty(store.capacity * (store.capacity + 1) // 2)
    h, added = _reduce(r0, store, t, tri, strategy, rng)
    if not added:
        raise TrivialSolution("initial residual is zero; starting point is exact")
    return h[0], t, tri, rng


class ColumnStore:
    """Basis columns kept side by side in one preallocated Fortran-order
    array of ``capacity`` columns.

    ``append`` writes the next column, of shape (rows,), into the next free
    slot; a full store raises IndexError.  ``column(j)`` (a negative j
    counts from the last) and ``matrix(k)``, the first k columns
    (0 <= k <= len) as one (rows, k) block ready for a single BLAS call,
    are read-only views into the array, never copies.  The Hessenberg
    builders build the next column in place instead.
    """

    def __init__(self, rows, capacity):
        capacity = _check_int("capacity", capacity, 1)
        self._data = np.empty((rows, capacity), order="F")
        self._len = 0

    @classmethod
    def from_column(cls, column, capacity):
        store = cls(column.size, capacity)
        store.append(column)
        return store

    @property
    def capacity(self):
        """Columns the array has room for."""
        return self._data.shape[1]

    def __len__(self):
        return self._len

    def column(self, j):
        """Column j as a read-only view."""
        return self.matrix()[:, j]

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
        if self._len == self.capacity:
            raise IndexError(f"store is full: capacity {self.capacity}")
        return self._data[:, self._len]

    def _commit(self):
        self._len += 1

    def matrix(self, k=None):
        """The first k columns (all by default) as one read-only view."""
        if k is None:
            k = self._len
        elif not _is_integer(k):
            raise TypeError(f"column count must be an integer, got {k!r}")
        elif not 0 <= k <= self._len:
            raise IndexError(f"store holds {self._len} columns, asked for {k}")
        return _readonly(self._data[:, :k])


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
    * ``H`` is a zeroed array with one row per ``U_cols`` slot and one
      column per step the store allows; step j writes H column j in place,
      and ``k`` counts the steps taken.

    ``orthonormal`` marks bases built with inner products; their damped
    block condition number kappa(diag(U_{k+1}, V_k)) is 1.  The remaining
    fields belong to single builders and stay None elsewhere: ``alpha``,
    the scale of A^T r0 (Golub-Kahan then keeps its next diagonal entry
    there); ``t`` and ``g``, the pivot orders under which U and V are unit
    lower triangular; ``t_rows`` and ``g_rows``, the unit lower triangles
    of U's rows at t and V's rows at g, packed by rows, from which each
    step solves for its elimination coefficients; ``W``, the generalized
    process's upper triangular W with A^T U_{k+1} = V_{k+1} W_{k+1}, a
    zeroed square in the store's capacity with one column written per
    ``U_cols`` column; ``strategy`` and ``rng``, the pivot rule and its
    sampling generator.

    ``H_matrix`` and ``W_matrix`` are read-only views of ``H`` and ``W``,
    never copies.
    """

    beta: float
    U_cols: ColumnStore
    V_cols: ColumnStore
    H: np.ndarray = field(init=False)
    k: int = 0
    breakdown: bool = False
    orthonormal: bool = False
    alpha: float = None
    t: np.ndarray = None
    g: np.ndarray = None
    t_rows: np.ndarray = None
    g_rows: np.ndarray = None
    W: np.ndarray = None
    strategy: PivotStrategy = None
    rng: object = None

    def __post_init__(self):
        slots = self.U_cols.capacity
        self.H = np.zeros((slots, slots - 1))

    def H_matrix(self, rows=None):
        """H_{k+1,k} as a read-only view; pass rows=len(U_cols) at
        breakdown to drop the structurally zero last row."""
        return _readonly(self.H[: self.k + 1, : self.k][:rows])

    def W_matrix(self, rows=None):
        """Upper triangular W, one column per U column, as a read-only view."""
        j = len(self.U_cols)
        return _readonly(self.W[:j, :j][:rows])


def init_square(A, r0, strategy=_FULL, *, capacity):
    """Start the square Hessenberg process from the residual r0.

    One basis L serves as both ``U_cols`` and ``V_cols``; ``capacity``
    is the most columns it can hold (see :class:`ColumnStore`).
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
    h, added = _reduce(
        A.apply(state.V_cols.column(-1)),
        state.U_cols,
        state.t,
        state.t_rows,
        state.strategy,
        state.rng,
    )
    state.breakdown = not added
    state.H[: h.size, state.k] = h
    state.k += 1
    return state


def init_generalized(A, r0, strategy=_FULL, *, capacity):
    """Start the generalized process from r0 and A^T r0.

    Pivots r0 to get the first data column u_1 and scale beta, pivots
    A^T r0 to get the first solution column v_1 and scale alpha, and
    seeds W with the coefficient of A^T u_1 along v_1.  ``capacity`` is
    the most columns each basis can hold.
    """
    U, V = ColumnStore(r0.size, capacity), ColumnStore(A.cols, capacity)
    beta, t, t_rows, rng = _pivoted_start(r0, U, strategy)
    # V has U's capacity, so its triangle has the size of U's
    g, g_rows = np.arange(A.cols), np.empty_like(t_rows)
    h, added = _reduce(A.apply_transpose(r0), V, g, g_rows, strategy, rng)
    if not added:
        raise TrivialSolution(
            "transposed residual is zero; the normal equations already hold"
        )
    r = A.apply_transpose(U.column(0))
    W = np.zeros((capacity, capacity))
    W[0, 0] = r[g[0]]
    return KrylovFactorization(
        beta=beta,
        U_cols=U,
        V_cols=V,
        alpha=h[0],
        t=t,
        g=g,
        t_rows=t_rows,
        g_rows=g_rows,
        W=W,
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
    w, added = _reduce(
        A.apply_transpose(state.U_cols.column(-1)),
        state.V_cols,
        state.g,
        state.g_rows,
        state.strategy,
        state.rng,
    )
    state.W[: w.size, len(state.U_cols) - 1] = w
    state.breakdown = not added
    return state


def dump_factorization(state, directory):
    """Write the factorization pieces as MatrixMarket files for inspection.

    ``L.mm`` (the solution basis) and ``H.mm`` always; ``D.mm`` (the data
    basis) when it is a separate store; ``pivots_t.mm`` when the builder
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
    if state.W is not None:
        save_array(path("W.mm"), state.W_matrix())
        save_array(path("pivots_g.mm"), np.asarray(state.g, dtype=float))
