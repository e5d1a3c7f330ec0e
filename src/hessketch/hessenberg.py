"""Pivoted Hessenberg processes: inner-product-free Krylov basis construction.

Square operators get the classic process with partial pivoting: after k
steps it holds columns l_1..l_{k+1} and an upper Hessenberg H with

    A L_k = L_{k+1} H_{k+1,k},

where L is unit lower triangular once its rows are reordered by the pivot
permutation t.  Rectangular operators get the generalized process, which
grows a data-space basis D and a solution-space basis L simultaneously:

    A L_k = D_{k+1} H_{k+1,k},        A^T D_{k+1} = L_{k+1} W_{k+1},

with D unit lower triangular under t, L under g, and W upper triangular.

Every elimination coefficient is read off a single entry at a pivot
position, so the construction performs no inner products; the counters on
the operator certify that.  Pivots are chosen as the largest-magnitude
entry over the not-yet-pivoted positions, either over all of them (full)
or over a random subset redrawn each step (sampled).  A sampled subset can
land entirely on zeros of a nonzero vector; since a zero pivot is fatal,
selection then falls back to scanning the whole admissible set, and only
an all-zero set signals breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linops import save_array

__all__ = [
    "PivotStrategy",
    "TrivialSolution",
    "KrylovFactorization",
    "HessenbergState",
    "GeneralizedHessenbergState",
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
        if self.kind == "sampled" and self.sample_size < 1:
            raise ValueError("sampled pivoting needs sample_size >= 1")

    @classmethod
    def full(cls):
        return cls("full")

    @classmethod
    def sampled(cls, sample_size, seed=0):
        return cls("sampled", sample_size, seed)


_FULL = PivotStrategy.full()


class TrivialSolution(Exception):
    """The start vector already solves the problem; no iteration is needed.

    Raised when the initial residual is zero (square or rectangular) or
    when the initial transposed residual is zero (rectangular: the normal
    equations are already satisfied).  Carries the trivial solution in
    ``x``.
    """

    def __init__(self, message, x):
        super().__init__(message)
        self.x = x


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


def _reduce(u, cols, perm, k, strategy, rng):
    """Eliminate u against cols at the pivots perm[:k], then pivot the rest.

    Returns the k+1 coefficients (the last is the new pivot value, 0 on
    breakdown) and the remainder scaled to a unit pivot, or None when no
    nonzero entry is left or the basis already spans the whole space.
    """
    h = np.empty(k + 1)
    for j in range(k):
        c = u[perm[j]]
        h[j] = c
        u = u - c * cols[j]
    if k < u.size:
        idx, val = _pivot_with_fallback(u, perm[k:], strategy, rng)
    else:
        val = 0.0
    h[k] = val
    if val == 0.0:
        return h, None
    _swap_to_position(perm, k, idx)
    return h, u / val


def _pivoted_start(A, b, x0, strategy):
    # r0 = b - A x0, its scale beta and first basis column, the pivots, the
    # sampling generator and the starting point; TrivialSolution if r0 = 0
    b = np.asarray(b, dtype=float)
    if b.shape != (A.rows,):
        raise ValueError(f"b must have length {A.rows}, got shape {b.shape}")
    x_start = np.zeros(A.cols) if x0 is None else np.asarray(x0, dtype=float).copy()
    r0 = b.copy() if x0 is None else b - A.apply(np.asarray(x0, dtype=float))
    rng = np.random.default_rng(strategy.seed) if strategy.kind == "sampled" else None
    t = np.arange(A.rows)
    h, u1 = _reduce(r0, [], t, 0, strategy, rng)
    if u1 is None:
        raise TrivialSolution(
            "initial residual is zero; starting point is exact", x_start
        )
    return r0, h[0], u1, t, rng, x_start


class KrylovFactorization:
    """The state shape every basis builder shows the solver driver.

    After k steps, with u the data-space and v the solution-space basis:

    * ``U_cols`` holds u_1..u_{k+1} (only k after a breakdown), with
      r0 = beta u_1;
    * ``V_cols`` holds v_1..v_{k+1} (fewer after a breakdown);
    * ``h_cols`` holds the columns of H_{k+1,k}, column j with its first
      j+2 entries, so that A V_k = U_{k+1} H_{k+1,k};
    * ``r0``, ``beta``, ``breakdown``, and ``last_product``, the product
      A v_k before any reduction.

    ``orthonormal`` marks bases built with inner products; their damped
    block condition number kappa(diag(U_{k+1}, V_k)) is 1.
    """

    orthonormal = False

    def H_matrix(self, rows=None):
        """Dense H with k+1 rows; pass rows=len(U_cols) at breakdown to
        drop the structurally zero last row."""
        k = len(self.h_cols)
        H = np.zeros((k + 1, k))
        for j, col in enumerate(self.h_cols):
            H[: j + 2, j] = col
        return H if rows is None else H[:rows]


@dataclass
class HessenbergState(KrylovFactorization):
    """Running factorization A L_k = L_{k+1} H_{k+1,k} for square A.

    The one basis L serves as both ``U_cols`` and ``V_cols``.
    """

    L_cols: list
    h_cols: list
    t: np.ndarray
    beta: float
    k: int
    breakdown: bool
    r0: np.ndarray
    strategy: PivotStrategy
    rng: object = None
    last_product: np.ndarray = None

    def L_matrix(self):
        return np.column_stack(self.L_cols)

    @property
    def U_cols(self):
        return self.L_cols

    V_cols = U_cols


def init_square(A, b, x0=None, strategy=_FULL):
    """Start the square Hessenberg process from the residual b - A x0."""
    if not A.is_square:
        raise ValueError("the square Hessenberg process needs a square operator")
    r0, beta, l1, t, rng, _ = _pivoted_start(A, b, x0, strategy)
    return HessenbergState(
        L_cols=[l1],
        h_cols=[],
        t=t,
        beta=beta,
        k=0,
        breakdown=False,
        r0=r0,
        strategy=strategy,
        rng=rng,
    )


def step_square(state, A):
    """Advance the square factorization by one column.

    Applies A to the newest basis column, eliminates against all previous
    columns by reading coefficients at pivot positions, then pivots the
    remainder.  An all-zero remainder is a lucky breakdown: H gains a
    column with a zero subdiagonal entry and the basis stops growing.
    The unreduced A l_k stays on the state as ``last_product`` (the
    sketched solvers sketch exactly this vector).
    """
    if state.breakdown:
        raise RuntimeError("factorization already broke down")
    k = state.k + 1
    state.last_product = A.apply(state.L_cols[-1])
    h, l_new = _reduce(
        state.last_product, state.L_cols, state.t, k, state.strategy, state.rng
    )
    if l_new is None:
        state.breakdown = True
    else:
        state.L_cols.append(l_new)
    state.h_cols.append(h)
    state.k = k
    return state


@dataclass
class GeneralizedHessenbergState(KrylovFactorization):
    """Running factorization pair for rectangular A.

    D_cols spans the data-space Krylov subspace (m-vectors, pivots t),
    L_cols the solution-space one (n-vectors, pivots g).
    """

    D_cols: list
    L_cols: list
    h_cols: list
    w_cols: list
    t: np.ndarray
    g: np.ndarray
    beta: float
    alpha: float
    k: int
    breakdown: bool
    r0: np.ndarray
    strategy: PivotStrategy
    rng: object = None
    last_data_product: np.ndarray = None

    def D_matrix(self):
        return np.column_stack(self.D_cols)

    def L_matrix(self):
        return np.column_stack(self.L_cols)

    @property
    def U_cols(self):
        return self.D_cols

    @property
    def V_cols(self):
        return self.L_cols

    @property
    def last_product(self):
        return self.last_data_product

    def W_matrix(self, rows=None):
        """Upper triangular W with one column per D column."""
        cols = len(self.w_cols)
        W = np.zeros((cols, cols))
        for j, col in enumerate(self.w_cols):
            W[: j + 1, j] = col
        return W if rows is None else W[:rows]


def init_generalized(A, b, x0=None, strategy=_FULL):
    """Start the generalized process from r0 = b - A x0 and A^T r0.

    Pivots r0 to get the first data column d_1 and scale beta, pivots
    A^T r0 to get the first solution column l_1 and scale alpha, and
    seeds W with the coefficient of A^T d_1 along l_1.
    """
    r0, beta, d1, t, rng, x_start = _pivoted_start(A, b, x0, strategy)
    g = np.arange(A.cols)
    h, l1 = _reduce(A.apply_transpose(r0), [], g, 0, strategy, rng)
    if l1 is None:
        raise TrivialSolution(
            "transposed residual is zero; the normal equations already hold", x_start
        )
    r = A.apply_transpose(d1)
    return GeneralizedHessenbergState(
        D_cols=[d1],
        L_cols=[l1],
        h_cols=[],
        w_cols=[np.array([r[g[0]]])],
        t=t,
        g=g,
        beta=beta,
        alpha=h[0],
        k=0,
        breakdown=False,
        r0=r0,
        strategy=strategy,
        rng=rng,
    )


def step_generalized(state, A):
    """Advance both bases by one column.

    Data side: A l_k is eliminated against d_1..d_k at the t pivots,
    giving H column k and, after pivoting, d_{k+1}.  Solution side:
    A^T d_{k+1} is eliminated against l_1..l_k at the g pivots, giving W
    column k+1 and l_{k+1}.  Breakdown on either side (all remaining
    entries zero, or a basis reaching full dimension) is terminal.  The
    unreduced A l_k stays on the state as ``last_data_product``.
    """
    if state.breakdown:
        raise RuntimeError("factorization already broke down")
    k = state.k + 1
    state.k = k
    state.last_data_product = A.apply(state.L_cols[-1])
    h, d_new = _reduce(
        state.last_data_product, state.D_cols, state.t, k, state.strategy, state.rng
    )
    state.h_cols.append(h)
    if d_new is None:
        state.breakdown = True
        return state
    state.D_cols.append(d_new)

    w, l_new = _reduce(
        A.apply_transpose(d_new), state.L_cols, state.g, k, state.strategy, state.rng
    )
    state.w_cols.append(w)
    if l_new is None:
        state.breakdown = True
        return state
    state.L_cols.append(l_new)
    return state


def dump_factorization(state, directory, prefix=""):
    """Write the factorization pieces as MatrixMarket files for inspection."""
    import os

    def path(name):
        return os.path.join(str(directory), prefix + name)

    save_array(path("L.mm"), state.L_matrix())
    save_array(path("H.mm"), state.H_matrix())
    save_array(path("pivots_t.mm"), np.asarray(state.t, dtype=float))
    if isinstance(state, GeneralizedHessenbergState):
        save_array(path("D.mm"), state.D_matrix())
        save_array(path("W.mm"), state.W_matrix())
        save_array(path("pivots_g.mm"), np.asarray(state.g, dtype=float))
