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


def _reduce(u, cols, perm, strategy, rng):
    """Eliminate u against cols at the pivots perm[:k], k = len(cols), then
    pivot the rest.

    Returns the k+1 coefficients (the last is the new pivot value, 0 on
    breakdown) and the remainder scaled to a unit pivot, or None when no
    nonzero entry is left or the basis already spans the whole space.
    """
    k = len(cols)
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


def _pivoted_start(r0, strategy):
    # scale beta and first basis column of r0, its pivots and the sampling
    # generator; TrivialSolution if r0 = 0
    rng = np.random.default_rng(strategy.seed) if strategy.kind == "sampled" else None
    t = np.arange(r0.size)
    h, u1 = _reduce(r0, [], t, strategy, rng)
    if u1 is None:
        raise TrivialSolution("initial residual is zero; starting point is exact")
    return h[0], u1, t, rng


@dataclass
class KrylovFactorization:
    """Running factorization A V_k = U_{k+1} H_{k+1,k}, the one state every
    basis builder returns and the solver driver reads.

    After k steps, with u the data-space and v the solution-space basis:

    * ``U_cols`` holds u_1..u_{k+1} (only k after a breakdown), with
      r0 = beta u_1;
    * ``V_cols`` holds v_1..v_{k+1} (fewer after a breakdown); the square
      builders pass the same list as ``U_cols``;
    * ``h_cols`` holds the columns of H_{k+1,k}, column j with its first
      j+2 entries, so k = len(h_cols);
    * ``last_product`` is the product A v_k before any reduction.

    ``orthonormal`` marks bases built with inner products; their damped
    block condition number kappa(diag(U_{k+1}, V_k)) is 1.  The remaining
    fields belong to single builders and stay None elsewhere: ``alpha``,
    the scale of A^T r0 (Golub-Kahan then keeps its next diagonal entry
    there); ``t`` and ``g``, the pivot orders
    under which U and V are unit lower triangular; ``w_cols``, the columns
    of the generalized process's upper triangular W with
    A^T U_{k+1} = V_{k+1} W_{k+1}; ``strategy`` and ``rng``, the pivot
    rule and its sampling generator.
    """

    r0: np.ndarray
    beta: float
    U_cols: list
    V_cols: list
    h_cols: list = field(default_factory=list)
    breakdown: bool = False
    last_product: np.ndarray = None
    orthonormal: bool = False
    alpha: float = None
    t: np.ndarray = None
    g: np.ndarray = None
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


def init_square(A, r0, strategy=_FULL):
    """Start the square Hessenberg process from the residual r0.

    One basis L serves as both ``U_cols`` and ``V_cols``.
    """
    if not A.is_square:
        raise ValueError("the square Hessenberg process needs a square operator")
    beta, l1, t, rng = _pivoted_start(r0, strategy)
    L = [l1]
    return KrylovFactorization(
        r0=r0, beta=beta, U_cols=L, V_cols=L, t=t, strategy=strategy, rng=rng
    )


def step_square(state, A):
    """Advance the data side of the factorization by one column.

    Applies A to the newest solution-basis column, eliminates against all
    data-basis columns by reading coefficients at the t pivots, then
    pivots the remainder.  An all-zero remainder is a lucky breakdown: H
    gains a column with a zero subdiagonal entry and the basis stops
    growing.  The unreduced A v_k stays on the state as ``last_product``
    (the sketched solvers sketch exactly this vector).
    """
    if state.breakdown:
        raise RuntimeError("factorization already broke down")
    u = state.last_product = A.apply(state.V_cols[-1])
    h, u_new = _reduce(u, state.U_cols, state.t, state.strategy, state.rng)
    if u_new is None:
        state.breakdown = True
    else:
        state.U_cols.append(u_new)
    state.h_cols.append(h)
    return state


def init_generalized(A, r0, strategy=_FULL):
    """Start the generalized process from r0 and A^T r0.

    Pivots r0 to get the first data column u_1 and scale beta, pivots
    A^T r0 to get the first solution column v_1 and scale alpha, and
    seeds W with the coefficient of A^T u_1 along v_1.
    """
    beta, u1, t, rng = _pivoted_start(r0, strategy)
    g = np.arange(A.cols)
    h, v1 = _reduce(A.apply_transpose(r0), [], g, strategy, rng)
    if v1 is None:
        raise TrivialSolution(
            "transposed residual is zero; the normal equations already hold"
        )
    r = A.apply_transpose(u1)
    return KrylovFactorization(
        r0=r0,
        beta=beta,
        U_cols=[u1],
        V_cols=[v1],
        alpha=h[0],
        t=t,
        g=g,
        w_cols=[np.array([r[g[0]]])],
        strategy=strategy,
        rng=rng,
    )


def step_generalized(state, A):
    """Advance both bases by one column.

    Data side: :func:`step_square`, which gives H column k and u_{k+1}.
    Solution side: A^T u_{k+1} is eliminated against v_1..v_k at the g
    pivots, giving W column k+1 and v_{k+1}.  Breakdown on either side
    (all remaining entries zero, or a basis reaching full dimension) is
    terminal.
    """
    step_square(state, A)
    if state.breakdown:
        return state
    q = A.apply_transpose(state.U_cols[-1])
    w, v_new = _reduce(q, state.V_cols, state.g, state.strategy, state.rng)
    state.w_cols.append(w)
    if v_new is None:
        state.breakdown = True
    else:
        state.V_cols.append(v_new)
    return state


def dump_factorization(state, directory, prefix=""):
    """Write the factorization pieces as MatrixMarket files for inspection.

    ``L.mm`` (the solution basis) and ``H.mm`` always; ``D.mm`` (the data
    basis) when it is a separate list; ``pivots_t.mm`` when the builder
    pivots; ``W.mm`` and ``pivots_g.mm`` for the generalized process.
    """
    import os

    def path(name):
        return os.path.join(str(directory), prefix + name)

    save_array(path("L.mm"), np.column_stack(state.V_cols))
    save_array(path("H.mm"), state.H_matrix())
    if state.U_cols is not state.V_cols:
        save_array(path("D.mm"), np.column_stack(state.U_cols))
    if state.t is not None:
        save_array(path("pivots_t.mm"), np.asarray(state.t, dtype=float))
    if state.w_cols is not None:
        save_array(path("W.mm"), state.W_matrix())
        save_array(path("pivots_g.mm"), np.asarray(state.g, dtype=float))
