"""Iterative solvers: one Krylov driver, four basis builders, three projections.

Six solvers share one interface ``solver(A, b, cfg, x_true=None)`` and one
loop.  Each step, a basis builder extends a data-space basis U_{k+1}, a
solution-space basis V_k and the Hessenberg matrix H with
A V_k = U_{k+1} H_{k+1,k}; a projected-problem form turns that state into
a small least-squares problem min ||M y - rhs||; the iterate is
x_k = x0 + V_k y.

=========  ======================  ========================================
solver     basis builder           projected problem
=========  ======================  ========================================
``gmres``  Arnoldi                 quasi-minimal on H: min ||beta e1 - H y||
``lsqr``   Golub-Kahan             quasi-minimal on H (H is bidiagonal)
``cmrh``   pivoted Hessenberg      quasi-minimal on H
``lslu``   generalized Hessenberg  quasi-minimal on H
``scmrh``  pivoted Hessenberg      sketched products min ||S (A V_k y - r0)||,
                                   or sketched basis times H, (S U_{k+1}) H
``slslu``  generalized Hessenberg  as ``scmrh``
=========  ======================  ========================================

The references (Arnoldi, Golub-Kahan) orthonormalize with inner products;
the Hessenberg builders read every coefficient off a pivot entry instead.
Every solver honors ``cfg.lam``: a positive value adds lam^2 ||y||^2 to the
quasi-minimal forms and the sketched penalty lam^2 ||S1 V_k y||^2 to the
sketched ones.

Counter semantics: the counters on the returned trace report the
operations the algorithm itself performed (forward/transpose
applications, tracked inner products, sketch applications).  Diagnostics
(exact residual norms, condition numbers, measured embedding distortion)
run on uncounted paths and never perturb the iterate sequence, so a
trace's cost columns are identical with diagnostics on or off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .hessenberg import (
    ColumnStore,
    KrylovFactorization,
    PivotStrategy,
    TrivialSolution,
    init_generalized,
    init_square,
    step_generalized,
    step_square,
)
from .linops import (
    RankDeficiencyError,
    dense_qr_ls,
    spectral_condition_number,
    stacked_tikhonov_ls,
    tracked_dot,
    tracked_norm,
)
from .sketch import derive_seed, make_gaussian_sketch, measured_epsilon, sketch_apply

__all__ = [
    "SolverConfig",
    "TraceRecord",
    "SolverTrace",
    "SolveResult",
    "trace_to_csv",
    "gmres",
    "lsqr",
    "cmrh",
    "lslu",
    "scmrh",
    "slslu",
    "projected_minres_oracle",
    "SOLVERS",
]

CSV_COLUMNS = [
    "iter",
    "res_norm",
    "sres_norm",
    "proj_obj",
    "rel_err",
    "kappa_basis",
    "kappa_dbar",
    "eps_embed",
    "matvecs",
    "tmatvecs",
    "dots",
    "sketches",
    "wall_ms",
]


@dataclass
class SolverConfig:
    """Knobs shared by all solvers.

    ``sketch_rows`` of None means the experiment default 10*(maxiter+1).
    ``pivot`` only affects the Hessenberg-based solvers; ``seed`` only the
    sketched ones (it determines the embedding).
    """

    maxiter: int = 30
    pivot: PivotStrategy = field(default_factory=PivotStrategy.full)
    sketch_rows: int = None
    lam: float = 0.0
    seed: int = 0
    x0: np.ndarray = None
    compute_diagnostics: bool = False

    def __post_init__(self):
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be positive, got {self.maxiter}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.sketch_rows is not None and self.sketch_rows < 1:
            raise ValueError(f"sketch_rows must be positive, got {self.sketch_rows}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def effective_sketch_rows(self):
        if self.sketch_rows is None:
            return 10 * (self.maxiter + 1)
        return self.sketch_rows


@dataclass
class TraceRecord:
    """One iteration's worth of observable state.

    Optional floats are None when not computed (serialized as empty CSV
    fields).  ``rank_fallback`` marks iterations whose projected problem
    was rank deficient and solved by truncated least squares instead.
    """

    iteration: int
    res_norm: float = None
    sres_norm: float = None
    proj_obj: float = None
    rel_err: float = None
    kappa_basis: float = None
    kappa_dbar: float = None
    eps_embed: float = None
    matvecs: int = 0
    tmatvecs: int = 0
    dots: int = 0
    sketches: int = 0
    wall_ms: float = None
    rank_fallback: bool = False


@dataclass
class SolverTrace:
    records: list = field(default_factory=list)

    def column(self, name):
        return [getattr(r, name) for r in self.records]

    def final(self):
        return self.records[-1] if self.records else None


@dataclass
class SolveResult:
    x: np.ndarray
    trace: SolverTrace
    termination: str  # maxiter | breakdown | trivial
    factorization: KrylovFactorization = None


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def trace_to_csv(trace, target, include_timing=False):
    """Serialize a trace with the fixed column order.

    Timing is volatile, so ``wall_ms`` is left empty unless
    ``include_timing`` is set; everything else replays byte-identically
    for identical runs.
    """
    lines = [",".join(CSV_COLUMNS)]
    for r in trace.records:
        cells = [str(r.iteration)]
        cells += [_cell(getattr(r, name)) for name in CSV_COLUMNS[1:-1]]
        cells.append(_cell(r.wall_ms) if include_timing else "")
        lines.append(",".join(cells))
    content = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(content)
    else:
        with open(target, "w", newline="") as fh:
            fh.write(content)


def _projected_solve(form, M, rhs, lam, N=None):
    """Least-squares solve of the projected problem with a truncated-rank
    fallback; returns (y, fallback_used).

    A form that keeps an updated QR of its system (``form.qr``) is solved
    through the k-by-k triangle (R_k, Q_k^T rhs): the same pivoted rank
    test, on a matrix with M's column norms and singular values.  The
    first rank deficiency there drops that QR: appending columns never
    raises the rank, so this step and every later one solve the full
    system, first by pivoted QR and then by truncated least squares.
    """
    if form.qr is not None:
        try:
            return dense_qr_ls(*form.qr.triangle()), False
        except RankDeficiencyError:
            form.qr = None
    try:
        if lam == 0.0:
            return dense_qr_ls(M, rhs), False
        return stacked_tikhonov_ls(M, N, rhs, lam), False
    except RankDeficiencyError:
        if lam > 0.0:
            M = np.vstack([M, lam * N])
            rhs = np.concatenate([rhs, np.zeros(N.shape[0])])
        return np.linalg.lstsq(M, rhs, rcond=None)[0], True


def _objective(res_norm, y, lam, N=None):
    # the projected objective from the norm of its residual M y - rhs
    val = res_norm**2
    if lam > 0.0:
        val += lam**2 * np.linalg.norm(N @ y) ** 2
    return float(np.sqrt(val))


def _finite_vector(name, v, length):
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite; it contains NaN or inf")
    return v


# ---------------------------------------------------------------------------
# the driver


def _observe(rec, A, b, x, cfg, x_true, counts):
    # the fields every record carries, the iteration-0 record of a trivial
    # solve included; the exact residual is a diagnostic, so it applies the
    # raw forward map and no counter moves
    if x_true is not None:
        denom = np.linalg.norm(x_true)
        if denom == 0.0:
            raise ValueError("x_true must be nonzero for relative errors")
        rec.rel_err = float(np.linalg.norm(x - x_true) / denom)
    if cfg.compute_diagnostics:
        r = b - np.asarray(A.forward(x), dtype=float)
        rec.res_norm = float(np.linalg.norm(r))
    rec.matvecs, rec.tmatvecs, rec.dots, rec.sketches = counts
    return rec


def _krylov(A, b, cfg, x_true, init, step, form):
    """Run one solve with basis builder ``init``/``step`` and projection ``form``.

    ``init(A, r0, strategy, capacity=...)`` returns a
    :class:`KrylovFactorization` whose bases have room for every column
    the solve can produce, or raises TrivialSolution; ``step(state, A)``
    extends it by one column.
    This is the only iteration loop and the only place that reads ``b``
    and ``cfg.x0``: it owns input checks, r0, trivial returns, the damped
    projected solve with its rank fallback, and the trace records.

    The builder never reads the projected problem, so the loop runs it
    ahead by up to ``form.block`` steps (never past ``maxiter``, the
    dimension or a breakdown), lets the form sketch the block's new
    columns in one pass over each sketch, and then solves and records
    those steps in order.  Each record carries the operator and dot
    counts snapshotted right after its own builder step, and the form
    charges each sketched column at the step that consumes it, so every
    record reads as if the steps had run one at a time.
    """
    cfg = cfg or SolverConfig()
    A = A.with_fresh_counters()
    b = _finite_vector("b", b, A.rows)
    x0 = None if cfg.x0 is None else _finite_vector("x0", cfg.x0, A.cols)
    r0 = b.copy() if x0 is None else b - A.apply(x0)
    # a Krylov space has at most A.cols dimensions: the Hessenberg builders
    # break down by then, and the references stop here
    steps = min(cfg.maxiter, A.cols)
    try:
        state = init(A, r0, cfg.pivot, capacity=steps + 1)
    except TrivialSolution:
        x = np.zeros(A.cols) if x0 is None else x0.copy()
        rec = TraceRecord(iteration=0)
        trace = SolverTrace([_observe(rec, A, b, x, cfg, x_true, A.counters.snapshot())])
        return SolveResult(x=x, trace=trace, termination="trivial")
    form.start(A, cfg, state, steps + 1)
    trace = SolverTrace()
    k = 0
    while k < steps and not state.breakdown:
        ahead = []
        while len(ahead) < form.block and k + len(ahead) < steps:
            tic = time.perf_counter()
            step(state, A)
            form.collect(state)
            seconds = time.perf_counter() - tic
            lengths = len(state.U_cols), len(state.V_cols)
            ahead.append(_Step(A.counters.snapshot(), *lengths, seconds))
            if state.breakdown:
                break
        tic = time.perf_counter()
        form.sketch_block(state)
        # the block's sketching is timed into its first record
        ahead[0].seconds += time.perf_counter() - tic
        for done in ahead:
            k += 1
            tic = time.perf_counter()
            M, rhs, N = form.system(state, k, done)
            y, fallback = _projected_solve(form, M, rhs, cfg.lam, N)
            # one GEMV on a view of the solution basis
            Vk = state.V_cols.matrix(k)
            x = Vk @ y
            if x0 is not None:
                x = x0 + x
            res_norm = np.linalg.norm(M @ y - rhs)
            rec = TraceRecord(
                iteration=k,
                proj_obj=_objective(res_norm, y, cfg.lam, N),
                rank_fallback=fallback,
            )
            if form.sketched:
                rec.sres_norm = float(res_norm)
            if cfg.compute_diagnostics:
                U = state.U_cols.matrix(done.u_len)
                rec.kappa_basis = spectral_condition_number(U)
                if cfg.lam > 0.0 and not state.orthonormal:
                    block = scipy.linalg.block_diag(U, Vk)
                    rec.kappa_dbar = spectral_condition_number(block)
                if form.sketched:
                    rec.eps_embed = form.distortion(U)
            counts = (*done.counts[:3], A.counters.sketch_apply_count)
            _observe(rec, A, b, x, cfg, x_true, counts)
            rec.wall_ms = (done.seconds + time.perf_counter() - tic) * 1e3
            trace.records.append(rec)
    termination = "breakdown" if state.breakdown else "maxiter"
    return SolveResult(x=x, trace=trace, termination=termination, factorization=state)


@dataclass
class _Step:
    """What the driver keeps of one builder step until it solves it: the
    counter snapshot, both basis lengths and the seconds spent on it."""

    counts: tuple
    u_len: int
    v_len: int
    seconds: float


# ---------------------------------------------------------------------------
# projected-problem forms


class _QuasiMinimal:
    """min ||beta e1 - H_{k+1,k} y|| (+ lam^2 ||y||^2).

    Minimizes the residual's coordinates in the data basis; the true
    residual then sits within a factor kappa(U_{k+1}) of the best one in
    the same subspace (exactly the best one for an orthonormal basis).
    The (k+1)-by-k system is solved from scratch each step.
    """

    sketched = False
    qr = None
    block = 1

    def start(self, A, cfg, state, capacity):
        self.lam = cfg.lam

    def collect(self, state):
        pass

    def sketch_block(self, state):
        pass

    def system(self, state, k, done):
        rhs = np.zeros(k + 1)
        rhs[0] = state.beta
        return state.H_matrix(), rhs, np.eye(k) if self.lam > 0.0 else None


class _UpdatedQR:
    """Thin QR of a tall matrix that grows by one column at a time.

    Each new column is orthogonalized against Q by classical Gram-Schmidt
    with one reorthogonalization pass (CGS2), which keeps Q orthonormal to
    working precision while the columns stay numerically independent
    (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 1976).  Q, R and
    Q^T rhs live in preallocated arrays.  Like the Householder QR inside
    :func:`dense_qr_ls`, these inner products act on short sketched
    vectors and are not counted.
    """

    def __init__(self, rhs, capacity):
        self.rhs = rhs
        self.Q = ColumnStore(rhs.size, capacity)
        self.R = np.zeros((capacity, capacity), order="F")
        self.z = np.empty(capacity)

    def append(self, c):
        k = len(self.Q)
        Q = self.Q.matrix()
        r = Q.T @ c
        c = c - Q @ r
        s = Q.T @ c
        c -= Q @ s
        rho = np.linalg.norm(c)
        self.R[:k, k] = r + s
        self.R[k, k] = rho
        # an exactly dependent column leaves a zero on R's diagonal, which
        # the rank test of the triangular solve reports
        q = c / rho if rho > 0.0 else c
        self.Q.append(q)
        self.z[k] = q @ self.rhs

    def triangle(self):
        """(R_k, Q_k^T rhs) for the k columns appended so far."""
        k = len(self.Q)
        return self.R[:k, :k], self.z[:k]


# builder steps whose new columns the sketched forms sketch in one pass
# over each sketch; BENCH_9.json compares blocks of 8, 16 and 32
_BLOCK = 32


class _Sketched:
    """min ||S (A V_k y - r0)|| (+ lam^2 ||S1 V_k y||^2) under Gaussian sketches.

    The sketched-products form appends S (A v_k) for each product; the
    sketched-basis form appends (S U_{k+1}) h_k, column k of
    (S U_{k+1}) H_{k+1,k}, the same matrix in exact arithmetic.  S is
    drawn from cfg.seed unless a prebuilt ``sketch`` is given; S1 from a
    seed derived from cfg.seed.

    A dense sketch is streamed through memory once per application, so
    the form sketches the new columns of a whole block of up to
    ``_BLOCK`` builder steps with one GEMM per sketch: the unreduced
    products, copied into a buffer as the builder makes them, or the new
    columns of U and V, read in place from their stores.  Each sketched
    column is charged to the counters at the step that consumes it.

    Each new column of the system, stacked over lam S1 v_k when damped,
    also extends an updated thin QR (``qr``), so the driver solves a k-by-k
    triangle instead of refactoring the tall system every step.  The
    column stores stay: the driver reads the full system for the residual
    norm, and solves it whole once the triangle turns out rank deficient.
    """

    sketched = True

    def __init__(self, sketch, basis):
        self.S, self.basis = sketch, basis

    def start(self, A, cfg, state, capacity):
        if self.S is not None and self.S.in_rows != A.rows:
            raise ValueError(
                f"sketch expects vectors of length {self.S.in_rows}, "
                f"operator produces length {A.rows}"
            )
        ell = cfg.effective_sketch_rows() if self.S is None else self.S.out_rows
        if ell < cfg.maxiter + 1:
            raise ValueError(
                f"sketch_rows={ell} cannot embed a {cfg.maxiter}-dimensional "
                "projected problem; need at least maxiter+1 rows"
            )
        if self.S is None:
            self.S = make_gaussian_sketch(ell, A.rows, cfg.seed)
        self.counters = A.counters
        self.lam = cfg.lam
        self.block = _BLOCK
        self.sr0 = sketch_apply(self.S, state.r0, self.counters)
        # the system's columns, the sketched data basis S u_j of the basis
        # form, and the penalty's S1 v_j, one store each; the products form
        # buffers the block's unreduced products A v_k
        self.cols = ColumnStore(ell, capacity)
        if self.basis:
            self.sketched_basis = ColumnStore.from_column(
                sketch_apply(self.S, state.U_cols[0], self.counters), capacity
            )
        else:
            self.products = np.empty((A.rows, min(self.block, capacity - 1)), order="F")
            self.buffered = 0
        self.S1 = None
        rhs = self.sr0
        if cfg.lam > 0.0:
            self.S1 = make_gaussian_sketch(ell, A.cols, derive_seed(cfg.seed, 1))
            self.penalty_cols = ColumnStore.from_column(
                sketch_apply(self.S1, state.V_cols[0], self.counters), capacity
            )
            rhs = np.concatenate([rhs, np.zeros(ell)])
        # basis lengths at the last step consumed
        self.lengths = len(state.U_cols), len(state.V_cols)
        self.qr = _UpdatedQR(rhs, capacity)

    def collect(self, state):
        if not self.basis:
            self.products[:, self.buffered] = state.last_product
            self.buffered += 1

    def sketch_block(self, state):
        # one GEMM per sketch over the columns the block produced; the
        # counters are charged column by column in system()
        if self.basis:
            _sketch_new_columns(self.S, state.U_cols, self.sketched_basis)
        else:
            for col in sketch_apply(self.S, self.products[:, : self.buffered]).T:
                self.cols.append(col)
            self.buffered = 0
        if self.S1 is not None:
            _sketch_new_columns(self.S1, state.V_cols, self.penalty_cols)

    def system(self, state, k, done):
        # charge each sketched column at the step that made it: one
        # product, or the columns the step added to U (and to V if damped)
        new_u, new_v = done.u_len - self.lengths[0], done.v_len - self.lengths[1]
        self.lengths = done.u_len, done.v_len
        if self.basis:
            self.counters.sketch_apply_count += new_u
            SU = self.sketched_basis.matrix(done.u_len)
            # at a breakdown U_{k+1} lacks its last column, and h_k ends in 0
            self.cols.append(SU @ state.h_cols[k - 1][: done.u_len])
        else:
            self.counters.sketch_apply_count += 1
        col = self.cols[k - 1]
        N = None
        if self.S1 is not None:
            self.counters.sketch_apply_count += new_v
            N = self.penalty_cols.matrix(k)
        if self.qr is not None:
            stacked = col if N is None else np.concatenate([col, self.lam * N[:, -1]])
            self.qr.append(stacked)
        return self.cols.matrix(k), self.sr0, N

    def distortion(self, U):
        """Measured distortion of S on span(r0, A V_k) (diagnostics only).

        In exact arithmetic the data basis U_{k+1} spans exactly that
        space, at a breakdown too, and it has full column rank by
        construction (unit lower triangular under its pivots).
        """
        return measured_epsilon(self.S, U)


def _sketch_new_columns(S, basis, sketched):
    # sketch the basis columns that have no sketched counterpart yet
    new = basis.matrix()[:, len(sketched) :]
    if new.shape[1]:
        for col in sketch_apply(S, new).T:
            sketched.append(col)


# ---------------------------------------------------------------------------
# orthonormal basis builders (the references)


def _unit_start(A, r0):
    beta = tracked_norm(A.counters, r0)
    if beta == 0.0:
        raise TrivialSolution("initial residual is zero; starting point is exact")
    return beta, r0 / beta


def _init_arnoldi(A, r0, strategy=None, *, capacity=None):
    if not A.is_square:
        raise ValueError("gmres needs a square operator")
    beta, v1 = _unit_start(A, r0)
    V = ColumnStore.from_column(v1, capacity)
    return KrylovFactorization(r0=r0, beta=beta, U_cols=V, V_cols=V, orthonormal=True)


def _step_arnoldi(state, A):
    # modified Gram-Schmidt, then one reorthogonalization pass
    c, V = A.counters, state.V_cols
    k = len(state.h_cols) + 1
    w = state.last_product = A.apply(V[-1])
    h = np.empty(k + 1)
    for j in range(k):
        h[j] = tracked_dot(c, V[j], w)
        if j == 0:
            # the first subtraction copies: last_product is never written
            w = w - h[0] * V[0]
        else:
            w -= h[j] * V[j]
    for j in range(k):
        corr = tracked_dot(c, V[j], w)
        w -= corr * V[j]
        h[j] += corr
    h[k] = tracked_norm(c, w)
    state.h_cols.append(h)
    # relative test: an exactly-zero norm never survives rounding
    state.breakdown = bool(h[k] <= 1e-14 * np.linalg.norm(h))
    if not state.breakdown:
        V.append(w / h[k])


def _init_golub_kahan(A, r0, strategy=None, *, capacity=None):
    beta, u = _unit_start(A, r0)
    z = A.apply_transpose(u)
    alpha = tracked_norm(A.counters, z)
    if alpha == 0.0:
        raise TrivialSolution(
            "transposed residual is zero; the normal equations already hold"
        )
    return KrylovFactorization(
        r0=r0,
        beta=beta,
        U_cols=ColumnStore.from_column(u, capacity),
        V_cols=ColumnStore.from_column(z / alpha, capacity),
        orthonormal=True,
        alpha=alpha,
    )


def _step_golub_kahan(state, A):
    # H column k is (alpha_k, beta_{k+1}) in rows k, k+1; the same step
    # prepares v_{k+1} and alpha_{k+1}; both sides reorthogonalize once
    c, U, V = A.counters, state.U_cols, state.V_cols
    k = len(state.h_cols) + 1
    state.last_product = A.apply(V[-1])
    w = state.last_product - state.alpha * U[-1]
    for u in U:
        w -= tracked_dot(c, u, w) * u
    beta = tracked_norm(c, w)
    h = np.zeros(k + 1)
    h[k - 1 :] = state.alpha, beta
    state.h_cols.append(h)
    if beta <= 1e-14 * state.alpha:
        state.breakdown = True
        return
    U.append(w / beta)
    z = A.apply_transpose(U[-1]) - beta * V[-1]
    for v in V:
        z -= tracked_dot(c, v, z) * v
    alpha = tracked_norm(c, z)
    if alpha <= 1e-14 * beta:
        state.breakdown = True
        return
    V.append(z / alpha)
    state.alpha = alpha


# ---------------------------------------------------------------------------
# the six solvers; builder names are looked up when a solver is called


def gmres(A, b, cfg=None, x_true=None):
    """Arnoldi-based minimal-residual reference for square systems.

    Modified Gram-Schmidt with one reorthogonalization pass; all inner
    products go through the tracked kernels, which is what makes the
    Hessenberg family's zero dot counts meaningful by contrast.  A
    positive cfg.lam damps the projected problem with lam^2 ||y||^2
    (equal to lam^2 ||x||^2 on the orthonormal basis).
    """
    return _krylov(A, b, cfg, x_true, _init_arnoldi, _step_arnoldi, _QuasiMinimal())


def lsqr(A, b, cfg=None, x_true=None):
    """Golub-Kahan-based least-squares reference.

    One reorthogonalization pass on both bidiagonalization sequences;
    cfg.lam > 0 gives damped least squares min ||Ax-b||^2 + lam^2||x||^2
    restricted to the Krylov subspace.
    """
    return _krylov(
        A, b, cfg, x_true, _init_golub_kahan, _step_golub_kahan, _QuasiMinimal()
    )


def cmrh(A, b, cfg=None, x_true=None):
    """Quasi-minimal residual on the pivoted Hessenberg basis (square A).

    Minimizes ||beta e1 - H_{k+1,k} y|| (plus lam^2 ||y||^2 when
    cfg.lam > 0) and maps back through the unit triangular basis; the
    true residual then sits within a factor kappa(L_{k+1}) of the best
    residual in the same subspace.
    """
    return _krylov(A, b, cfg, x_true, init_square, step_square, _QuasiMinimal())


def lslu(A, b, cfg=None, x_true=None):
    """Quasi-minimal residual on the generalized Hessenberg bases.

    Rectangular analogue of cmrh: the data-space basis D plays the role
    of L_{k+1}, and the residual bound factor is kappa(D_{k+1}).
    """
    return _krylov(
        A, b, cfg, x_true, init_generalized, step_generalized, _QuasiMinimal()
    )


def scmrh(A, b, cfg=None, x_true=None, *, sketch_basis=False, sketch=None):
    """Sketched projected minimal residual on the Hessenberg basis.

    Draws one Gaussian embedding S from cfg.seed and solves
    min ||S(A L_k y - r0)|| per iteration, appending the column
    S (A l_k) of each step (sketched a block of steps at a time).  With
    ``sketch_basis`` the sketched system is instead assembled as
    (S L_{k+1}) H_{k+1,k}, which is the same matrix in exact arithmetic.
    A prebuilt ``sketch`` overrides the seeded draw.  A positive cfg.lam
    adds lam^2 ||S1 L_k y||^2, with S1 drawn from a seed derived from
    cfg.seed.
    """
    form = _Sketched(sketch, sketch_basis)
    return _krylov(A, b, cfg, x_true, init_square, step_square, form)


def slslu(A, b, cfg=None, x_true=None, *, sketch_basis=False, sketch=None):
    """Sketched projected least squares on the generalized bases.

    Solves min ||S2(A L_k y - r0)||^2 + lam^2 ||S1 L_k y||^2 (the penalty
    only when cfg.lam > 0), with the same ``sketch_basis`` and ``sketch``
    options as :func:`scmrh`.
    """
    form = _Sketched(sketch, sketch_basis)
    return _krylov(A, b, cfg, x_true, init_generalized, step_generalized, form)


def projected_minres_oracle(A, basis, b):
    """Exact minimal residual over the span of the given basis columns.

    Forms A times each basis column densely (uncounted: this is a
    verification tool, not part of any solver's budget), solves the tall
    least-squares problem, and returns (y, residual_norm).
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim == 1:
        basis = basis.reshape(-1, 1)
    b = np.asarray(b, dtype=float)
    M = np.empty((A.rows, basis.shape[1]))
    for j in range(basis.shape[1]):
        M[:, j] = A.forward(basis[:, j])
    y = dense_qr_ls(M, b)
    return y, float(np.linalg.norm(M @ y - b))


SOLVERS = {
    "gmres": gmres,
    "lsqr": lsqr,
    "cmrh": cmrh,
    "lslu": lslu,
    "scmrh": scmrh,
    "slslu": slslu,
}
