"""Iterative solvers: one Krylov driver, four basis builders, three projections.

Six solvers share one interface ``solver(A, b, cfg, x_true=None)`` and one
loop.  Each step, a basis builder extends a data-space basis U_{k+1}, a
solution-space basis V_k and the Hessenberg matrix H with
A V_k = U_{k+1} H_{k+1,k}; a projected-problem form turns that state into
a data system [C | c] and a penalty basis P, the driver stacks them into
Z = [C c; lam P 0], and step k solves min ||Z_k y - z|| on the first k
columns Z_k of Z and its last column z; the iterate is x_k = x0 + V_k y.

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
    # unused since the driver stacks the damping rows itself; kept because
    # the benchmark harness patches this name on this module
    stacked_tikhonov_ls,  # noqa: F401
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
        for name in ("maxiter", "sketch_rows", "seed"):
            value = getattr(self, name)
            if value is not None and not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be positive, got {self.maxiter}")
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
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


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def _projected_solve(R, Z, k):
    """Least-squares solve of step k's projected problem min ||Z_k y - z||,
    Z_k the first k columns of the stacked system Z and z its last column,
    with a truncated-rank fallback; returns (y, fallback_used, R).

    While R, the triangle of one Householder QR of Z, is given, step k
    solves its leading k-by-k triangle against the first k entries of its
    last column: the same pivoted rank test, on a matrix with the
    singular values of Z_k.  The first rank deficiency there drops R:
    appending columns never raises the rank, so this step and every later
    one solve Z_k itself, by pivoted QR, then by truncated least squares.
    """
    if R is not None:
        try:
            return dense_qr_ls(R[:k, :k], R[:k, -1]), False, R
        except RankDeficiencyError:
            pass
    Zk, z = Z[:, :k], Z[:, -1]
    try:
        return dense_qr_ls(Zk, z), False, None
    except RankDeficiencyError:
        return np.linalg.lstsq(Zk, z, rcond=None)[0], True, None


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
        rec.rel_err = float(np.linalg.norm(x - x_true) / np.linalg.norm(x_true))
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
    This is the only iteration loop and the only place that reads ``b``,
    ``cfg.x0``, ``x_true`` and ``cfg.lam``: it owns input checks, r0,
    trivial returns, the damped projected solve with its rank fallback,
    and the trace records.

    The builder never reads the projected problem, so a solve is two
    passes.  The build pass takes every step first, stopping at
    ``maxiter``, the dimension or a breakdown; ``form.collect`` sees each
    step, and the driver keeps each step's counter snapshot, basis
    lengths and seconds.  The form then returns its data system [C | c]
    and penalty basis P, the driver stacks Z = [C c; lam P 0] and factors
    it once by Householder QR, and the solve pass solves and records
    every k in order off that one R: ``proj_obj`` is ||Z_k y - z||, and
    ``sres_norm`` the norm of its rows of C.  Each record carries its own
    step's operator and dot counts, and ``form.sketches`` charges each
    sketched column to the step that produced it, so every record reads
    as if the steps had run one at a time.
    """
    cfg = cfg or SolverConfig()
    A = A.with_fresh_counters()
    b = _finite_vector("b", b, A.rows)
    x0 = None if cfg.x0 is None else _finite_vector("x0", cfg.x0, A.cols)
    if x_true is not None:
        x_true = _finite_vector("x_true", x_true, A.cols)
        if np.linalg.norm(x_true) == 0.0:
            raise ValueError("x_true must be nonzero for relative errors")
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
    form.start(A, cfg, state, steps)
    built = []
    while len(built) < steps and not state.breakdown:
        tic = time.perf_counter()
        step(state, A)
        form.collect(state)
        lengths = len(state.U_cols), len(state.V_cols)
        built.append(_Step(A.counters.snapshot(), *lengths, time.perf_counter() - tic))
    tic = time.perf_counter()
    damped = cfg.lam > 0.0
    Z, P = form.stacked(state, damped)
    data_rows = Z.shape[0]
    if damped:
        Z = np.vstack([Z, np.column_stack([cfg.lam * P, np.zeros(P.shape[0])])])
    R = np.linalg.qr(Z, mode="r")
    # the first solve waits on the whole system and its QR
    built[0].seconds += time.perf_counter() - tic
    trace = SolverTrace()
    for k, done in enumerate(built, start=1):
        tic = time.perf_counter()
        y, fallback, R = _projected_solve(R, Z, k)
        # one GEMV on a view of the solution basis
        Vk = state.V_cols.matrix(k)
        x = Vk @ y
        if x0 is not None:
            x = x0 + x
        residual = Z[:, :k] @ y - Z[:, -1]
        rec = TraceRecord(iteration=k, proj_obj=float(np.linalg.norm(residual)))
        rec.rank_fallback = fallback
        if form.sketched:
            rec.sres_norm = float(np.linalg.norm(residual[:data_rows]))
        if cfg.compute_diagnostics:
            U = state.U_cols.matrix(done.u_len)
            rec.kappa_basis = spectral_condition_number(U)
            if damped and not state.orthonormal:
                block = scipy.linalg.block_diag(U, Vk)
                rec.kappa_dbar = spectral_condition_number(block)
            if form.sketched:
                # the distortion of S on span(r0, A V_k): in exact
                # arithmetic U_{k+1} spans exactly that space, at a
                # breakdown too, with full column rank by construction
                rec.eps_embed = measured_epsilon(form.S, U)
        counts = (*done.counts[:3], form.sketches(k, done))
        _observe(rec, A, b, x, cfg, x_true, counts)
        rec.wall_ms = (done.seconds + time.perf_counter() - tic) * 1e3
        trace.records.append(rec)
    termination = "breakdown" if state.breakdown else "maxiter"
    return SolveResult(x=x, trace=trace, termination=termination, factorization=state)


@dataclass
class _Step:
    """What the build pass keeps of one builder step for the solve pass:
    the counter snapshot, both basis lengths and the seconds spent on it."""

    counts: tuple
    u_len: int
    v_len: int
    seconds: float


# ---------------------------------------------------------------------------
# projected-problem forms: start, collect each step, then return the data
# system [C | c] and the penalty basis P once, for the driver to stack


class _QuasiMinimal:
    """min ||beta e1 - H_{k+1,k} y|| (+ lam^2 ||y||^2).

    Minimizes the residual's coordinates in the data basis; the true
    residual then sits within a factor kappa(U_{k+1}) of the best one in
    the same subspace (exactly the best one for an orthonormal basis).
    H is formed once, after the build pass; its first k columns are zero
    below row k+1, so step k's system is H_{k+1,k}.  The penalty basis
    is the identity.
    """

    sketched = False

    def start(self, A, cfg, state, steps):
        pass

    def collect(self, state):
        pass

    def stacked(self, state, penalty):
        # [H | beta e1], and I_K when the driver damps
        H = state.H_matrix()
        rhs = np.zeros(H.shape[0])
        rhs[0] = state.beta
        return np.column_stack([H, rhs]), np.eye(H.shape[1]) if penalty else None

    def sketches(self, k, done):
        return 0


# builder steps whose unreduced products the sketched-products form
# sketches with one GEMM; BENCH_9.json compares blocks of 8, 16 and 32
_BLOCK = 32


class _Sketched:
    """min ||S (A V_k y - r0)|| (+ lam^2 ||S1 V_k y||^2) under Gaussian sketches.

    The sketched-products form stacks S (A v_k) for each product; the
    sketched-basis form forms (S U_{K+1}) H_{K+1,K}, the same matrix in
    exact arithmetic.  S is drawn from cfg.seed unless a prebuilt
    ``sketch`` is given; the penalty basis S1 V_K, only when the driver
    damps, with S1 drawn from a seed derived from cfg.seed.

    A dense sketch is streamed through memory once per application, so
    each sketch is applied to many columns at once.  The products form
    copies each unreduced product into an n-by-``_BLOCK`` buffer as the
    builder makes it and sketches the buffer with one GEMM whenever it
    fills, and once more for the rest after the build pass; the buffer is
    then released.  S U_{K+1} and the penalty's S1 V are one GEMM each
    over their stores, after the build pass.  ``sketches`` charges each
    column to the step that produced it.
    """

    sketched = True

    def __init__(self, sketch, basis):
        self.S, self.basis = sketch, basis

    def start(self, A, cfg, state, steps):
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
        self.sr0 = sketch_apply(self.S, state.r0, self.counters)
        if not self.basis:
            self.M = np.empty((ell, steps), order="F")
            self.products = np.empty((A.rows, min(_BLOCK, steps)), order="F")
            self.flushed = 0
        self.S1, self.S1_seed = None, derive_seed(cfg.seed, 1)

    def collect(self, state):
        if not self.basis:
            k = len(state.h_cols)
            self.products[:, k - 1 - self.flushed] = state.last_product
            if k - self.flushed == self.products.shape[1]:
                self._flush(k)

    def _flush(self, k):
        # one GEMM over the products buffered since the last flush
        if k > self.flushed:
            block = self.products[:, : k - self.flushed]
            self.M[:, self.flushed : k] = sketch_apply(self.S, block, self.counters)
            self.flushed = k

    def stacked(self, state, penalty):
        # [M | S r0], and S1 V_K when the driver damps
        K = len(state.h_cols)
        if self.basis:
            U = state.U_cols.matrix()
            # at a breakdown U lacks its last column, and H's last row is 0
            SU = sketch_apply(self.S, U, self.counters)
            M = SU @ state.H_matrix(rows=U.shape[1])
        else:
            self._flush(K)
            self.products = None
            M = self.M[:, :K]
        system = np.column_stack([M, self.sr0])
        if not penalty:
            return system, None
        V = state.V_cols.matrix()
        self.S1 = make_gaussian_sketch(self.S.out_rows, V.shape[0], self.S1_seed)
        return system, sketch_apply(self.S1, V, self.counters)[:, :K]

    def sketches(self, k, done):
        # S r0, then per step its product or the columns it added to U,
        # and the columns it added to V when damped
        count = 1 + (done.u_len if self.basis else k)
        return count if self.S1 is None else count + done.v_len


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
    min ||S(A L_k y - r0)|| per iteration, whose column k is S (A l_k)
    (the products are sketched a block at a time).  With
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
