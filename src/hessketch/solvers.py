"""Iterative solvers: one Krylov driver, four basis builders, one optional sketch.

Six solvers share one interface ``solver(A, b, cfg, x_true=None)`` and one
loop.  Each step, a basis builder extends a data-space basis U_{k+1}, a
solution-space basis V_k and the Hessenberg matrix H with
A V_k = U_{k+1} H_{k+1,k}; the driver stacks the data system [C | c] =
[H | beta e1], premultiplied by S U_{K+1} when the solver sketches, over
the penalty rows [lam P | 0] into Z, and step k solves min ||Z_k y - z||
on the first k columns Z_k of Z and its last column z; the iterate is
x_k = V_k y.  Every solve starts from x = 0, so r0 = b.  One Householder
QR Z = QR serves every step: step k solves its k-by-k triangle by a
pivoted QR that forms no Q, and reads ``proj_obj`` off R's last column;
every step's error is read off one pass over V, in row blocks, without
forming the iterates, and every step's residual norm off the
factorization, without an operator apply.

=========  ======================  ========================================
solver     basis builder           projected problem
=========  ======================  ========================================
``gmres``  Arnoldi                 quasi-minimal on H: min ||beta e1 - H y||
``lsqr``   Golub-Kahan             quasi-minimal on H (H is bidiagonal)
``cmrh``   pivoted Hessenberg      quasi-minimal on H
``lslu``   generalized Hessenberg  quasi-minimal on H
``scmrh``  pivoted Hessenberg      sketched: min ||S (A V_k y - r0)||, the
                                   quasi-minimal system times S U_{k+1}
``slslu``  generalized Hessenberg  as ``scmrh``
=========  ======================  ========================================

The references (Arnoldi, Golub-Kahan) orthonormalize with inner products,
in block form: Arnoldi by classical Gram-Schmidt twice, Golub-Kahan by one
block pass per side, each pass two GEMVs on the basis.  The Hessenberg
builders read every coefficient off a pivot entry instead.
Every solver honors ``cfg.lam``: a positive value adds lam^2 ||y||^2 to the
quasi-minimal problems and the sketched penalty lam^2 ||S1 V_k y||^2 to the
sketched ones.

Counter semantics: the counters on the returned trace report the
operations the algorithm itself performed: forward/transpose
applications, tracked inner products and sketch applications, the last
two one per inner product or sketched column, not per call.  Diagnostics
(the residual norm, condition numbers and embedding distortion, all read
off one QR per basis) apply no operator and never perturb the iterate
sequence, so a trace's cost columns are identical either way.
``res_norm`` is the factorization's residual ||R_U (beta e1 - H y_k)||:
||b - A x_k|| in exact arithmetic, but blind to the rounding of
A V = U H, which the CLI's ``final_res``, the explicit residual of the
returned x, does see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtrmm, dtrsm

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
    _check_int,
    _check_real,
    _finite_vector,
    _real,
    condition_number,
    dense_qr_ls,
    stacked_tikhonov_ls,  # noqa: F401  unused; the benchmark patches it here
    tracked_dot,
    tracked_norm,
)
from .sketch import derive_seed, make_gaussian_sketch
from .sketch import _distortion, sketch_apply

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

    ``sketch_rows`` of None means the experiment default 10*(K+1), for
    the K = min(maxiter, n) steps a solve on n columns can take.
    ``pivot`` only affects the Hessenberg-based solvers; ``seed`` only the
    sketched ones: it determines S and S1.
    """

    maxiter: int = 30
    pivot: PivotStrategy = field(default_factory=PivotStrategy.full)
    sketch_rows: int = None
    lam: float = 0.0
    seed: int = 0
    compute_diagnostics: bool = False

    def __post_init__(self):
        # a config file with several bad values is reported by the first
        # of maxiter, lam, sketch_rows and seed
        _check_int("maxiter", self.maxiter, 1)
        _check_real("lam", self.lam, 0)
        if self.sketch_rows is not None:
            _check_int("sketch_rows", self.sketch_rows, 1)
        _check_int("seed", self.seed, 0)
        if not isinstance(self.pivot, PivotStrategy):
            raise ValueError(f"pivot must be a PivotStrategy, got {self.pivot!r}")
        if not isinstance(self.compute_diagnostics, (bool, np.bool_)):
            raise ValueError(
                f"compute_diagnostics must be a bool, got {self.compute_diagnostics!r}"
            )

    def effective_sketch_rows(self, cols):
        """Rows of the data sketch for an operator with ``cols`` columns."""
        if self.sketch_rows is None:
            return 10 * (min(self.maxiter, cols) + 1)
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


def trace_to_csv(trace, target):
    """Serialize a trace with the fixed column order.

    The last column, ``wall_ms``, is always empty: no record carries a
    time, so identical runs replay byte-identically.
    """
    lines = [",".join(CSV_COLUMNS)]
    for r in trace.records:
        cells = [str(r.iteration)]
        cells += [_cell(getattr(r, name)) for name in CSV_COLUMNS[1:-1]]
        lines.append(",".join(cells) + ",")
    content = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(content)
    else:
        with open(target, "w", newline="") as fh:
            fh.write(content)


def _projected_solve(R, Z, k):
    """Least-squares solve of step k's projected problem min ||Z_k y - z||,
    Z_k the first k columns of the stacked system Z and z its last column;
    returns (y, fallback_used).

    R is the triangle of one Householder QR of Z, so step k solves its
    leading k-by-k triangle against the first k entries of its last
    column, by the pivoted QR of :func:`dense_qr_ls`, which forms no Q: a
    matrix with the singular values of Z_k.  The residual of a step that
    passes is then R's last column below row k, which the driver reads as
    ``proj_obj``.  When that triangle fails the rank test, Z_k is solved
    by truncated least squares instead.  Nothing is read from other steps.
    """
    try:
        return dense_qr_ls(R[:k, :k], R[:k, -1]), False
    except RankDeficiencyError:
        return np.linalg.lstsq(Z[:, :k], Z[:, -1], rcond=None)[0], True


# ---------------------------------------------------------------------------
# the driver


def _krylov(A, b, cfg, x_true, init, step, sketched=False):
    """Run one solve with basis builder ``init``/``step``.

    ``init(A, r0, strategy, capacity=...)`` returns a
    :class:`KrylovFactorization` whose bases have room for every column
    the solve can produce, or raises TrivialSolution; ``step(state, A)``
    extends it by one column.
    This is the only iteration loop and the only place that reads ``b``,
    ``x_true``, ``cfg.lam`` and the sketch: it owns input checks, the
    start r0 = b, trivial returns, the damped projected solve with its rank
    fallback, and the trace records.  A sketched solve holds the data
    sketch S, drawn from ``cfg.sketch_rows`` and ``cfg.seed`` once the
    start proves nontrivial; the quasi-minimal solves have none.

    The builder never reads the projected problem, so a solve is two
    passes.  The build pass takes every step first, stopping at
    ``maxiter``, the dimension or a breakdown, and keeps each step's
    counter snapshot and basis lengths.  The driver then stacks
    Z (:func:`_stacked`) and factors it once by Householder QR, and the
    solve pass solves and records every k off that one R, each step from
    its own k alone (:func:`_projected_solve`).  ``proj_obj`` is
    ||Z_k y - z||: ||R[k:, K]||, read off R's last column, when the step's
    triangle passes the rank test, and the explicit residual on a
    fallback.  ``sres_norm`` is the norm of the residual's data rows:
    ``proj_obj`` undamped, and damped the data rows of Z Y - z, one GEMM
    with Y the upper triangle of every y_k.  Every ``rel_err`` comes from
    one pass over V_K (:func:`_rel_errors`), diagnostics on or off; no
    other field forms an iterate, and the returned x is one GEMV, V_K y_K.
    Each record carries its own step's counts, sketched columns included,
    as if the steps had run one at a time.  Diagnostics read the leading
    blocks of one QR each of U_{K+1}, V and S U_{K+1}: S is never drawn
    whole, and no diagnostic applies A.
    """
    cfg = cfg or SolverConfig()
    A = A.with_fresh_counters()
    b = _finite_vector("b", b, A.rows)
    if x_true is not None:
        x_true = _finite_vector("x_true", x_true, A.cols)
        if np.linalg.norm(x_true) == 0.0:
            raise ValueError("x_true must be nonzero for relative errors")
    # a Krylov space has at most A.cols dimensions: the Hessenberg builders
    # break down by then, and the references stop here
    steps = min(cfg.maxiter, A.cols)
    # S sketches at most steps + 1 columns of U
    rows = cfg.effective_sketch_rows(A.cols)
    if sketched and rows < steps + 1:
        raise ValueError(
            f"sketch_rows={rows} cannot embed a {steps}-dimensional projected "
            f"problem; need at least {steps + 1} rows"
        )
    try:
        state = init(A, b, cfg.pivot, capacity=steps + 1)
    except TrivialSolution:
        # x = 0, so its error is all of x_true and its residual all of b
        rec = TraceRecord(iteration=0)
        rec.matvecs, rec.tmatvecs, rec.dots, rec.sketches = A.counters.snapshot()
        if x_true is not None:
            rec.rel_err = 1.0
        if cfg.compute_diagnostics:
            rec.res_norm = float(np.linalg.norm(b))
        return SolveResult(np.zeros(A.cols), SolverTrace([rec]), "trivial")
    S = make_gaussian_sketch(rows, A.rows, cfg.seed) if sketched else None
    built = []
    while len(built) < steps and not state.breakdown:
        step(state, A)
        built.append(_Step(A.counters.snapshot(), len(state.U_cols), len(state.V_cols)))
    damped = cfg.lam > 0.0
    Z, data_rows, T = _stacked(state, S, cfg, A.counters)
    R = np.linalg.qr(Z, mode="r")
    if cfg.compute_diagnostics:
        # one QR per basis: U_j = Q_j R_j takes the leading j-by-j block
        R_U = np.linalg.qr(state.U_cols.matrix(), mode="r")
        own_V = damped and not state.orthonormal and state.V_cols is not state.U_cols
        R_V = np.linalg.qr(state.V_cols.matrix(), mode="r") if own_V else R_U
        H = state.H_matrix()
    K = len(built)
    # column k-1 holds y_k: the upper triangle of every step's solution
    Y = np.zeros((K, K))
    trace = SolverTrace()
    for k, done in enumerate(built, start=1):
        y, fallback = _projected_solve(R, Z, k)
        Y[:k, k - 1] = y
        # the columns of U, and of V when damped, that step k's basis holds
        sketches = done.u_len + damped * done.v_len if S is not None else 0
        rec = TraceRecord(k, rank_fallback=fallback, sketches=sketches)
        rec.matvecs, rec.tmatvecs, rec.dots = done.counts[:3]
        if fallback:
            rec.proj_obj = float(np.linalg.norm(Z[:, :k] @ y - Z[:, -1]))
        else:
            # Z = QR and R_k y = R[:k, K], so the residual is Q times R's
            # last column below row k
            rec.proj_obj = float(np.linalg.norm(R[k:, -1]))
        if S is not None and not damped:
            rec.sres_norm = rec.proj_obj
        if cfg.compute_diagnostics:
            j = done.u_len
            R_j = R_U[:j, :j]
            # r_k = r0 - A V_k y = U_{k+1} (beta e1 - H y) and U_j = Q_j R_j,
            # so ||r_k|| = ||R_j (beta e1 - H y)[:j]||; at a breakdown U
            # lacks u_{k+1}, and j = k drops H's zero row
            r = -(H[:j, :k] @ y)
            r[0] += state.beta
            rec.res_norm = float(np.linalg.norm(R_j @ r))
            s = np.linalg.svd(R_j, compute_uv=False)
            rec.kappa_basis = condition_number(s)
            if damped and not state.orthonormal:
                # diag(U_j, V_k) has the union of their singular values
                s_v = np.linalg.svd(R_V[:k, :k], compute_uv=False)
                rec.kappa_dbar = condition_number(s, s_v)
            if S is not None:
                # S's distortion on span(U_j) = span(r0, A V_k): S U_j =
                # Q_S T_j, so S Q_j = Q_S T_j R_j^-1, one triangular solve
                rec.eps_embed = _distortion(dtrsm(1.0, R_j, T[:j, :j], side=1))
        trace.records.append(rec)
    if S is not None and damped:
        # the data rows of every step's residual Z_k y_k - z, one GEMM
        data = Z[:data_rows, :K] @ Y - Z[:data_rows, -1:]
        for rec, value in zip(trace.records, np.linalg.norm(data, axis=0)):
            rec.sres_norm = float(value)
    if x_true is not None:
        errors = _rel_errors(state.V_cols.matrix(K), Y, x_true)
        for rec, error in zip(trace.records, errors):
            rec.rel_err = float(error)
    # the returned iterate is one GEMV on a view of the solution basis
    x = state.V_cols.matrix(K) @ y
    termination = "breakdown" if state.breakdown else "maxiter"
    return SolveResult(x=x, trace=trace, termination=termination, factorization=state)


# the solve pass reads the errors off row blocks of at most this many bytes
_ERROR_BLOCK_BYTES = 256 << 10


def _rel_errors(V, Y, x_true):
    """||x_k - x_true|| / ||x_true|| of every iterate x_k = V y_k, y_k
    column k-1 of Y, in one pass over V: each row block of V is copied into
    one buffer of at most ``_ERROR_BLOCK_BYTES`` (one row at least), times
    Y's upper triangle in place, and adds its squares to every step's sum.
    """
    n, K = V.shape
    rows = max(1, _ERROR_BLOCK_BYTES // (8 * K))
    buffer = np.empty(min(rows, n) * K)
    squares = np.zeros(K)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        X = buffer[: (stop - start) * K].reshape((stop - start, K), order="F")
        X[...] = V[start:stop]
        # X Y with Y's transpose, a lower triangle in Fortran order: no copy
        dtrmm(1.0, Y.T, X, side=1, lower=1, trans_a=1, overwrite_b=True)
        X -= x_true[start:stop, None]
        squares += np.einsum("ij,ij->j", X, X)
    return np.sqrt(squares) / np.linalg.norm(x_true)


@dataclass
class _Step:
    """What the build pass keeps of one builder step for the solve pass:
    the counter snapshot and both basis lengths."""

    counts: tuple
    u_len: int
    v_len: int


def _stacked(state, S, cfg, counters):
    """The stacked system Z = [C c; lam P 0], its number of data rows, and
    the triangle T of S U_{K+1} = Q_S T when diagnostics are on (else None).

    Unsketched, [C | c] = [H | beta e1] and P = I_K: H's first k columns
    are zero below row k+1, so step k minimizes ||beta e1 - H_{k+1,k} y||
    (+ lam^2 ||y||^2).  A V_k = U_{k+1} H and r0 = beta u_1, so with S
    the sketched residual S (A V_k y - r0) is S U_{k+1} (H y - beta e1):
    [C | c] is [H | beta e1] premultiplied by S U_{K+1}, one GEMM (at a
    breakdown U lacks its last column, and H's last row is zero), and
    P = S1 V_K, S1 drawn from a seed derived from cfg.seed.
    """
    K = state.k
    # [H | beta e1], without keeping H alive next to it
    C = np.column_stack([state.H_matrix(), np.zeros(K + 1)])
    C[0, -1] = state.beta
    T = None
    if S is not None:
        SU = sketch_apply(S, state.U_cols.matrix(), counters)
        if cfg.compute_diagnostics:
            T = np.linalg.qr(SU, mode="r")
        C = SU @ C[: SU.shape[1]]
        del SU
    if cfg.lam == 0.0:
        return C, C.shape[0], T
    if S is None:
        P = np.eye(K)
    else:
        V = state.V_cols.matrix()
        S1 = make_gaussian_sketch(S.out_rows, V.shape[0], derive_seed(cfg.seed, 1))
        P = sketch_apply(S1, V, counters)[:, :K]
    penalty = np.column_stack([cfg.lam * P, np.zeros(P.shape[0])])
    return np.vstack([C, penalty]), C.shape[0], T


# ---------------------------------------------------------------------------
# orthonormal basis builders (the references)


def _unit_start(A, r0):
    beta = tracked_norm(A.counters, r0)
    if beta == 0.0:
        raise TrivialSolution("initial residual is zero; starting point is exact")
    return beta, r0 / beta


def _init_arnoldi(A, r0, strategy=None, *, capacity):
    if not A.is_square:
        raise ValueError("gmres needs a square operator")
    beta, v1 = _unit_start(A, r0)
    V = ColumnStore.from_column(v1, capacity)
    return KrylovFactorization(beta=beta, U_cols=V, V_cols=V, orthonormal=True)


def _step_arnoldi(state, A):
    # classical Gram-Schmidt twice, each pass two GEMVs on the basis
    c, V = A.counters, state.V_cols
    Vk = V.matrix()
    w = A.apply(V.column(-1))
    h = tracked_dot(c, Vk, w)
    w = w - Vk @ h  # a new array: A's output is never written
    corr = tracked_dot(c, Vk, w)
    w -= Vk @ corr
    h = np.append(h + corr, tracked_norm(c, w))
    state.H[: h.size, state.k] = h
    state.k += 1
    # relative test: an exactly-zero norm never survives rounding
    state.breakdown = bool(h[-1] <= 1e-14 * np.linalg.norm(h))
    if not state.breakdown:
        V.append(w / h[-1])


def _init_golub_kahan(A, r0, strategy=None, *, capacity):
    beta, u = _unit_start(A, r0)
    z = A.apply_transpose(u)
    alpha = tracked_norm(A.counters, z)
    if alpha == 0.0:
        raise TrivialSolution(
            "transposed residual is zero; the normal equations already hold"
        )
    return KrylovFactorization(
        beta=beta,
        U_cols=ColumnStore.from_column(u, capacity),
        V_cols=ColumnStore.from_column(z / alpha, capacity),
        orthonormal=True,
        alpha=alpha,
    )


def _step_golub_kahan(state, A):
    # H column k is (alpha_k, beta_{k+1}) in rows k, k+1; the same step
    # prepares v_{k+1} and alpha_{k+1}; both sides reorthogonalize once
    c, U, V, k = A.counters, state.U_cols, state.V_cols, state.k
    w = A.apply(V.column(-1)) - state.alpha * U.column(-1)
    Uk = U.matrix()
    w -= Uk @ tracked_dot(c, Uk, w)
    beta = tracked_norm(c, w)
    state.H[k : k + 2, k] = state.alpha, beta
    state.k += 1
    if beta <= 1e-14 * state.alpha:
        state.breakdown = True
        return
    U.append(w / beta)
    z = A.apply_transpose(U.column(-1)) - beta * V.column(-1)
    Vk = V.matrix()
    z -= Vk @ tracked_dot(c, Vk, z)
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

    Classical Gram-Schmidt twice, each pass two GEMVs on the basis
    ("twice is enough"); all inner products go through the tracked
    kernels, which is what makes the Hessenberg family's zero dot counts
    meaningful by contrast.  A positive cfg.lam damps the projected
    problem with lam^2 ||y||^2 (equal to lam^2 ||x||^2 on the orthonormal
    basis).
    """
    return _krylov(A, b, cfg, x_true, _init_arnoldi, _step_arnoldi)


def lsqr(A, b, cfg=None, x_true=None):
    """Golub-Kahan-based least-squares reference.

    Each step reorthogonalizes both bidiagonalization sequences against
    their whole bases, in one block pass per side of two GEMVs; cfg.lam > 0
    gives damped least squares min ||Ax-b||^2 + lam^2||x||^2 restricted to
    the Krylov subspace.
    """
    return _krylov(A, b, cfg, x_true, _init_golub_kahan, _step_golub_kahan)


def cmrh(A, b, cfg=None, x_true=None):
    """Quasi-minimal residual on the pivoted Hessenberg basis (square A).

    Minimizes ||beta e1 - H_{k+1,k} y|| (plus lam^2 ||y||^2 when
    cfg.lam > 0) and maps back through the unit triangular basis; the
    true residual then sits within a factor kappa(L_{k+1}) of the best
    residual in the same subspace.
    """
    return _krylov(A, b, cfg, x_true, init_square, step_square)


def lslu(A, b, cfg=None, x_true=None):
    """Quasi-minimal residual on the generalized Hessenberg bases.

    Rectangular analogue of cmrh: the data-space basis D plays the role
    of L_{k+1}, and the residual bound factor is kappa(D_{k+1}).
    """
    return _krylov(A, b, cfg, x_true, init_generalized, step_generalized)


def scmrh(A, b, cfg=None, x_true=None):
    """Sketched projected minimal residual on the Hessenberg basis.

    Draws one Gaussian embedding S of cfg.sketch_rows rows from cfg.seed
    and solves min ||S(A L_k y - r0)|| per iteration, assembled after the
    build pass as (S L_{k+1}) [H_{k+1,k} | beta e1], since
    A L_k = L_{k+1} H_{k+1,k} and r0 = beta l_1.  A positive cfg.lam adds
    lam^2 ||S1 L_k y||^2, with S1 of S's rows drawn from
    ``derive_seed(cfg.seed, 1)``.
    """
    return _krylov(A, b, cfg, x_true, init_square, step_square, True)


def slslu(A, b, cfg=None, x_true=None):
    """Sketched projected least squares on the generalized bases.

    Solves min ||S2(A L_k y - r0)||^2 + lam^2 ||S1 L_k y||^2 (the penalty
    only when cfg.lam > 0), with the data system assembled as
    (S2 D_{k+1}) [H_{k+1,k} | beta e1] and S2, S1 drawn from the config
    as for :func:`scmrh`.
    """
    return _krylov(A, b, cfg, x_true, init_generalized, step_generalized, True)


def projected_minres_oracle(A, basis, b):
    """Exact minimal residual over the span of the given basis columns.

    Forms A times each basis column densely (uncounted: this is a
    verification tool, not part of any solver's budget), solves the tall
    least-squares problem, and returns (y, residual_norm).
    """
    basis = _real("basis", basis)
    basis = basis.reshape(len(basis), -1)  # a vector is one column
    b = _real("b", b)
    M = np.column_stack([A.forward(v) for v in basis.T])
    y = dense_qr_ls(M, b)
    return y, float(np.linalg.norm(M @ y - b))


SOLVERS = {solve.__name__: solve for solve in (gmres, lsqr, cmrh, lslu, scmrh, slslu)}
