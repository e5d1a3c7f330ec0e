import csv
import io
import itertools
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.io

from hessketch import cli
from hessketch import sketch as sketch_module
from hessketch import solvers
from hessketch.hessenberg import PivotStrategy, dump_factorization
from hessketch.linops import (
    LinearOperator,
    RankDeficiencyError,
    dense_qr_ls,
    stacked_tikhonov_ls,
)
from hessketch.problems import gaussian_psf, make_deblur, make_tomography
from hessketch.sketch import derive_seed, make_gaussian_sketch, sketch_apply
from hessketch.solvers import (
    CSV_COLUMNS,
    SOLVERS,
    SolverConfig,
    TraceRecord,
    cmrh,
    gmres,
    lslu,
    lsqr,
    projected_minres_oracle,
    scmrh,
    slslu,
    trace_to_csv,
)


def make_square(seed, n, shift=4.0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + shift * np.eye(n)
    return M, LinearOperator.from_matrix(M), rng.standard_normal(n)


def make_rect(seed, m, n):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    return M, LinearOperator.from_matrix(M), rng.standard_normal(m)


SQUARE_ONLY = {"gmres", "cmrh", "scmrh"}


def problem_for(name, seed):
    return make_square(seed, 20) if name in SQUARE_ONLY else make_rect(seed, 30, 15)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_and_validation():
    cfg = SolverConfig()
    assert cfg.maxiter == 30
    assert cfg.effective_sketch_rows(100) == 310
    assert SolverConfig(maxiter=5).effective_sketch_rows(100) == 60
    assert SolverConfig(sketch_rows=99).effective_sketch_rows(100) == 99
    with pytest.raises(ValueError):
        SolverConfig(maxiter=0)
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(sketch_rows=0)
    # an integer beyond every float is no finite real number either
    with pytest.raises(ValueError, match="^lam must be finite, got 1000"):
        SolverConfig(lam=10**400)


def test_negative_seeds_rejected_naming_the_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        SolverConfig(seed=-1)
    with pytest.raises(ValueError, match="pivot seed must be nonnegative, got -2"):
        PivotStrategy.sampled(3, seed=-2)


@pytest.mark.parametrize(
    "sample_size, seed, message",
    [
        (2.5, 0, "pivot sample_size must be an integer, got 2.5"),
        (True, 0, "pivot sample_size must be an integer, got True"),
        (3, 1.5, "pivot seed must be an integer, got 1.5"),
        (3, True, "pivot seed must be an integer, got True"),
    ],
    ids=["sample_size-float", "sample_size-bool", "seed-float", "seed-bool"],
)
def test_non_integer_pivot_values_rejected_naming_the_field(sample_size, seed, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PivotStrategy.sampled(sample_size, seed=seed)
    assert PivotStrategy.sampled(np.int64(3), seed=np.int32(2)).sample_size == 3


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("maxiter", 5.0, "maxiter must be an integer, got 5.0"),
        ("maxiter", True, "maxiter must be an integer, got True"),
        ("sketch_rows", 60.5, "sketch_rows must be an integer, got 60.5"),
        ("seed", "3", "seed must be an integer, got '3'"),
        ("pivot", "sampled", "pivot must be a PivotStrategy, got 'sampled'"),
        ("compute_diagnostics", "no", "compute_diagnostics must be a bool, got 'no'"),
        ("compute_diagnostics", 1, "compute_diagnostics must be a bool, got 1"),
        ("lam", "0.5", "lam must be a real number, got '0.5'"),
        ("lam", True, "lam must be a real number, got True"),
        ("lam", 0.5j, "lam must be a real number, got 0.5j"),
    ],
)
def test_bad_config_value_rejected_naming_the_field(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SolverConfig(**{field: value})
    assert SolverConfig(maxiter=np.int64(5), seed=np.int32(2)).maxiter == 5


def test_config_accepts_numpy_bools_and_real_numbers():
    cfg = SolverConfig(compute_diagnostics=np.bool_(True), lam=np.float32(0.5))
    assert cfg.compute_diagnostics and cfg.lam == 0.5
    assert SolverConfig(lam=1).lam == 1 and SolverConfig(lam=np.int64(2)).lam == 2
    pivot = PivotStrategy.sampled(3, seed=1)
    assert SolverConfig(pivot=pivot).pivot is pivot


def test_sketched_solver_rejects_tiny_sketch():
    _, A, b = make_square(0, 8)
    with pytest.raises(ValueError):
        scmrh(A, b, SolverConfig(maxiter=6, sketch_rows=4))


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_nonfinite_b_rejected(name):
    _, A, b = make_square(41, 6)
    b[2] = np.nan
    with pytest.raises(ValueError, match="b must be finite"):
        SOLVERS[name](A, b, SolverConfig(maxiter=3))


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_misshapen_operator_output_rejected(name):
    # forward and transpose both return columns; the first one applied
    # (forward for the square solvers, transpose for the others) is named
    M, _, b = make_square(44, 6)
    A = LinearOperator(6, 6, lambda x: (M @ x)[:, None], lambda y: (M.T @ y)[:, None])
    with pytest.raises(
        ValueError,
        match=r"operator (forward|transpose) output must have length 6, got shape \(6, 1\)",
    ):
        SOLVERS[name](A, b, SolverConfig(maxiter=3))


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_nonfinite_forward_output_rejected(name):
    M, _, b = make_square(45, 6)
    A = LinearOperator(6, 6, lambda x: np.full(6, np.nan), lambda y: M.T @ y)
    with pytest.raises(ValueError, match="operator forward output must be finite; it contains NaN or inf"):
        SOLVERS[name](A, b, SolverConfig(maxiter=3))


@pytest.mark.parametrize("name", ["lsqr", "lslu", "slslu"])
def test_nonfinite_transpose_output_rejected(name):
    M, _, b = make_square(46, 6)
    A = LinearOperator(6, 6, lambda x: M @ x, lambda y: np.full(6, np.inf))
    with pytest.raises(ValueError, match="operator transpose output must be finite; it contains NaN or inf"):
        SOLVERS[name](A, b, SolverConfig(maxiter=3))


def counting_operator(M, applies):
    # records every forward and transpose apply by direction
    def forward(x):
        applies.append("forward")
        return M @ x

    def transpose(y):
        applies.append("transpose")
        return M.T @ y

    return LinearOperator(M.shape[0], M.shape[1], forward, transpose)


@pytest.mark.parametrize(
    "x_true, message",
    [
        (np.ones(1), "x_true must have length 20"),
        (np.ones(3), "x_true must have length 20"),
        (np.full(20, np.nan), "x_true must be finite"),
        (np.zeros(20), "x_true must be nonzero"),
    ],
    ids=["length-1", "length-3", "nan", "zero"],
)
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_bad_x_true_rejected_before_any_apply(name, x_true, message):
    # lsqr, lslu and slslu start by applying A^T to b, and every solver's
    # first step applies A
    M, _, b = make_square(47, 20)
    applies = []
    A = counting_operator(M, applies)
    with pytest.raises(ValueError, match=message):
        SOLVERS[name](A, b, SolverConfig(maxiter=3), x_true=x_true)
    assert applies == []


# a sketch with fewer out_rows than the 4 a 3-step solve sketches
@pytest.mark.parametrize("rows", [3], ids=["out_rows"])
@pytest.mark.parametrize("name", ["scmrh", "slslu"])
@pytest.mark.parametrize("start", ["b", "b0"])
def test_bad_sketch_rejected_before_any_apply(name, start, rows):
    # slslu's start applies A^T to a nonzero b, and every solver's first
    # step applies A; with b = 0 the start would be trivial
    M, _, b = make_square(48, 20)
    applies = []
    A = counting_operator(M, applies)
    if start == "b0":
        b = np.zeros(20)
    message = (
        f"sketch_rows={rows} cannot embed a 3-dimensional projected problem; "
        "need at least 4 rows"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        SOLVERS[name](A, b, SolverConfig(maxiter=3, sketch_rows=rows))
    assert applies == []


@pytest.mark.parametrize("name", ["scmrh", "slslu"])
def test_sketch_rows_bound_the_krylov_dimension_not_maxiter(name):
    # on 20 columns a solve takes at most 20 steps and sketches at most 21
    # columns, so 21 rows suffice whatever maxiter is, and 20 do not
    _, A, b = make_square(49, 20)
    result = SOLVERS[name](A, b, SolverConfig(maxiter=50, sketch_rows=21))
    assert len(result.trace.records) <= 20
    message = (
        "sketch_rows=20 cannot embed a 20-dimensional projected problem; "
        "need at least 21 rows"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        SOLVERS[name](A, b, SolverConfig(maxiter=50, sketch_rows=20))
    cfg = SolverConfig(maxiter=50, sketch_rows=21, seed=5)
    assert SOLVERS[name](A, b, cfg).trace.records


@pytest.mark.parametrize("name", ["scmrh", "slslu"])
def test_trivial_sketched_start_draws_no_sketch(monkeypatch, name):
    draws = []
    draw = solvers.make_gaussian_sketch

    def recording(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(solvers, "make_gaussian_sketch", recording)
    _, A, _ = make_square(50, 12)
    result = SOLVERS[name](A, np.zeros(12), SolverConfig(maxiter=4, lam=0.5))
    assert result.termination == "trivial" and draws == []


def record_tile_draws(monkeypatch):
    # every tile of Gaussian entries a sketch draws, as (seed, block index,
    # panel index, tile copied), in the order the draws finish, with every
    # sketch applied on two threads
    drawn = []
    draw_tile = sketch_module._draw_tile

    def recording(S, gens, r, c, buffer):
        rows, cols, tile = draw_tile(S, gens, r, c, buffer)
        drawn.append((S.seed, r, c, tile.copy()))
        return rows, cols, tile

    monkeypatch.setattr(sketch_module, "_INLINE_ENTRIES", 0)
    monkeypatch.setattr(sketch_module, "_draw_tile", recording)
    return drawn


@pytest.mark.parametrize("diagnostics", [False, True])
def test_scmrh_draws_its_sketch_in_one_pass(monkeypatch, diagnostics):
    # the solve streams S once, into S U_{K+1}; eps_embed reads that
    # product's triangle, so with diagnostics too each block of S is drawn
    # exactly once
    _, A, b = make_square(52, 20)
    cfg = SolverConfig(maxiter=8, seed=3, compute_diagnostics=diagnostics)
    ell = cfg.effective_sketch_rows(A.cols)
    drawn = record_tile_draws(monkeypatch)
    result = scmrh(A, b, cfg)
    panels = range(-(-A.rows // 1024))
    tiles = sorted((r, c) for _, r, c, _ in drawn)
    assert tiles == [(r, c) for r in range(-(-ell // 32)) for c in panels]
    S = make_gaussian_sketch(ell, A.rows, cfg.seed).entries
    assert all(np.array_equal(tile, S[32 * r : 32 * r + 32, 1024 * c : 1024 * c + 1024])
               for _, r, c, tile in drawn)
    eps = result.trace.column("eps_embed")
    assert all(e is not None for e in eps) == diagnostics


@pytest.mark.parametrize("diagnostics", [False, True])
@pytest.mark.parametrize("name", ["scmrh", "slslu"])
def test_damped_sketches_come_from_the_config(monkeypatch, name, diagnostics):
    # S has the config's rows and seed, S1 S's rows and a seed derived
    # from it; both stream, and eps_embed needs no pass of its own
    _, A, b = problem_for(name, 53)
    cfg = SolverConfig(maxiter=5, lam=0.5, seed=11, sketch_rows=60,
                       compute_diagnostics=diagnostics)
    drawn = record_tile_draws(monkeypatch)
    draws, sketches = [], []
    draw = solvers.make_gaussian_sketch

    def recording(*args):
        draws.append(args)
        sketches.append(draw(*args))
        return sketches[-1]

    monkeypatch.setattr(solvers, "make_gaussian_sketch", recording)
    result = SOLVERS[name](A, b, cfg)
    assert draws == [(60, A.rows, 11), (60, A.cols, derive_seed(11, 1))]
    assert all("entries" not in vars(S) for S in sketches)
    assert len(result.trace.records) == 5
    assert all(r.eps_embed is not None for r in result.trace.records) == diagnostics
    # one pass over each: both 32-row blocks of S and of S1 drawn once,
    # in one panel each
    tiles = sorted((seed, r, c) for seed, r, c, _ in drawn)
    assert tiles == sorted((seed, r, 0) for seed in (11, derive_seed(11, 1)) for r in (0, 1))
    assert sum(len(tile) for _, _, _, tile in drawn) == 2 * 60


@pytest.mark.parametrize("field", ["b", "x_true"])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_complex_inputs_rejected_naming_them(name, field):
    M, _, b = make_square(51, 6)
    applies = []
    A = counting_operator(M, applies)
    inputs = {"b": b, "x_true": np.ones(6)}
    inputs[field] = inputs[field] + 1j
    cfg = SolverConfig(maxiter=3)
    with pytest.raises(ValueError, match=f"^{field} must be real"):
        SOLVERS[name](A, inputs["b"], cfg, x_true=inputs["x_true"])
    assert applies == []


@pytest.mark.parametrize(
    "name, direction",
    [(name, "forward") for name in sorted(SOLVERS)]
    + [(name, "transpose") for name in ("lslu", "lsqr", "slslu")],
)
def test_complex_operator_output_rejected(name, direction):
    M, _, b = make_square(52, 6)
    maps = {"forward": lambda x: M @ x, "transpose": lambda y: M.T @ y}
    plain = maps[direction]
    maps[direction] = lambda v: plain(v) * (1.0 + 1e-3j)
    A = LinearOperator(6, 6, maps["forward"], maps["transpose"])
    message = f"operator {direction} output must be real; it has complex dtype complex128"
    with pytest.raises(ValueError, match=message):
        SOLVERS[name](A, b, SolverConfig(maxiter=3))


# ---------------------------------------------------------------------------
# invariants shared by all six solvers


def expected_counters(name, K, damped):
    """Final (matvecs, tmatvecs, dots, sketches) after K steps, no breakdown."""
    tmatvecs = {"lsqr": K + 1, "lslu": K + 2, "slslu": K + 2}.get(name, 0)
    dots = {"gmres": (K + 1) ** 2, "lsqr": 2 + K * (K + 1) + 2 * K}.get(name, 0)
    sketched = name in ("scmrh", "slslu")
    sketches = (2 * K + 2 if damped else K + 1) if sketched else 0
    return K, tmatvecs, dots, sketches


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_diagnostics_change_neither_iterates_nor_counters(name, lam):
    _, A, b = problem_for(name, 45)
    K = 6
    off, on = (
        SOLVERS[name](
            A, b, SolverConfig(maxiter=K, lam=lam, seed=1, compute_diagnostics=diag)
        )
        for diag in (False, True)
    )
    assert np.array_equal(off.x, on.x)
    assert off.trace.column("proj_obj") == on.trace.column("proj_obj")
    counts = [
        [(r.matvecs, r.tmatvecs, r.dots, r.sketches) for r in res.trace.records]
        for res in (off, on)
    ]
    assert counts[0] == counts[1]
    assert len(counts[0]) == K
    assert counts[0][-1] == expected_counters(name, K, lam > 0.0)


def diagnostics_tolerance(U, S=None):
    """How far kappa_basis (relative) and eps_embed (absolute, None without
    a sketch S) of the m-by-j basis U may move with the QR they are read
    from: c u kappa(U), with c = 32 m j^1.5 for kappa_basis, and
    8/3 (11 delta + delta_32) kappa(U) ||S||_2 / ||S Q||_2 for eps_embed,
    delta = 2 p j^1.5 u, p = S.out_rows and U = Q R, where delta_32, the
    term of the float32 product S U, takes float32's unit roundoff.  Both
    are derived from Householder backward stability in
    tests/test_properties.py (agreement_bound and
    test_diagnostics_agree_with_each_basis)."""
    (m, j), u = U.shape, np.finfo(float).eps / 2
    kappa = np.linalg.cond(U)
    tol_kappa = 32 * m * j**1.5 * u * kappa
    if S is None:
        return tol_kappa, None
    s_1 = np.linalg.norm(S.entries @ np.linalg.qr(U)[0], 2)
    ratio = np.linalg.norm(S.entries, 2) / s_1
    delta, delta_32 = (2 * S.out_rows * j**1.5 * r for r in (u, np.finfo(np.float32).eps / 2))
    return tol_kappa, 8 / 3 * (11 * delta + delta_32) * kappa * ratio


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_kappa_basis_is_condition_of_data_basis(name):
    _, A, b = problem_for(name, 46)
    res = SOLVERS[name](A, b, SolverConfig(maxiter=6, seed=2, compute_diagnostics=True))
    U_cols = res.factorization.U_cols
    for k, rec in enumerate(res.trace.records, start=1):
        U = U_cols.matrix(min(k + 1, len(U_cols)))
        kappa = np.linalg.cond(U)
        # read off the triangle of one QR of the whole basis
        assert abs(rec.kappa_basis - kappa) <= diagnostics_tolerance(U)[0] * kappa


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_trivial_solve_returns_iteration_zero_record(name):
    M, A, _ = problem_for(name, 47)
    x_true = np.arange(1.0, M.shape[1] + 1)
    cfg = SolverConfig(maxiter=3, compute_diagnostics=True)
    res = SOLVERS[name](A, np.zeros(M.shape[0]), cfg, x_true=x_true)
    assert res.termination == "trivial"
    assert np.array_equal(res.x, np.zeros(M.shape[1]))
    (rec,) = res.trace.records
    assert rec.iteration == 0
    # no apply; the references take the norm of b
    dots = 1 if name in ("gmres", "lsqr") else 0
    counts = (rec.matvecs, rec.tmatvecs, rec.dots, rec.sketches)
    assert counts == (0, 0, dots, 0)
    assert rec.rel_err == 1.0
    assert rec.res_norm == 0.0


DUMPED = {
    "gmres": {"L.mm", "H.mm"},
    "lsqr": {"L.mm", "H.mm", "D.mm"},
    "cmrh": {"L.mm", "H.mm", "pivots_t.mm"},
    "scmrh": {"L.mm", "H.mm", "pivots_t.mm"},
    "lslu": {"L.mm", "H.mm", "D.mm", "pivots_t.mm", "W.mm", "pivots_g.mm"},
    "slslu": {"L.mm", "H.mm", "D.mm", "pivots_t.mm", "W.mm", "pivots_g.mm"},
}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_dump_factorization_of_every_solver(name, tmp_path):
    _, A, b = problem_for(name, 48)
    state = SOLVERS[name](A, b, SolverConfig(maxiter=4, seed=3)).factorization
    dump_factorization(state, tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == DUMPED[name]
    stored = {
        "L.mm": state.V_cols.matrix(),
        "H.mm": state.H_matrix(),
        "D.mm": state.U_cols.matrix(),
        "pivots_t.mm": state.t,
        "W.mm": state.W_matrix() if state.W is not None else None,
        "pivots_g.mm": state.g,
    }
    for file in DUMPED[name]:
        # mmread gives a vector back as one column
        expected = np.reshape(stored[file], (len(stored[file]), -1))
        assert np.allclose(scipy.io.mmread(tmp_path / file), expected)


def recomputed_iterate(name, A, cfg, result):
    """x_K from the returned factorization: stack V_K, rebuild the projected
    problem from scratch (a sketched one as full_sketched_system does, with
    the solve's own sketch_apply), solve it."""
    state = result.factorization
    k = state.k
    Vk = state.V_cols.matrix(k)
    if name in ("scmrh", "slslu"):
        ell = cfg.effective_sketch_rows(A.cols)
        S = make_gaussian_sketch(ell, A.rows, cfg.seed)
        P, rhs, N = full_sketched_system(cfg, S, result)
        P, N = P[:, :k], N[:, :k]
    else:
        P = state.H_matrix()
        rhs = np.zeros(k + 1)
        rhs[0] = state.beta
        N = np.eye(k)
    return Vk @ stacked_tikhonov_ls(P, N, rhs, cfg.lam)


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_iterate_agrees_with_restacked_basis(name, lam):
    _, A, b = problem_for(name, 50)
    cfg = SolverConfig(maxiter=8, lam=lam, seed=4)
    res = SOLVERS[name](A, b, cfg)
    assert len(res.trace.records) == 8
    x = recomputed_iterate(name, A, cfg, res)
    assert np.linalg.norm(res.x - x) <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_builders_never_write_into_operator_output(name):
    # an operator may hand back a buffer it still owns, so the elimination
    # must leave every A v_k as the operator returned it
    M, _, b = problem_for(name, 51)
    outputs = []

    def forward(x):
        out = M @ x
        outputs.append((out, out.copy()))
        return out

    A = LinearOperator(M.shape[0], M.shape[1], forward, lambda y: M.T @ y)
    res = SOLVERS[name](A, b, SolverConfig(maxiter=6, seed=5))
    assert len(outputs) == 6
    for out, saved in outputs:
        assert np.array_equal(out, saved)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_capacity_when_maxiter_exceeds_dimension(monkeypatch, name):
    # the driver reserves min(maxiter, A.cols) + 1 columns per basis, and
    # a solve asked for more steps than dimensions never needs more
    _, A, b = problem_for(name, 52)
    runs = []
    for maxiter in (A.cols, A.cols + 5):
        cfg = SolverConfig(maxiter=maxiter, sketch_rows=10 * (A.cols + 6), seed=6)
        res = SOLVERS[name](A, b, cfg)
        state = res.factorization
        assert state.U_cols.capacity == state.V_cols.capacity == A.cols + 1
        assert len(res.trace.records) <= A.cols
        csv = io.StringIO()
        trace_to_csv(res.trace, csv)
        runs.append((csv.getvalue(), res.x.tobytes(), res.termination))
    assert runs[0] == runs[1]
    # nor more default sketch rows: S, and S1 when damped, draw 10 (n + 1)
    draws = []
    draw = solvers.make_gaussian_sketch

    def recording(out_rows, in_rows, seed):
        draws.append(out_rows)
        return draw(out_rows, in_rows, seed)

    monkeypatch.setattr(solvers, "make_gaussian_sketch", recording)
    SOLVERS[name](A, b, SolverConfig(maxiter=A.cols + 5, lam=0.5, seed=6))
    sketched = name in ("scmrh", "slslu")
    assert draws == [10 * (A.cols + 1)] * 2 * sketched


# ---------------------------------------------------------------------------
# references


def test_gmres_identity_one_iteration():
    A = LinearOperator.identity(3)
    b = np.array([3.0, -5.0, 2.0])
    res = gmres(A, b)
    assert len(res.trace.records) == 1
    assert res.termination == "breakdown"
    assert np.allclose(res.x, b, atol=1e-12)


def test_gmres_full_space_solves():
    M, A, b = make_square(1, 12)
    res = gmres(A, b, SolverConfig(maxiter=12, compute_diagnostics=True))
    assert res.trace.final().res_norm <= 1e-8 * np.linalg.norm(b)
    assert np.allclose(M @ res.x, b, atol=1e-7)


def test_gmres_residuals_monotone():
    _, A, b = make_square(2, 20, shift=0.0)
    res = gmres(A, b, SolverConfig(maxiter=15, compute_diagnostics=True))
    r = res.trace.column("res_norm")
    for a, c in zip(r, r[1:]):
        assert c <= a + 1e-10 * r[0]


def test_gmres_matches_krylov_projection_oracle():
    M, A, b = make_square(3, 12)
    res = gmres(A, b, SolverConfig(maxiter=6, compute_diagnostics=True))
    vecs = [b]
    for _ in range(6):
        vecs.append(M @ vecs[-1])
    for k, rec in enumerate(res.trace.records, start=1):
        Q, _ = np.linalg.qr(np.column_stack(vecs[:k]))
        y = dense_qr_ls(M @ Q, b)
        oracle = np.linalg.norm(M @ (Q @ y) - b)
        assert abs(rec.res_norm - oracle) <= 1e-10 * (1.0 + oracle)


def test_gmres_uses_inner_products():
    _, A, b = make_square(4, 10)
    res = gmres(A, b, SolverConfig(maxiter=5))
    rec = res.trace.final()
    assert rec.dots > 0
    assert rec.matvecs == 5


def test_gmres_damped_full_space_matches_dense():
    M, A, b = make_square(5, 8)
    lam = 0.3
    res = gmres(A, b, SolverConfig(maxiter=8, lam=lam))
    x_ref = np.linalg.solve(M.T @ M + lam**2 * np.eye(8), M.T @ b)
    assert np.allclose(res.x, x_ref, rtol=1e-6, atol=1e-9)


def test_gmres_rejects_rectangular():
    with pytest.raises(ValueError):
        gmres(LinearOperator.from_matrix(np.ones((3, 2))), np.ones(3))


def test_gmres_trivial_on_zero_rhs():
    A = LinearOperator.identity(4)
    res = gmres(A, np.zeros(4))
    assert res.termination == "trivial"
    assert [r.iteration for r in res.trace.records] == [0]
    assert np.array_equal(res.x, np.zeros(4))


def test_lsqr_rank_one_ls_in_one_iteration():
    A = LinearOperator.from_matrix(np.array([[1.0], [1.0]]))
    res = lsqr(A, np.array([1.0, 3.0]))
    assert len(res.trace.records) == 1
    assert np.allclose(res.x, [2.0], atol=1e-12)


def test_lsqr_normal_equations_residual_shrinks():
    M, A, b = make_rect(6, 40, 20)
    res = lsqr(A, b, SolverConfig(maxiter=20))
    first = np.linalg.norm(M.T @ b)
    final = np.linalg.norm(M.T @ (b - M @ res.x))
    assert final <= 1e-6 * first


def test_lsqr_residuals_monotone():
    _, A, b = make_rect(7, 30, 18)
    res = lsqr(A, b, SolverConfig(maxiter=15, compute_diagnostics=True))
    r = res.trace.column("res_norm")
    for a, c in zip(r, r[1:]):
        assert c <= a + 1e-10 * r[0]


def test_lsqr_damped_matches_dense_tikhonov():
    M, A, b = make_rect(8, 20, 10)
    lam = 0.5
    res = lsqr(A, b, SolverConfig(maxiter=10, lam=lam))
    x_ref = np.linalg.solve(M.T @ M + lam**2 * np.eye(10), M.T @ b)
    assert np.allclose(res.x, x_ref, rtol=1e-6, atol=1e-9)


def test_lsqr_trivial_when_normal_equations_hold():
    A = LinearOperator.from_matrix(np.array([[1.0], [0.0]]))
    res = lsqr(A, np.array([0.0, 2.0]), SolverConfig(compute_diagnostics=True))
    assert res.termination == "trivial"
    assert np.array_equal(res.x, [0.0])
    # x = 0 leaves all of b as the residual
    assert res.trace.final().res_norm == 2.0


def unit_roundoff_gamma(n):
    # gamma_n = n u / (1 - n u), u the unit roundoff of float64
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize(
    "name, problem",
    [("gmres", "deblur32"), ("gmres", "random50"), ("lsqr", "deblur32"),
     ("lsqr", "random50x30")],
)
def test_reference_bases_stay_orthonormal(name, problem, lam):
    # The bound.  Every column q = w / ||w|| of a basis leaves a Gram-Schmidt
    # pass whose input w is already orthogonal to the earlier columns up to
    # rounding: Arnoldi's second classical pass ("twice is enough":
    # Giraud, Langou & Rozloznik, Comput. Math. Appl. 2005), and each side's
    # one pass in Golub-Kahan, whose input the three-term recurrence makes
    # orthogonal to the basis in exact arithmetic.  Such a pass cancels
    # nothing, so what it leaves of q_i^T q is the error of the length-m
    # inner products, at most gamma_m ||w|| (Higham, Accuracy and Stability
    # of Numerical Algorithms, sec. 3.1), plus one rounding each in the
    # subtraction and the normalization; |q^T q - 1| is as small.  So to
    # first order in u each entry of Q^T Q - I is at most gamma_{m+2}, and
    # ||Q^T Q - I||_F <= j gamma_{m+2} for j columns.  It is a worst-case
    # bound: without Golub-Kahan's passes the norm exceeds 1 on these
    # problems; with one Arnoldi pass it reads 2e-12 on deblur32, inside
    # the bound, and 1.4 on random50, whose breakdown at k = n goes unseen.
    if problem == "deblur32":
        p = make_deblur(32, gaussian_psf(1.0), 0.01, 0)
        A, b = p.operator, p.b
    elif problem == "random50":
        _, A, b = make_square(90, 50)
    else:
        _, A, b = make_rect(91, 50, 30)
    state = SOLVERS[name](A, b, SolverConfig(maxiter=60, lam=lam)).factorization
    for store in (state.U_cols, state.V_cols):
        Q = store.matrix()
        m, j = Q.shape
        loss = np.linalg.norm(Q.T @ Q - np.eye(j))
        assert loss <= j * unit_roundoff_gamma(m + 2), (m, j, loss)


# ---------------------------------------------------------------------------
# quasi-minimal residual solvers


def test_cmrh_identity_one_iteration():
    A = LinearOperator.identity(3)
    b = np.array([3.0, -5.0, 2.0])
    res = cmrh(A, b)
    assert res.termination == "breakdown"
    assert len(res.trace.records) == 1
    assert np.allclose(res.x, b, atol=1e-12)


def test_cmrh_full_space_solves():
    M, A, b = make_square(9, 10)
    res = cmrh(A, b, SolverConfig(maxiter=10, compute_diagnostics=True))
    assert res.trace.final().res_norm <= 1e-8 * np.linalg.norm(b)


def test_cmrh_sandwich_bound():
    # residual is pinched between the subspace optimum and kappa(L) times it
    M, A, b = make_square(10, 15, shift=0.0)
    res = cmrh(A, b, SolverConfig(maxiter=8, compute_diagnostics=True))
    state = res.factorization
    for k, rec in enumerate(res.trace.records, start=1):
        basis = state.V_cols.matrix(k)
        _, oracle = projected_minres_oracle(A, basis, b)
        assert rec.res_norm >= oracle - 1e-9 * (1.0 + oracle)
        assert rec.res_norm <= rec.kappa_basis * oracle + 1e-9 * (1.0 + oracle)


def test_cmrh_inner_product_free_counters():
    _, A, b = make_square(11, 12)
    res = cmrh(A, b, SolverConfig(maxiter=7))
    rec = res.trace.final()
    assert rec.dots == 0
    assert rec.matvecs == 7
    assert rec.tmatvecs == 0
    assert rec.sketches == 0


def test_cmrh_heavy_damping_shrinks_iterates():
    _, A, b = make_square(13, 9)
    x_plain = cmrh(A, b, SolverConfig(maxiter=5)).x
    x_damped = cmrh(A, b, SolverConfig(maxiter=5, lam=1e8)).x
    assert np.linalg.norm(x_damped) <= 1e-4 * np.linalg.norm(x_plain)


def test_lslu_hand_computed_quasi_minimum():
    # 2x1 system: basis gives H = [1, 2/3]^T, beta = 3, so the projected
    # minimizer is y = 3 / (1 + 4/9) = 27/13 (the subspace optimum would
    # be 2; the oblique projection trades it for the cheap recurrence)
    A = LinearOperator.from_matrix(np.array([[1.0], [1.0]]))
    res = lslu(A, np.array([1.0, 3.0]))
    assert res.termination == "breakdown"
    assert len(res.trace.records) == 1
    assert np.allclose(res.x, [27.0 / 13.0], atol=1e-12)


def test_lslu_sandwich_bound():
    M, A, b = make_rect(14, 30, 12)
    res = lslu(A, b, SolverConfig(maxiter=9, compute_diagnostics=True))
    state = res.factorization
    for k, rec in enumerate(res.trace.records, start=1):
        basis = state.V_cols.matrix(k)
        _, oracle = projected_minres_oracle(A, basis, b)
        assert rec.res_norm >= oracle - 1e-9 * (1.0 + oracle)
        assert rec.res_norm <= rec.kappa_basis * oracle + 1e-9 * (1.0 + oracle)


def test_lslu_counters():
    _, A, b = make_rect(15, 25, 14)
    res = lslu(A, b, SolverConfig(maxiter=6))
    rec = res.trace.final()
    assert rec.dots == 0
    assert rec.matvecs == 6
    assert rec.tmatvecs == 8  # v0, first W column, one per step
    assert rec.sketches == 0


def test_lslu_heavy_damping_shrinks_iterates():
    _, A, b = make_rect(16, 20, 8)
    x_plain = lslu(A, b, SolverConfig(maxiter=4)).x
    x_damped = lslu(A, b, SolverConfig(maxiter=4, lam=1e8)).x
    assert np.linalg.norm(x_damped) <= 1e-4 * np.linalg.norm(x_plain)


def test_lslu_rel_err_recorded_with_x_true():
    M, A, b = make_rect(17, 18, 9)
    x_true = np.linalg.lstsq(M, b, rcond=None)[0]
    res = lslu(A, b, SolverConfig(maxiter=5), x_true=x_true)
    errs = res.trace.column("rel_err")
    assert all(e is not None for e in errs)
    assert errs[-1] == pytest.approx(
        np.linalg.norm(res.x - x_true) / np.linalg.norm(x_true)
    )


# ---------------------------------------------------------------------------
# sketched solvers


def test_scmrh_identity_solves_regardless_of_sketch():
    A = LinearOperator.identity(5)
    b = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
    res = scmrh(A, b, SolverConfig(maxiter=3, seed=42))
    assert np.allclose(res.x, b, atol=1e-10)
    assert res.termination == "breakdown"


def test_scmrh_scaled_orthogonal_sketch_is_exact_projection(monkeypatch):
    # ||c Q v|| = c ||v||, so the sketched minimizer is the subspace
    # minimizer exactly; no Gaussian draw is orthogonal, so the solver's
    # sketch_apply is stood in for by the product with 3 Q
    M, A, b = make_square(18, 10, shift=0.0)
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    monkeypatch.setattr(solvers, "sketch_apply", lambda S, v, counters=None: 3.0 * Q @ v)
    res = scmrh(A, b, SolverConfig(maxiter=6, sketch_rows=10, compute_diagnostics=True))
    state = res.factorization
    for k, rec in enumerate(res.trace.records, start=1):
        basis = state.V_cols.matrix(k)
        _, oracle = projected_minres_oracle(A, basis, b)
        assert abs(rec.res_norm - oracle) <= 1e-9 * (1.0 + oracle)


def test_scmrh_sandwich_and_reference_floor():
    M, A, b = make_square(19, 60, shift=0.0)
    cfg = SolverConfig(maxiter=8, compute_diagnostics=True, seed=3)
    res = scmrh(A, b, cfg)
    ref = gmres(A, b, SolverConfig(maxiter=8, compute_diagnostics=True))
    state = res.factorization
    for k, rec in enumerate(res.trace.records, start=1):
        basis = state.V_cols.matrix(k)
        _, oracle = projected_minres_oracle(A, basis, b)
        envelope = (1.0 + rec.eps_embed) / (1.0 - rec.eps_embed)
        assert rec.res_norm >= oracle - 1e-9 * (1.0 + oracle)
        assert rec.res_norm <= envelope * oracle + 1e-9 * (1.0 + oracle)
        assert rec.res_norm >= ref.trace.records[k - 1].res_norm - 1e-12


def test_scmrh_deterministic_replay():
    _, A, b = make_square(20, 16)
    cfg = SolverConfig(maxiter=6, seed=11)
    r1 = scmrh(A, b, cfg)
    r2 = scmrh(A, b, cfg)
    assert np.array_equal(r1.x, r2.x)
    assert r1.trace.column("proj_obj") == r2.trace.column("proj_obj")
    assert r1.trace.column("sres_norm") == r2.trace.column("sres_norm")


def test_scmrh_seed_changes_iterates():
    _, A, b = make_square(21, 16)
    x1 = scmrh(A, b, SolverConfig(maxiter=6, seed=0)).x
    x2 = scmrh(A, b, SolverConfig(maxiter=6, seed=1)).x
    assert not np.array_equal(x1, x2)


def test_scmrh_basis_sketching_matches_column_sketching():
    # scmrh sketches its data basis U_{k+1}; sketching the columns A v_j
    # and r0 themselves poses the same projected problem
    M, A, b = make_square(22, 14)
    cfg = SolverConfig(maxiter=6, seed=5)
    direct = scmrh(A, b, cfg)
    S = make_gaussian_sketch(cfg.effective_sketch_rows(A.cols), A.rows, cfg.seed)
    V = direct.factorization.V_cols.matrix(cfg.maxiter)
    y = np.linalg.lstsq(S.entries @ (M @ V), S.entries @ b, rcond=None)[0]
    assert np.allclose(direct.x, V @ y, rtol=1e-7, atol=1e-10)


def test_scmrh_counters():
    _, A, b = make_square(23, 12)
    res = scmrh(A, b, SolverConfig(maxiter=5, seed=1))
    rec = res.trace.final()
    assert rec.dots == 0
    assert rec.matvecs == 5
    assert rec.sketches == 6  # the columns of L_6, r0 = beta l_1 among them


def test_slslu_reference_floor_and_sandwich():
    M, A, b = make_rect(24, 40, 20)
    cfg = SolverConfig(maxiter=8, compute_diagnostics=True, seed=7)
    res = slslu(A, b, cfg)
    ref = lsqr(A, b, SolverConfig(maxiter=8, compute_diagnostics=True))
    state = res.factorization
    for k, rec in enumerate(res.trace.records, start=1):
        basis = state.V_cols.matrix(k)
        _, oracle = projected_minres_oracle(A, basis, b)
        envelope = (1.0 + rec.eps_embed) / (1.0 - rec.eps_embed)
        assert rec.res_norm >= oracle - 1e-9 * (1.0 + oracle)
        assert rec.res_norm <= envelope * oracle + 1e-9 * (1.0 + oracle)
        assert rec.res_norm >= ref.trace.records[k - 1].res_norm - 1e-12


def test_slslu_counters_and_sres():
    _, A, b = make_rect(25, 30, 15)
    res = slslu(A, b, SolverConfig(maxiter=6, seed=2))
    rec = res.trace.final()
    assert rec.dots == 0
    assert rec.matvecs == 6
    assert rec.tmatvecs == 8
    assert rec.sketches == 7
    assert all(v is not None for v in res.trace.column("sres_norm"))


def test_slslu_sampled_pivoting_runs_clean():
    _, A, b = make_rect(26, 35, 18)
    cfg = SolverConfig(maxiter=7, seed=4, pivot=PivotStrategy.sampled(5, seed=9))
    res = slslu(A, b, cfg)
    assert len(res.trace.records) == 7
    assert res.trace.final().dots == 0


# The sketch must be drawn independently of the data it embeds.  A problem's
# noise is drawn from default_rng(seed), and a config that sets both seeds
# to one value (as the defaults, 0 and 0, do) sketches with that seed too.


def tomo48(seed):
    return make_tomography(48, 36, noise_level=0.01, seed=seed)


def max_eps_embed(p, seed):
    cfg = SolverConfig(maxiter=30, seed=seed, compute_diagnostics=True)
    return max(slslu(p.operator, p.b, cfg, x_true=p.x_true).trace.column("eps_embed"))


@pytest.mark.parametrize("seed", range(5))
def test_sketch_rows_are_not_aligned_with_the_noise_at_equal_seeds(seed):
    p = tomo48(seed)
    m = p.operator.rows
    g = np.random.default_rng(seed).standard_normal(m)  # add_noise's draw
    ell = SolverConfig(maxiter=30).effective_sketch_rows(p.operator.cols)
    S = make_gaussian_sketch(ell, m, seed).entries
    cos = np.abs(S @ g) / (np.linalg.norm(S, axis=1) * np.linalg.norm(g))
    assert cos.max() <= 5 / np.sqrt(m)


@pytest.fixture(scope="module")
def tomo48_eps_range():
    # max eps_embed of slslu on the seed-0 problem over sketch seeds 1-7
    eps = [max_eps_embed(tomo48(0), seed) for seed in range(1, 8)]
    return min(eps), max(eps)


def test_equal_seeds_embed_like_any_other(tomo48_eps_range):
    lo, hi = tomo48_eps_range
    assert lo <= max_eps_embed(tomo48(0), 0) <= hi


def test_default_seed_run_embeds_like_any_other(tmp_path, tomo48_eps_range):
    # a config that sets neither seed runs the problem and the sketch at 0
    out = tmp_path / "out"
    (tmp_path / "exp.cfg").write_text(
        "problem.type = tomography\nproblem.grid = 48\nproblem.angles = 36\n"
        "problem.noise_level = 0.01\ndiagnostics = true\n"
        f"output_dir = {out}\nsolver.s.name = slslu\nsolver.s.maxiter = 30\n"
    )
    assert cli.main(["solve", str(tmp_path / "exp.cfg")]) == 0
    rows = (out / "s.trace.csv").read_text().strip().split("\n")[1:]
    column = CSV_COLUMNS.index("eps_embed")
    eps = max(float(row.split(",")[column]) for row in rows)
    assert eps == max_eps_embed(tomo48(0), 0)
    lo, hi = tomo48_eps_range
    assert lo <= eps <= hi


# ---------------------------------------------------------------------------
# Tikhonov forms


def test_slslu_tikhonov_solves_stated_objective():
    # the minimizer must satisfy the normal equations of
    # ||Z y - S2 r0||^2 + lam^2 ||S1 L_k y||^2 with F = S1 L_k exactly
    M, A, b = make_rect(29, 24, 12)
    lam = 0.7
    cfg = SolverConfig(maxiter=6, seed=3, lam=lam)
    res = slslu(A, b, cfg)
    state = res.factorization
    k = len(res.trace.records)
    ell = cfg.effective_sketch_rows(A.cols)
    S2 = make_gaussian_sketch(ell, 24, cfg.seed)
    S1 = make_gaussian_sketch(ell, 12, derive_seed(cfg.seed, 1))
    Lk = state.V_cols.matrix(k)
    Z = S2.entries @ (M @ Lk)
    F = S1.entries @ Lk
    sr0 = S2.entries @ b  # r0 = b
    y = np.linalg.solve(Z.T @ Z + lam**2 * (F.T @ F), Z.T @ sr0)
    assert np.allclose(res.x, Lk @ y, rtol=1e-6, atol=1e-9)


def test_slslu_tikhonov_heavy_damping():
    _, A, b = make_rect(30, 20, 10)
    x_plain = slslu(A, b, SolverConfig(maxiter=4, seed=1)).x
    x_damped = slslu(A, b, SolverConfig(maxiter=4, seed=1, lam=1e8)).x
    assert np.linalg.norm(x_damped) <= 1e-4 * np.linalg.norm(x_plain)


def test_tikhonov_diagnostics_record_block_condition():
    _, A, b = make_rect(32, 20, 10)
    cfg = SolverConfig(maxiter=4, seed=2, lam=0.3, compute_diagnostics=True)
    res = slslu(A, b, cfg)
    for rec in res.trace.records:
        assert rec.kappa_dbar is not None
        assert rec.kappa_dbar >= rec.kappa_basis - 1e-12


# ---------------------------------------------------------------------------
# the projected solve: one QR of the whole system, the full system as fallback


def sketched_problems():
    """(name, solver, A, b, maxiter): full-rank random and deblurring systems."""
    rng = np.random.default_rng(80)
    square = LinearOperator.from_matrix(rng.standard_normal((40, 40)))
    rect = LinearOperator.from_matrix(rng.standard_normal((50, 30)))
    blur = make_deblur(32, gaussian_psf(1.0), 0.01, 0)
    return [
        ("random40", scmrh, square, rng.standard_normal(40), 20),
        ("random50x30", slslu, rect, rng.standard_normal(50), 20),
        ("deblur32", scmrh, blur.operator, blur.b, 20),
        ("deblur32", slslu, blur.operator, blur.b, 20),
    ]


def rank3_problems():
    rng = np.random.default_rng(81)
    square = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 20))
    rect = rng.standard_normal((24, 3)) @ rng.standard_normal((3, 14))
    # b off the range, so the builders run on past rank 3
    return {
        "scmrh": [(LinearOperator.from_matrix(square), rng.standard_normal(20), 12)],
        "slslu": [(LinearOperator.from_matrix(rect), rng.standard_normal(24), 12)],
    }


def record_qr_solves(monkeypatch):
    """Every (M, rhs, y) that solvers.dense_qr_ls sees."""
    calls = []
    plain = solvers.dense_qr_ls

    def recording(M, rhs):
        y = plain(M, rhs)
        calls.append((np.array(M), np.array(rhs), y))
        return y

    monkeypatch.setattr(solvers, "dense_qr_ls", recording)
    return calls


def full_sketched_system(cfg, S, result):
    """The sketched system (M, S r0, S1 V) recomputed from the factorization:
    (S U_{K+1}) [H | beta e1], without H's zero last row at a breakdown.
    S U_{K+1} and S1 V are sketch_apply's, as in the solve: its float32
    products are S' U_{K+1} for a nearby S', the sketch the solve embeds
    with."""
    state = result.factorization
    V, U = state.V_cols.matrix(), state.U_cols.matrix()
    SU = sketch_apply(S, U)
    S1 = make_gaussian_sketch(S.out_rows, V.shape[0], derive_seed(cfg.seed, 1))
    return SU @ state.H_matrix(rows=U.shape[1]), state.beta * SU[:, 0], sketch_apply(S1, V)


# the six solvers, each on the problems of its shape: scmrh and slslu
# project on the sketched form, the other four on the quasi-minimal one
FORMS = ["scmrh", "slslu", "gmres", "lsqr", "cmrh", "lslu"]
SKETCHED = (scmrh, slslu)


def form_problems(form):
    """(name, solver, A, b, maxiter): the sketched problems of the solver's
    shape."""
    solver = SOLVERS[form]
    shape = scmrh if form in SQUARE_ONLY else slslu
    return [(n, solver, A, b, m) for n, s, A, b, m in sketched_problems() if s is shape]


def full_projected_system(cfg, S, result):
    """The whole projected system (M, rhs, N) recomputed from the
    factorization: for the quasi-minimal forms H, beta e1 and I."""
    if S is not None:
        return full_sketched_system(cfg, S, result)
    state = result.factorization
    H = state.H_matrix()
    rhs = np.zeros(H.shape[0])
    rhs[0] = state.beta
    return H, rhs, np.eye(H.shape[1])


def form_sketch(solver, A, cfg):
    # the sketch the solver draws, or None for a quasi-minimal solver
    if solver not in SKETCHED:
        return None
    return make_gaussian_sketch(cfg.effective_sketch_rows(A.cols), A.rows, cfg.seed)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_triangle_solve_matches_from_scratch_solve(monkeypatch, lam, form):
    for name, solver, A, b, maxiter in form_problems(form):
        cfg = SolverConfig(maxiter=maxiter, lam=lam, seed=4)
        S = form_sketch(solver, A, cfg)
        calls = record_qr_solves(monkeypatch)
        result = solver(A, b, cfg)
        monkeypatch.undo()
        assert len(calls) == len(result.trace.records) == maxiter
        M, rhs, N = full_projected_system(cfg, S, result)
        for k, (_, _, y) in enumerate(calls, start=1):
            # the quasi-minimal system is H_{k+1,k} with beta e1: the rows
            # of H's first k columns below k+1 are zeros
            rows = M.shape[0] if S is not None else k + 1
            ref = stacked_tikhonov_ls(M[:rows, :k], N[:, :k], rhs[:rows], lam)
            gap = np.linalg.norm(y - ref) / np.linalg.norm(ref)
            assert gap <= 1e-12, (name, solver.__name__, k, gap)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_each_step_solves_one_k_by_k_triangle(monkeypatch, lam, form):
    for name, solver, A, b, maxiter in form_problems(form):
        cfg = SolverConfig(maxiter=maxiter, lam=lam, seed=5)
        calls = record_qr_solves(monkeypatch)
        result = solver(A, b, cfg)
        monkeypatch.undo()
        assert not any(result.trace.column("rank_fallback"))
        steps = range(1, maxiter + 1)
        assert [M.shape for M, _, _ in calls] == [(k, k) for k in steps]
        assert all(np.array_equal(np.triu(M), M) for M, _, _ in calls), name
        assert [rhs.shape for _, rhs, _ in calls] == [(k,) for k in steps]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_recorded_objectives_measure_the_projected_system(monkeypatch, lam, form):
    # proj_obj is the whole damped objective and sres_norm its data term,
    # on the system recomputed from the factorization
    for name, solver, A, b, maxiter in form_problems(form):
        cfg = SolverConfig(maxiter=maxiter, lam=lam, seed=9)
        S = form_sketch(solver, A, cfg)
        ys = []
        solve = solvers._projected_solve

        def recording(R, Z, k):
            y, fallback = solve(R, Z, k)
            ys.append(y)
            return y, fallback

        monkeypatch.setattr(solvers, "_projected_solve", recording)
        result = solver(A, b, cfg)
        monkeypatch.undo()
        M, rhs, N = full_projected_system(cfg, S, result)
        for k, (y, rec) in enumerate(zip(ys, result.trace.records), start=1):
            data = np.linalg.norm(M[:, :k] @ y - rhs)
            objective = np.hypot(data, lam * np.linalg.norm(N[:, :k] @ y))
            case = (name, solver.__name__, k)
            assert rec.proj_obj == pytest.approx(objective, rel=1e-10), case
            if S is None:
                assert rec.sres_norm is None, case
            else:
                assert rec.sres_norm == pytest.approx(data, rel=1e-10), case


def full_system_solve(M, rhs, lam, N):
    # the fallback projected solve: pivoted QR of the whole
    # sketched system every step, truncated least squares when deficient
    try:
        if lam == 0.0:
            return dense_qr_ls(M, rhs), False
        return stacked_tikhonov_ls(M, N, rhs, lam), False
    except RankDeficiencyError:
        if lam > 0.0:
            M = np.vstack([M, lam * N])
            rhs = np.concatenate([rhs, np.zeros(N.shape[0])])
        return np.linalg.lstsq(M, rhs, rcond=None)[0], True


@pytest.mark.parametrize("solver", SKETCHED, ids=lambda s: s.__name__)
def test_rank_fallback_keeps_the_full_system_solve(monkeypatch, solver):
    # undamped: the penalty rows give a damped system full rank
    for A, b, maxiter in rank3_problems()[solver.__name__]:
        steps, attempts = [], []
        solve, plain = solvers._projected_solve, solvers.dense_qr_ls
        cfg = SolverConfig(maxiter=maxiter, seed=6)

        def attempting(M, rhs):
            attempts.append(M.shape)
            return plain(M, rhs)

        def recording(R, Z, k):
            y, fallback = solve(R, Z, k)
            # undamped, Z is the data system [M | rhs] alone
            assert Z.shape[0] == cfg.effective_sketch_rows(A.cols)
            M, rhs = Z[:, :k], Z[:, -1]
            steps.append((y, fallback, *full_system_solve(M, rhs, 0.0, None)))
            return y, fallback

        monkeypatch.setattr(solvers, "_projected_solve", recording)
        monkeypatch.setattr(solvers, "dense_qr_ls", attempting)
        result = solver(A, b, cfg)
        monkeypatch.undo()
        flags = [fallback for _, fallback, _, _ in steps]
        assert flags == [fallback for _, _, _, fallback in steps]
        assert flags == result.trace.column("rank_fallback")
        first = flags.index(True)
        assert first >= 1 and len(steps) == maxiter
        # every step tries its own triangle once, and no tall Z_k
        assert attempts == [(k, k) for k in range(1, len(steps) + 1)]
        for y, _, y_old, _ in steps[first:]:
            assert np.array_equal(y, y_old)
        # the last iterate is the same GEMV on the same y as before
        V = result.factorization.V_cols.matrix(len(steps))
        assert np.array_equal(result.x, V @ steps[-1][2])


def gamma(m):
    # Higham's gamma_m for unit roundoff u
    u = np.finfo(float).eps / 2
    return m * u / (1 - m * u)


# rows per block of the error pass: one (the bytes of less than one row),
# seven (ragged on 20 and 15 rows, the last block of 15 one row), and the
# default 256 KiB, which holds every row of these solves
ERROR_BLOCKS = {"one-row": 1, "ragged": 7, "single": None}


@pytest.mark.parametrize("rows", ERROR_BLOCKS.values(), ids=ERROR_BLOCKS)
@pytest.mark.parametrize("diagnostics", [False, True], ids=["plain", "diag"])
def test_iterates_in_blocks_match_one_gemv_per_column(monkeypatch, rows, diagnostics):
    # the solve pass reads every step's error off one pass over V, a block
    # of rows at a time; each record reads what one GEMV per column gives,
    # within rounding, by the same formula with diagnostics on or off, and
    # the returned x is the one GEMV V_K y_K, whatever the blocks
    for name in sorted(SOLVERS):
        M, A, b = problem_for(name, 31)
        rng = np.random.default_rng(32)
        x_true = rng.standard_normal(A.cols)
        cfg = SolverConfig(maxiter=A.cols, lam=0.5, seed=5, compute_diagnostics=diagnostics)
        whole = SOLVERS[name](A, b, cfg, x_true)
        K = len(whole.trace.records)
        ys, blocks = [], []
        solve, dtrmm = solvers._projected_solve, solvers.dtrmm

        def recording(R, Z, k):
            y, fallback = solve(R, Z, k)
            ys.append(y)
            return y, fallback

        def blocking(alpha, a, b, **kwargs):
            blocks.append(b.shape)
            return dtrmm(alpha, a, b, **kwargs)

        if rows is not None:
            monkeypatch.setattr(solvers, "_ERROR_BLOCK_BYTES", 8 * K * rows)
        flipped = replace(cfg, compute_diagnostics=not diagnostics)
        other = SOLVERS[name](A, b, flipped, x_true)
        monkeypatch.setattr(solvers, "_projected_solve", recording)
        monkeypatch.setattr(solvers, "dtrmm", blocking)
        result = SOLVERS[name](A, b, cfg, x_true)
        monkeypatch.undo()
        assert len(result.trace.records) == K, name
        step = rows or A.cols
        assert blocks == [
            (min(i + step, A.cols) - i, K) for i in range(0, A.cols, step)
        ], name
        V = result.factorization.V_cols
        assert np.array_equal(result.x, whole.x), name
        assert np.array_equal(result.x, V.matrix(K) @ ys[-1]), name
        for k, (y, rec) in enumerate(zip(ys, result.trace.records), start=1):
            # both sum the same k products, in orders BLAS picks: each
            # within gamma_k |V_k| |y| of the exact iterate, entry by entry
            x = V.matrix(k) @ y
            moved = 2 * gamma(k) * (np.abs(V.matrix(k)) @ np.abs(y))
            error = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
            # plus the rounding of a difference, a norm and a quotient on
            # each side
            tol = np.linalg.norm(moved) / np.linalg.norm(x_true)
            tol += 2 * gamma(A.cols + 3) * error
            assert abs(rec.rel_err - error) <= tol, (name, k)
            if not diagnostics:
                assert rec.res_norm is None
                continue
            # r = b - M x moves by at most |M| moved, and each side's
            # product, difference and norm err by gamma_{n+2} (|b| + |M||x|)
            res = np.linalg.norm(b - M @ x)
            tol = np.linalg.norm(np.abs(M) @ moved)
            tol += 2 * gamma(A.cols + 2) * np.linalg.norm(np.abs(b) + np.abs(M) @ np.abs(x))
            assert abs(rec.res_norm - res) <= tol, (name, k)
        # the errors do not depend on whether diagnostics are on
        assert other.trace.column("rel_err") == result.trace.column("rel_err"), name
        if not diagnostics:
            # with nothing to read off them, the error pass does not run
            blocks.clear()
            monkeypatch.setattr(solvers, "dtrmm", blocking)
            plain = SOLVERS[name](A, b, cfg)
            monkeypatch.undo()
            assert blocks == [] and np.array_equal(plain.x, whole.x), name
            assert plain.trace.column("rel_err") == [None] * K, name


def deficient_shift_problem(name):
    """A rank-5 operator on which every builder breaks down exactly: a
    cyclic shift of five coordinates, zero elsewhere.  Square, with b off
    its range; rectangular, with its rows scaled by powers of two and b in
    its range."""
    if name in SQUARE_ONLY:
        M = np.zeros((12, 12))
        M[:5, :5] = np.roll(np.eye(5), 1, axis=0)
        b = np.zeros(12)
        b[[0, 7]] = 1.0, 2.0
    else:
        M = np.zeros((14, 10))
        M[:5, :5] = np.roll(np.eye(5), 1, axis=0) * 2.0 ** np.arange(5)[:, None]
        b = np.zeros(14)
        b[:5] = 1.0
    return M, LinearOperator.from_matrix(M), b


def test_res_norm_read_off_the_factorization_matches_the_explicit_residual(
    monkeypatch,
):
    # res_norm is ||R_j (beta e1 - H y_k)[:j]||, read off the QR of U_j and
    # H, with no iterate and no operator apply.  It matches ||b - A x_k||,
    # x_k = V_k y_k, to within 1e-13 of the column's largest value,
    # replay's gate for res_norm, plus two terms that are at rounding level
    # unless the basis grows: what the factorization's own rounding leaves
    # of A V_k = U_j H_{j,k} along y_k (the residual gap), and what the
    # rounding of x_k, within gamma_k |V_k| |y| entry by entry, moves
    # A x_k by.  Sampled pivots on the scaled shift grow V's
    # entries to 2^16 and |y| to 4.5e4 in lslu and slslu: there the terms
    # reach 8e-11 and 1e-9, and the two residuals differ by up to 1.1e-10,
    # 6e-11 of the column's largest value.
    # Cases: sampled pivots, lam = 0, and breakdowns at which U_{K+1}
    # lacks its last column
    pivots = (PivotStrategy.full(), PivotStrategy.sampled(3, seed=4))
    for name in sorted(SOLVERS):
        for problem in ("random", "shift"):
            if problem == "random":
                M, A, b = problem_for(name, 34)
            else:
                M, A, b = deficient_shift_problem(name)
            for lam, pivot in itertools.product((0.0, 0.5), pivots):
                case = (name, problem, lam, pivot.kind)
                cfg = SolverConfig(maxiter=A.cols, lam=lam, seed=5, pivot=pivot,
                                   compute_diagnostics=True)
                ys, solve, forward = [], solvers._projected_solve, A.forward

                def recording(R, Z, k):
                    y, fallback = solve(R, Z, k)
                    ys.append(y)
                    return y, fallback

                def applying(x):
                    applied.append(x)
                    return forward(x)

                applied = []
                monkeypatch.setattr(solvers, "_projected_solve", recording)
                monkeypatch.setattr(A, "forward", applying)
                result = SOLVERS[name](A, b, cfg)
                monkeypatch.undo()
                records, state = result.trace.records, result.factorization
                # every forward apply is a counted one: diagnostics make none
                assert len(applied) == records[-1].matvecs, case
                if problem == "shift":
                    assert result.termination == "breakdown", case
                    assert len(state.U_cols) == state.k, case
                U, V = state.U_cols, state.V_cols
                H = state.H_matrix(len(U))
                res, gaps = [], []
                for k, y in enumerate(ys, start=1):
                    res.append(np.linalg.norm(b - M @ (V.matrix(k) @ y)))
                    j = min(k + 1, len(U))
                    relation = M @ V.matrix(k) - U.matrix(j) @ H[:j, :k]
                    moved = gamma(k) * (np.abs(V.matrix(k)) @ np.abs(y))
                    gaps.append(
                        np.linalg.norm(relation @ y) + np.linalg.norm(np.abs(M) @ moved)
                    )
                got = np.array(result.trace.column("res_norm"))
                tol = 1e-13 * max(res) + np.array(gaps)
                assert np.all(np.abs(got - res) <= tol), case


@pytest.mark.parametrize("name, vectors", [("cmrh", 2), ("lslu", 3)])
def test_hessenberg_solve_holds_its_bases_and_a_few_vectors(name, vectors):
    # a diagonal operator on 65,536 unknowns allocates nothing but its
    # output.  Beyond its bases, cmrh holds two n-vectors at a time at
    # most: the pivot order t, and A's output until it is copied into the
    # basis's next column (one triangular solve and one GEMV build the
    # remainder there, with no temporary) while building, the returned x
    # after; lslu also holds the order g.  r0 lives only while the builder
    # starts from it, so one more vector fails.  256 KiB covers the error
    # pass's row block, H, the packed pivot triangles, the projected
    # systems and interpreter-sized objects
    n = 1 << 16
    rng = np.random.default_rng(0)
    d = 1.0 + rng.random(n)
    A = LinearOperator(n, n, lambda x: d * x, lambda y: d * y)
    b, x_true = rng.standard_normal(n), rng.standard_normal(n)
    tracemalloc.start()
    try:
        result = SOLVERS[name](A, b, SolverConfig(maxiter=10), x_true)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state = result.factorization
    assert len(result.trace.records) == 10 and len(state.V_cols) == 11
    stores = {id(s): s for s in (state.U_cols, state.V_cols)}.values()
    bases = sum(store.matrix().nbytes for store in stores)
    assert peak <= bases + vectors * 8 * n + (256 << 10), (peak - bases) / (8 * n)


# ---------------------------------------------------------------------------
# the sketched form against the products formulation S [A V_k | r0]


def cyclic_shift_problem():
    # A cycles e1 -> e2 -> ... -> e5 -> e1 and doubles the other seven
    # coordinates, so the Krylov space of b = e1 has dimension 5 and the
    # builders break down exactly, at step 5 or before
    M = 2.0 * np.eye(12)
    M[:5, :5] = np.roll(np.eye(5), 1, axis=0)
    b = np.zeros(12)
    b[0] = 1.0
    return LinearOperator.from_matrix(M), b, 9


def products_problems():
    """(name, solver, A, b, maxiter): the sketched problems, the rank-3
    ones, and two that break down exactly."""
    rank3 = [
        (f"rank3-{name}", SOLVERS[name], A, b, maxiter)
        for name, cases in rank3_problems().items()
        for A, b, maxiter in cases
    ]
    shift, b_shift, maxiter = cyclic_shift_problem()
    identity = LinearOperator.identity(8)
    b_identity = np.random.default_rng(92).standard_normal(8)
    return sketched_problems() + rank3 + [
        ("shift", scmrh, shift, b_shift, maxiter),
        ("shift", slslu, shift, b_shift, maxiter),
        ("identity", scmrh, identity, b_identity, 5),
        ("identity", slslu, identity, b_identity, 5),
    ]


def least_squares_sensitivity(Z, z, y, eps):
    """First-order bound on ||dy|| / ||y|| when the stacked system Z and its
    right-hand side z move by a relative eps (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Thm 20.1)."""
    r = z - Z @ y
    kappa = np.linalg.cond(Z)
    rho = np.linalg.norm(r) / (np.linalg.norm(Z, 2) * np.linalg.norm(y))
    return eps * kappa * (2.0 + (kappa + 1.0) * rho)


def relative_gap(new, old):
    return np.linalg.norm(new - old, 2) / np.linalg.norm(old, 2)


def record_bytes(result):
    fields = ("iteration", "matvecs", "tmatvecs", "dots", "sketches",
              "rank_fallback")
    return [tuple(getattr(r, f) for f in fields) for r in result.trace.records]


def factorization_parts(state):
    # the pivots chosen so far lead t and g; the rest is the permutation
    # that the remaining steps would refine
    U = state.U_cols.matrix()
    parts = [state.H_matrix(), U, state.V_cols.matrix(), state.t[: U.shape[1]]]
    if state.W is not None:
        parts += [state.W_matrix(), state.g[: U.shape[1]]]
    return [np.asarray(p) for p in parts]


def record_projected_solves(monkeypatch):
    """Every (Z_k, z, y) that solvers._projected_solve solves and returns."""
    calls = []
    solve = solvers._projected_solve

    def recording(R, Z, k):
        y, fallback = solve(R, Z, k)
        calls.append((Z[:, :k], Z[:, -1], y))
        return y, fallback

    monkeypatch.setattr(solvers, "_projected_solve", recording)
    return calls


def replay_products(monkeypatch, cfg, S, problem, result, calls):
    # one step at a time, the products system S [A V_k | r0] gains the
    # column S A v_k; the reference applies A afresh to every basis
    # column, on the uncounted forward map
    name, solver, A, b, _ = problem
    lam = cfg.lam
    V = result.factorization.V_cols.matrix(len(calls))
    SAV = sketch_apply(S, np.column_stack([A.forward(v) for v in V.T]))
    Sr0 = sketch_apply(S, b)
    # A V_k = U_{k+1} H and r0 = beta u_1 hold to rounding, so the two
    # systems differ by what the factorization moves, measured here on
    # the test's own (S U) [H | beta e1]; each of the two least-squares
    # solves, a QR of k columns, adds a backward error of about k eps,
    # one eps per Householder reflection (eps alone fails for some sketch
    # seeds on the shift problem, whose sketched products are exact: the
    # two QRs' own rounding exceeds it)
    M, rhs, N = full_sketched_system(cfg, S, result)
    for k, (_, _, y) in enumerate(calls, start=1):
        Zk, z = SAV[:, :k], Sr0
        moved = max(relative_gap(M[:, :k], Zk), relative_gap(rhs, z))
        if lam > 0.0:
            Zk = np.vstack([Zk, lam * N[:, :k]])
            z = np.concatenate([z, np.zeros(N.shape[0])])
        ref = np.linalg.lstsq(Zk, z, rcond=None)[0]
        eps = moved + 2.0 * k * np.finfo(float).eps
        tol = least_squares_sensitivity(Zk, z, ref, eps)
        gap = np.linalg.norm(y - ref)
        assert gap <= tol * np.linalg.norm(ref), (name, solver.__name__, k, gap, tol)


def replay_basis(monkeypatch, cfg, S, problem, result, calls):
    # a solve stopped at step k sketches the basis of its k steps: its
    # records and factorization are the first k of the whole solve, byte
    # for byte, and its last y is the whole solve's y_k
    name, solver, A, b, _ = problem
    K = len(result.trace.records)
    whole = factorization_parts(result.factorization)
    # the diagnostics come from QRs of bases of different widths
    U_cols = result.factorization.U_cols
    tolerances = [
        diagnostics_tolerance(U_cols.matrix(min(k + 1, len(U_cols))), S)
        for k in range(1, K + 1)
    ]
    for k in range(1, K + 1):
        monkeypatch.undo()
        mine = record_projected_solves(monkeypatch)
        one = solver(A, b, replace(cfg, maxiter=k))
        case = (name, solver.__name__, k)
        assert one.termination == (result.termination if k == K else "maxiter"), case
        assert record_bytes(one) == record_bytes(result)[:k], case
        for part, full in zip(factorization_parts(one.factorization), whole):
            cut = full[tuple(slice(0, n) for n in part.shape)]
            assert np.array_equal(part, cut), case
        for mine_rec, rec, (tol_kappa, tol_eps) in zip(
            one.trace.records, result.trace.records, tolerances
        ):
            gap = abs(mine_rec.kappa_basis - rec.kappa_basis)
            assert gap <= tol_kappa * rec.kappa_basis, case
            assert abs(mine_rec.eps_embed - rec.eps_embed) <= tol_eps, case
        Zk, z, y_one = mine[-1]
        y = calls[k - 1][2]
        gap = np.linalg.norm(y - y_one)
        # the two QRs run over systems of different widths, and round
        # differently.  The damped rank-3 solves run past their numerical
        # breakdown, on a stacked system with a condition number in the
        # hundreds and a residual off its range, so their y is gated by
        # the least-squares perturbation bound for that system
        if name.startswith("rank3") and cfg.lam > 0.0:
            tol = least_squares_sensitivity(Zk, z, y_one, np.finfo(float).eps)
        else:
            tol = 1e-13
        assert gap <= tol * np.linalg.norm(y_one), (case, gap, tol)


@pytest.mark.parametrize("basis", [False, True], ids=["products", "basis"])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_blocked_driver_replays_one_step_blocks(monkeypatch, lam, basis):
    # the driver sketches every step's columns in one block, after the
    # build pass; each y_k is what one step at a time gives, whether step
    # k sketches its product column A v_k or the basis it has built
    replay = replay_basis if basis else replay_products
    for problem in products_problems():
        name, solver, A, b, maxiter = problem
        # a fixed sketch_rows keeps S, and S1, in the maxiter=k replays
        rows = SolverConfig(maxiter=maxiter).effective_sketch_rows(A.cols)
        cfg = SolverConfig(maxiter=maxiter, lam=lam, seed=7, sketch_rows=rows,
                           compute_diagnostics=True)
        S = make_gaussian_sketch(rows, A.rows, cfg.seed)
        calls = record_projected_solves(monkeypatch)
        result = solver(A, b, cfg)
        if name in ("shift", "identity"):
            assert result.termination == "breakdown", name
        replay(monkeypatch, cfg, S, problem, result, calls)
        monkeypatch.undo()


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_products_form_sketches_once_per_block(monkeypatch, block):
    # a solve of ``block`` steps sketches them as one block: one pass over
    # S for the data basis, and one over S1 for the solution basis when
    # damped, whatever the block's width
    for name, solver, A, b, maxiter in products_problems():
        for lam in (0.0, 0.5):
            damped = lam > 0.0
            sketches = []
            apply = solvers.sketch_apply

            def counting(S, v, counters=None):
                sketches.append(S)
                return apply(S, v, counters)

            monkeypatch.setattr(solvers, "sketch_apply", counting)
            cfg = SolverConfig(maxiter=min(block, maxiter), lam=lam, seed=8)
            result = solver(A, b, cfg)
            monkeypatch.undo()
            case = (name, solver.__name__, lam)
            ell = cfg.effective_sketch_rows(A.cols)
            S = make_gaussian_sketch(ell, A.rows, cfg.seed)
            S1 = make_gaussian_sketch(ell, A.cols, derive_seed(cfg.seed, 1))
            assert len(sketches) == 1 + damped, case
            assert np.array_equal(sketches[0].entries, S.entries), case
            if damped:
                assert np.array_equal(sketches[1].entries, S1.entries), case
            # each step sketches the columns its bases hold: 1 + k of U,
            # and as many of V when damped, except at a breakdown
            state, records = result.factorization, result.trace.records
            assert [r.sketches for r in records[:-1]] == [
                (1 + k) * (1 + damped) for k in range(1, len(records))
            ], case
            final = len(state.U_cols) + damped * len(state.V_cols)
            assert records[-1].sketches == final, case


# ---------------------------------------------------------------------------
# oracle and serialization


def test_oracle_full_identity_basis_gives_global_ls():
    M, A, b = make_rect(33, 15, 6)
    y, res = projected_minres_oracle(A, np.eye(6), b)
    y_ref = np.linalg.lstsq(M, b, rcond=None)[0]
    assert np.allclose(y, y_ref, atol=1e-10)
    assert res == pytest.approx(np.linalg.norm(M @ y_ref - b))


def test_oracle_one_dimensional_closed_form():
    M, A, b = make_square(34, 7)
    Ab = M @ b
    y, _ = projected_minres_oracle(A, b, b)
    assert y[0] == pytest.approx(np.dot(Ab, b) / np.dot(Ab, Ab), rel=1e-12)


@pytest.mark.parametrize("name", ["basis", "b"])
def test_oracle_rejects_complex_input_by_name(name):
    _, A, b = make_square(34, 7)
    inputs = {"basis": b, "b": b}
    inputs[name] = 1j * b
    with pytest.raises(ValueError, match=f"^{name} must be real; it has complex dtype"):
        projected_minres_oracle(A, inputs["basis"], inputs["b"])


def test_trace_csv_layout_and_determinism():
    _, A, b = make_rect(35, 18, 9)
    cfg = SolverConfig(maxiter=4, seed=5, compute_diagnostics=True)
    res = slslu(A, b, cfg)
    buf1, buf2 = io.StringIO(), io.StringIO()
    trace_to_csv(res.trace, buf1)
    trace_to_csv(slslu(A, b, cfg).trace, buf2)
    text = buf1.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS) == (
        "iter,res_norm,sres_norm,proj_obj,rel_err,kappa_basis,kappa_dbar,"
        "eps_embed,matvecs,tmatvecs,dots,sketches,rank_fallback"
    )
    assert len(lines) == 5
    # one cell per column, the last the 0/1 rank_fallback flag
    assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines[1:])
    assert all(line.endswith(",0") for line in lines[1:])
    assert text == buf2.getvalue()


def test_trace_csv_round_trips_every_record_field():
    # a rank-3 operator with b off its range: later steps fall back
    A, b, maxiter = rank3_problems()["scmrh"][0]
    cfg = SolverConfig(maxiter=maxiter, seed=6, compute_diagnostics=True)
    res = scmrh(A, b, cfg, x_true=np.ones(A.cols))
    assert any(res.trace.column("rank_fallback"))
    buf = io.StringIO()
    trace_to_csv(res.trace, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == len(res.trace.records) + 1
    names = [f.name for f in fields(TraceRecord)]
    cells = {name: set() for name in names}
    for rec, row in zip(res.trace.records, rows[1:]):
        assert len(row) == len(names)
        for name, cell in zip(names, row):
            value = getattr(rec, name)
            cells[name].add(cell)
            if value is None:
                assert cell == "", (name, cell)
            elif isinstance(value, (bool, int, np.integer)):
                assert cell == str(int(value)), (name, cell)
            else:
                # repr round-trips a float to its bits
                assert float(cell).hex() == float(value).hex(), (name, cell)
    assert cells["rank_fallback"] == {"0", "1"}
    assert cells["kappa_dbar"] == {""}


def test_trace_csv_empty_fields_without_diagnostics():
    _, A, b = make_rect(37, 12, 6)
    res = lslu(A, b, SolverConfig(maxiter=3))
    buf = io.StringIO()
    trace_to_csv(res.trace, buf)
    row = buf.getvalue().strip().split("\n")[1].split(",")
    cols = dict(zip(CSV_COLUMNS, row))
    assert cols["res_norm"] == ""
    assert cols["kappa_basis"] == ""
    assert cols["proj_obj"] != ""
    assert cols["matvecs"] == "1"


@pytest.mark.parametrize("solver", [scmrh, slslu])
def test_eps_embed_is_zero_after_one_step_breakdown_on_identity(solver):
    # span(r0, A V_1) is the line through r0, and no sketch distorts a line;
    # a measure that counts A v_1 = v_1 as a second direction reads noise
    b = np.random.default_rng(3).standard_normal(12)
    cfg = SolverConfig(maxiter=5, compute_diagnostics=True)
    res = solver(LinearOperator.identity(12), b, cfg)
    assert res.termination == "breakdown"
    assert [rec.eps_embed for rec in res.trace.records] == [0.0]
