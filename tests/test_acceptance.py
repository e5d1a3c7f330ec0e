"""End-to-end acceptance checks.

Each test exercises one numbered claim about the library at its stated
tolerance and prints a single [PASS]/[FAIL] line (visible with ``pytest -s``
or on failure).  The checks are intentionally self-contained: relation
residuals, triangularity, and projection optima are recomputed here rather
than imported from the unit-test helpers.
"""

import io
import time
from dataclasses import replace

import numpy as np
import pytest

from hessketch.hessenberg import (
    PivotStrategy,
    init_generalized,
    init_square,
    step_generalized,
    step_square,
)
from hessketch import solvers
from hessketch.linops import LinearOperator, stacked_tikhonov_ls
from hessketch.problems import make_deblur, make_tomography, motion_psf
from hessketch.sketch import make_gaussian_sketch, sketch_and_solve_ls
from hessketch.solvers import (
    SolverConfig,
    cmrh,
    gmres,
    lslu,
    lsqr,
    projected_minres_oracle,
    scmrh,
    slslu,
    trace_to_csv,
)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def unit_triangular_exact(cols, perm):
    B = np.column_stack(cols)[np.asarray(perm)[: len(cols)], :]
    for j in range(B.shape[1]):
        if B[j, j] != 1.0 or np.any(B[:j, j] != 0.0):
            return False
    return True


def res_curve(result):
    return np.array(result.trace.column("res_norm"))


def err_curve(result):
    return np.array(result.trace.column("rel_err"))


@pytest.fixture(scope="module")
def deblur64():
    return make_deblur(64, motion_psf(7, 30.0), noise_level=0.01, seed=0)


@pytest.fixture(scope="module")
def tomo48():
    return make_tomography(48, 36, noise_level=0.01, seed=0)


def test_criterion_01_factorization_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    triangular = True
    for _ in range(10):
        n = int(rng.integers(12, 51))
        M = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        A = LinearOperator.from_matrix(M)
        state = init_square(A, b)
        scale = np.linalg.norm(M)
        for _ in range(n):
            if state.breakdown:
                break
            step_square(state, A)
            Lk = np.column_stack(state.V_cols[: len(state.h_cols)])
            H = state.H_matrix(rows=len(state.V_cols))
            gap = np.linalg.norm(M @ Lk - np.column_stack(state.V_cols) @ H)
            worst = max(worst, gap / (scale * np.linalg.norm(Lk)))
            triangular &= unit_triangular_exact(state.V_cols, state.t)
    for _ in range(10):
        m = int(rng.integers(20, 61))
        n = int(rng.integers(10, 31))
        M = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        A = LinearOperator.from_matrix(M)
        state = init_generalized(A, b)
        scale = np.linalg.norm(M)
        for _ in range(min(m, n)):
            if state.breakdown:
                break
            step_generalized(state, A)
            Lk = np.column_stack(state.V_cols[: len(state.h_cols)])
            D = np.column_stack(state.U_cols)
            H = state.H_matrix(rows=len(state.U_cols))
            gap = np.linalg.norm(M @ Lk - D @ H)
            worst = max(worst, gap / (scale * np.linalg.norm(Lk)))
            W = state.W_matrix(rows=len(state.V_cols))
            gap_w = np.linalg.norm(
                M.T @ D - np.column_stack(state.V_cols) @ W[:, : D.shape[1]]
            )
            worst = max(worst, gap_w / (scale * np.linalg.norm(D)))
            triangular &= unit_triangular_exact(state.U_cols, state.t)
            triangular &= unit_triangular_exact(state.V_cols, state.g)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and triangular and elapsed < 10.0
    report(
        1,
        ok,
        "factorization relations on 20 operators: worst relative gap "
        f"{worst:.2e} (limit 1e-10), triangularity exact={triangular}, "
        f"{elapsed:.1f}s (limit 10s)",
    )


def test_criterion_02_inner_product_freedom():
    rng = np.random.default_rng(202)
    Ms = rng.standard_normal((30, 30))
    bs = rng.standard_normal(30)
    Mr = rng.standard_normal((40, 20))
    br = rng.standard_normal(40)
    As, Ar = LinearOperator.from_matrix(Ms), LinearOperator.from_matrix(Mr)
    cfg = SolverConfig(maxiter=8, seed=1)
    free = {
        "cmrh": cmrh(As, bs, cfg).trace.final().dots,
        "scmrh": scmrh(As, bs, cfg).trace.final().dots,
        "lslu": lslu(Ar, br, cfg).trace.final().dots,
        "slslu": slslu(Ar, br, cfg).trace.final().dots,
    }
    used = {
        "gmres": gmres(As, bs, cfg).trace.final().dots,
        "lsqr": lsqr(Ar, br, cfg).trace.final().dots,
    }
    ok = all(v == 0 for v in free.values()) and all(v > 0 for v in used.values())
    report(
        2,
        ok,
        f"dot products: {free} all exactly 0; references {used} all > 0",
    )


def test_criterion_03_quasi_minimal_sandwich():
    worst_low, worst_high = 0.0, 0.0
    checks = 0
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        M = rng.standard_normal((25, 25))
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(25)
        res = cmrh(A, b, SolverConfig(maxiter=10, compute_diagnostics=True))
        state = res.factorization
        for k, rec in enumerate(res.trace.records, start=1):
            basis = np.column_stack(state.V_cols[:k])
            _, oracle = projected_minres_oracle(A, basis, b)
            slack = 1e-9 * (1.0 + oracle)
            worst_low = max(worst_low, oracle - rec.res_norm - slack)
            worst_high = max(
                worst_high, rec.res_norm - rec.kappa_basis * oracle - slack
            )
            checks += 1
    for seed in range(5):
        rng = np.random.default_rng(350 + seed)
        M = rng.standard_normal((36, 18))
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(36)
        res = lslu(A, b, SolverConfig(maxiter=10, compute_diagnostics=True))
        state = res.factorization
        for k, rec in enumerate(res.trace.records, start=1):
            basis = np.column_stack(state.V_cols[:k])
            _, oracle = projected_minres_oracle(A, basis, b)
            slack = 1e-9 * (1.0 + oracle)
            worst_low = max(worst_low, oracle - rec.res_norm - slack)
            worst_high = max(
                worst_high, rec.res_norm - rec.kappa_basis * oracle - slack
            )
            checks += 1
    ok = worst_low <= 0.0 and worst_high <= 0.0
    report(
        3,
        ok,
        f"oracle <= residual <= kappa*oracle at {checks} iterations across "
        f"10 problems (slack 1e-9); worst violations {worst_low:.2e} low, "
        f"{worst_high:.2e} high",
    )


def test_criterion_04_sketched_sandwich():
    rng = np.random.default_rng(404)
    Ms = rng.standard_normal((80, 80))
    bs = rng.standard_normal(80)
    Mr = rng.standard_normal((100, 50))
    br = rng.standard_normal(100)
    As, Ar = LinearOperator.from_matrix(Ms), LinearOperator.from_matrix(Mr)
    diag = SolverConfig(maxiter=30, compute_diagnostics=True)
    ref_sq = res_curve(gmres(As, bs, diag))
    ref_rect = res_curve(lsqr(Ar, br, diag))
    worst_env, worst_floor, worst_low = 0.0, 0.0, 0.0
    for seed in range(10):
        for solver, A, b, ref in (
            (scmrh, As, bs, ref_sq),
            (slslu, Ar, br, ref_rect),
        ):
            cfg = SolverConfig(maxiter=30, seed=seed, compute_diagnostics=True)
            res = solver(A, b, cfg)
            state = res.factorization
            for k, rec in enumerate(res.trace.records, start=1):
                basis = np.column_stack(state.V_cols[:k])
                _, oracle = projected_minres_oracle(A, basis, b)
                slack = 1e-9 * (1.0 + oracle)
                envelope = (1.0 + rec.eps_embed) / (1.0 - rec.eps_embed)
                worst_low = max(worst_low, oracle - rec.res_norm - slack)
                worst_env = max(
                    worst_env, rec.res_norm - envelope * oracle - slack
                )
                worst_floor = max(
                    worst_floor, ref[k - 1] - rec.res_norm - 1e-12
                )
    ok = worst_low <= 0.0 and worst_env <= 0.0 and worst_floor <= 0.0
    report(
        4,
        ok,
        "sketched residuals obey oracle <= r <= ((1+eps)/(1-eps))*oracle and "
        "r >= reference - 1e-12 for 10 seeds, maxiter 30; worst violations "
        f"low {worst_low:.2e}, envelope {worst_env:.2e}, floor {worst_floor:.2e}",
    )


def test_criterion_05_sketch_and_solve_unbiasedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    M = rng.standard_normal((200, 10))
    rhs = rng.standard_normal(200)
    x_exact = np.linalg.lstsq(M, rhs, rcond=None)[0]
    sols = np.empty((1000, 10))
    for seed in range(1000):
        S = make_gaussian_sketch(60, 200, seed)
        sols[seed] = sketch_and_solve_ls(S, M, rhs)
    mean = sols.mean(axis=0)
    se = sols.std(axis=0, ddof=1) / np.sqrt(1000.0)
    z = np.abs(mean - x_exact) / se
    elapsed = time.perf_counter() - t0
    # Bonferroni over 10 components: false-failure rate <= 10 * 2 * Phi(-3)
    # = 2.7% for this fixed seed set
    ok = np.all(z <= 3.0) and elapsed < 30.0
    report(
        5,
        ok,
        "sketch-and-solve mean over 1000 seeds within 3 standard errors of "
        f"the exact LS solution componentwise (max z {z.max():.2f}); "
        f"{elapsed:.1f}s (limit 30s)",
    )


def test_criterion_06_expected_residual_inflation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    M = rng.standard_normal((200, 10))
    rhs = rng.standard_normal(200)
    y_exact = np.linalg.lstsq(M, rhs, rcond=None)[0]
    min_sq = np.linalg.norm(M @ y_exact - rhs) ** 2
    details = []
    ok = True
    for eps in (0.5, 1.0):
        ell = int(round(10 / eps)) + 11
        sq = np.empty(2000)
        for seed in range(2000):
            S = make_gaussian_sketch(ell, 200, 10_000 + seed)
            y = sketch_and_solve_ls(S, M, rhs)
            sq[seed] = np.linalg.norm(M @ y - rhs) ** 2
        target = (1.0 + eps) * min_sq
        rel = abs(sq.mean() - target) / target
        ok &= rel <= 0.10
        details.append(f"eps={eps}: ell={ell}, mean within {rel:.1%} of target")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(
        6,
        ok,
        f"expected squared-residual inflation (2000 seeds): "
        f"{'; '.join(details)} (limit 10%); {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_07_deblur_comparison(deblur64):
    p = deblur64
    diag = SolverConfig(maxiter=30, compute_diagnostics=True)
    ref = gmres(p.operator, p.b, diag, x_true=p.x_true)
    ref_min = err_curve(ref).min()
    ref_res30 = res_curve(ref)[-1]
    pivot = PivotStrategy.sampled(5, seed=7)
    plain = cmrh(
        p.operator,
        p.b,
        SolverConfig(maxiter=30, pivot=pivot, compute_diagnostics=True),
        x_true=p.x_true,
    )
    cmrh_dev = abs(res_curve(plain)[-1] - ref_res30)
    within, dominated, ratios = 0, 0, []
    for seed in range(5):
        cfg = SolverConfig(
            maxiter=30, seed=seed, pivot=pivot, compute_diagnostics=True
        )
        res = scmrh(p.operator, p.b, cfg, x_true=p.x_true)
        ratio = err_curve(res).min() / ref_min
        ratios.append(ratio)
        within += ratio <= 1.10
        dominated += cmrh_dev >= abs(res_curve(res)[-1] - ref_res30)
    ok = within >= 3 and dominated >= 3
    report(
        7,
        ok,
        f"deblur(64, motion, 1%): sketched minimum error within 10% of the "
        f"reference for {within}/5 seeds (ratios "
        f"{[f'{r:.3f}' for r in ratios]}); unsketched residual deviation "
        f"dominates for {dominated}/5 seeds",
    )


def test_criterion_08_tomography_comparison(tomo48):
    p = tomo48
    ref = lsqr(
        p.operator, p.b, SolverConfig(maxiter=30), x_true=p.x_true
    )
    ref_errs = err_curve(ref)
    kstar = int(ref_errs.argmin())
    pivot = PivotStrategy.sampled(25, seed=1)
    ratios = []
    for seed in range(5):
        cfg = SolverConfig(maxiter=30, seed=seed, pivot=pivot)
        res = slslu(p.operator, p.b, cfg, x_true=p.x_true)
        ratios.append(err_curve(res)[kstar] / ref_errs[kstar])
    median = float(np.median(ratios))
    ok = median <= 1.10
    report(
        8,
        ok,
        f"tomography(48, 36 angles, 1%): sketched error at the reference-"
        f"optimal iteration {kstar + 1}, median ratio {median:.3f} over 5 "
        f"seeds (limit 1.10)",
    )


def upturn(errs):
    return errs[-1] / errs.min() - 1.0


def test_criterion_09_tikhonov_stabilization(tomo48):
    p = tomo48

    def run_three(lam):
        e1 = err_curve(
            lsqr(p.operator, p.b, SolverConfig(maxiter=30, lam=lam), x_true=p.x_true)
        )
        e2 = err_curve(
            lslu(p.operator, p.b, SolverConfig(maxiter=30, lam=lam), x_true=p.x_true)
        )
        sketched = [
            upturn(
                err_curve(
                    slslu(
                        p.operator,
                        p.b,
                        SolverConfig(maxiter=30, lam=lam, seed=seed),
                        x_true=p.x_true,
                    )
                )
            )
            for seed in range(5)
        ]
        return upturn(e1), upturn(e2), float(np.median(sketched))

    chosen = None
    flats = None
    for lam in (1.0, 5.0, 26.0, 130.0):
        flats = run_three(lam)
        if all(f < 0.05 for f in flats):
            chosen = lam
            break
    base_lsqr = upturn(
        err_curve(lsqr(p.operator, p.b, SolverConfig(maxiter=30), x_true=p.x_true))
    )
    base_lslu = upturn(
        err_curve(lslu(p.operator, p.b, SolverConfig(maxiter=30), x_true=p.x_true))
    )
    base_sk = float(
        np.median(
            [
                upturn(
                    err_curve(
                        slslu(
                            p.operator,
                            p.b,
                            SolverConfig(maxiter=30, seed=seed),
                            x_true=p.x_true,
                        )
                    )
                )
                for seed in range(5)
            ]
        )
    )
    unregularized = (base_lsqr, base_lslu, base_sk)
    ok = chosen is not None and all(u > 0.05 for u in unregularized)
    report(
        9,
        ok,
        f"damping with lambda={chosen} flattens all three error curves at "
        f"k=30 (upturns {tuple(f'{f:.1%}' for f in flats)}, limit 5%) while "
        f"the undamped counterparts rise "
        f"{tuple(f'{u:.1%}' for u in unregularized)} above their minima",
    )


def test_criterion_10_reductions_and_replay(monkeypatch):
    rng = np.random.default_rng(1010)
    Ms = rng.standard_normal((20, 20))
    bs = rng.standard_normal(20)
    Mr = rng.standard_normal((24, 12))
    br = rng.standard_normal(24)
    As, Ar = LinearOperator.from_matrix(Ms), LinearOperator.from_matrix(Mr)
    cfg = SolverConfig(maxiter=6, seed=3)

    # lambda = 0 reduces to the plain solve on the shared stacked-QR path:
    # on every projected system of real sketched runs, the stacked solve
    # at lambda = 0 equals the plain QR solve bit for bit
    plain_qr = solvers.dense_qr_ls
    systems = []

    def recording_qr(M, rhs):
        systems.append((M, rhs))
        return plain_qr(M, rhs)

    monkeypatch.setattr(solvers, "dense_qr_ls", recording_qr)
    scmrh(As, bs, cfg)
    slslu(Ar, br, cfg)
    monkeypatch.undo()
    zero_lam_solve = len(systems) == 2 * cfg.maxiter and all(
        np.array_equal(
            stacked_tikhonov_ls(M, np.eye(M.shape[1]), rhs, 0.0), plain_qr(M, rhs)
        )
        for M, rhs in systems
    )
    # and the penalty sketches are only charged when lambda > 0
    K = cfg.maxiter
    sketches = (
        slslu(Ar, br, cfg).trace.final().sketches,
        slslu(Ar, br, replace(cfg, lam=0.5)).trace.final().sketches,
    )
    zero_lam_cost = sketches == (K + 1, 2 * K + 2)

    full_sq = cmrh(As, bs, SolverConfig(maxiter=6))
    samp_sq = cmrh(
        As, bs, SolverConfig(maxiter=6, pivot=PivotStrategy.sampled(20, seed=5))
    )
    full_rect = lslu(Ar, br, SolverConfig(maxiter=6))
    samp_rect = lslu(
        Ar, br, SolverConfig(maxiter=6, pivot=PivotStrategy.sampled(24, seed=5))
    )
    superset = np.array_equal(full_sq.x, samp_sq.x) and np.array_equal(
        full_rect.x, samp_rect.x
    )

    buf1, buf2 = io.StringIO(), io.StringIO()
    trace_to_csv(slslu(Ar, br, cfg).trace, buf1)
    trace_to_csv(slslu(Ar, br, cfg).trace, buf2)
    replay = buf1.getvalue() == buf2.getvalue()

    ok = zero_lam_solve and zero_lam_cost and superset and replay
    report(
        10,
        ok,
        f"lambda=0 stacked solves bitwise equal plain ones on "
        f"{len(systems)} sketched systems ({zero_lam_solve}); slslu sketches "
        f"{sketches} at lambda 0, 0.5 ({zero_lam_cost}); whole-set sampling "
        f"equals full pivoting ({superset}); CSV replay byte-identical ({replay})",
    )
