"""Property tests of the one factorization shape all four builders share.

Each builder runs through its reference solver (Arnoldi via gmres,
Golub-Kahan via lsqr, the pivoted Hessenberg process via cmrh, the
generalized process via lslu) on small random operators, with full or
sampled pivots, and its ``factorization`` must satisfy
A V_k = U_{k+1} H_{k+1,k}.  The Hessenberg builders must also keep their
bases unit lower triangular under the pivot orders and count no inner
products; the generalized one must satisfy A^T U_{k+1} = V_{k+1} W.
All six solvers must also replay: two runs on the same input give
byte-identical traces and iterates, and the iterate is finite.  Each
step's projected solve falls back to truncated least squares exactly when
its own columns are rank deficient.  The diagnostics the driver reads off
one QR per basis agree with the SVDs and the measured distortion of each
step's own basis, within a bound derived below; so does the ``proj_obj``
read off R with each step's explicit residual.  The Q-free pivoted QR of
``dense_qr_ls`` decides rank as the economic QR does, bit for bit, and
its solution is backward stable.
Examples are derandomized, so the suite stays deterministic.
"""

import io
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hessketch import hessenberg, solvers
from hessketch.hessenberg import PivotStrategy
from hessketch.linops import (
    RANK_TOL,
    LinearOperator,
    RankDeficiencyError,
    condition_number,
    dense_qr_ls,
)
from hessketch.sketch import make_gaussian_sketch, measured_epsilon
from hessketch.solvers import SOLVERS, SolverConfig, _projected_solve, trace_to_csv

PIVOTS = st.one_of(
    st.just(PivotStrategy.full()),
    st.builds(PivotStrategy.sampled, st.integers(1, 4), st.integers(0, 2**16)),
)
SQUARE = {"gmres", "cmrh"}
HESSENBERG = {"cmrh", "lslu"}


def unit_lower_triangular(cols, perm):
    B = cols.matrix()[np.asarray(perm)[: len(cols)], :]
    return np.array_equal(np.diag(B), np.ones(B.shape[1])) and not np.any(
        np.triu(B, 1)
    )


@pytest.mark.parametrize("name", ["gmres", "lsqr", "cmrh", "lslu"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 12),
    n=st.integers(2, 12),
    pivot=PIVOTS,
)
def test_factorization_relations(name, seed, m, n, pivot):
    if name in SQUARE:
        n = m
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    A = LinearOperator.from_matrix(M)
    res = SOLVERS[name](A, rng.standard_normal(m), SolverConfig(maxiter=n, pivot=pivot))
    state = res.factorization
    k = state.k
    assert k == len(res.trace.records)
    Vk = state.V_cols.matrix(k)
    U = state.U_cols.matrix()
    gap = np.linalg.norm(M @ Vk - U @ state.H_matrix(rows=U.shape[1]))
    assert gap <= 1e-10 * np.linalg.norm(M) * np.linalg.norm(Vk)
    assert res.trace.final().matvecs == k
    # each step writes its column of H in place, at the right rows: the
    # zeroed array would hide an offset everywhere but here
    H = state.H_matrix()
    assert H.shape == (k + 1, k) and not np.any(np.tril(H, -2))
    assert not H.flags.writeable and np.shares_memory(H, state.H)
    if state.W is not None:
        W = state.W_matrix()
        assert W.shape == (U.shape[1],) * 2 and not np.any(np.tril(W, -1))
        assert not W.flags.writeable and np.shares_memory(W, state.W)
    if name not in HESSENBERG:
        return
    assert res.trace.final().dots == 0
    assert unit_lower_triangular(state.U_cols, state.t)
    if name == "lslu":
        assert unit_lower_triangular(state.V_cols, state.g)
        V = state.V_cols.matrix()
        W = state.W_matrix(rows=V.shape[1])
        gap = np.linalg.norm(M.T @ U - V @ W)
        assert gap <= 1e-10 * np.linalg.norm(M) * np.linalg.norm(U)


def vanish_at(column, rows):
    # exactly +0.0 or -0.0 at every given row
    return np.all(column[np.asarray(rows, dtype=int)] == 0.0)


@pytest.mark.parametrize("rank", [None, 2], ids=["full-rank", "rank-2"])
@pytest.mark.parametrize(
    "pivot", [PivotStrategy.full(), PivotStrategy.sampled(5, 7)], ids=["full", "sampled5"]
)
@pytest.mark.parametrize("builder", ["square", "generalized"])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12), n=st.integers(2, 12))
def test_remainders_vanish_at_earlier_pivots(builder, pivot, rank, seed, m, n):
    # the full pivot searches every row, because every remainder, and so
    # every later basis column, reads exactly zero at each earlier pivot
    if builder == "square":
        n = m
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    if rank is not None:
        M = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    A = LinearOperator.from_matrix(M)
    init, step = {
        "square": (hessenberg.init_square, hessenberg.step_square),
        "generalized": (hessenberg.init_generalized, hessenberg.step_generalized),
    }[builder]
    select, remainders = hessenberg.pivot_select, []

    def checking(v, admissible, strategy, rng=None):
        # the rows the process has pivoted are the ones not admissible
        pivoted = np.setdiff1d(np.arange(v.size), admissible)
        remainders.append(vanish_at(v, pivoted))
        return select(v, admissible, strategy, rng)

    with mock.patch.object(hessenberg, "pivot_select", checking):
        state = init(A, rng.standard_normal(m), pivot, capacity=n + 1)
        bases = [(state.U_cols, state.t), (state.V_cols, state.g)]
        for _ in range(n):
            step(state, A)
            for store, perm in bases[: 2 if builder == "generalized" else 1]:
                for j, column in enumerate(store.matrix().T):
                    assert vanish_at(column, perm[:j]) and column[perm[j]] == 1.0
            if state.breakdown:
                break
    assert remainders and all(remainders)


def test_pivot_select_ties_signs_and_zeros():
    full = PivotStrategy.full()
    # a -max before the +max wins the tie, in any listing order
    v = np.array([0.0, -3.0, 1.0, 3.0])
    assert hessenberg.pivot_select(v, [0, 1, 2, 3], full) == (1, -3.0)
    assert hessenberg.pivot_select(v, [3, 2, 1, 0], full) == (1, -3.0)
    # an entry outside the set that ties the max at a smaller row is skipped
    v = np.array([5.0, 0.0, -5.0, 5.0])
    assert hessenberg.pivot_select(v, [3, 2], full) == (2, -5.0)
    # a larger one outside the set is skipped too
    v = np.array([9.0, -0.0, 4.0, -4.0])
    assert hessenberg.pivot_select(v, [1, 2, 3], full) == (2, 4.0)
    # an all-zero set, signed zeros included, signals breakdown
    for v in (np.array([7.0, 0.0, -0.0, 0.0]), np.array([0.0, -0.0, 0.0, -0.0])):
        idx, val = hessenberg.pivot_select(v, [3, 1, 2], full)
        assert val == 0.0 and idx in (1, 2, 3)


@pytest.mark.parametrize("name", sorted(SOLVERS))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 10),
    n=st.integers(2, 10),
    pivot=PIVOTS,
    lam=st.sampled_from([0.0, 0.5]),
    diagnostics=st.booleans(),
)
def test_replay_is_byte_identical_and_finite(name, seed, m, n, pivot, lam, diagnostics):
    if name in SQUARE | {"scmrh"}:
        n = m
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    cfg = SolverConfig(
        maxiter=n, pivot=pivot, lam=lam, seed=seed, compute_diagnostics=diagnostics
    )
    runs = []
    for _ in range(2):
        res = SOLVERS[name](LinearOperator.from_matrix(M), b, cfg)
        assert np.all(np.isfinite(res.x))
        csv = io.StringIO()
        trace_to_csv(res.trace, csv)
        runs.append((csv.getvalue(), res.x.tobytes(), res.termination))
    assert runs[0] == runs[1]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 6),
    extra=st.integers(1, 4),
)
def test_projected_solve_falls_back_exactly_past_the_rank(seed, r, extra):
    # the first r columns of Z have singular values in [1, 10] and the
    # next ones are combinations of them, so Z_k has full rank just for
    # k <= r; each step decides from its own triangle of the one QR of Z
    rng = np.random.default_rng(seed)
    rows = 10 * (r + extra + 1)
    Q = np.linalg.qr(rng.standard_normal((rows, r)))[0]
    W = np.linalg.qr(rng.standard_normal((r, r)))[0]
    B = (Q * rng.uniform(1.0, 10.0, r)) @ W
    combos = B @ rng.standard_normal((r, extra))
    Z = np.column_stack([B, combos, rng.standard_normal(rows)])
    R = np.linalg.qr(Z, mode="r")
    for k in range(1, r + extra + 1):
        y, fallback = _projected_solve(R, Z, k)
        assert fallback == (k > r), k
        if fallback:
            ref = np.linalg.lstsq(Z[:, :k], Z[:, -1], rcond=None)[0]
            assert np.array_equal(y, ref), k


# unit roundoff
U_ROUND = np.finfo(float).eps / 2
U_ROUND_32 = np.finfo(np.float32).eps / 2


def agreement_bound(rows, cols):
    """c * u for a rows-by-cols basis: two computations of its condition
    number kappa differ by at most c u kappa, relative to kappa.

    Householder QR of an m-by-j matrix M gives the R factor of M + E with
    ||e_i|| <= gamma_{mj} ||m_i|| column by column (Higham, Accuracy and
    Stability, Thm 19.4, its small constant taken as 1: gamma_{mj} = mju),
    so ||E||_2 <= delta ||M||_2 with delta = 2 m j^1.5 u: sqrt(j) from
    columns to the 2-norm, and 2 for the backward error of the SVD that
    follows.  The SVD of M itself is no worse.  By Weyl, each path moves
    every singular value by at most delta sigma_1, so while delta kappa
    <= 1/8 each kappa is within 3 delta kappa^2 of the exact one, and the
    exact kappa within a factor 1.3 of the reference's: the two paths
    differ by at most 6 * 1.3^2 delta kappa_ref^2 < 16 delta kappa_ref^2.
    Hence c = 32 m j^1.5.
    """
    return 32 * rows * cols**1.5 * U_ROUND


def assert_agree(value, reference, bound):
    # beyond delta kappa = 1/8 the bound says nothing
    if bound * reference <= 2.0:
        assert abs(value - reference) <= bound * reference * reference


@pytest.mark.parametrize("name", sorted(SOLVERS))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 10),
    n=st.integers(2, 10),
    pivot=PIVOTS,
    lam=st.sampled_from([0.0, 0.5]),
)
def test_diagnostics_agree_with_each_basis(name, seed, m, n, pivot, lam):
    # kappa_basis is kappa(U_j), kappa_dbar that of diag(U_j, V_k) and
    # eps_embed measured_epsilon(S, U_j), U_j the data basis step k holds
    if name in SQUARE | {"scmrh"}:
        n = m
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    cfg = SolverConfig(
        maxiter=n, pivot=pivot, lam=lam, seed=seed, compute_diagnostics=True
    )
    res = SOLVERS[name](LinearOperator.from_matrix(M), rng.standard_normal(m), cfg)
    state = res.factorization
    sketched = name in ("scmrh", "slslu")
    if sketched:
        S = make_gaussian_sketch(cfg.effective_sketch_rows(n), m, seed)
        norm_S = np.linalg.norm(S.entries, 2)
    for k, rec in enumerate(res.trace.records, start=1):
        U = state.U_cols.matrix(min(k + 1, len(state.U_cols)))
        j = U.shape[1]
        s = np.linalg.svd(U, compute_uv=False)
        assert_agree(rec.kappa_basis, condition_number(s), agreement_bound(m, j))
        if lam > 0.0 and not state.orthonormal:
            s_v = np.linalg.svd(state.V_cols.matrix(k), compute_uv=False)
            bound = agreement_bound(max(m, n), j)
            assert_agree(rec.kappa_dbar, condition_number(s, s_v), bound)
        else:
            assert rec.kappa_dbar is None
        if not sketched:
            assert rec.eps_embed is None
            continue
        # eps = (s_1 - s_j) / (s_1 + s_j), s the singular values of S Q_j,
        # moves by at most 2 / s_1 times as much as they do.  With delta
        # for p = S.out_rows >= m rows, both paths compute them to within
        # (11 delta + delta_32) kappa ||S||_2: 11 delta for the QRs of U_j
        # and of S U_j, the angle of at most 2 delta kappa between span(U_j)
        # and the span each QR factors, and the last SVD, and delta_32,
        # delta with float32's unit roundoff, for the float32 product
        # S U_j.  So eps agrees to 2 * 1.3 (11 delta + delta_32) kappa_ref
        # ||S||_2 / s_1, absolutely; the constant is rounded up to 8/3,
        # which makes it twice agreement_bound's when delta_32 = delta
        kappa = condition_number(s)
        bound = agreement_bound(S.out_rows, j)
        if bound * kappa <= 2.0:
            s_1 = np.linalg.norm(S.entries @ np.linalg.qr(U)[0], 2)
            gap = abs(rec.eps_embed - measured_epsilon(S, U))
            delta = bound / 16
            delta_32 = delta * U_ROUND_32 / U_ROUND
            assert gap <= 8 / 3 * (11 * delta + delta_32) * kappa * norm_S / s_1


def gamma(m):
    # Higham's gamma_m
    return m * U_ROUND / (1 - m * U_ROUND)


@pytest.mark.parametrize("name", sorted(SOLVERS))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 10),
    n=st.integers(2, 10),
    lam=st.sampled_from([0.0, 0.5]),
)
def test_proj_obj_from_r_is_the_explicit_residual(name, seed, m, n, lam):
    # a step whose triangle passes the rank test reads proj_obj as
    # ||R[k:, K]||; it agrees with the residual ||Z_k y - z|| of its own y.
    #
    # R is the exact triangle of Z + E, ||E||_F <= d1 ||Z||_F with
    # d1 = gamma_{l(K+1)} (Householder QR, Higham Thm 19.4, its constant
    # taken as 1), so with Q orthonormal
    #   ||(Z + E)_k y - (z + e)||^2 = ||R[k:, K]||^2 + ||R_k y - c||^2,
    # c = R[:k, K].  y comes from a pivoted QR of R_k and a back
    # substitution, exact for R_k + F and c + f with ||F||_F <= d2 ||R_k||_F,
    # ||f|| <= d2 ||c||, d2 = gamma_{2k^2 + k}, so ||R_k y - c|| <= d2 s,
    # s = ||Z_k||_F ||y|| + ||z|| (to first order).  Dropping E moves the
    # residual by ||E_k y - e|| <= d1 s, and forming it explicitly by
    # gamma_{k+1} s; the two norms err by gamma_l and gamma_{K+1}
    # relatively.  While d2 sqrt(k) kappa(R_k) <= 1/2, ||y|| <= 2 ||c|| /
    # sigma_min(R_k), so s <= (2 sqrt(k) kappa(R_k) + 1) ||z|| (1 + d1)^2
    if name in SQUARE | {"scmrh"}:
        n = m
    rng = np.random.default_rng(seed)
    A = LinearOperator.from_matrix(rng.standard_normal((m, n)))
    cfg = SolverConfig(maxiter=n, lam=lam, seed=seed)
    steps = []

    def recording(R, Z, k):
        y, fallback = _projected_solve(R, Z, k)
        steps.append((R, Z, k, y))
        return y, fallback

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_projected_solve", recording)
        res = SOLVERS[name](A, rng.standard_normal(m), cfg)
    for (R, Z, k, y), rec in zip(steps, res.trace.records):
        if rec.rank_fallback:
            continue
        l, K = Z.shape[0], Z.shape[1] - 1
        kappa = condition_number(np.linalg.svd(R[:k, :k], compute_uv=False))
        d1, d2 = gamma(l * (K + 1)), gamma(2 * k * k + k)
        if d2 * np.sqrt(k) * kappa > 0.5:
            continue
        explicit = np.linalg.norm(Z[:, :k] @ y - Z[:, -1])
        s = (2 * np.sqrt(k) * kappa + 1) * np.linalg.norm(Z[:, -1]) * (1 + d1) ** 2
        bound = (d1 + d2 + gamma(k + 1)) * s
        bound += gamma(l) * explicit + gamma(K + 1) * rec.proj_obj
        assert abs(rec.proj_obj - explicit) <= bound, (k, rec.proj_obj, explicit)


def ls_input(kind, rng, l, k):
    """A small least-squares matrix of one kind: random with singular values
    spread over 1e-6..1, upper triangular as the solve pass hands over, or
    of rank k - 1 (k >= 2)."""
    if kind == "random":
        Q = np.linalg.qr(rng.standard_normal((l, k)))[0]
        W = np.linalg.qr(rng.standard_normal((k, k)))[0]
        return (Q * np.logspace(0, -6, k)) @ W
    if kind == "triangular":
        return np.triu(rng.standard_normal((k, k)))
    return rng.standard_normal((l, k - 1)) @ rng.standard_normal((k - 1, k))


LS_KINDS = st.sampled_from(["random", "triangular", "deficient"])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=LS_KINDS,
    k=st.integers(2, 12),
    extra=st.integers(0, 6),
)
def test_q_free_qr_decides_as_the_economic_qr(seed, kind, k, extra):
    # the raw pivoted QR that dense_qr_ls runs gives R's diagonal and the
    # pivots of qr(mode="economic", pivoting=True) bit for bit, so it
    # raises, and reports the rank, exactly when the economic R says so
    rng = np.random.default_rng(seed)
    l = k if kind == "triangular" else k + extra
    M, rhs = ls_input(kind, rng, l, k), rng.standard_normal(l)
    plain_qr = scipy.linalg.qr
    _, R_ref, piv_ref = plain_qr(M, mode="economic", pivoting=True)
    seen = []

    def recording(*args, **kwargs):
        out = plain_qr(*args, **kwargs)
        seen.append(out)
        return out

    diag = np.abs(np.diag(R_ref))
    deficient = diag.min() < RANK_TOL * diag.max()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy.linalg, "qr", recording)
        try:
            dense_qr_ls(M, rhs)
            rank = k
        except RankDeficiencyError as exc:
            rank = exc.rank
    (_, R, piv), = seen
    assert np.array_equal(np.diag(R), np.diag(R_ref))
    assert np.array_equal(piv, piv_ref)
    assert (rank < k) == deficient
    assert rank == np.count_nonzero(diag >= RANK_TOL * diag.max())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "triangular"]),
    k=st.integers(1, 12),
    extra=st.integers(0, 6),
    off_range=st.sampled_from([0.0, 1.0, 1e3]),
)
def test_q_free_solve_is_backward_stable(seed, kind, k, extra, off_range):
    # y is the exact least-squares solution of M + dM, rhs + drhs with
    # ||dM||_F <= d ||M||_F and ||drhs|| <= d ||rhs||, d = gamma_{lk}
    # (Householder least squares, Higham Thm 20.3, its constant taken as
    # 1), plus gamma_k for the back substitution.  Then
    # (M + dM)^T r~ = 0 for r~ = rhs + drhs - (M + dM) y, and the
    # residual r = rhs - M y the test forms differs from r~ by at most
    # (d + gamma_{k+1}) s, s = ||rhs|| + ||M||_F ||y||, rounding included.
    # So ||M^T r|| <= ||M||_F (d (||r|| + s) + (d + gamma_{k+1}) s
    # + gamma_l ||r||), the last term the rounding of M^T r itself.  This
    # holds whatever kappa(M): the 1e-6 spread moves y, not this bound.
    rng = np.random.default_rng(seed)
    l = k if kind == "triangular" else k + extra
    M = ls_input(kind, rng, l, k)
    rhs = M @ rng.standard_normal(k) + off_range * rng.standard_normal(l)
    try:
        y = dense_qr_ls(M, rhs)
    except RankDeficiencyError:
        return
    r = rhs - M @ y
    norm_M = np.linalg.norm(M)
    s = np.linalg.norm(rhs) + norm_M * np.linalg.norm(y)
    d = gamma(l * k) + gamma(k)
    rho = np.linalg.norm(r)
    bound = norm_M * (d * (rho + s) + (d + gamma(k + 1)) * s + gamma(l) * rho)
    assert np.linalg.norm(M.T @ r) <= bound
