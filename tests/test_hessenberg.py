import numpy as np
import pytest
import scipy.linalg

from hessketch.hessenberg import (
    PivotStrategy,
    TrivialSolution,
    dump_factorization,
    init_generalized,
    init_square,
    pivot_select,
    step_generalized,
    step_square,
)
from hessketch.linops import LinearOperator, load_array
from hessketch.solvers import SolverConfig, cmrh

FULL = PivotStrategy.full()


# ---------------------------------------------------------------------------
# independent dense reference: coefficients obtained by solving the unit
# triangular system at the pivot rows, instead of sequential elimination


def dense_square_reference(M, b, steps):
    n = M.shape[0]
    p = int(np.argmax(np.abs(b)))
    L = [b / b[p]]
    t = [p]
    h_cols = []
    for _ in range(steps):
        u = M @ L[-1]
        Lk = np.column_stack(L)
        c = scipy.linalg.solve_triangular(
            Lk[t, :], u[t], lower=True, unit_diagonal=True
        )
        res = u - Lk @ c
        rest = np.setdiff1d(np.arange(n), t)
        if rest.size == 0 or np.abs(res[rest]).max() == 0.0:
            h_cols.append(np.append(c, 0.0))
            break
        p = int(rest[np.argmax(np.abs(res[rest]))])
        h_cols.append(np.append(c, res[p]))
        L.append(res / res[p])
        t.append(p)
    H = np.zeros((len(h_cols) + 1, len(h_cols)))
    for j, col in enumerate(h_cols):
        H[: j + 2, j] = col
    return np.column_stack(L), H, t


def dense_generalized_reference(M, b, steps):
    m, n = M.shape
    p = int(np.argmax(np.abs(b)))
    D = [b / b[p]]
    t = [p]
    v0 = M.T @ b
    p2 = int(np.argmax(np.abs(v0)))
    L = [v0 / v0[p2]]
    g = [p2]
    w_cols = [np.array([(M.T @ D[0])[g[0]]])]
    h_cols = []
    for _ in range(steps):
        u = M @ L[-1]
        Dk = np.column_stack(D)
        c = scipy.linalg.solve_triangular(
            Dk[t, :], u[t], lower=True, unit_diagonal=True
        )
        res = u - Dk @ c
        rest = np.setdiff1d(np.arange(m), t)
        if rest.size == 0 or np.abs(res[rest]).max() == 0.0:
            h_cols.append(np.append(c, 0.0))
            break
        p = int(rest[np.argmax(np.abs(res[rest]))])
        h_cols.append(np.append(c, res[p]))
        D.append(res / res[p])
        t.append(p)

        q = M.T @ D[-1]
        Lk = np.column_stack(L)
        c2 = scipy.linalg.solve_triangular(
            Lk[g, :], q[g], lower=True, unit_diagonal=True
        )
        res2 = q - Lk @ c2
        rest2 = np.setdiff1d(np.arange(n), g)
        if rest2.size == 0 or np.abs(res2[rest2]).max() == 0.0:
            w_cols.append(np.append(c2, 0.0))
            break
        p2 = int(rest2[np.argmax(np.abs(res2[rest2]))])
        w_cols.append(np.append(c2, res2[p2]))
        L.append(res2 / res2[p2])
        g.append(p2)
    H = np.zeros((len(h_cols) + 1, len(h_cols)))
    for j, col in enumerate(h_cols):
        H[: j + 2, j] = col
    W = np.zeros((len(w_cols), len(w_cols)))
    for j, col in enumerate(w_cols):
        W[: j + 1, j] = col
    return np.column_stack(D), np.column_stack(L), H, W, t, g


def run_square(M, b, steps, strategy=FULL):
    A = LinearOperator.from_matrix(M)
    state = init_square(A, b, strategy=strategy)
    for _ in range(steps):
        if state.breakdown:
            break
        step_square(state, A)
    return state, A


def run_generalized(M, b, steps, strategy=FULL):
    A = LinearOperator.from_matrix(M)
    state = init_generalized(A, b, strategy=strategy)
    for _ in range(steps):
        if state.breakdown:
            break
        step_generalized(state, A)
    return state, A


def assert_unit_triangular(cols, perm):
    B = np.column_stack(cols)[np.asarray(perm)[: len(cols)], :]
    for j in range(B.shape[1]):
        assert B[j, j] == 1.0
        assert np.all(B[:j, j] == 0.0)


# ---------------------------------------------------------------------------
# pivot selection


def test_pivot_full_basic():
    v = np.array([3.0, -5.0, 2.0])
    idx, val = pivot_select(v, [0, 1, 2], FULL)
    assert (idx, val) == (1, -5.0)


def test_pivot_restricted_admissible():
    v = np.array([3.0, -5.0, 2.0])
    idx, val = pivot_select(v, [0, 2], FULL)
    assert (idx, val) == (0, 3.0)


def test_pivot_tie_breaks_to_smallest_index():
    v = np.array([2.0, -2.0, 2.0])
    idx, val = pivot_select(v, [2, 1, 0], FULL)
    assert (idx, val) == (0, 2.0)
    idx, val = pivot_select(v, [2, 1], FULL)
    assert (idx, val) == (1, -2.0)


def test_pivot_all_zero_signals_breakdown():
    _, val = pivot_select(np.zeros(4), [1, 3], FULL)
    assert val == 0.0


def test_pivot_sampled_superset_equals_full():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(20)
    adm = list(range(3, 20))
    sampled = PivotStrategy.sampled(50, seed=1)
    assert pivot_select(v, adm, sampled) == pivot_select(v, adm, FULL)


def test_pivot_sampled_subset_deterministic():
    v = np.arange(30.0)
    adm = list(range(30))
    strat = PivotStrategy.sampled(4, seed=9)
    picks = set()
    for _ in range(3):
        rng = np.random.default_rng(strat.seed)
        picks.add(pivot_select(v, adm, strat, rng))
    assert len(picks) == 1


def test_pivot_sampled_requires_rng():
    with pytest.raises(ValueError):
        pivot_select(np.ones(10), list(range(10)), PivotStrategy.sampled(2))


def test_pivot_empty_admissible_rejected():
    with pytest.raises(ValueError):
        pivot_select(np.ones(3), [], FULL)


def test_strategy_validation():
    with pytest.raises(ValueError):
        PivotStrategy("partial")
    with pytest.raises(ValueError):
        PivotStrategy.sampled(0)


# ---------------------------------------------------------------------------
# square process


def test_init_square_identity_example():
    A = LinearOperator.identity(3)
    state = init_square(A, np.array([3.0, -5.0, 2.0]))
    assert state.beta == -5.0
    assert np.allclose(state.V_cols[0], [-0.6, 1.0, -0.4])
    assert list(state.t) == [1, 0, 2]


def test_init_square_trivial_when_start_exact():
    # an exact start leaves the residual r0 = b - A x0 the process starts
    # from at zero; the solvers return x0 (test_cmrh_trivial_when_start_exact)
    A = LinearOperator.from_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
    with pytest.raises(TrivialSolution, match="starting point is exact"):
        init_square(A, np.zeros(2))


def test_init_square_rejects_rectangular():
    with pytest.raises(ValueError):
        init_square(LinearOperator.from_matrix(np.ones((3, 2))), np.ones(3))


def test_step_square_identity_lucky_breakdown():
    A = LinearOperator.identity(4)
    state = init_square(A, np.array([1.0, 2.0, -3.0, 0.5]))
    step_square(state, A)
    assert state.breakdown
    assert np.array_equal(state.h_cols[0], [1.0, 0.0])
    assert len(state.V_cols) == 1


def test_step_square_diag_hand_computed():
    # A = diag(1,2), b = [1,1]: beta=1 (tie to index 0), l1=[1,1];
    # step 1: u=[1,2], H(1,1)=u[0]=1, remainder [0,1], H(2,1)=1, l2=[0,1];
    # step 2: u=[0,2], H(1,2)=0, H(2,2)=2, remainder zero -> breakdown
    state, _ = run_square(np.diag([1.0, 2.0]), np.array([1.0, 1.0]), 2)
    assert state.beta == 1.0
    assert state.breakdown
    H = state.H_matrix()
    assert np.array_equal(H, [[1.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    assert np.array_equal(state.V_cols[1], [0.0, 1.0])


def test_square_matches_dense_reference():
    rng = np.random.default_rng(17)
    for trial in range(4):
        M = rng.standard_normal((8, 8))
        b = rng.standard_normal(8)
        state, _ = run_square(M, b, 5)
        L_ref, H_ref, t_ref = dense_square_reference(M, b, 5)
        assert list(state.t[:6]) == t_ref
        assert np.allclose(np.column_stack(state.V_cols), L_ref, atol=1e-10)
        assert np.allclose(state.H_matrix(), H_ref, atol=1e-10)


def test_square_relation_and_triangularity():
    rng = np.random.default_rng(3)
    for size, steps in [(6, 6), (12, 8), (25, 10)]:
        M = rng.standard_normal((size, size))
        b = rng.standard_normal(size)
        A = LinearOperator.from_matrix(M)
        state = init_square(A, b)
        scale = np.linalg.norm(M)
        for _ in range(steps):
            if state.breakdown:
                break
            step_square(state, A)
            k = len(state.h_cols)
            Lk = np.column_stack(state.V_cols[:k])
            Lfull = np.column_stack(state.V_cols)
            H = state.H_matrix(rows=len(state.V_cols))
            rel = np.linalg.norm(M @ Lk - Lfull @ H)
            assert rel <= 1e-10 * scale * np.linalg.norm(Lk)
        assert_unit_triangular(state.V_cols, state.t)


def test_square_inner_product_free_and_matvec_count():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((10, 10))
    b = rng.standard_normal(10)
    state, A = run_square(M, b, 6)
    assert A.counters.dot_product_count == 0
    assert A.counters.matvec_count == 6
    assert A.counters.transpose_matvec_count == 0


def test_square_x0_costs_one_matvec():
    rng = np.random.default_rng(6)
    A = LinearOperator.from_matrix(rng.standard_normal((7, 7)))
    b, x0 = rng.standard_normal(7), rng.standard_normal(7)
    res = cmrh(A, b, SolverConfig(maxiter=3, x0=x0))
    assert res.trace.final().matvecs == 4


def test_square_sampled_superset_bitwise_equals_full():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((12, 12))
    b = rng.standard_normal(12)
    full_state, _ = run_square(M, b, 8)
    samp_state, _ = run_square(M, b, 8, strategy=PivotStrategy.sampled(12, seed=5))
    assert np.array_equal(
        np.column_stack(full_state.V_cols), np.column_stack(samp_state.V_cols)
    )
    assert np.array_equal(full_state.H_matrix(), samp_state.H_matrix())
    assert np.array_equal(full_state.t, samp_state.t)


def test_square_sampled_small_keeps_structure():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((15, 15))
    b = rng.standard_normal(15)
    state, A = run_square(M, b, 8, strategy=PivotStrategy.sampled(3, seed=2))
    assert_unit_triangular(state.V_cols, state.t)
    Lk = np.column_stack(state.V_cols[: len(state.h_cols)])
    H = state.H_matrix(rows=len(state.V_cols))
    rel = np.linalg.norm(M @ Lk - np.column_stack(state.V_cols) @ H)
    assert rel <= 1e-10 * np.linalg.norm(M) * np.linalg.norm(Lk)
    assert A.counters.dot_product_count == 0


def test_square_sampled_zero_subset_falls_back():
    # only one nonzero entry: whatever the sample draws, the pivot must
    # come out nonzero
    b = np.zeros(9)
    b[6] = 7.0
    M = np.eye(9)
    for seed in range(5):
        A = LinearOperator.from_matrix(M)
        state = init_square(A, b, strategy=PivotStrategy.sampled(1, seed=seed))
        assert state.beta == 7.0


def test_square_keep_product_stores_unreduced_matvec():
    rng = np.random.default_rng(19)
    M = rng.standard_normal((9, 9))
    b = rng.standard_normal(9)
    A = LinearOperator.from_matrix(M)
    state = init_square(A, b)
    for _ in range(4):
        prev = state.V_cols[-1].copy()
        step_square(state, A)
        assert np.allclose(state.last_product, M @ prev, atol=1e-12)


def test_square_range_spans_krylov_space():
    rng = np.random.default_rng(23)
    M = rng.standard_normal((10, 10)) + 3 * np.eye(10)
    b = rng.standard_normal(10)
    state, _ = run_square(M, b, 5)
    # orthonormalize the explicit power basis (test-only; the process
    # itself never orthogonalizes anything)
    vecs = [b]
    for _ in range(5):
        vecs.append(M @ vecs[-1])
    Q, _ = np.linalg.qr(np.column_stack(vecs))
    for j, l in enumerate(state.V_cols):
        Qj = Q[:, : j + 1]
        assert np.linalg.norm(l - Qj @ (Qj.T @ l)) <= 1e-8 * np.linalg.norm(l)


# ---------------------------------------------------------------------------
# generalized process


def test_init_generalized_hand_example():
    A = LinearOperator.from_matrix(np.array([[1.0], [1.0]]))
    state = init_generalized(A, np.array([1.0, 3.0]))
    assert state.beta == 3.0
    assert np.allclose(state.U_cols[0], [1.0 / 3.0, 1.0])
    assert list(state.t) == [1, 0]
    assert state.alpha == 4.0
    assert np.array_equal(state.V_cols[0], [1.0])
    assert list(state.g) == [0]
    assert state.w_cols[0][0] == pytest.approx(4.0 / 3.0)


def test_step_generalized_hand_example():
    # continues the 2x1 example: u = A l1 = [1,1]; H(1,1)=u[t1]=1,
    # remainder [2/3,0]; H(2,1)=2/3, d2=[1,0]; q = A^T d2 = [1],
    # W(1,2)=1, remainder empty -> breakdown with W(2,2)=0
    M = np.array([[1.0], [1.0]])
    state, _ = run_generalized(M, np.array([1.0, 3.0]), 1)
    assert state.breakdown
    assert np.allclose(state.H_matrix(), [[1.0], [2.0 / 3.0]])
    assert np.array_equal(state.U_cols[1], [1.0, 0.0])
    W = state.W_matrix()
    assert W == pytest.approx(np.array([[4.0 / 3.0, 1.0], [0.0, 0.0]]))
    # relations hold exactly here
    D, L = np.column_stack(state.U_cols), np.column_stack(state.V_cols)
    assert np.allclose(M @ L, D @ state.H_matrix(), atol=1e-14)
    assert np.allclose(M.T @ D, L @ W[:1], atol=1e-14)


def test_init_generalized_normal_equations_signal():
    A = LinearOperator.from_matrix(np.array([[1.0], [0.0]]))
    with pytest.raises(TrivialSolution, match="normal equations"):
        init_generalized(A, np.array([0.0, 1.0]))


def test_generalized_matches_dense_reference():
    rng = np.random.default_rng(29)
    for shape in [(8, 5), (10, 7), (6, 9)]:
        M = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        state, _ = run_generalized(M, b, 4)
        D_ref, L_ref, H_ref, W_ref, t_ref, g_ref = dense_generalized_reference(M, b, 4)
        assert list(state.t[: len(t_ref)]) == t_ref
        assert list(state.g[: len(g_ref)]) == g_ref
        assert np.allclose(np.column_stack(state.U_cols), D_ref, atol=1e-10)
        assert np.allclose(np.column_stack(state.V_cols), L_ref, atol=1e-10)
        assert np.allclose(state.H_matrix(), H_ref, atol=1e-10)
        assert np.allclose(state.W_matrix(), W_ref, atol=1e-10)


def test_generalized_relations_and_triangularity():
    rng = np.random.default_rng(31)
    for shape, steps in [((8, 5), 5), ((20, 12), 8), ((12, 18), 8)]:
        M = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        A = LinearOperator.from_matrix(M)
        state = init_generalized(A, b)
        scale = np.linalg.norm(M)
        for _ in range(steps):
            if state.breakdown:
                break
            step_generalized(state, A)
            k = len(state.h_cols)
            Lk = np.column_stack(state.V_cols[:k])
            D = np.column_stack(state.U_cols)
            H = state.H_matrix(rows=len(state.U_cols))
            assert np.linalg.norm(M @ Lk - D @ H) <= 1e-10 * scale * np.linalg.norm(Lk)
            W = state.W_matrix(rows=len(state.V_cols))
            L = np.column_stack(state.V_cols)
            assert (
                np.linalg.norm(M.T @ D - L @ W[:, : D.shape[1]])
                <= 1e-10 * scale * np.linalg.norm(D)
            )
        assert_unit_triangular(state.U_cols, state.t)
        assert_unit_triangular(state.V_cols, state.g)


def test_generalized_counters():
    rng = np.random.default_rng(37)
    M = rng.standard_normal((14, 9))
    state, A = run_generalized(M, rng.standard_normal(14), 5)
    assert A.counters.dot_product_count == 0
    assert A.counters.matvec_count == 5
    # one transpose for v0, one for W's first column, one per step
    assert A.counters.transpose_matvec_count == 7


def test_generalized_sampled_superset_bitwise_equals_full():
    rng = np.random.default_rng(41)
    M = rng.standard_normal((16, 10))
    b = rng.standard_normal(16)
    full_state, _ = run_generalized(M, b, 6)
    samp_state, _ = run_generalized(M, b, 6, strategy=PivotStrategy.sampled(16, seed=3))
    for side in ("U_cols", "V_cols"):
        assert np.array_equal(
            np.column_stack(getattr(full_state, side)),
            np.column_stack(getattr(samp_state, side)),
        )
    assert np.array_equal(full_state.H_matrix(), samp_state.H_matrix())
    assert np.array_equal(full_state.W_matrix(), samp_state.W_matrix())


def test_generalized_sampled_small_keeps_relations():
    rng = np.random.default_rng(43)
    M = rng.standard_normal((20, 12))
    b = rng.standard_normal(20)
    state, A = run_generalized(M, b, 7, strategy=PivotStrategy.sampled(5, seed=8))
    k = len(state.h_cols)
    Lk = np.column_stack(state.V_cols[:k])
    D = np.column_stack(state.U_cols)
    H = state.H_matrix(rows=len(state.U_cols))
    assert np.linalg.norm(M @ Lk - D @ H) <= 1e-10 * np.linalg.norm(M) * np.linalg.norm(Lk)
    assert_unit_triangular(state.U_cols, state.t)
    assert_unit_triangular(state.V_cols, state.g)
    assert A.counters.dot_product_count == 0


def test_generalized_keep_products():
    rng = np.random.default_rng(47)
    M = rng.standard_normal((11, 6))
    b = rng.standard_normal(11)
    A = LinearOperator.from_matrix(M)
    state = init_generalized(A, b)
    for _ in range(3):
        prev_l = state.V_cols[-1].copy()
        step_generalized(state, A)
        assert np.allclose(state.last_product, M @ prev_l, atol=1e-12)


def test_generalized_range_spans_normal_krylov_space():
    rng = np.random.default_rng(53)
    M = rng.standard_normal((12, 7))
    b = rng.standard_normal(12)
    state, _ = run_generalized(M, b, 4)
    vecs = [M.T @ b]
    for _ in range(4):
        vecs.append(M.T @ (M @ vecs[-1]))
    Q, _ = np.linalg.qr(np.column_stack(vecs))
    for j, l in enumerate(state.V_cols):
        Qj = Q[:, : j + 1]
        assert np.linalg.norm(l - Qj @ (Qj.T @ l)) <= 1e-8 * np.linalg.norm(l)


def test_step_after_breakdown_rejected():
    A = LinearOperator.identity(3)
    state = init_square(A, np.array([1.0, 0.0, 2.0]))
    step_square(state, A)
    assert state.breakdown
    with pytest.raises(RuntimeError):
        step_square(state, A)


def test_dump_factorization_roundtrip(tmp_path):
    rng = np.random.default_rng(59)
    M = rng.standard_normal((9, 6))
    state, _ = run_generalized(M, rng.standard_normal(9), 3)
    dump_factorization(state, tmp_path, prefix="gh_")
    L, D = np.column_stack(state.V_cols), np.column_stack(state.U_cols)
    assert np.allclose(load_array(tmp_path / "gh_L.mm"), L)
    assert np.allclose(load_array(tmp_path / "gh_D.mm"), D)
    assert np.allclose(load_array(tmp_path / "gh_H.mm"), state.H_matrix())
    assert np.allclose(load_array(tmp_path / "gh_W.mm"), state.W_matrix())
    assert np.array_equal(load_array(tmp_path / "gh_pivots_g.mm"), state.g)
