import numpy as np
import pytest
import scipy.io
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hessketch.hessenberg import (
    ColumnStore,
    PivotStrategy,
    TrivialSolution,
    dump_factorization,
    init_generalized,
    init_square,
    pivot_select,
    step_generalized,
    step_square,
)
from hessketch.hessenberg import _pivot_with_fallback, _swap_to_position
from hessketch.linops import LinearOperator

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


# the per-column elimination that the triangular solve and GEMV replaced,
# bit for bit: each coefficient read off the remainder at a pivot, then
# one axpy


def axpy_reduce(u, cols, perm, strategy, rng):
    k = len(cols)
    col = u.copy()
    h = np.empty(k + 1)
    for j in range(k):
        h[j] = c = col[perm[j]]
        col -= c * cols[j]
    idx, val = 0, 0.0
    if k < col.size:
        idx, val = _pivot_with_fallback(col, perm[k:], strategy, rng)
    h[k] = val
    if val == 0.0:
        return h, None
    _swap_to_position(perm, k, idx)
    return h, col / val


def axpy_reference(M, b, steps, strategy=FULL, generalized=False):
    """The square or generalized process built with axpy_reduce; returns
    (U, V, H, W or None, t, g or None) as dense arrays."""
    rng = np.random.default_rng(strategy.seed) if strategy.kind == "sampled" else None
    t = np.arange(M.shape[0])
    U = [axpy_reduce(b, [], t, strategy, rng)[1]]
    V, g, w_cols = U, None, None
    if generalized:
        g = np.arange(M.shape[1])
        V = [axpy_reduce(M.T @ b, [], g, strategy, rng)[1]]
        w_cols = [np.array([(M.T @ U[0])[g[0]]])]
    h_cols = []
    for _ in range(steps):
        h, col = axpy_reduce(M @ V[-1], U, t, strategy, rng)
        h_cols.append(h)
        if col is None:
            break
        U.append(col)
        if generalized:
            w, col = axpy_reduce(M.T @ U[-1], V, g, strategy, rng)
            w_cols.append(w)
            if col is None:
                break
            V.append(col)
    H = np.zeros((len(h_cols) + 1, len(h_cols)))
    for j, col in enumerate(h_cols):
        H[: j + 2, j] = col
    W = None
    if generalized:
        W = np.zeros((len(w_cols), len(w_cols)))
        for j, col in enumerate(w_cols):
            W[: j + 1, j] = col
    return np.column_stack(U), np.column_stack(V), H, W, t, g


def run_square(M, b, steps, strategy=FULL):
    A = LinearOperator.from_matrix(M)
    state = init_square(A, b, strategy=strategy, capacity=steps + 1)
    for _ in range(steps):
        if state.breakdown:
            break
        step_square(state, A)
    return state, A


def run_generalized(M, b, steps, strategy=FULL):
    A = LinearOperator.from_matrix(M)
    state = init_generalized(A, b, strategy=strategy, capacity=steps + 1)
    for _ in range(steps):
        if state.breakdown:
            break
        step_generalized(state, A)
    return state, A


def assert_unit_triangular(cols, perm):
    B = cols.matrix()[np.asarray(perm)[: len(cols)], :]
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
    # a full scan reads no sample size, but a negative one is still refused
    with pytest.raises(ValueError, match="^pivot sample_size must be nonnegative, got -3$"):
        PivotStrategy("full", sample_size=-3)


# ---------------------------------------------------------------------------
# square process


def test_init_square_identity_example():
    A = LinearOperator.identity(3)
    state = init_square(A, np.array([3.0, -5.0, 2.0]), capacity=1)
    assert state.beta == -5.0
    assert np.allclose(state.V_cols.column(0), [-0.6, 1.0, -0.4])
    assert list(state.t) == [1, 0, 2]


def test_init_square_trivial_when_start_exact():
    # the process starts from r0 = b; at b = 0 the solvers return x = 0
    # (test_trivial_solve_returns_iteration_zero_record)
    A = LinearOperator.from_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
    with pytest.raises(TrivialSolution, match="starting point is exact"):
        init_square(A, np.zeros(2), capacity=3)


def test_init_square_rejects_rectangular():
    with pytest.raises(ValueError):
        init_square(LinearOperator.from_matrix(np.ones((3, 2))), np.ones(3), capacity=3)


def test_step_square_identity_lucky_breakdown():
    A = LinearOperator.identity(4)
    state = init_square(A, np.array([1.0, 2.0, -3.0, 0.5]), capacity=2)
    step_square(state, A)
    assert state.breakdown
    assert np.array_equal(state.H_matrix()[:, 0], [1.0, 0.0])
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
    assert np.array_equal(state.V_cols.column(1), [0.0, 1.0])


def test_square_matches_dense_reference():
    rng = np.random.default_rng(17)
    for trial in range(4):
        M = rng.standard_normal((8, 8))
        b = rng.standard_normal(8)
        state, _ = run_square(M, b, 5)
        L_ref, H_ref, t_ref = dense_square_reference(M, b, 5)
        assert list(state.t[:6]) == t_ref
        assert np.allclose(state.V_cols.matrix(), L_ref, atol=1e-10)
        assert np.allclose(state.H_matrix(), H_ref, atol=1e-10)


def test_square_relation_and_triangularity():
    rng = np.random.default_rng(3)
    for size, steps in [(6, 6), (12, 8), (25, 10)]:
        M = rng.standard_normal((size, size))
        b = rng.standard_normal(size)
        A = LinearOperator.from_matrix(M)
        state = init_square(A, b, capacity=steps + 1)
        scale = np.linalg.norm(M)
        for _ in range(steps):
            if state.breakdown:
                break
            step_square(state, A)
            k = state.k
            Lk = state.V_cols.matrix(k)
            Lfull = state.V_cols.matrix()
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


def test_square_sampled_superset_bitwise_equals_full():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((12, 12))
    b = rng.standard_normal(12)
    full_state, _ = run_square(M, b, 8)
    samp_state, _ = run_square(M, b, 8, strategy=PivotStrategy.sampled(12, seed=5))
    assert np.array_equal(
        full_state.V_cols.matrix(), samp_state.V_cols.matrix()
    )
    assert np.array_equal(full_state.H_matrix(), samp_state.H_matrix())
    assert np.array_equal(full_state.t, samp_state.t)


def test_square_sampled_small_keeps_structure():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((15, 15))
    b = rng.standard_normal(15)
    state, A = run_square(M, b, 8, strategy=PivotStrategy.sampled(3, seed=2))
    assert_unit_triangular(state.V_cols, state.t)
    Lk = state.V_cols.matrix(state.k)
    H = state.H_matrix(rows=len(state.V_cols))
    rel = np.linalg.norm(M @ Lk - state.V_cols.matrix() @ H)
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
        state = init_square(A, b, strategy=PivotStrategy.sampled(1, seed=seed), capacity=1)
        assert state.beta == 7.0


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
    for j, l in enumerate(state.V_cols.matrix().T):
        Qj = Q[:, : j + 1]
        assert np.linalg.norm(l - Qj @ (Qj.T @ l)) <= 1e-8 * np.linalg.norm(l)


# ---------------------------------------------------------------------------
# generalized process


def test_init_generalized_hand_example():
    A = LinearOperator.from_matrix(np.array([[1.0], [1.0]]))
    state = init_generalized(A, np.array([1.0, 3.0]), capacity=1)
    assert state.beta == 3.0
    assert np.allclose(state.U_cols.column(0), [1.0 / 3.0, 1.0])
    assert list(state.t) == [1, 0]
    assert state.alpha == 4.0
    assert np.array_equal(state.V_cols.column(0), [1.0])
    assert list(state.g) == [0]
    assert state.W_matrix()[0, 0] == pytest.approx(4.0 / 3.0)


def test_step_generalized_hand_example():
    # continues the 2x1 example: u = A l1 = [1,1]; H(1,1)=u[t1]=1,
    # remainder [2/3,0]; H(2,1)=2/3, d2=[1,0]; q = A^T d2 = [1],
    # W(1,2)=1, remainder empty -> breakdown with W(2,2)=0
    M = np.array([[1.0], [1.0]])
    state, _ = run_generalized(M, np.array([1.0, 3.0]), 1)
    assert state.breakdown
    assert np.allclose(state.H_matrix(), [[1.0], [2.0 / 3.0]])
    assert np.array_equal(state.U_cols.column(1), [1.0, 0.0])
    W = state.W_matrix()
    assert W == pytest.approx(np.array([[4.0 / 3.0, 1.0], [0.0, 0.0]]))
    # relations hold exactly here
    D, L = state.U_cols.matrix(), state.V_cols.matrix()
    assert np.allclose(M @ L, D @ state.H_matrix(), atol=1e-14)
    assert np.allclose(M.T @ D, L @ W[:1], atol=1e-14)


def test_init_generalized_normal_equations_signal():
    A = LinearOperator.from_matrix(np.array([[1.0], [0.0]]))
    with pytest.raises(TrivialSolution, match="normal equations"):
        init_generalized(A, np.array([0.0, 1.0]), capacity=2)


def test_generalized_matches_dense_reference():
    rng = np.random.default_rng(29)
    for shape in [(8, 5), (10, 7), (6, 9)]:
        M = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        state, _ = run_generalized(M, b, 4)
        D_ref, L_ref, H_ref, W_ref, t_ref, g_ref = dense_generalized_reference(M, b, 4)
        assert list(state.t[: len(t_ref)]) == t_ref
        assert list(state.g[: len(g_ref)]) == g_ref
        assert np.allclose(state.U_cols.matrix(), D_ref, atol=1e-10)
        assert np.allclose(state.V_cols.matrix(), L_ref, atol=1e-10)
        assert np.allclose(state.H_matrix(), H_ref, atol=1e-10)
        assert np.allclose(state.W_matrix(), W_ref, atol=1e-10)


def test_generalized_relations_and_triangularity():
    rng = np.random.default_rng(31)
    for shape, steps in [((8, 5), 5), ((20, 12), 8), ((12, 18), 8)]:
        M = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        A = LinearOperator.from_matrix(M)
        state = init_generalized(A, b, capacity=steps + 1)
        scale = np.linalg.norm(M)
        for _ in range(steps):
            if state.breakdown:
                break
            step_generalized(state, A)
            k = state.k
            Lk = state.V_cols.matrix(k)
            D = state.U_cols.matrix()
            H = state.H_matrix(rows=len(state.U_cols))
            assert np.linalg.norm(M @ Lk - D @ H) <= 1e-10 * scale * np.linalg.norm(Lk)
            W = state.W_matrix(rows=len(state.V_cols))
            L = state.V_cols.matrix()
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
            getattr(full_state, side).matrix(),
            getattr(samp_state, side).matrix(),
        )
    assert np.array_equal(full_state.H_matrix(), samp_state.H_matrix())
    assert np.array_equal(full_state.W_matrix(), samp_state.W_matrix())


def test_generalized_sampled_small_keeps_relations():
    rng = np.random.default_rng(43)
    M = rng.standard_normal((20, 12))
    b = rng.standard_normal(20)
    state, A = run_generalized(M, b, 7, strategy=PivotStrategy.sampled(5, seed=8))
    k = state.k
    Lk = state.V_cols.matrix(k)
    D = state.U_cols.matrix()
    H = state.H_matrix(rows=len(state.U_cols))
    assert np.linalg.norm(M @ Lk - D @ H) <= 1e-10 * np.linalg.norm(M) * np.linalg.norm(Lk)
    assert_unit_triangular(state.U_cols, state.t)
    assert_unit_triangular(state.V_cols, state.g)
    assert A.counters.dot_product_count == 0


def test_generalized_range_spans_normal_krylov_space():
    rng = np.random.default_rng(53)
    M = rng.standard_normal((12, 7))
    b = rng.standard_normal(12)
    state, _ = run_generalized(M, b, 4)
    vecs = [M.T @ b]
    for _ in range(4):
        vecs.append(M.T @ (M @ vecs[-1]))
    Q, _ = np.linalg.qr(np.column_stack(vecs))
    for j, l in enumerate(state.V_cols.matrix().T):
        Qj = Q[:, : j + 1]
        assert np.linalg.norm(l - Qj @ (Qj.T @ l)) <= 1e-8 * np.linalg.norm(l)


def test_step_after_breakdown_rejected():
    A = LinearOperator.identity(3)
    state = init_square(A, np.array([1.0, 0.0, 2.0]), capacity=2)
    step_square(state, A)
    assert state.breakdown
    with pytest.raises(RuntimeError):
        step_square(state, A)


def test_dump_factorization_roundtrip(tmp_path):
    rng = np.random.default_rng(59)
    M = rng.standard_normal((9, 6))
    state, _ = run_generalized(M, rng.standard_normal(9), 3)
    dump_factorization(state, tmp_path)
    L, D = state.V_cols.matrix(), state.U_cols.matrix()
    assert np.allclose(scipy.io.mmread(tmp_path / "L.mm"), L)
    assert np.allclose(scipy.io.mmread(tmp_path / "D.mm"), D)
    assert np.allclose(scipy.io.mmread(tmp_path / "H.mm"), state.H_matrix())
    assert np.allclose(scipy.io.mmread(tmp_path / "W.mm"), state.W_matrix())
    assert np.array_equal(scipy.io.mmread(tmp_path / "pivots_g.mm"), state.g[:, None])


# ---------------------------------------------------------------------------
# column storage


def test_column_store_reads_like_a_list_of_views():
    store = ColumnStore(3, capacity=2)
    cols = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])]
    for c in cols:
        store.append(c)
    assert len(store) == 2
    assert np.array_equal(store.column(-1), cols[1])
    assert np.array_equal(store.column(0), cols[0])
    assert np.shares_memory(store.column(0), store.matrix())
    assert np.array_equal(store.matrix(), np.column_stack(cols))
    assert store.matrix().flags.f_contiguous
    assert np.array_equal(store.matrix(1), cols[0][:, None])
    with pytest.raises(IndexError):
        store.matrix(3)
    with pytest.raises(IndexError):
        store.column(2)
    with pytest.raises(ValueError):
        store.column(0)[0] = 9.0
    with pytest.raises(ValueError):
        store.matrix()[0, 0] = 9.0


@pytest.mark.parametrize("k", [-1, -3, 1.0, True, "1"])
def test_column_store_matrix_rejects_bad_counts(k):
    # a negative count would slice into slots never written
    store = ColumnStore(3, capacity=4)
    store.append(np.ones(3))
    error = IndexError if isinstance(k, int) and not isinstance(k, bool) else TypeError
    with pytest.raises(error, match="column"):
        store.matrix(k)
    assert store.matrix(0).shape == (3, 0)


@pytest.mark.parametrize("column", [7.0, np.ones(2), np.ones(4), np.ones((3, 1))])
def test_column_store_append_rejects_misshapen_columns(column):
    # a scalar would broadcast into a whole column
    store = ColumnStore(3, capacity=2)
    with pytest.raises(ValueError, match=r"^column must have shape \(3,\)"):
        store.append(column)
    assert len(store) == 0


def test_a_full_store_names_its_capacity():
    store = ColumnStore(2, capacity=1)
    store.append(np.array([1.0, 2.0]))
    with pytest.raises(IndexError, match="capacity 1$"):
        store.append(np.array([3.0, 4.0]))
    assert len(store) == 1 and np.array_equal(store.column(0), [1.0, 2.0])
    # a builder's next column goes to the same full store
    A = LinearOperator.from_matrix(np.diag([1.0, 2.0, 3.0]))
    state = init_square(A, np.ones(3), capacity=2)
    step_square(state, A)
    with pytest.raises(IndexError, match="capacity 2$"):
        step_square(state, A)
    for capacity in (0, True, 2.0):
        with pytest.raises(ValueError, match="^capacity must be"):
            ColumnStore(3, capacity)


# the capacity a full-dimension run needs, and more
@pytest.mark.parametrize("capacity", [13, 40])
def test_square_views_equal_fresh_stack_at_full_dimension(capacity):
    rng = np.random.default_rng(61)
    M = rng.standard_normal((12, 12))
    b = rng.standard_normal(12)
    A = LinearOperator.from_matrix(M)
    state = init_square(A, b, capacity=capacity)
    while not state.breakdown:
        step_square(state, A)
    k = state.k
    assert k == 12 and state.U_cols is state.V_cols
    L = np.column_stack([state.V_cols.column(j) for j in range(len(state.V_cols))])
    assert np.array_equal(state.V_cols.matrix(), L)
    reference, _ = run_square(M, b, 12)
    assert np.array_equal(reference.V_cols.matrix(), L)
    assert np.array_equal(reference.H_matrix(), state.H_matrix())
    assert np.array_equal(reference.t, state.t)
    H = state.H_matrix(rows=len(state.V_cols))
    assert np.linalg.norm(M @ L[:, :k] - L @ H) <= 1e-10 * np.linalg.norm(M) * np.linalg.norm(L)
    assert_unit_triangular(state.V_cols, state.t)


@pytest.mark.parametrize("capacity", [10, 40])
def test_generalized_views_equal_fresh_stack_at_full_dimension(capacity):
    rng = np.random.default_rng(67)
    M = rng.standard_normal((15, 9))
    b = rng.standard_normal(15)
    A = LinearOperator.from_matrix(M)
    state = init_generalized(A, b, capacity=capacity)
    while not state.breakdown:
        step_generalized(state, A)
    assert len(state.V_cols) == 9
    D = np.column_stack([state.U_cols.column(j) for j in range(len(state.U_cols))])
    L = np.column_stack([state.V_cols.column(j) for j in range(len(state.V_cols))])
    assert np.array_equal(state.U_cols.matrix(), D)
    assert np.array_equal(state.V_cols.matrix(), L)
    reference, _ = run_generalized(M, b, 9)
    assert np.array_equal(reference.U_cols.matrix(), D)
    assert np.array_equal(reference.V_cols.matrix(), L)
    assert np.array_equal(reference.H_matrix(), state.H_matrix())
    assert np.array_equal(reference.W_matrix(), state.W_matrix())
    k = state.k
    scale = np.linalg.norm(M)
    H = state.H_matrix(rows=D.shape[1])
    assert np.linalg.norm(M @ L[:, :k] - D @ H) <= 1e-10 * scale * np.linalg.norm(L)
    W = state.W_matrix(rows=L.shape[1])
    assert np.linalg.norm(M.T @ D - L @ W[:, : D.shape[1]]) <= 1e-10 * scale * np.linalg.norm(D)
    assert_unit_triangular(state.U_cols, state.t)
    assert_unit_triangular(state.V_cols, state.g)


def close(a, b):
    return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize(
    "pivot", [FULL, PivotStrategy.sampled(8, seed=19)], ids=["full", "sampled8"]
)
@pytest.mark.parametrize("shape", [(120, 120), (150, 90)], ids=["square", "rect"])
def test_elimination_agrees_with_the_axpy_loop(shape, pivot):
    # same pivots, and the same factorization up to rounding: the
    # triangular solve and the GEMV only reorder the loop's arithmetic
    rng = np.random.default_rng(71)
    M = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    generalized = shape[0] != shape[1]
    if generalized:
        state, _ = run_generalized(M, b, 40, pivot)
    else:
        M += 12.0 * np.eye(shape[0])
        state, _ = run_square(M, b, 40, pivot)
    U, V, H, W, t, g = axpy_reference(M, b, 40, pivot, generalized)
    assert state.k == 40 and not state.breakdown
    assert np.array_equal(state.t, t)
    assert close(state.H_matrix(), H)
    assert close(state.U_cols.matrix(), U)
    assert close(state.V_cols.matrix(), V)
    if generalized:
        assert np.array_equal(state.g, g)
        assert close(state.W_matrix(), W)
