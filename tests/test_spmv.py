"""Sparse operators applied in row blocks on two threads, with the bits of
``M @ x``."""

import collections
import os
import sys
import threading
import time
import types
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.sparse

from hessketch import linops, sketch
from hessketch.linops import LinearOperator
from hessketch.problems import tomography_matrix
from hessketch.sketch import make_gaussian_sketch, sketch_apply


@pytest.fixture
def split(monkeypatch):
    # every matrix with two or more blocks is split, however small
    monkeypatch.setattr(linops, "_SPMV_INLINE_NNZ", 0)


@pytest.fixture
def patient(monkeypatch):
    # the caller waits for the helper's last block, so each block is
    # computed once
    run_blocks = linops.run_blocks
    monkeypatch.setattr(linops, "run_blocks", lambda *args, wait_for_helper: run_blocks(*args))


Call = collections.namedtuple("Call", "block thread indptr indices data")


def recorded_matvec(monkeypatch, before=None):
    # every block product, as a Call (the address of its first indptr
    # entry, which names the block, its thread and the matrix arrays it
    # reads) in the order they start; ``before()``, if given, runs as one
    # starts
    calls = []
    real = linops._sparsetools.csr_matvec

    def matvec(rows, cols, indptr, indices, data, x, out):
        calls.append(Call(indptr.ctypes.data, threading.get_ident(), indptr, indices, data))
        if before is not None:
            before()
        real(rows, cols, indptr, indices, data, x, out)

    monkeypatch.setattr(linops, "_sparsetools", types.SimpleNamespace(csr_matvec=matvec))
    return calls


def wait_for(condition):
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(1e-3)


def random_csr(m, n, density, seed, empty_rows=()):
    M = scipy.sparse.random(m, n, density=density, random_state=seed, format="lil")
    for i in empty_rows:
        M[i, :] = 0
    return M.tocsr()


def coo_with_duplicates(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, 40, 300), rng.integers(0, 30, 300)
    return scipy.sparse.coo_matrix((rng.standard_normal(300), (rows, cols)), shape=(40, 30))


def non_canonical_csr(seed):
    # duplicates and unsorted column indices, kept as given
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 12, 40)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = rng.integers(0, 30, indptr[-1]).astype(np.int32)
    M = scipy.sparse.csr_matrix((30, 30))
    M.indptr, M.indices, M.data = indptr.astype(np.int32), indices, rng.standard_normal(indptr[-1])
    M._shape = (40, 30)
    assert not M.has_sorted_indices
    return M


def integer_csr(seed):
    M = random_csr(50, 35, 0.2, seed)
    M.data = np.random.default_rng(seed).integers(-9, 10, M.nnz)
    return M


MATRICES = {
    "empty-rows": lambda: random_csr(60, 45, 0.2, 1, empty_rows=(0, 1, 7, 30, 31, 32, 59)),
    "no-entries": lambda: scipy.sparse.csr_matrix((20, 15)),
    "coo-duplicates": lambda: coo_with_duplicates(2),
    "non-canonical": lambda: non_canonical_csr(3),
    "one-row": lambda: random_csr(1, 80, 0.5, 4),
    "one-column": lambda: random_csr(80, 1, 0.5, 5),
    "fewer-rows-than-blocks": lambda: random_csr(3, 50, 0.5, 6),
    "integer-data": lambda: integer_csr(7),
}


@pytest.mark.parametrize("name", MATRICES)
def test_row_blocks_give_the_bits_of_the_whole_product(split, patient, monkeypatch, name):
    # the products before the split: M in CSR, and a CSR copy of its transpose
    A = LinearOperator.from_matrix(MATRICES[name]())
    M = MATRICES[name]().tocsr()
    Mt = M.T.tocsr()
    calls = recorded_matvec(monkeypatch)
    rng = np.random.default_rng(0)
    for _ in range(3):
        x, y = rng.standard_normal(M.shape[1]), rng.standard_normal(M.shape[0])
        assert np.array_equal(A.forward(x), M @ x)
        assert np.array_equal(A.transpose(y), Mt @ y)
        assert np.array_equal(A.apply(x), M @ x)
        assert np.array_equal(A.apply_transpose(y), Mt @ y)
    for product in (A.forward, A.transpose):
        whole, bounds = product.matrix, product.bounds
        # the blocks tile the rows, at most _SPMV_BLOCKS of them, none empty
        assert bounds[0] == 0 and bounds[-1] == whole.shape[0]
        assert (np.diff(bounds) >= 1).all() and len(bounds) <= linops._SPMV_BLOCKS + 1
        assert product.inline == (len(bounds) < 3 or whole.dtype != np.float64)
        mine = [call for call in calls if call.indices is whole.indices]
        assert len(mine) == (0 if product.inline else 6 * (len(bounds) - 1))
        for call in mine:
            # each block reads a view of indptr and the whole matrix's own
            # indices and data: nothing is copied
            assert call.data is whole.data
            assert np.shares_memory(call.indptr, whole.indptr)
    assert len(calls) == sum(6 * (len(p.bounds) - 1) for p in (A.forward, A.transpose) if not p.inline)
    if name == "coo-duplicates":
        assert A.forward.matrix.has_canonical_format
    if name == "fewer-rows-than-blocks":
        assert len(A.forward.bounds) <= 4


def test_blocks_balance_the_nonzeros(split):
    M = random_csr(400, 300, 0.05, 8)
    bounds = LinearOperator.from_matrix(M).forward.bounds
    nnz = np.diff(M.indptr[bounds])
    assert len(nnz) == linops._SPMV_BLOCKS and nnz.sum() == M.nnz
    assert nnz.max() - nnz.min() <= 2 * M.getnnz(axis=1).max()


def test_tomography_matrix_is_split_by_default():
    # the 80-grid, 60-angle matrix has about 0.46 million nonzeros, over
    # the inline threshold
    K = tomography_matrix(80, 60)
    A = LinearOperator.from_matrix(K)
    assert K.nnz >= linops._SPMV_INLINE_NNZ
    assert not A.forward.inline and not A.transpose.inline
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(K.shape[1]), rng.standard_normal(K.shape[0])
    assert np.array_equal(A.forward(x), K @ x)
    assert np.array_equal(A.transpose(y), K.T @ y)


def test_small_matrix_runs_inline(monkeypatch):
    # under the threshold no block is handed to a helper
    monkeypatch.setattr(linops, "_helper_pool", None)  # would raise if called
    M = random_csr(60, 45, 0.2, 9)
    A = LinearOperator.from_matrix(M)
    assert A.forward.inline and A.transpose.inline
    x = np.random.default_rng(0).standard_normal(45)
    assert np.array_equal(A.forward(x), M @ x)


def test_integer_matrix_over_the_threshold_runs_inline(monkeypatch):
    # csr_matvec would convert integer data to float64 on every block, so
    # such a matrix is applied as M @ x, which converts it once
    K = tomography_matrix(80, 60)
    M = (K * 100).astype(np.int64)
    M.eliminate_zeros()
    assert M.nnz >= linops._SPMV_INLINE_NNZ
    A = LinearOperator.from_matrix(M)
    assert A.forward.inline and A.transpose.inline
    calls = recorded_matvec(monkeypatch)
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(M.shape[1]), rng.standard_normal(M.shape[0])
    assert np.array_equal(A.forward(x), M @ x)
    assert np.array_equal(A.transpose(y), M.T.tocsr() @ y)
    assert calls == []


def test_private_csr_matvec_keeps_its_signature():
    # _RowBlocks calls scipy's private csr_matvec(n_row, n_col, indptr,
    # indices, data, x, y), which adds the rows' products to y; a scipy
    # that renames it or changes its arguments fails here first
    M = random_csr(30, 20, 0.3, 19)
    x = np.random.default_rng(3).standard_normal(20)
    y = np.zeros(12)
    linops._sparsetools.csr_matvec(12, 20, M.indptr[10:23], M.indices, M.data, x, y)
    assert np.array_equal(y, (M @ x)[10:22])
    linops._sparsetools.csr_matvec(12, 20, M.indptr[10:23], M.indices, M.data, x, y)
    np.testing.assert_allclose(y, 2 * (M @ x)[10:22], rtol=1e-14, atol=1e-14)


# -- inputs keep the behaviour of M @ x -------------------------------------


def test_wrong_length_vector_still_raises(split):
    A = LinearOperator.from_matrix(random_csr(60, 45, 0.2, 10))
    assert not A.forward.inline
    for bad in (np.ones(44), np.ones(60), np.ones(0)):
        with pytest.raises(ValueError):
            A.forward(bad)
    with pytest.raises(ValueError):
        A.transpose(np.ones(45))


def other_inputs(n):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(n)
    strided = rng.standard_normal(2 * n)[::2]
    fortran = np.asfortranarray(rng.standard_normal((n, 3)))
    readonly = x.copy()
    readonly.flags.writeable = False
    return {
        "block": rng.standard_normal((n, 4)),
        "column": x[:, None],
        "fortran-block-column": fortran[:, 1],
        "strided": strided,
        "list": x.tolist(),
        "float32": x.astype(np.float32),
        "integer": np.arange(n),
        "readonly": readonly,
    }


# the inputs that are float64 vectors of the input length, and split
SPLIT_INPUTS = {"fortran-block-column", "strided", "readonly"}


@pytest.mark.parametrize("name", list(other_inputs(1)))
def test_other_inputs_give_what_m_at_x_gives(split, patient, monkeypatch, name):
    M = random_csr(60, 45, 0.2, 12)
    A = LinearOperator.from_matrix(M)
    x = other_inputs(45)[name]
    calls = recorded_matvec(monkeypatch)
    got, expected = A.forward(x), M @ x
    assert type(got) is type(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    # any other input is applied as M @ x, inline
    assert len(calls) == (len(A.forward.bounds) - 1 if name in SPLIT_INPUTS else 0)


def test_single_precision_matrix_keeps_its_dtype(split):
    M = random_csr(60, 45, 0.2, 13).astype(np.float32)
    A = LinearOperator.from_matrix(M)
    x = np.random.default_rng(0).standard_normal(45).astype(np.float32)
    got = A.forward(x)
    assert got.dtype == np.float32 and np.array_equal(got, M @ x)


# -- the helper thread ------------------------------------------------------


class Stalled:
    """An executor whose helper never starts, as when its core is busy
    elsewhere."""

    def submit(self, fn, *args):
        return Future()


def test_blocks_a_stalled_helper_never_took_are_run_by_the_caller(split, monkeypatch):
    M = random_csr(200, 150, 0.1, 14)
    A = LinearOperator.from_matrix(M)
    x = np.random.default_rng(0).standard_normal(150)
    monkeypatch.setattr(linops, "_helper_pool", Stalled)
    calls = recorded_matvec(monkeypatch)
    assert np.array_equal(A.forward(x), M @ x)
    assert len(calls) == len(A.forward.bounds) - 1 == linops._SPMV_BLOCKS
    assert {call.thread for call in calls} == {threading.get_ident()}


def test_blocks_are_shared_by_the_caller_and_the_helper(split, patient, monkeypatch):
    # the caller holds its first block until the helper has started one
    caller = threading.get_ident()

    def hold():
        if threading.get_ident() == caller and not any(c.thread != caller for c in calls):
            wait_for(lambda: any(c.thread != caller for c in calls))

    M = random_csr(200, 150, 0.1, 15)
    A = LinearOperator.from_matrix(M)
    x = np.random.default_rng(0).standard_normal(150)
    calls = recorded_matvec(monkeypatch, hold)
    assert np.array_equal(A.forward(x), M @ x)
    assert len(calls) == linops._SPMV_BLOCKS and len({c.block for c in calls}) == len(calls)
    assert len({c.thread for c in calls}) == 2


@pytest.mark.parametrize("then", ["finishes", "raises"])
def test_blocks_of_a_late_helper_are_taken_back(split, monkeypatch, then):
    # the helper stalls inside its first block, as when the host has
    # descheduled its core: the caller computes that block too and returns
    # without waiting.  What the helper does after is dropped, a result
    # or an exception, and the next apply is whole
    caller, release = threading.get_ident(), threading.Event()

    def stall():
        if threading.get_ident() != caller:
            assert release.wait(10)
            if then == "raises":
                raise Stop
        elif not any(c.thread != caller for c in calls):
            wait_for(lambda: any(c.thread != caller for c in calls))

    M = random_csr(200, 150, 0.1, 20)
    A = LinearOperator.from_matrix(M)
    x = np.random.default_rng(0).standard_normal(150)
    expected = M @ x
    with monkeypatch.context() as patch:
        calls = recorded_matvec(patch, stall)
        try:
            got = A.forward(x)
            assert not release.is_set()
            assert np.array_equal(got, expected)
        finally:
            release.set()
        # the helper's task is done once a task queued after it has run
        linops._helper_pool().submit(lambda: None).result(timeout=10)
    late = [c.block for c in calls if c.thread != caller]
    assert len(late) == 1 and len(calls) == linops._SPMV_BLOCKS + 1
    # every block on the caller: the late one taken back
    assert {c.block for c in calls if c.thread == caller} == {c.block for c in calls}
    assert np.array_equal(got, expected)
    assert np.array_equal(A.forward(x), expected)


def two_core_sketch(monkeypatch):
    # the apply of a 20-block sketch, made to hand blocks to the helper
    monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 0)
    S = make_gaussian_sketch(640, 30, 4)
    v = np.random.default_rng(4).standard_normal((30, 5))
    return lambda: sketch_apply(S, v)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
# Python 3.12+ warns on fork() in a process with threads, as this one is
@pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning"
)
@pytest.mark.parametrize("kind", ["sparse", "sketch"])
def test_forked_child_starts_its_own_helper(split, monkeypatch, kind):
    if kind == "sparse":
        M = random_csr(200, 150, 0.1, 21)
        A = LinearOperator.from_matrix(M)
        x = np.random.default_rng(0).standard_normal(150)
        apply, expected = (lambda: A.forward(x)), M @ x
    else:
        apply = two_core_sketch(monkeypatch)
        expected = apply()
    assert np.array_equal(apply(), expected)
    assert linops._helper is not None
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            # the parent's helper thread is not in the child
            ok = linops._helper is None
            ok = ok and np.array_equal(apply(), expected)
            ok = ok and linops._helper is not None
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.01)
    if not done[0]:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done[0] and os.waitstatus_to_exitcode(done[1]) == 0


class Stop(Exception):
    pass


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_failed_block_is_raised_and_the_next_apply_is_whole(split, patient, monkeypatch, where):
    # the failing thread waits until the other has started a block, which
    # in turn waits until the failure has drained the indices, so both are
    # mid-apply when it happens
    M = random_csr(200, 150, 0.1, 16)
    A = LinearOperator.from_matrix(M)
    x = np.random.default_rng(0).standard_normal(150)
    expected = M @ x
    assert np.array_equal(A.forward(x), expected)  # the helper exists now
    caller, started, failed = threading.get_ident(), set(), threading.Event()
    drain = linops._drain

    def draining(blocks):
        drain(blocks)
        failed.set()

    def fail_once():
        me = "caller" if threading.get_ident() == caller else "helper"
        started.add(me)
        if me != where or failed.is_set():
            assert failed.wait(10)
            return
        wait_for(lambda: len(started) == 2)
        raise Stop

    before = threading.active_count()
    with monkeypatch.context() as patch:
        calls = recorded_matvec(patch, fail_once)
        patch.setattr(linops, "_drain", draining)
        with pytest.raises(Stop):
            A.forward(x)
    assert threading.active_count() == before
    # the two first blocks, and at most one the other thread took before
    # the failing one drained the indices
    assert len(calls) <= 3
    assert np.array_equal(A.forward(x), expected)


def test_operators_share_one_helper_thread(split):
    before = threading.active_count()
    rng = np.random.default_rng(17)
    for seed in range(20):
        M = random_csr(120, 90, 0.1, seed)
        A = LinearOperator.from_matrix(M)
        x, y = rng.standard_normal(90), rng.standard_normal(120)
        assert np.array_equal(A.apply(x), M @ x)
        assert np.array_equal(A.apply_transpose(y), M.T @ y)
    assert threading.active_count() <= before + 1


def test_sparse_and_sketch_applies_share_one_helper(split, monkeypatch):
    # each apply's caller holds its first block until a helper has started
    # one of that apply, so every apply hands work to a helper: across
    # alternating sparse and sketch applies that is one thread, and no
    # second helper is alive while a block runs
    M = random_csr(200, 150, 0.1, 22)
    A = LinearOperator.from_matrix(M)
    x = np.random.default_rng(0).standard_normal(150)
    sketched = two_core_sketch(monkeypatch)
    applies = ((lambda: A.forward(x), M @ x), (sketched, sketched()))
    caller, workers, alive = threading.current_thread(), [], []
    before = threading.active_count()

    # the number of helper blocks started before the current apply
    start = [0]

    def hold():
        alive.append(threading.active_count())
        if threading.current_thread() is not caller:
            workers.append(threading.current_thread())
        elif len(workers) == start[0]:
            wait_for(lambda: len(workers) > start[0])

    matvec, draw_tile = linops._sparsetools.csr_matvec, sketch._draw_tile

    def held_matvec(*args):
        hold()
        matvec(*args)

    def held_draw_tile(*args):
        hold()
        return draw_tile(*args)

    monkeypatch.setattr(linops, "_sparsetools", types.SimpleNamespace(csr_matvec=held_matvec))
    monkeypatch.setattr(sketch, "_draw_tile", held_draw_tile)
    for _ in range(5):
        for apply, want in applies:
            start[0] = len(workers)
            assert np.array_equal(apply(), want)
    assert len(set(workers)) == 1
    assert max(alive) <= before + 1


def test_concurrent_applies_of_one_operator(split):
    # four callers share one operator and its one helper while the
    # interpreter switches threads as often as it can
    M = random_csr(300, 200, 0.05, 18)
    A = LinearOperator.from_matrix(M)
    xs = np.random.default_rng(0).standard_normal((4, 200))
    results = {}

    def apply(i):
        results[i] = [A.forward(xs[i]) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=apply, args=(i,)) for i in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for i in range(4):
        assert len(results[i]) == 20
        assert all(np.array_equal(r, M @ xs[i]) for r in results[i])
