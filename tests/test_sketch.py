import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from hessketch import sketch
from hessketch.linops import OpCounters, dense_qr_ls
from hessketch.sketch import (
    SketchOperator,
    derive_seed,
    make_gaussian_sketch,
    measured_epsilon,
    sketch_and_solve_ls,
    sketch_apply,
)


def test_sketch_shape_and_determinism():
    S1 = make_gaussian_sketch(20, 100, seed=42)
    S2 = make_gaussian_sketch(20, 100, seed=42)
    assert S1.shape == (20, 100)
    assert np.array_equal(S1.entries, S2.entries)
    S3 = make_gaussian_sketch(20, 100, seed=43)
    assert not np.array_equal(S1.entries, S3.entries)


def gaussian_stream(out_rows, in_rows, seed):
    # the reproducibility contract, spelled out
    gen = np.random.Generator(np.random.PCG64(seed))
    return gen.standard_normal((out_rows, in_rows)) / np.sqrt(out_rows)


@pytest.mark.parametrize("chunk_bytes", [8 << 20, 8 * 30 * 7, 8], ids=["whole", "7-row", "1-row"])
def test_gaussian_entries_are_the_pcg64_stream(monkeypatch, chunk_bytes):
    # entries are drawn chunk by chunk; the chunks must join into the one draw
    monkeypatch.setattr(sketch, "_CHUNK_BYTES", chunk_bytes)
    for shape, seed in [((50, 30), 0), ((7, 1), 12), ((1, 40), 2**63)]:
        S = make_gaussian_sketch(*shape, seed)
        assert np.array_equal(S.entries, gaussian_stream(*shape, seed))


def test_make_gaussian_sketch_draws_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(sketch, "_draw_rows", lambda *args: calls.append(args))
    S = make_gaussian_sketch(1000, 1000, 0)
    assert calls == [] and "entries" not in vars(S)


def chunk_rows(chunk_bytes, in_rows):
    # the rows of one chunk: the budget holds two chunk buffers
    return max(1, chunk_bytes // (2 * 8 * in_rows))


# (out_rows, in_rows, columns, chunk bytes); small, so every GEMM stays
# single-threaded.  The budget 2 * 8 * 30 * 8 holds two 8-row chunks
STREAMS = {
    "one-chunk": (40, 30, 5, 8 << 20),
    "two-chunks": (16, 30, 5, 2 * 8 * 30 * 8),
    "vector": (40, 30, None, 2 * 8 * 30 * 8),
    "block": (40, 30, 5, 2 * 8 * 30 * 8),
    "ragged": (43, 30, 5, 2 * 8 * 30 * 8),  # five chunks of 8 rows, then 3
    "ragged-vector": (43, 30, None, 2 * 8 * 30 * 8),
    "many-chunks": (97, 30, 3, 2 * 8 * 30 * 3),  # 32 chunks of 3 rows, then 1
    "one-row-vector": (43, 30, None, 100),  # in_rows * 8 > chunk bytes
    "one-row-block": (43, 30, 4, 100),
}


@pytest.mark.parametrize("out_rows, in_rows, cols, chunk_bytes", STREAMS.values(), ids=STREAMS)
def test_streamed_apply_is_exact(monkeypatch, out_rows, in_rows, cols, chunk_bytes):
    monkeypatch.setattr(sketch, "_CHUNK_BYTES", chunk_bytes)
    step = chunk_rows(chunk_bytes, in_rows)
    E = gaussian_stream(out_rows, in_rows, 7)
    v = np.random.default_rng(7).standard_normal((in_rows,) if cols is None else (in_rows, cols))
    S = make_gaussian_sketch(out_rows, in_rows, 7)
    streamed = sketch_apply(S, v)
    assert "entries" not in vars(S)
    # the loop reference: one product per chunk of the stream's entries
    by_chunk = np.concatenate([E[i : i + step] @ v for i in range(0, out_rows, step)])
    assert np.array_equal(streamed, by_chunk)
    # held entries, read or explicit, are applied in the same chunks
    assert np.array_equal(S.entries, E)
    assert np.array_equal(sketch_apply(S, v), streamed)
    held = SketchOperator(out_rows, in_rows, 7, entries=E)
    assert np.array_equal(sketch_apply(held, v), streamed)
    # the unchunked product is one GEMM over all rows, which BLAS may
    # group differently; both products lie within gamma_m |E| |v| of the
    # exact one (m = in_rows terms per entry, unit roundoff u)
    u = np.finfo(float).eps / 2
    gamma = in_rows * u / (1 - in_rows * u)
    assert np.all(np.abs(streamed - E @ v) <= 2 * gamma * (np.abs(E) @ np.abs(v)))


def test_streamed_apply_holds_one_chunk(monkeypatch):
    # A 256 x 8192 sketch is 16 MiB.  With 1 MiB chunks (16 rows) an apply
    # to 4 columns allocates one chunk buffer (1 MiB), the 256 x 4 result
    # (8 KiB) and interpreter-sized objects: the generator, the list of
    # row ranges, views.  64 KiB covers those many times over; the bound
    # is then 1.07 MiB, a fifteenth of the full entries.
    chunk = 1 << 20
    monkeypatch.setattr(sketch, "_CHUNK_BYTES", chunk)
    S = make_gaussian_sketch(256, 8192, 0)
    v = np.random.default_rng(0).standard_normal((8192, 4))
    tracemalloc.start()
    try:
        out = sketch_apply(S, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = chunk + out.nbytes + (64 << 10)
    assert peak <= bound < S.out_rows * S.in_rows * 8
    assert "entries" not in vars(S)


def draw_threads(monkeypatch):
    # the thread of every finished chunk draw, in order
    threads = []
    draw = sketch._draw_rows

    def recording(gen, out, scale):
        rows = draw(gen, out, scale)
        threads.append(threading.get_ident())
        return rows

    monkeypatch.setattr(sketch, "_draw_rows", recording)
    return threads


def wait_for(condition):
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(1e-3)


def test_streamed_chunks_are_drawn_one_ahead_on_one_worker(monkeypatch):
    # 43 rows in chunks of 8: the caller draws the first chunk, the worker
    # each later one while the caller holds the one before, without
    # overwriting it.  The caller here waits for each draw to finish, so
    # none is taken back; the worker is gone by the last chunk
    monkeypatch.setattr(sketch, "_CHUNK_BYTES", 2 * 8 * 30 * 8)
    threads = draw_threads(monkeypatch)
    E = gaussian_stream(43, 30, 4)
    before = threading.active_count()
    for i, (start, stop, rows) in enumerate(sketch._row_chunks(make_gaussian_sketch(43, 30, 4))):
        if stop < 43:
            assert threading.active_count() == before + 1
            wait_for(lambda: len(threads) == i + 2)
        else:
            assert threading.active_count() == before
        assert np.array_equal(rows, E[start:stop])
    assert len(threads) == 6 and threads[0] == threading.get_ident()
    assert len(set(threads[1:])) == 1 and threads[1] != threading.get_ident()


class Stalled:
    """An executor whose worker never starts a draw, as when its core is
    busy elsewhere."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        return Future()


def test_draws_the_worker_has_not_started_are_drawn_by_the_caller(monkeypatch):
    monkeypatch.setattr(sketch, "_CHUNK_BYTES", 2 * 8 * 30 * 8)
    monkeypatch.setattr(sketch, "ThreadPoolExecutor", Stalled)
    threads = draw_threads(monkeypatch)
    E = gaussian_stream(43, 30, 4)
    v = np.random.default_rng(4).standard_normal((30, 5))
    by_chunk = np.concatenate([E[i : i + 8] @ v for i in range(0, 43, 8)])
    assert np.array_equal(sketch_apply(make_gaussian_sketch(43, 30, 4), v), by_chunk)
    assert threads == [threading.get_ident()] * 6


def test_one_chunk_sketch_starts_no_thread(monkeypatch):
    threads = draw_threads(monkeypatch)
    monkeypatch.setattr(sketch, "ThreadPoolExecutor", None)  # would raise if called
    S = make_gaussian_sketch(40, 30, 4)
    v = np.random.default_rng(4).standard_normal((30, 5))
    assert np.array_equal(sketch_apply(S, v), gaussian_stream(40, 30, 4) @ v)
    assert threads == [threading.get_ident()]


class Stop(Exception):
    pass


@pytest.mark.parametrize("stop", ["consumer-raises", "closed-early", "draw-raises"])
def test_stopped_pass_stops_the_worker(monkeypatch, stop):
    # a pass left mid-way waits for the draw in flight and joins the
    # worker; the next apply starts from the seed and gives the same bits
    monkeypatch.setattr(sketch, "_CHUNK_BYTES", 2 * 8 * 30 * 8)
    S = make_gaussian_sketch(43, 30, 4)
    v = np.random.default_rng(4).standard_normal((30, 5))
    expected = sketch_apply(S, v)
    before = threading.active_count()
    if stop == "consumer-raises":
        with pytest.raises(Stop):
            for start, _, _ in sketch._row_chunks(S):
                if start > 0:
                    raise Stop
    elif stop == "closed-early":
        chunks = sketch._row_chunks(S)
        next(chunks)
        next(chunks)
        chunks.close()
    else:
        draw, calls = sketch._draw_rows, []

        def failing(gen, out, scale):
            calls.append(None)
            if len(calls) == 3:
                raise Stop
            return draw(gen, out, scale)

        with monkeypatch.context() as patch:
            patch.setattr(sketch, "_draw_rows", failing)
            with pytest.raises(Stop):
                sketch_apply(S, v)
    assert threading.active_count() == before
    assert np.array_equal(sketch_apply(S, v), expected)
    assert "entries" not in vars(S)


def test_concurrent_applies_keep_their_own_streams(monkeypatch):
    # four callers, each with its own worker, stream 1-row chunks while the
    # interpreter switches threads as often as it can: every result must be
    # the loop reference of its own seed
    monkeypatch.setattr(sketch, "_CHUNK_BYTES", 2 * 8 * 30)
    v = np.random.default_rng(0).standard_normal((30, 2))
    seeds = range(4)
    expected = {
        seed: np.concatenate([row[None] @ v for row in gaussian_stream(25, 30, seed)])
        for seed in seeds
    }
    results = {}

    def apply(seed):
        results[seed] = [sketch_apply(make_gaussian_sketch(25, 30, seed), v) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=apply, args=(seed,)) for seed in seeds]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for seed in seeds:
        assert len(results[seed]) == 20
        assert all(np.array_equal(r, expected[seed]) for r in results[seed])


def test_sketch_entry_scaling():
    # entries are N(0, 1/out_rows); check the empirical variance
    S = make_gaussian_sketch(50, 400, seed=0)
    var = S.entries.var()
    assert abs(var - 1.0 / 50) < 0.002


def test_sketch_isometry_in_expectation():
    # E ||S v||^2 = ||v||^2; average over many independent sketches
    v = np.arange(1.0, 11.0)
    target = np.dot(v, v)
    vals = [
        np.linalg.norm(sketch_apply(make_gaussian_sketch(15, 10, seed=s), v)) ** 2
        for s in range(400)
    ]
    assert abs(np.mean(vals) - target) / target < 0.05


def test_sketches_compare_by_identity():
    # explicit entries share a seed, so the seed triple cannot decide ==
    S, T = make_gaussian_sketch(3, 4, 0), make_gaussian_sketch(3, 4, 0)
    assert S == S and S != T
    assert S in [T, S] and [T, T].count(S) == 0


def test_sketch_apply_counts_and_validates():
    S = make_gaussian_sketch(5, 12, seed=1)
    c = OpCounters()
    out = sketch_apply(S, np.ones(12), counters=c)
    assert out.shape == (5,)
    assert c.sketch_apply_count == 1
    sketch_apply(S, np.ones(12))  # no counters is fine
    assert c.sketch_apply_count == 1
    with pytest.raises(ValueError):
        sketch_apply(S, np.ones(5))


def test_sketch_apply_block_charges_each_column():
    S = make_gaussian_sketch(5, 12, seed=1)
    c = OpCounters()
    out = sketch_apply(S, np.ones((12, 4)), counters=c)
    assert out.shape == (5, 4)
    assert c.sketch_apply_count == 4


def test_sketch_apply_block_agrees_with_columns():
    S = make_gaussian_sketch(30, 200, seed=2)
    V = np.random.default_rng(2).standard_normal((200, 7))
    block = sketch_apply(S, V)
    by_column = np.column_stack([sketch_apply(S, v) for v in V.T])
    assert np.linalg.norm(block - by_column) <= 1e-14 * np.linalg.norm(by_column)


@pytest.mark.parametrize("shape", [(12, 2, 2), (11, 3), (13,)])
def test_sketch_apply_rejects_misshapen_input(shape):
    S = make_gaussian_sketch(5, 12, seed=1)
    with pytest.raises(ValueError, match="length 12"):
        sketch_apply(S, np.ones(shape))


def test_sketch_apply_linearity():
    S = make_gaussian_sketch(8, 30, seed=9)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    lhs = sketch_apply(S, 2.0 * x - 3.0 * y)
    rhs = 2.0 * sketch_apply(S, x) - 3.0 * sketch_apply(S, y)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("shape", [(5, 20), (30, 7), (20, 30), (600,)])
def test_sketch_entries_must_have_the_declared_shape(shape):
    with pytest.raises(ValueError, match=re.escape("declared shape (30, 20)")):
        SketchOperator(30, 20, seed=0, entries=np.zeros(shape))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_sketch_entries_must_be_real(dtype):
    # checked by dtype alone: a complex sketch would otherwise lose its
    # imaginary part in every solve, sketch-and-solve and measured epsilon
    with pytest.raises(ValueError, match="sketch entries must be real"):
        SketchOperator(30, 20, seed=0, entries=np.ones((30, 20), dtype=dtype))


def test_sketch_and_solve_identity_sketch_is_exact():
    # with S = I the sketched problem is the original problem
    rng = np.random.default_rng(4)
    M = rng.standard_normal((12, 3))
    rhs = rng.standard_normal(12)
    S = SketchOperator(12, 12, seed=0, entries=np.eye(12))
    y = sketch_and_solve_ls(S, M, rhs)
    assert np.array_equal(y, dense_qr_ls(M, rhs))


def test_sketch_and_solve_counts():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((40, 4))
    rhs = rng.standard_normal(40)
    S = make_gaussian_sketch(10, 40, seed=2)
    c = OpCounters()
    sketch_and_solve_ls(S, M, rhs, counters=c)
    assert c.sketch_apply_count == 5  # four columns plus the right-hand side


def test_sketch_and_solve_makes_one_pass(monkeypatch):
    # M and rhs are sketched together: each chunk of S is drawn once, and
    # the solution is that of the two sketched halves
    monkeypatch.setattr(sketch, "_CHUNK_BYTES", 2 * 8 * 40 * 3)
    threads = draw_threads(monkeypatch)
    rng = np.random.default_rng(5)
    M = rng.standard_normal((40, 4))
    rhs = rng.standard_normal(40)
    S = make_gaussian_sketch(10, 40, seed=2)
    y = sketch_and_solve_ls(S, M, rhs)
    assert len(threads) == 4  # chunks of 3, 3, 3 and 1 rows
    E, Mr = gaussian_stream(10, 40, 2), np.column_stack([M, rhs])
    SMr = np.concatenate([E[i : i + 3] @ Mr for i in range(0, 10, 3)])
    assert np.array_equal(y, dense_qr_ls(SMr[:, :4], SMr[:, 4]))


@pytest.mark.parametrize("shape", [(12,), (40, 1), (40, 2)])
def test_sketch_and_solve_rejects_a_misshapen_rhs(monkeypatch, shape):
    threads = draw_threads(monkeypatch)
    S = make_gaussian_sketch(10, 40, seed=2)
    with pytest.raises(ValueError, match=re.escape("rhs must be a vector of length 40")):
        sketch_and_solve_ls(S, np.ones((40, 4)), np.ones(shape))
    assert threads == []


def test_sketch_and_solve_rejects_too_few_rows():
    M = np.ones((10, 4))
    S = make_gaussian_sketch(3, 10, seed=0)
    with pytest.raises(ValueError):
        sketch_and_solve_ls(S, M, np.ones(10))


def test_sketch_and_solve_unbiased():
    # the Gaussian sketched minimizer has mean equal to the true minimizer;
    # a light check here, the full statistical gate lives in the acceptance
    # suite
    rng = np.random.default_rng(123)
    M = rng.standard_normal((30, 3))
    rhs = rng.standard_normal(30)
    y_true = dense_qr_ls(M, rhs)
    sols = np.array(
        [
            sketch_and_solve_ls(make_gaussian_sketch(12, 30, seed=s), M, rhs)
            for s in range(600)
        ]
    )
    err = np.abs(sols.mean(axis=0) - y_true)
    se = sols.std(axis=0, ddof=1) / np.sqrt(len(sols))
    assert np.all(err < 4.0 * se + 1e-12)


def test_sketch_and_solve_residual_inflation():
    # E ||M y_sk - rhs||^2 = (1 + k/(l-k-1)) ||M y_ls - rhs||^2 for a
    # Gaussian sketch; coarse check, the tight one is in acceptance
    rng = np.random.default_rng(77)
    M = rng.standard_normal((40, 4))
    rhs = rng.standard_normal(40)
    base = np.linalg.norm(M @ dense_qr_ls(M, rhs) - rhs) ** 2
    l, k = 12, 4
    expected = (1.0 + k / (l - k - 1.0)) * base
    vals = [
        np.linalg.norm(M @ sketch_and_solve_ls(make_gaussian_sketch(l, 40, seed=s), M, rhs) - rhs) ** 2
        for s in range(600)
    ]
    assert abs(np.mean(vals) - expected) / expected < 0.25


def test_measured_epsilon_identity_sketch_is_zero():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((20, 5))
    S = SketchOperator(20, 20, seed=0, entries=np.eye(20))
    assert measured_epsilon(S, B) < 1e-12


def test_measured_epsilon_known_distortion():
    # a diagonal sketch acting on the standard basis has condition number
    # 2 on that span, so eps = (2-1)/(2+1) = 1/3
    entries = np.diag([2.0, 1.0, 1.0])
    S = SketchOperator(3, 3, seed=0, entries=entries)
    eps = measured_epsilon(S, np.eye(3))
    assert eps == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_measured_epsilon_certifies_ratio_bound():
    # over unit vectors in the span, the spread of ||S x|| is bounded by
    # (1+eps)/(1-eps)
    rng = np.random.default_rng(31)
    B = rng.standard_normal((60, 6))
    S = make_gaussian_sketch(25, 60, seed=3)
    eps = measured_epsilon(S, B)
    assert 0.0 <= eps < 1.0
    Q, _ = np.linalg.qr(B)
    norms = []
    for _ in range(50):
        c = rng.standard_normal(6)
        x = Q @ (c / np.linalg.norm(c))
        norms.append(np.linalg.norm(sketch_apply(S, x)))
    ratio = max(norms) / min(norms)
    assert ratio <= (1.0 + eps) / (1.0 - eps) + 1e-10


def test_measured_epsilon_shrinks_with_more_rows():
    rng = np.random.default_rng(6)
    B = rng.standard_normal((200, 4))
    eps_small = np.median(
        [measured_epsilon(make_gaussian_sketch(10, 200, s), B) for s in range(20)]
    )
    eps_large = np.median(
        [measured_epsilon(make_gaussian_sketch(80, 200, s), B) for s in range(20)]
    )
    assert eps_large < eps_small


def test_derive_seed_deterministic_and_distinct():
    a = derive_seed(42, 0)
    b = derive_seed(42, 0)
    c = derive_seed(42, 1)
    d = derive_seed(43, 0)
    assert a == b
    assert a != c
    assert a != d
    assert isinstance(a, int)
    assert 0 <= a < 2**64


def test_derived_streams_do_not_collide_with_root():
    # the sketch drawn from a derived seed differs from the root sketch
    root = make_gaussian_sketch(6, 6, seed=42)
    child = make_gaussian_sketch(6, 6, seed=derive_seed(42, 1))
    assert not np.array_equal(root.entries, child.entries)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.5, 3, 0), "sketch out_rows must be an integer, got 1.5"),
        ((True, 3, 0), "sketch out_rows must be an integer, got True"),
        ((4, 3.0, 0), "sketch in_rows must be an integer, got 3.0"),
        ((0, 3, 0), "sketch out_rows must be positive, got 0"),
        ((4, -2, 0), "sketch in_rows must be positive, got -2"),
        ((4, 3, 1.5), "sketch seed must be an integer, got 1.5"),
        ((4, 3, False), "sketch seed must be an integer, got False"),
        ((4, 3, "7"), "sketch seed must be an integer, got '7'"),
        ((4, 3, -1), "sketch seed must be nonnegative, got -1"),
    ],
)
def test_sketch_rejects_bad_sizes_and_seeds_at_creation(args, message):
    # a seed or size that cannot name one (out_rows, in_rows, seed) draw
    # fails when the sketch is made, not at its first apply
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_gaussian_sketch(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SketchOperator(*args)


def test_sketch_accepts_numpy_integers():
    S = make_gaussian_sketch(np.int64(4), np.int32(3), np.uint64(5))
    assert (S.out_rows, S.in_rows, S.seed) == (4, 3, 5)
    assert all(type(v) is int for v in (S.out_rows, S.in_rows, S.seed))
    assert np.array_equal(S.entries, make_gaussian_sketch(4, 3, 5).entries)


@pytest.mark.parametrize(
    "seed, stream, message",
    [
        (1.5, 1, "seed must be a nonnegative integer, got 1.5"),
        (True, 1, "seed must be a nonnegative integer, got True"),
        (-1, 1, "seed must be a nonnegative integer, got -1"),
        (3, 1.0, "stream must be a nonnegative integer, got 1.0"),
        (3, -2, "stream must be a nonnegative integer, got -2"),
    ],
)
def test_derive_seed_rejects_non_integers(seed, stream, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        derive_seed(seed, stream)
    assert derive_seed(np.int64(3), np.int8(1)) == derive_seed(3, 1)


def test_distortion_of_a_lost_direction_is_one():
    # a zero or non-finite singular value (a singular triangle in the
    # solvers' T_j R_j^-1) reads as the largest distortion, not an error
    assert sketch._distortion(np.diag([2.0, 0.0])) == 1.0
    assert sketch._distortion(np.array([[1.0, np.inf], [0.0, 1.0]])) == 1.0
    assert sketch._distortion(np.array([[np.nan]])) == 1.0
    assert sketch._distortion(np.diag([3.0, 1.0])) == pytest.approx(0.5)
