import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from scipy import stats

from hessketch import linops, sketch
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


def box_muller(gen, size, out_rows):
    # one panel of the contract, in fresh contiguous arrays: p pairs from
    # 2 p uniforms, the float64 radius sqrt(-2 log(1 - u_1) / out_rows),
    # the angle 2 pi u_2 in float32, the p cosine products and then the p
    # sine products; an odd panel drops the last
    p = -(-size // 2)
    u = gen.random(2 * p)
    rho = np.sqrt(np.log(1.0 - u[:p]) * (-2.0 / out_rows))
    angle = (u[p:] * (2.0 * np.pi)).astype(np.float32)
    return np.concatenate([rho * np.cos(angle).astype(float), rho * np.sin(angle).astype(float)])[:size]


def gaussian_blocks(out_rows, in_rows, seed):
    # the reproducibility contract, spelled out: 32-row blocks, block r
    # drawn from spawn key (r,) of the seed, 1,024-column panel after
    # panel, each a row-major Box-Muller panel
    blocks = []
    for r, start in enumerate(range(0, out_rows, 32)):
        seq = np.random.SeedSequence(seed, spawn_key=(r,))
        gen = np.random.Generator(np.random.PCG64(seq))
        height = min(32, out_rows - start)
        widths = [min(1024, in_rows - c) for c in range(0, in_rows, 1024)]
        blocks.append(np.hstack([box_muller(gen, height * w, out_rows).reshape(height, w) for w in widths]))
    return np.vstack(blocks)


# (out_rows, in_rows, seed): (100, 30) is four blocks, the last one
# ragged; 1,025 and 2,500 columns end in a ragged panel
ENTRIES = [(50, 30, 0), (7, 1, 12), (1, 40, 2**63), (100, 30, 5), (43, 1024, 1),
           (43, 1025, 2), (70, 2500, 3)]


@pytest.mark.parametrize("out_rows, in_rows, seed", ENTRIES)
def test_gaussian_entries_are_the_pcg64_stream(out_rows, in_rows, seed):
    S = make_gaussian_sketch(out_rows, in_rows, seed)
    assert np.array_equal(S.entries, gaussian_blocks(out_rows, in_rows, seed))


@pytest.mark.parametrize("seed", [0, 1])
def test_entries_are_standard_normal_at_scale(seed):
    # sqrt(out_rows) S has N(0, 1) entries: the sample moments of 1.02e6
    # of them lie within 5 standard errors (sqrt(1/N), sqrt(2/N) and
    # sqrt(24/N) for the mean, variance and kurtosis), and the KS test
    # against N(0, 1) does not reject them.  97 x 10,501 is blocks of 32
    # rows and a last one of one row, in panels of 1,024 columns and a
    # last one of 261, which is odd in the last block
    E = make_gaussian_sketch(97, 10501, seed).entries.ravel() * np.sqrt(97)
    n = E.size
    assert n >= 10**6 and np.isfinite(E).all()
    mean, var = E.mean(), E.var()
    kurtosis = np.mean((E - mean) ** 4) / var**2
    assert abs(mean) <= 5 * np.sqrt(1 / n)
    assert abs(var - 1) <= 5 * np.sqrt(2 / n)
    assert abs(kurtosis - 3) <= 5 * np.sqrt(24 / n)
    assert stats.kstest(E, "norm").pvalue > 1e-3


class Constant:
    """A generator whose every uniform is ``value``."""

    def __init__(self, value):
        self.value = value

    def __call__(self, bit_generator):
        return self

    def random(self, out):
        out[...] = self.value


@pytest.mark.parametrize("u, radius", [(0.0, 0.0), (1 - 2.0**-53, np.sqrt(2 * 53 * np.log(2) / 4))])
def test_extreme_uniforms_give_finite_radii(monkeypatch, u, radius):
    # 1 - u is never 0: the largest uniform below 1 gives the largest
    # radius, sqrt(2 * 53 ln 2 / out_rows), 8.6 standard deviations; a
    # 4 x 6 panel is 12 pairs, cosines first
    monkeypatch.setattr(np.random, "Generator", Constant(u))
    E = make_gaussian_sketch(4, 6, 0).entries.ravel()
    assert np.isfinite(E).all()
    assert np.allclose(np.hypot(E[:12], E[12:]), radius, rtol=1e-6, atol=0.0)


def test_block_streams_differ_from_the_root_stream():
    # default_rng(seed), which draws a problem's noise, is the root stream:
    # no block of the sketch starts with its normals, and no row is closer
    # to parallel with them than chance allows (|cos| ~ 1/sqrt(in_rows))
    for seed in range(5):
        g = np.random.default_rng(seed).standard_normal(400)
        E = make_gaussian_sketch(70, 400, seed).entries * np.sqrt(70)
        assert not any(np.array_equal(E[i], g) for i in range(0, 70, 32))
        cos = np.abs(E @ g) / (np.linalg.norm(E, axis=1) * np.linalg.norm(g))
        assert cos.max() <= 5 / np.sqrt(400)


def test_make_gaussian_sketch_draws_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(sketch, "_block_tiles", lambda *args: calls.append(args))
    S = make_gaussian_sketch(1000, 1000, 0)
    assert calls == [] and "entries" not in vars(S)


def by_panel(E, v):
    # the loop reference: each 32-row block's products with its
    # 1,024-column panels, summed in panel order
    out_rows, in_rows = E.shape
    blocks = []
    for start in range(0, out_rows, 32):
        rows = E[start : start + 32]
        block = rows[:, :1024] @ v[:1024]
        for c in range(1024, in_rows, 1024):
            block += rows[:, c : c + 1024] @ v[c : c + 1024]
        blocks.append(block)
    return np.concatenate(blocks)


# (out_rows, in_rows, columns, two threads): a ragged last block of 11
# rows, and one, two and three panels, the last ragged at 1,025 and 2,500
# columns.  Small, so every GEMM stays single-threaded: two threads are
# forced, except for 97 x 6,000, which is over the inline bound of 2**19
# entries on its own
STREAMS = {
    "vector": (40, 30, None, True),
    "block": (40, 30, 5, True),
    "ragged": (43, 30, 5, True),
    "ragged-vector": (43, 30, None, True),
    "inline": (43, 30, 5, False),
    "inline-vector": (43, 30, None, False),
    **{
        f"{in_rows}-{'vector' if cols is None else 'block'}{'' if threads else '-inline'}":
            (out_rows, in_rows, cols, threads)
        for out_rows, in_rows in [(43, 1024), (43, 1025), (43, 2500)]
        for cols in (None, 5)
        for threads in (True, False)
    },
    "6000-vector": (97, 6000, None, False),
    "6000-block": (97, 6000, 5, False),
}


@pytest.mark.parametrize("out_rows, in_rows, cols, threads", STREAMS.values(), ids=STREAMS)
def test_streamed_apply_is_exact(monkeypatch, out_rows, in_rows, cols, threads):
    if threads:
        monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 0)
    E = gaussian_blocks(out_rows, in_rows, 7)
    v = np.random.default_rng(7).standard_normal((in_rows,) if cols is None else (in_rows, cols))
    S = make_gaussian_sketch(out_rows, in_rows, 7)
    streamed = sketch_apply(S, v)
    assert "entries" not in vars(S)
    assert np.array_equal(streamed, by_panel(E, v))
    # a read draws the matrix but changes no apply
    assert np.array_equal(S.entries, E)
    assert np.array_equal(sketch_apply(S, v), streamed)
    # the unpanelled product is one GEMM over all rows, which BLAS may
    # group differently; both products lie within gamma_m |E| |v| of the
    # exact one (m = in_rows terms per entry, unit roundoff u)
    u = np.finfo(float).eps / 2
    gamma = in_rows * u / (1 - in_rows * u)
    assert np.all(np.abs(streamed - E @ v) <= 2 * gamma * (np.abs(E) @ np.abs(v)))


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_reading_entries_changes_no_apply(seed):
    # one product with the whole drawn matrix groups the sums differently
    # from the per-block products: at these seeds the two differ by 1.1e-16
    S = make_gaussian_sketch(97, 30, seed)
    v = np.random.default_rng(seed).standard_normal((30, 3))
    before = sketch_apply(S, v)
    assert S.entries.shape == (97, 30)
    assert np.array_equal(sketch_apply(S, v), before)


@pytest.mark.parametrize("in_rows", [30, 1025, 2500])
def test_entries_are_the_rows_an_apply_draws(in_rows):
    # a product with columns of the identity adds exact zeros to exact
    # products, so it reads the drawn columns back bit for bit, from
    # either side of each panel edge
    cols = np.unique(np.minimum([0, 1, 1023, 1024, 2047, 2048, in_rows - 1], in_rows - 1))
    applied = sketch_apply(make_gaussian_sketch(97, in_rows, 3), np.eye(in_rows)[:, cols])
    assert np.array_equal(applied, make_gaussian_sketch(97, in_rows, 3).entries[:, cols])


def test_streamed_apply_holds_two_tiles():
    # A 96 x 65,536 sketch is 48 MiB, in three blocks, so the apply runs on
    # two threads.  Applied to 4 columns it allocates on each thread one
    # 32 x 1,024 tile (256 KiB) with the draw's 128 KiB of scratch and one
    # 32 x 4 product, the 96 x 4 result, and interpreter-sized objects:
    # the generators, views.  64 KiB covers those many times over; the
    # bound, about 0.82 MiB, does not grow with in_rows
    S = make_gaussian_sketch(96, 65536, 0)
    v = np.random.default_rng(0).standard_normal((65536, 4))
    tracemalloc.start()
    try:
        out = sketch_apply(S, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tile, scratch, product = 32 * 1024 * 8, 16384 * 8, 32 * 4 * 8
    assert peak <= 2 * tile + 2 * scratch + 2 * product + out.nbytes + (64 << 10)
    assert "entries" not in vars(S)


def block_draws(monkeypatch, before=None):
    # every block drawn, as (index, thread, rows copied), in the order the
    # draws finish; ``before(r)``, if given, runs as block r starts
    draws = []
    block_tiles = sketch._block_tiles

    def recording(S, r, tile):
        if before is not None:
            before(r)
        tiles = [(rows, cols, panel.copy()) for rows, cols, panel in block_tiles(S, r, tile)]
        draws.append((r, threading.get_ident(), np.hstack([panel for _, _, panel in tiles])))
        # the caller multiplies the copies: tile is not read again
        yield from tiles

    monkeypatch.setattr(sketch, "_block_tiles", recording)
    return draws


def wait_for(condition):
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(1e-3)


def test_blocks_are_shared_by_the_caller_and_one_helper(monkeypatch):
    # 20 blocks of two panels: the caller holds its first block until the
    # helper has drawn one, so both take part.  Each block is drawn once,
    # on one of two threads, and the result is the loop reference
    monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 0)
    caller = threading.get_ident()

    def hold(r):
        if threading.get_ident() == caller and not any(t != caller for _, t, _ in draws):
            wait_for(lambda: any(t != caller for _, t, _ in draws))

    draws = block_draws(monkeypatch, hold)
    E = gaussian_blocks(640, 1100, 4)
    v = np.random.default_rng(4).standard_normal((1100, 5))
    before = threading.active_count()
    assert np.array_equal(sketch_apply(make_gaussian_sketch(640, 1100, 4), v), by_panel(E, v))
    assert threading.active_count() <= before + 1
    assert sorted(r for r, _, _ in draws) == list(range(20))
    assert len({t for _, t, _ in draws}) == 2
    assert all(np.array_equal(rows, E[32 * r : 32 * r + 32]) for r, _, rows in draws)


class Stalled:
    """An executor whose helper never starts, as when its core is busy
    elsewhere."""

    def submit(self, fn, *args):
        return Future()


def test_draws_the_worker_has_not_started_are_drawn_by_the_caller(monkeypatch):
    # the caller takes every block, then cancels the helper, which never ran
    monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 0)
    monkeypatch.setattr(linops, "_helper_pool", Stalled)
    draws = block_draws(monkeypatch)
    E = gaussian_blocks(100, 30, 4)
    v = np.random.default_rng(4).standard_normal((30, 5))
    assert np.array_equal(sketch_apply(make_gaussian_sketch(100, 30, 4), v), by_panel(E, v))
    assert [(r, t) for r, t, _ in draws] == [(r, threading.get_ident()) for r in range(4)]


@pytest.mark.parametrize("out_rows, in_rows", [(40, 30), (40, 13107), (32, 20000)])
def test_small_sketch_starts_no_thread(monkeypatch, out_rows, in_rows):
    # at most 2**19 entries (two blocks of 30 columns, or of 13,107, just
    # under) or one block (32 x 20,000, over it): drawn inline, in order
    draws = block_draws(monkeypatch)
    monkeypatch.setattr(linops, "_helper_pool", None)  # would raise if called
    S = make_gaussian_sketch(out_rows, in_rows, 4)
    v = np.random.default_rng(4).standard_normal((in_rows, 5))
    assert np.array_equal(sketch_apply(S, v), by_panel(gaussian_blocks(out_rows, in_rows, 4), v))
    count = -(-out_rows // 32)
    assert [(r, t) for r, t, _ in draws] == [(r, threading.get_ident()) for r in range(count)]


class Stop(Exception):
    pass


# where the failure happens: the thread, and the draw or the product
STOPS = {
    "draw-raises": ("helper", "draw"),
    "consumer-raises": ("helper", "product"),
    "caller-draw-raises": ("caller", "draw"),
    "caller-product-raises": ("caller", "product"),
}


@pytest.mark.parametrize("stop", STOPS)
def test_stopped_pass_stops_the_worker(monkeypatch, stop):
    # a failure on either thread propagates out of the apply, the other
    # thread takes no new block, and no thread is left but the shared
    # helper; the next apply starts from the seed and gives the same bits.
    # The failing thread waits until the other has started a block, which
    # in turn waits until the failure has drained the indices, so both
    # are mid-pass when it happens
    where, what = STOPS[stop]
    monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 0)
    S = make_gaussian_sketch(640, 30, 4)
    v = np.random.default_rng(4).standard_normal((30, 5))
    expected = sketch_apply(S, v)
    caller, started, failed, taken = threading.get_ident(), set(), threading.Event(), []
    block_tiles, drain = sketch._block_tiles, linops._drain

    def draining(blocks):
        drain(blocks)
        failed.set()

    def failing(S, r, tile):
        me = "caller" if threading.get_ident() == caller else "helper"
        taken.append(r)
        started.add(me)
        if me != where:
            assert failed.wait(10)
            yield from block_tiles(S, r, tile)
            return
        wait_for(lambda: len(started) == 2)
        if what == "draw":
            raise Stop
        for rows, cols, panel in block_tiles(S, r, tile):
            yield rows, cols, panel[:, :-1]  # np.matmul raises on the shapes

    before = threading.active_count()
    with monkeypatch.context() as patch:
        patch.setattr(sketch, "_block_tiles", failing)
        patch.setattr(linops, "_drain", draining)
        with pytest.raises(Stop if what == "draw" else ValueError):
            sketch_apply(S, v)
    assert threading.active_count() <= before + 1
    # the two first blocks, and at most one the other thread took before
    # the failing one drained the indices
    assert len(taken) <= 3
    assert np.array_equal(sketch_apply(S, v), expected)
    assert "entries" not in vars(S)


def test_concurrent_applies_keep_their_own_streams(monkeypatch):
    # four callers, all with the one shared helper, split three blocks of
    # two panels while the interpreter switches threads as often as it
    # can: every result must be the loop reference of its own seed
    monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 0)
    v = np.random.default_rng(0).standard_normal((1100, 2))
    seeds = range(4)
    expected = {seed: by_panel(gaussian_blocks(70, 1100, seed), v) for seed in seeds}
    results = {}

    def apply(seed):
        results[seed] = [sketch_apply(make_gaussian_sketch(70, 1100, seed), v) for _ in range(20)]

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


def test_sketches_compare_by_value():
    # (out_rows, in_rows, seed) determines every entry
    S, T = make_gaussian_sketch(3, 4, 0), SketchOperator(np.int64(3), 4, 0)
    assert S == T and S is not T
    assert all(S != U for U in (SketchOperator(4, 4, 0), SketchOperator(3, 5, 0),
                                SketchOperator(3, 4, 1)))


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


@pytest.mark.parametrize(
    "name, call",
    [
        ("v", lambda S, z: sketch_apply(S, z)),
        ("v", lambda S, z: sketch_apply(S, np.column_stack([z, z]))),
        ("M", lambda S, z: sketch_and_solve_ls(S, z[:, None], np.ones(12))),
        ("rhs", lambda S, z: sketch_and_solve_ls(S, np.ones((12, 1)), z)),
        ("basis", lambda S, z: measured_epsilon(S, z[:, None])),
    ],
    ids=["sketch_apply", "sketch_apply-block", "sketch_and_solve_ls",
         "sketch_and_solve_ls-rhs", "measured_epsilon"],
)
def test_complex_input_rejected_naming_the_argument(name, call):
    # casting would drop the imaginary part: S (1j * ones) would read as zeros
    S = make_gaussian_sketch(5, 12, seed=1)
    with pytest.raises(ValueError, match=f"^{name} must be real; it has complex dtype"):
        call(S, 1j * np.ones(12))


def test_sketch_apply_linearity():
    S = make_gaussian_sketch(8, 30, seed=9)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    lhs = sketch_apply(S, 2.0 * x - 3.0 * y)
    rhs = 2.0 * sketch_apply(S, x) - 3.0 * sketch_apply(S, y)
    assert np.allclose(lhs, rhs, atol=1e-12)


def stand_in_sketch(monkeypatch, entries):
    # sketch_apply as a product with the given matrix, for the properties
    # of an exact sketch that no Gaussian draw has
    monkeypatch.setattr(sketch, "sketch_apply", lambda S, v, counters=None: entries @ v)
    return make_gaussian_sketch(*entries.shape, 0)


def test_sketch_and_solve_identity_sketch_is_exact(monkeypatch):
    # with S = I the sketched problem is the original problem: the solve
    # is dense_qr_ls on the block that sketch_apply returns
    rng = np.random.default_rng(4)
    M = rng.standard_normal((12, 3))
    rhs = rng.standard_normal(12)
    S = stand_in_sketch(monkeypatch, np.eye(12))
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
    # M and rhs are sketched together: S's one block is drawn once, in
    # three panels, and the solution is that of the two sketched halves
    draws = block_draws(monkeypatch)
    rng = np.random.default_rng(5)
    M = rng.standard_normal((2500, 4))
    rhs = rng.standard_normal(2500)
    S = make_gaussian_sketch(10, 2500, seed=2)
    y = sketch_and_solve_ls(S, M, rhs)
    E, Mr = gaussian_blocks(10, 2500, 2), np.column_stack([M, rhs])
    assert [r for r, _, _ in draws] == [0] and np.array_equal(draws[0][2], E)
    SMr = by_panel(E, Mr)
    assert np.array_equal(y, dense_qr_ls(SMr[:, :4], SMr[:, 4]))


@pytest.mark.parametrize("shape", [(12,), (40, 1), (40, 2)])
def test_sketch_and_solve_rejects_a_misshapen_rhs(monkeypatch, shape):
    draws = block_draws(monkeypatch)
    S = make_gaussian_sketch(10, 40, seed=2)
    with pytest.raises(ValueError, match=re.escape("rhs must be a vector of length 40")):
        sketch_and_solve_ls(S, np.ones((40, 4)), np.ones(shape))
    assert draws == []


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


def test_measured_epsilon_identity_sketch_is_zero(monkeypatch):
    assert sketch._distortion(np.eye(5)) == 0.0
    rng = np.random.default_rng(8)
    B = rng.standard_normal((20, 5))
    S = stand_in_sketch(monkeypatch, np.eye(20))
    assert measured_epsilon(S, B) < 1e-12


def test_measured_epsilon_known_distortion(monkeypatch):
    # a diagonal sketch acting on the standard basis has condition number
    # 2 on that span, so eps = (2-1)/(2+1) = 1/3
    entries = np.diag([2.0, 1.0, 1.0])
    assert sketch._distortion(entries) == pytest.approx(1.0 / 3.0, abs=1e-15)
    S = stand_in_sketch(monkeypatch, entries)
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
        (1.5, 1, "seed must be an integer, got 1.5"),
        (True, 1, "seed must be an integer, got True"),
        (-1, 1, "seed must be nonnegative, got -1"),
        (3, 1.0, "stream must be an integer, got 1.0"),
        (3, -2, "stream must be nonnegative, got -2"),
    ],
    ids=["seed-float", "seed-bool", "seed-negative", "stream-float", "stream-negative"],
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
