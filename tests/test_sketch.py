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
    # one tile of the contract, in fresh contiguous float32 arrays: p pairs
    # from one call of 2 p float32 uniforms, the radius
    # sqrt(-2 log(1 - u_1) / out_rows) and the angle 2 pi u_2, the p cosine
    # products and then the p sine products; an odd tile drops the last
    p = -(-size // 2)
    u = gen.random(2 * p, dtype=np.float32)
    rho = np.sqrt(np.log(1 - u[:p]) * np.float32(-2.0 / out_rows))
    angle = u[p:] * np.float32(2.0 * np.pi)
    return np.concatenate([rho * np.cos(angle), rho * np.sin(angle)])[:size]


def gaussian_blocks(out_rows, in_rows, seed):
    # the reproducibility contract, spelled out: 32-row blocks, block r
    # drawn from spawn key (r,) of the seed, 1,024-column panel after
    # panel, each a row-major float32 Box-Muller tile
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

    def random(self, dtype, out):
        out[...] = self.value


@pytest.mark.parametrize("u, radius", [(0.0, 0.0), (1 - 2.0**-24, np.sqrt(2 * 24 * np.log(2) / 4))])
def test_extreme_uniforms_give_finite_radii(monkeypatch, u, radius):
    # 1 - u is never 0: the largest float32 uniform below 1 gives the
    # largest radius, sqrt(2 * 24 ln 2 / out_rows), 5.8 standard
    # deviations; a 4 x 6 tile is 12 pairs, cosines first
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
    monkeypatch.setattr(sketch, "_draw_tile", lambda *args: calls.append(args))
    S = make_gaussian_sketch(1000, 1000, 0)
    assert calls == [] and "entries" not in vars(S)


def by_panel(E, v):
    # the loop reference: each 32-row block's float32 products of its
    # 1,024-column panels of E, the float32 draws, with the float32 cast
    # of v's rows of that panel, 16 columns of v at a time (the last group
    # zero-padded, each group held as its rows and multiplied as
    # group @ tile.T), summed into float64 in panel order
    out_rows, in_rows = E.shape
    assert E.dtype == np.float32
    cols = v.reshape(in_rows, -1)
    width = cols.shape[1]
    groups = np.zeros((-(-width // 16) * 16, in_rows), np.float32)
    groups[:width] = cols.T
    blocks = []
    for start in range(0, out_rows, 32):
        block = np.zeros((min(32, out_rows - start), width))
        for c in range(0, in_rows, 1024):
            tile = np.ascontiguousarray(E[start : start + 32, c : c + 1024])
            for g in range(0, width, 16):
                group = np.ascontiguousarray(groups[g : g + 16, c : c + 1024])
                block[:, g : g + 16] += np.dot(group, tile.T).T[:, : width - g]
        blocks.append(block)
    out = np.concatenate(blocks)
    return out if v.ndim == 2 else out[:, 0]


def envelope(E, v):
    # how far the float32 products summed in float64 may lie from E v:
    # each of the in_rows terms of an entry carries the rounding of v to
    # float32 and of the float32 products and sums (gamma_{w+1} in float32
    # for a panel of w columns), and the float64 sum of the panels less
    # than one more float32 unit roundoff u: gamma_{in_rows+2} |E| |v|
    m, u = E.shape[1] + 2, np.finfo(np.float32).eps / 2
    return m * u / (1 - m * u) * (np.abs(E).astype(float) @ np.abs(v))


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
    # the unpanelled float64 product lies within gamma_m |E| |v| of the
    # exact one (m = in_rows terms per entry, unit roundoff u), and the
    # streamed one within the float32 envelope
    u = np.finfo(float).eps / 2
    gamma = in_rows * u / (1 - in_rows * u)
    exact = E.astype(float) @ v
    assert np.all(np.abs(streamed - exact) <= envelope(E, v) + gamma * (np.abs(E) @ np.abs(v)))


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_reading_entries_changes_no_apply(seed):
    # one float64 product with the whole drawn matrix differs from the
    # float32 per-tile products, at these seeds by up to 1e-7 relative
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


@pytest.mark.parametrize("out_rows, in_rows", [(43, 2500), (97, 6000), (100, 1025), (70, 30)])
def test_shuffled_blocks_give_the_inline_bits(monkeypatch, out_rows, in_rows):
    # each panel's blocks are handed out in a shuffled order, to both
    # threads: the caller waits at each panel until the helper has drawn a
    # tile of it.  Each block still sums its panels in panel order, so the
    # result is the inline apply's bit for bit, and through columns of
    # the identity it reads back the entries
    S = make_gaussian_sketch(out_rows, in_rows, 6)
    cols = np.unique(np.minimum([0, 1, 1023, 1024, 2047, 2048, in_rows - 1], in_rows - 1))
    identity = np.zeros((in_rows, len(cols)))
    identity[cols, np.arange(len(cols))] = 1.0
    v = np.column_stack([np.random.default_rng(6).standard_normal((in_rows, 4)), identity])
    monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 1 << 62)
    inline = sketch_apply(S, v)
    monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 0)
    rng, caller, helped = np.random.default_rng(0), threading.get_ident(), set()
    run_blocks, draw_tile = linops.run_blocks, sketch._draw_tile

    def shuffled(work, count):
        order = rng.permutation(count)
        return run_blocks(lambda blocks: work(order[i] for i in blocks), count)

    def shared(S, gens, r, c, buffer):
        if threading.get_ident() == caller:
            wait_for(lambda: c in helped)
        else:
            helped.add(c)
        return draw_tile(S, gens, r, c, buffer)

    monkeypatch.setattr(sketch, "run_blocks", shuffled)
    monkeypatch.setattr(sketch, "_draw_tile", shared)
    threaded = sketch_apply(S, v)
    assert helped == set(range(-(-in_rows // 1024)))
    assert np.array_equal(threaded, inline)
    assert np.array_equal(threaded[:, 4:], S.entries[:, cols])


def test_streamed_apply_holds_two_tiles():
    # A 96 x 65,536 sketch is 48 MiB, in three blocks, so the apply runs on
    # two threads.  Applied to 4 columns it allocates on each thread one
    # float32 32 x 1,024 tile (128 KiB) with its 64 KiB of sines and one
    # float32 16 x 32 product, the shared float32 panel of one group of 16
    # columns by 1,024 rows (64 KiB), the 96 x 4 result, and
    # interpreter-sized objects: the generators, views.  64 KiB covers
    # those many times over; the bound, about 0.51 MiB, does not grow with
    # in_rows, and is under the 0.82 MiB of float64 tiles
    S = make_gaussian_sketch(96, 65536, 0)
    v = np.random.default_rng(0).standard_normal((65536, 4))
    tracemalloc.start()
    try:
        out = sketch_apply(S, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tile, sines, product, panel = 32 * 1024 * 4, 16384 * 4, 16 * 32 * 4, 16 * 1024 * 4
    assert peak <= 2 * tile + 2 * sines + 2 * product + panel + out.nbytes + (64 << 10)
    assert "entries" not in vars(S)


def tile_draws(monkeypatch, before=None):
    # every tile drawn, as (block, panel, thread, tile copied), in the
    # order the draws finish; ``before(r)``, if given, runs as a tile of
    # block r starts
    draws = []
    draw_tile = sketch._draw_tile

    def recording(S, gens, r, c, buffer):
        if before is not None:
            before(r)
        rows, cols, tile = draw_tile(S, gens, r, c, buffer)
        draws.append((r, c, threading.get_ident(), tile.copy()))
        return rows, cols, tile

    monkeypatch.setattr(sketch, "_draw_tile", recording)
    return draws


def tiles_of(draws):
    # the (block, panel) of each draw, in draw order
    return [(r, c) for r, c, _, _ in draws]


def wait_for(condition):
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(1e-3)


def test_blocks_are_shared_by_the_caller_and_one_helper(monkeypatch):
    # 20 blocks of two panels: the caller holds its first tile until the
    # helper has drawn one, so both take part.  Each tile is drawn once,
    # on one of two threads, a block's panels in panel order, and the
    # result is the loop reference
    monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 0)
    caller = threading.get_ident()

    def helped():
        return any(t != caller for _, _, t, _ in draws)

    def hold(r):
        if threading.get_ident() == caller and not helped():
            wait_for(helped)

    draws = tile_draws(monkeypatch, hold)
    E = gaussian_blocks(640, 1100, 4)
    v = np.random.default_rng(4).standard_normal((1100, 5))
    before = threading.active_count()
    assert np.array_equal(sketch_apply(make_gaussian_sketch(640, 1100, 4), v), by_panel(E, v))
    assert threading.active_count() <= before + 1
    tiles = tiles_of(draws)
    assert sorted(tiles) == [(r, c) for r in range(20) for c in range(2)]
    assert all(tiles.index((r, 0)) < tiles.index((r, 1)) for r in range(20))
    assert len({t for _, _, t, _ in draws}) == 2
    assert all(np.array_equal(tile, E[32 * r : 32 * r + 32, 1024 * c : 1024 * c + 1024])
               for r, c, _, tile in draws)


class Stalled:
    """An executor whose helper never starts, as when its core is busy
    elsewhere."""

    def submit(self, fn, *args):
        return Future()


def test_draws_the_worker_has_not_started_are_drawn_by_the_caller(monkeypatch):
    # the caller takes every tile of each panel, then cancels the helper,
    # which never ran
    monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 0)
    monkeypatch.setattr(linops, "_helper_pool", Stalled)
    draws = tile_draws(monkeypatch)
    E = gaussian_blocks(100, 1100, 4)
    v = np.random.default_rng(4).standard_normal((1100, 5))
    assert np.array_equal(sketch_apply(make_gaussian_sketch(100, 1100, 4), v), by_panel(E, v))
    assert tiles_of(draws) == [(r, c) for c in range(2) for r in range(4)]
    assert {t for _, _, t, _ in draws} == {threading.get_ident()}


@pytest.mark.parametrize("out_rows, in_rows", [(40, 30), (40, 13107), (32, 20000)])
def test_small_sketch_starts_no_thread(monkeypatch, out_rows, in_rows):
    # at most 2**19 entries (two blocks of 30 columns, or of 13,107, just
    # under) or one block (32 x 20,000, over it): drawn inline, panel by
    # panel and block by block within each
    draws = tile_draws(monkeypatch)
    monkeypatch.setattr(linops, "_helper_pool", None)  # would raise if called
    S = make_gaussian_sketch(out_rows, in_rows, 4)
    v = np.random.default_rng(4).standard_normal((in_rows, 5))
    assert np.array_equal(sketch_apply(S, v), by_panel(gaussian_blocks(out_rows, in_rows, 4), v))
    count, panels = -(-out_rows // 32), -(-in_rows // 1024)
    assert tiles_of(draws) == [(r, c) for c in range(panels) for r in range(count)]
    assert {t for _, _, t, _ in draws} == {threading.get_ident()}


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
    # thread takes no new tile, and no thread is left but the shared
    # helper; the next apply starts from the seed and gives the same bits.
    # The failing thread waits until the other has started a tile, which
    # in turn waits until the failure has drained the indices, so both
    # are mid-pass when it happens
    where, what = STOPS[stop]
    monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 0)
    S = make_gaussian_sketch(640, 30, 4)
    v = np.random.default_rng(4).standard_normal((30, 5))
    expected = sketch_apply(S, v)
    caller, started, failed, taken = threading.get_ident(), set(), threading.Event(), []
    draw_tile, drain = sketch._draw_tile, linops._drain

    def draining(blocks):
        drain(blocks)
        failed.set()

    def failing(S, gens, r, c, buffer):
        me = "caller" if threading.get_ident() == caller else "helper"
        taken.append(r)
        started.add(me)
        if me != where:
            assert failed.wait(10)
            return draw_tile(S, gens, r, c, buffer)
        wait_for(lambda: len(started) == 2)
        if what == "draw":
            raise Stop
        rows, cols, tile = draw_tile(S, gens, r, c, buffer)
        return rows, cols, tile[:, :-1]  # np.dot raises on the shapes

    before = threading.active_count()
    with monkeypatch.context() as patch:
        patch.setattr(sketch, "_draw_tile", failing)
        patch.setattr(linops, "_drain", draining)
        with pytest.raises(Stop if what == "draw" else ValueError):
            sketch_apply(S, v)
    assert threading.active_count() <= before + 1
    # the two first tiles, and at most one the other thread took before
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


@pytest.mark.parametrize("power", [130, -133])
def test_columns_outside_float32s_range_are_scaled_exactly(power):
    # float32 is normal from 2**-126 to 2**128: a column of about 1e39 or
    # 1e-40 is cast scaled by a power of two and its product scaled back,
    # so it is the in-range column's product times 2**power, bit for bit,
    # and the other columns keep their bits
    S = make_gaussian_sketch(40, 1100, 3)
    v = np.random.default_rng(3).standard_normal((1100, 3))
    out_of_range = v.copy()
    out_of_range[:, 1] *= 2.0**power
    before, after = sketch_apply(S, v), sketch_apply(S, out_of_range)
    assert np.array_equal(after[:, 1], before[:, 1] * 2.0**power)
    assert np.array_equal(after[:, [0, 2]], before[:, [0, 2]])


@pytest.mark.parametrize("scale", [1e39, 1e-40, 1e300])
def test_columns_outside_float32s_range_keep_the_envelope(scale):
    S = make_gaussian_sketch(40, 1100, 3)
    v = np.random.default_rng(3).standard_normal((1100, 2)) * [1.0, scale]
    E = gaussian_blocks(40, 1100, 3)
    streamed = sketch_apply(S, v)
    u = np.finfo(float).eps / 2
    gamma = 1100 * u / (1 - 1100 * u)
    exact = E.astype(float) @ v
    assert np.isfinite(streamed).all() and np.all(streamed[:, 1] != 0.0)
    assert np.all(np.abs(streamed - exact) <= envelope(E, v) + gamma * (np.abs(E) @ np.abs(v)))


@pytest.mark.parametrize("out_rows, in_rows", [(43, 2500), (70, 30), (33, 1025)])
@pytest.mark.parametrize("threads", [False, True], ids=["inline", "threads"])
def test_columns_give_the_same_bits_at_every_width(monkeypatch, out_rows, in_rows, threads):
    # every float32 product is one group of 16 columns against one tile,
    # whatever the width of the input, so a column's result does not
    # depend on the columns applied with it: each leading part of a block,
    # and each column alone, gives the block's bits
    if threads:
        monkeypatch.setattr(sketch, "_INLINE_ENTRIES", 0)
    S = make_gaussian_sketch(out_rows, in_rows, 8)
    V = np.random.default_rng(8).standard_normal((in_rows, 40))
    block = sketch_apply(S, V)
    for k in (1, 2, 15, 16, 17, 31, 32, 33):
        assert np.array_equal(sketch_apply(S, V[:, :k]), block[:, :k]), k
    assert all(np.array_equal(sketch_apply(S, v), column) for v, column in zip(V.T, block.T))


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
    draws = tile_draws(monkeypatch)
    rng = np.random.default_rng(5)
    M = rng.standard_normal((2500, 4))
    rhs = rng.standard_normal(2500)
    S = make_gaussian_sketch(10, 2500, seed=2)
    y = sketch_and_solve_ls(S, M, rhs)
    E, Mr = gaussian_blocks(10, 2500, 2), np.column_stack([M, rhs])
    assert tiles_of(draws) == [(0, 0), (0, 1), (0, 2)]
    assert np.array_equal(np.hstack([tile for _, _, _, tile in draws]), E)
    SMr = by_panel(E, Mr)
    assert np.array_equal(y, dense_qr_ls(SMr[:, :4], SMr[:, 4]))


@pytest.mark.parametrize("shape", [(12,), (40, 1), (40, 2)])
def test_sketch_and_solve_rejects_a_misshapen_rhs(monkeypatch, shape):
    draws = tile_draws(monkeypatch)
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
