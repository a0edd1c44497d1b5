import contextlib
import errno
import functools
import gc
import hashlib
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nubes import chaos, empirical, expfun, gaussian, sampling
from nubes.sampling import BLOCK_NORMALS, block_rows, chunk_count, layout, map_chunks, substream


def _chunk_size(rng, count):
    """One item per chunk: its size."""
    return np.array([count])


class TestChunkCounts:
    def test_layouts(self):
        assert chunk_count(10, 4) == 3
        assert chunk_count(8, 4) == 2
        assert chunk_count(3, 100) == 1
        assert chunk_count(1, 1) == 1
        # chunk i holds min(chunk_size, total - i * chunk_size) items
        assert map_chunks(_chunk_size, (), 0, total=10, chunk_size=4, workers=1).tolist() == [4, 4, 2]
        assert map_chunks(_chunk_size, (), 0, total=8, chunk_size=4, workers=1).tolist() == [4, 4]

    def test_totals_preserved(self):
        for total in (1, 7, 64, 1000):
            for chunk in (1, 3, 64, 2048):
                assert map_chunks(_draw, (1.0,), 0, total, chunk, workers=1).size == total

    def test_rejections(self):
        for total, chunk_size in [(0, 4), (4, 0), (1000.5, 4), (4, 2.5), (math.nan, 4), (math.inf, 4), (4, math.inf)]:
            with pytest.raises(ValueError, match="must be an integer >= 1"):
                chunk_count(total, chunk_size)

    def test_too_many_chunks_rejected(self):
        # a chunk index goes to a worker as 8 signed bytes: 2^63 chunks at most, with a ValueError naming total beyond
        assert chunk_count(2**63 * 4, 4) == layout(2**63 * 4, 4)["chunks"] == 2**63
        with pytest.raises(ValueError, match=f"total={2**63 * 4 + 1} is too many items to lay out in chunks of 4"):
            layout(2**63 * 4 + 1, 4)
        with pytest.raises(ValueError, match=f"total={10**30} "):
            chunk_count(10**30, 4096)
        with pytest.raises(ValueError, match=f"total={10**30} "):
            map_chunks(None, (), 0, total=10**30, chunk_size=4096, workers=1)

    @pytest.mark.parametrize("reduce", [None, np.sort], ids=["concatenate", "reduce"])
    def test_first_chunk_starts_at_once(self, reduce):
        # 3.8e8 chunks: nothing is built per chunk before the first one runs
        class Started(Exception):
            pass

        def first(rng, count):
            raise Started(count)

        with pytest.raises(Started) as info:
            map_chunks(first, (), 0, total=10**14, chunk_size=2**18, workers=1, reduce=reduce)
        assert info.value.args == (2**18,)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_whole_float_counts(self, workers):
        # a float with an integer value counts as that integer, as elsewhere in the library
        rank1 = chaos.normalize(chaos.DiagonalChaosSpec(q=2, alphas=(1.0,)))
        params = expfun.ExpFunParams(a=0.0, t=0.05)
        want = map_chunks(_draw, (1.0,), 3, 1000, 256, workers)
        assert np.array_equal(map_chunks(_draw, (1.0,), 3, 1000.0, 256.0, workers), want)
        assert np.array_equal(chaos.sample_batch(rank1, 1000.0, 0, workers), chaos.sample_batch(rank1, 1000, 0, 1))
        got = expfun.sample_batch(params, 10, 1000.0, 0, workers)
        assert np.array_equal(got, expfun.sample_batch(params, 10, 1000, 0, 1))
        assert layout(1000.0, 4096.0) == layout(1000, 4096) == {"bit_generator": "SFC64", "chunk_size": 4096, "chunks": 1}
        for call in (
            lambda: map_chunks(_draw, (1.0,), 3, 1000.5, 256, workers),
            lambda: chaos.sample_batch(rank1, 1000.5, 0, workers),
            lambda: expfun.sample_batch(params, 10, 1000.5, 0, workers),
            lambda: layout(1000.5, 4096),
        ):
            with pytest.raises(ValueError, match=r"the number of samples must be an integer >= 1, got total=1000\.5"):
                call()


class TestSubstream:
    def test_reproducible(self):
        a = substream(42, 3).standard_normal(16)
        b = substream(42, 3).standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = substream(42, 0).standard_normal(16)
        b = substream(42, 1).standard_normal(16)
        c = substream(43, 0).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bit_generator(self):
        assert type(substream(0, 0).bit_generator) is sampling.BIT_GENERATOR


def _sha256(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()


class TestStreamPins:
    """Every sampled byte follows from these streams: a change to the bit
    generator, its seeding or the chaos kernel must edit these digests.  No
    path-sampler digest is pinned, because the last ulp of numpy's SIMD
    np.exp can differ between CPUs."""

    def test_substream_normals(self):
        got = substream(0, 0).standard_normal(4096)
        assert _sha256(got) == "5bee857e52d1f32d3681e370a4fdeede4a0ee2634b441a5a1d3035d7c0104aba"

    def test_chaos_samples(self):
        spec = chaos.normalize(chaos.DiagonalChaosSpec(q=3, alphas=(1.0, 0.5, 0.25, 0.125)))
        got = chaos.sample_batch(spec, 4096, seed=0, workers=1)
        assert _sha256(got) == "0e1382d9d02551fa55a70cdee34f541e2206477f960a8d6cbbe2fd5f8f3897bd"


class TestSubstreamStatistics:
    """Each stream of the family is standard normal and no two neighbours are
    correlated, at fixed seeds; these hold for any sound generator and catch
    wiring faults such as two spawn keys that share a stream."""

    N = 1 << 16
    KEYS = range(8)
    SEEDS = (0, 1)

    @pytest.fixture(scope="class")
    def streams(self):
        return {(s, k): substream(s, k).standard_normal(self.N) for s in self.SEEDS for k in self.KEYS}

    def test_mean_and_variance_within_5_se(self, streams):
        for x in streams.values():
            assert abs(x.mean()) < 5.0 / math.sqrt(self.N)
            assert abs(x.var() - 1.0) < 5.0 * math.sqrt(2.0 / self.N)

    def test_ks_distance_below_dkw_bound(self, streams):
        upper = np.arange(1, self.N + 1) / self.N
        for x in streams.values():
            cdf = gaussian.normal_cdf(np.sort(x))
            ks = max(np.max(upper - cdf), np.max(cdf - (upper - 1.0 / self.N)))
            assert ks < empirical.dkw_epsilon(self.N, 1e-6)

    def test_neighbours_uncorrelated(self, streams):
        pairs = [((s, k), (s, k + 1)) for s in self.SEEDS for k in self.KEYS[:-1]]
        pairs += [((s, k), (s + 1, k)) for s in self.SEEDS[:-1] for k in self.KEYS]
        for a, b in pairs:
            assert abs(np.corrcoef(streams[a], streams[b])[0, 1]) < 5.0 / math.sqrt(self.N)


def _draw(rng, count, scale):
    return scale * rng.standard_normal(count)


def _draw_with_nan(rng, count):
    out = rng.standard_normal(count)
    out[count // 2] = np.nan
    return out


class TestReduce:
    THRESHOLDS = np.linspace(-2.0, 2.0, 9)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sums_the_chunk_reductions(self, workers):
        reduce = functools.partial(empirical.count_chunk, thresholds=self.THRESHOLDS)
        whole = map_chunks(_draw, (1.0,), seed=5, total=5000, chunk_size=256, workers=1)
        got = map_chunks(_draw, (1.0,), 5, 5000, 256, workers, reduce=reduce)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, empirical.count_chunk(whole, self.THRESHOLDS))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parent_holds_no_per_chunk_results(self, workers):
        # 20,000 one-sample chunks: the counts are summed as they arrive, so the parent's
        # peak does not grow with the chunk count (it held every chunk's counts before)
        reduce = functools.partial(empirical.count_chunk, thresholds=self.THRESHOLDS)
        tracemalloc.start()
        try:
            got = map_chunks(_draw, (1.0,), 8, 20_000, 1, workers, reduce=reduce)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.array_equal(got, empirical.count_chunk(map_chunks(_draw, (1.0,), 8, 20_000, 1, 1), self.THRESHOLDS))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_sample_raises_from_the_chunk_job(self, workers):
        reduce = functools.partial(empirical.count_chunk, thresholds=self.THRESHOLDS)
        with pytest.raises(ValueError, match="samples must be finite"):
            map_chunks(_draw_with_nan, (), 5, 1000, 256, workers, reduce=reduce)


def recording_pool(sizes: list):
    """A stand-in for `sampling._run_forked`: records the pool size and runs the chunks in this process."""

    def run(job, chunks, processes):
        sizes.append(processes)
        return ((index, sampling._run_chunk(job, index)) for index in range(chunks))

    return run


def no_fork():
    raise AssertionError("a process was forked")


def _no_chunk(rng, count):
    raise AssertionError("a chunk ran")


@pytest.fixture
def pools(monkeypatch):
    """Pools record their size and start no process; set `.cpus` for the usable CPU count."""
    record = types.SimpleNamespace(sizes=[], cpus=1)
    monkeypatch.setattr(sampling, "_run_forked", recording_pool(record.sizes))
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: record.cpus)
    return record


class TestMapChunks:
    def test_concatenates_in_chunk_order(self):
        out = map_chunks(_draw, (1.0,), seed=7, total=10, chunk_size=4, workers=1)
        expected = np.concatenate(
            [substream(7, i).standard_normal(c) for i, c in enumerate([4, 4, 2])]
        )
        assert np.array_equal(out, expected)

    def test_worker_count_invariance(self):
        args = (2.5,)
        base = map_chunks(_draw, args, seed=11, total=5000, chunk_size=256, workers=1)
        for workers in (2, 5):
            assert np.array_equal(base, map_chunks(_draw, args, seed=11, total=5000, chunk_size=256, workers=workers))

    def test_args_passed_through(self):
        small = map_chunks(_draw, (1.0,), seed=3, total=64, chunk_size=64, workers=1)
        scaled = map_chunks(_draw, (4.0,), seed=3, total=64, chunk_size=64, workers=1)
        assert np.allclose(scaled, 4.0 * small)

    @pytest.mark.parametrize(
        "workers, chunks, cpus, expected",
        [(5000, 3, 64, 3), (5000, 100, 2, 2), (2, 10, 64, 2), (3, 10, 1, 1)],
        ids=["chunks", "cpus", "workers", "one-cpu"],
    )
    def test_pool_is_capped(self, workers, chunks, cpus, expected, pools):
        pools.cpus = cpus
        total = 256 * chunks - 5
        out = map_chunks(_draw, (1.0,), seed=5, total=total, chunk_size=256, workers=workers)
        assert pools.sizes == [expected]
        assert np.array_equal(out, map_chunks(_draw, (1.0,), seed=5, total=total, chunk_size=256, workers=1))

    @pytest.mark.parametrize(
        "chunks, cpus, expected",
        [(100, 2, [2]), (3, 64, [3]), (100, 1, []), (1, 64, [])],
        ids=["cpus", "chunks", "one-cpu", "one-chunk"],
    )
    def test_default_pool_is_the_usable_cpu_count(self, chunks, cpus, expected, pools):
        pools.cpus = cpus
        total = 256 * chunks - 5
        out = map_chunks(_draw, (1.0,), seed=5, total=total, chunk_size=256)
        assert pools.sizes == expected
        assert np.array_equal(out, map_chunks(_draw, (1.0,), seed=5, total=total, chunk_size=256, workers=1))

    def test_samplers_default_to_the_usable_cpu_count(self, pools):
        pools.cpus = 2
        rank1 = chaos.normalize(chaos.DiagonalChaosSpec(q=2, alphas=(1.0,)))
        chaos.sample_batch(rank1, chaos.SAMPLE_CHUNK + 1, seed=3)
        expfun.sample_batch(expfun.ExpFunParams(a=0.0, t=0.05), 4, expfun.PATH_CHUNK + 1, seed=3)
        assert pools.sizes == [2, 2]

    def test_one_worker_starts_no_pool(self, pools):
        pools.cpus = 64
        out = map_chunks(_draw, (1.0,), seed=5, total=5000, chunk_size=256, workers=1)
        assert out.size == 5000 and pools.sizes == []

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 7)
        assert sampling.worker_count() == sampling.worker_count(None) == 7
        assert sampling.worker_count(1) == 1 and sampling.worker_count(3) == 3
        rank1 = chaos.normalize(chaos.DiagonalChaosSpec(q=2, alphas=(1.0,)))
        for workers in (0, -3):
            with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
                sampling.worker_count(workers)
            with pytest.raises(ValueError, match="workers must be >= 1"):
                map_chunks(_no_chunk, (), seed=5, total=10, chunk_size=4, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            chaos.sample_batch(rank1, 10, seed=3, workers=0)

    def test_usable_cpus(self):
        assert 1 <= sampling._usable_cpus() <= (os.cpu_count() or 1)


def no_child_left():
    """Every child of this process has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs longer than `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _raise_in_chunk(rng, count):
    if count == 7:
        raise KeyError(f"chunk of {count}")
    return rng.standard_normal(count)


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def _raise_unpicklable(rng, count):
    raise _Unpicklable("not sent")


def _kill_own_worker(rng, count):
    if count == 7:
        os.kill(os.getpid(), signal.SIGKILL)
    return rng.standard_normal(count)


def _leave_own_worker(rng, count):
    if count == 7:
        os._exit(0)
    return rng.standard_normal(count)


def _interrupt_the_parent(rng, count):
    if count == 7:  # once, as a Ctrl-C would
        os.kill(os.getppid(), signal.SIGINT)
        time.sleep(60)
    return rng.standard_normal(count)


def _claim(marker: str) -> bool:
    """True in the one process that first calls this for `marker`; it writes its pid there."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as f:
        f.write(str(os.getpid()))
    return True


def _pid_after_one_slow_chunk(rng, count, marker):
    """This worker's pid; the first chunk to start, in whichever worker, sleeps 1 s first."""
    if _claim(marker):
        time.sleep(1.0)
    return np.full(count, float(os.getpid()))


def _two_shapes_then_slow(samples, marker, second):
    """Counts of two shapes for the first two chunks to finish; every later chunk sleeps 60 s first."""
    if _claim(marker):
        return np.zeros(2, dtype=np.int64)
    if not _claim(second):
        time.sleep(60)
    return np.zeros(3, dtype=np.int64)


class _SlowToUnpickle(np.ndarray):
    """An array that takes 20 ms to unpickle."""

    def __reduce__(self):
        return _unpickle_slowly, (np.asarray(self),)


def _unpickle_slowly(a):
    time.sleep(0.02)
    return a


def _killed_after_its_result(rng, count, marker, delay, slow):
    """A chunk of a few ms; the first to start has its worker SIGKILLed `delay` s after it returns.
    With `slow` its result takes 20 ms to unpickle, so the worker has died when it is given its next chunk."""
    time.sleep(0.005)
    out = rng.standard_normal(count)
    if _claim(marker):
        threading.Timer(delay, os.kill, (os.getpid(), signal.SIGKILL)).start()
        return out.view(_SlowToUnpickle) if slow else out
    return out


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
class TestForkedPool:
    """The real pool: its results, a worker's exception, a worker that dies, and a parent
    interrupted while its workers run; after each, every worker has been reaped."""

    TOTAL = 256 * 5 + 7  # chunk 5, the last, holds 7 samples

    @pytest.fixture(autouse=True)
    def hygiene(self):
        """Every outcome closes every fd the pool opened and leaves no file to the garbage collector."""
        fds = sorted(os.listdir("/proc/self/fd"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            yield
            gc.collect()
        assert sorted(os.listdir("/proc/self/fd")) == fds
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_long_queue_never_blocks(self):
        # 20,000 one-sample chunks, each handed out as its worker's last result is read:
        # no hand-out waits on a worker, and no result is lost or misplaced
        with _deadline(60):
            got = map_chunks(_draw, (1.0,), seed=8, total=20_000, chunk_size=1, workers=2)
        assert np.array_equal(got, map_chunks(_draw, (1.0,), seed=8, total=20_000, chunk_size=1, workers=1))
        no_child_left()

    def test_worker_exception_keeps_its_type_and_message(self):
        with pytest.raises(KeyError, match="chunk of 7"):
            map_chunks(_raise_in_chunk, (), seed=1, total=self.TOTAL, chunk_size=256, workers=2)
        no_child_left()

    def test_exception_that_does_not_pickle_raises_the_pickling_error(self):
        with pytest.raises(TypeError, match="cannot pickle") as info:
            map_chunks(_raise_unpicklable, (), seed=1, total=self.TOTAL, chunk_size=256, workers=2)
        assert "not sent" in str(info.value.__cause__)
        no_child_left()

    @pytest.mark.parametrize(
        "fn, ended", [(_kill_own_worker, "was killed by SIGKILL"), (_leave_own_worker, "exited with status 0")],
        ids=["killed", "silent"],
    )
    def test_dead_worker_names_its_chunk(self, fn, ended):
        with pytest.raises(ChildProcessError, match=f"the worker sampling chunk 5 {ended}"):
            map_chunks(fn, (), seed=1, total=self.TOTAL, chunk_size=256, workers=2)
        no_child_left()

    def test_free_worker_takes_the_next_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        marker = tmp_path / "slow"
        pids = map_chunks(_pid_after_one_slow_chunk, (str(marker),), seed=1, total=10, chunk_size=1, workers=2)
        # the worker that slept ran its one chunk; a static round-robin would give it 5 of the 10
        assert np.count_nonzero(pids == float(marker.read_text())) == 1
        no_child_left()

    @pytest.mark.parametrize("slow", [False, True], ids=["prompt", "dead-before-its-next-chunk"])
    def test_worker_killed_after_its_result_names_a_chunk(self, slow, tmp_path, monkeypatch):
        # whether the kill lands before, while or after the result is sent, the worker
        # held a chunk when it died: the one it ran or the one it was given next
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        for run in range(20):
            args = (str(tmp_path / f"claimed-{run}"), run * 5e-5, slow)  # a delay of 0 to 1 ms
            with pytest.raises(ChildProcessError, match=r"the worker sampling chunk \d+ was killed by SIGKILL"):
                map_chunks(_killed_after_its_result, args, seed=1, total=10 * 64, chunk_size=64, workers=2)
            no_child_left()

    def test_failed_fork_closes_its_pipes(self, monkeypatch):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)  # two workers, also on one CPU
        fork, calls = os.fork, []

        def second_fork_fails():
            calls.append(None)
            if len(calls) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        with pytest.raises(BlockingIOError):
            map_chunks(_draw, (1.0,), seed=1, total=10, chunk_size=1, workers=2)
        no_child_left()

    def test_failed_sum_reaps_its_workers(self, tmp_path, monkeypatch):
        # the parent's running sum fails at the second result, while both workers hold a chunk
        # that would take 60 s: they are killed, not waited for
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        start = time.monotonic()
        reduce = functools.partial(_two_shapes_then_slow, marker=str(tmp_path / "first"), second=str(tmp_path / "second"))
        with pytest.raises(ValueError, match="could not be broadcast"):
            map_chunks(_draw, (1.0,), seed=1, total=self.TOTAL, chunk_size=256, workers=2, reduce=reduce)
        no_child_left()
        assert time.monotonic() - start < 30

    def test_interrupted_parent_reaps_its_workers(self):
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            map_chunks(_interrupt_the_parent, (), seed=1, total=self.TOTAL, chunk_size=256, workers=2)
        no_child_left()
        assert time.monotonic() - start < 30  # the sleeping workers were killed, not waited for


class TestLayout:
    def test_block_rows(self):
        assert block_rows(1) == BLOCK_NORMALS
        assert block_rows(3) == BLOCK_NORMALS // 3
        assert block_rows(BLOCK_NORMALS) == 1
        assert block_rows(BLOCK_NORMALS + 1) == 1

    def test_draw_blocks_in_one_buffer(self, monkeypatch):
        monkeypatch.setattr(sampling, "BLOCK_NORMALS", 10)
        blocks = [w.copy() for w in sampling.draw_blocks(substream(3, 0), 7, 3)]
        assert [w.shape for w in blocks] == [(3, 3), (3, 3), (1, 3)]
        views = list(sampling.draw_blocks(substream(3, 0), 7, 3))
        assert all(np.shares_memory(w, views[0]) for w in views)  # one reused buffer
        assert np.array_equal(np.concatenate(blocks), substream(3, 0).standard_normal((7, 3)))

    def test_layout_follows_configuration(self):
        assert layout(10, 4) == {"bit_generator": "SFC64", "chunk_size": 4, "chunks": 3}
        assert layout(8, 4)["chunks"] == 2


def _edges(rows: int) -> list[int]:
    """Counts around block edges: one row, either side of one and two blocks, a partial block."""
    return sorted({1, 2, rows - 1, rows, rows + 1, rows + 2, 2 * rows + 1, 2 * rows + rows // 2} - {0})


def _column_sum(h: np.ndarray, alphas) -> np.ndarray:
    """sum_j h[:, j] * alphas[j], left to right."""
    v = h[:, 0] * alphas[0]
    for j in range(1, len(alphas)):
        v += h[:, j] * alphas[j]
    return v


class TestBlockedKernels:
    """A chunk drawn and reduced in row blocks equals the chunk drawn whole, bit for bit.

    The budgets range over sizes that are not multiples of 64 and over
    blocks larger than those at which BLAS splits a product over threads;
    no sampler sums through BLAS, so none of them moves a value.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 12), st.integers(1, 1 << 17), st.data())
    def test_chaos_chunk_equals_whole_chunk(self, q, m, budget, data):
        alphas = tuple(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "BLOCK_NORMALS", budget)
            count = data.draw(st.sampled_from(_edges(block_rows(m))))
            got = chaos._sample_chunk(substream(7, count), count, q, alphas)
        want = _column_sum(chaos.hermite(q, substream(7, count).standard_normal((count, m))), alphas)
        assert np.array_equal(got, want)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 5), st.floats(-2.0, 2.0), st.sampled_from([1, 2, 4095, 4096, 4097, 20_000]))
    def test_rank_one_chunk_is_one_product(self, q, alpha, count):
        got = chaos._sample_chunk(substream(8, count), count, q, (alpha,))
        want = chaos.hermite(q, substream(8, count).standard_normal((count, 1)))[:, 0] * alpha
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1, 2, 7, 300, 4096]),
        st.sampled_from([256, 1000, BLOCK_NORMALS]),
        st.floats(-1.0, 1.0),
        st.floats(0.01, 0.2),
        st.data(),
    )
    def test_path_chunk_equals_whole_chunk(self, count, budget, a, t, data):
        # a chunk is drawn step-major, block_rows(count) steps across all its paths at a time
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "BLOCK_NORMALS", budget)
            n = data.draw(st.sampled_from(_edges(block_rows(count))))
            got = expfun._path_chunk(substream(9, count), count, a, t, n)
        w = substream(9, count).standard_normal((n, count)).T * math.sqrt(t / n)
        assert np.array_equal(got, expfun.integral_from_increments(a, t, w))
