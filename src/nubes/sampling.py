"""Reproducible parallel sampling on SFC64 substreams.

Work is split into fixed-size chunks; chunk i always draws from numpy's SFC64
bit generator seeded with SeedSequence(seed, spawn_key=(i,)).
The chunk layout depends only on (total, chunk_size), never on the worker
count, and is arithmetic: chunk i holds min(chunk_size, total - i*chunk_size)
items, so no run builds a list of its chunks.  Samples are concatenated in
chunk-index order and integer reductions are summed exactly, so every result
is a pure function of (seed, total, chunk_size) regardless of how many
processes execute it.

Inside a chunk both samplers draw from `draw_blocks`, the one draw loop: it
draws block_rows(width) rows at a time, in order, from the chunk's one
generator into one reused buffer of about BLOCK_NORMALS normals, which stays
in a core's cache.  The chaos sampler draws one row per sample and computes
each sample from its own row; the path sampler draws one row per time step,
across all the chunk's paths, and carries each path's running sums from step
to step.  Both compute in a fixed order and without BLAS, so the values do
not depend on the block size, the BLAS build or its thread count.  Across
chunks the one loop is `map_chunks`; every chunked draw runs on these two.

A run may reduce each chunk inside its own job (`map_chunks(..., reduce=)`):
the job then returns an integer array instead of the samples, and the run
adds each array to a running sum as it arrives, which is exact in any order.
No process then holds more than one chunk of samples, and the parent holds
O(workers) chunk results, whatever the number of chunks.

Workers: a run uses every usable CPU unless it is given a worker count
(`workers=None`, the default of `map_chunks` and of the samplers built on
it); `workers=1` runs every chunk in this process.  A pool starts only for a
run of more than one chunk and more than one worker, on Linux.  It is a set
of `os.fork` children, whatever the multiprocessing start method, each with
a task pipe and a result pipe of its own and one chunk at a time: the parent
writes a worker its next chunk index as soon as it has read that worker's
pickled result, so a free worker always takes the next chunk.  The parent
takes the results as they arrive and reaps every child before `map_chunks`
returns or raises, so the children's CPU time and memory are in its
RUSAGE_CHILDREN.  Elsewhere every chunk runs in this process, as with
`workers=1` (macOS system libraries are not safe in a forked child that does
not exec).
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import select
import signal
import struct
import sys

import numpy as np

__all__ = ["substream", "chunk_count", "block_rows", "layout", "worker_count", "map_chunks"]

# numpy's fastest native bit generator: its normals cost about two thirds of
# Philox's.  The streams need only spawn-key seeding, no counter or jump.
BIT_GENERATOR = np.random.SFC64
# normals drawn and reduced per row block: 128 KiB of float64, so a block and
# its temporaries stay in cache.  At 2^15 and 2^16 the chaos temporaries were
# handed back to the OS and faulted in again on every block.
BLOCK_NORMALS = 1 << 14


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk `index` of the stream family keyed by `seed`."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(BIT_GENERATOR(ss))


_INDEX = struct.Struct("<q")  # a chunk index in a worker's task pipe


def _positive_int(value, message: str) -> int:
    """`value` as an int >= 1; a whole float is one, any other value raises ValueError."""
    if not (1 <= value < math.inf and value % 1 == 0):  # false for nan too
        raise ValueError(message)
    return int(value)


def chunk_count(total: int, chunk_size: int) -> int:
    """Number of chunks, ceil(total / chunk_size), of the fixed layout of `total` items.

    Both are integers >= 1, or floats with such a value.  The layout may have
    2^63 chunks at most: an index is sent to a pool worker in 8 signed bytes.
    """
    total = _positive_int(total, f"the number of samples must be an integer >= 1, got total={total}")
    chunk_size = _positive_int(chunk_size, f"chunk_size must be an integer >= 1, got {chunk_size}")
    chunks = -(-total // chunk_size)
    if chunks > 2 ** (8 * _INDEX.size - 1):
        raise ValueError(f"total={total} is too many items to lay out in chunks of {chunk_size}")
    return chunks


def block_rows(width: int) -> int:
    """Rows of `width` normals per cache-sized block (at least one)."""
    return max(1, BLOCK_NORMALS // width)


def draw_blocks(rng: np.random.Generator, count: int, width: int):
    """Yield `count` rows of `width` normals from `rng`, in order.

    Each yield is the next block_rows(width) rows (fewer in the last block),
    drawn into one reused buffer that the caller may overwrite before it asks
    for the next block.
    """
    rows = block_rows(width)
    block = np.empty((min(rows, count), width))
    for start in range(0, count, rows):
        w = block[: min(rows, count - start)]
        rng.standard_normal(w.shape, out=w)
        yield w


def layout(total: int, chunk_size: int) -> dict:
    """Bit generator, chunk size and chunk count of a run; independent of the workers."""
    chunks = chunk_count(total, chunk_size)
    return {"bit_generator": BIT_GENERATOR.__name__, "chunk_size": int(chunk_size), "chunks": chunks}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def worker_count(workers: int | None = None) -> int:
    """The worker count of a run: `workers`, or every usable CPU when it is None.

    The samplers hand `map_chunks` this resolved count, so its `workers`
    argument is always a number to code that wraps it (perfbench's tracer).
    A count below 1 raises ValueError.
    """
    if workers is None:
        return _usable_cpus()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _run_chunk(job: tuple, index: int):
    """Chunk `index` of `job = (fn, seed, total, chunk_size, args, reduce)`."""
    fn, seed, total, chunk_size, args, reduce = job
    samples = fn(substream(seed, index), min(chunk_size, total - index * chunk_size), *args)
    return samples if reduce is None else reduce(samples)


def _serve(job: tuple, tasks: int, out: int):
    """Worker loop: run each chunk whose index arrives on `tasks` and send its
    pickled outcome over `out`, until the parent closes `tasks`."""
    with os.fdopen(out, "wb") as results:
        while raw := os.read(tasks, _INDEX.size):  # a whole index: the parent writes one into an empty pipe
            (index,) = _INDEX.unpack(raw)
            try:
                outcome = (True, _run_chunk(job, index))  # looked up at each call, so a wrapper of it applies
            except Exception as exc:  # an interrupt ends the worker, and the parent names its chunk
                import traceback

                outcome = (False, exc, traceback.format_exc())
            try:
                payload = pickle.dumps(outcome)
            except Exception as exc:  # a result or an exception that does not pickle: send why
                payload = pickle.dumps((False, exc, f"pickling {outcome[1]!r}"))
            results.write(payload)
            results.flush()


def _ended(pid: int) -> str:
    """How the ended child `pid` ended, read without reaping it."""
    info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    if info.si_code == os.CLD_EXITED:
        return f"exited with status {info.si_status}"
    return f"was killed by {signal.Signals(info.si_status).name}"


def _run_forked(job: tuple, chunks: int, processes: int):
    """Yield (index, _run_chunk(job, index)) for every index in range(chunks),
    in the order the results arrive, from `processes` forked workers.

    Each worker holds one chunk at a time.  The parent writes a worker the
    next chunk index as soon as it has read that worker's result, before it
    yields the result, so no worker waits on the consumer; once no chunk is
    left it closes the worker's task pipe instead, so the worker exits while
    the others finish.  A worker sends nothing until it is given its next
    index, so its result pipe holds at most one pickle and the parent always
    knows which chunk each worker holds.  A worker's exception is raised here
    with its type and message; a worker that ends while it holds a chunk
    raises ChildProcessError naming that chunk.  Every worker is reaped in
    one place, killed first if the run failed or the generator was closed
    before its last result, before this returns or raises, so an interrupt
    anywhere in the loop leaves no child unreaped.
    """
    done = 0
    workers = {}  # result fd -> (pid, result stream)
    tasks = {}  # result fd -> its worker's task pipe, until no chunk is left for the worker
    held = {}  # result fd -> index of the chunk its worker runs, None once no chunk is left
    try:
        for index in range(processes):  # processes <= chunks: every worker starts with a chunk
            opened = []  # this worker's pipes, closed here if a pipe or the fork fails
            try:
                tasks_r, tasks_w = os.pipe()
                opened += (tasks_r, tasks_w)
                os.write(tasks_w, _INDEX.pack(index))
                out_r, out_w = os.pipe()
                opened += (out_r, out_w)
                pid = os.fork()
            except BaseException:
                for fd in opened:
                    os.close(fd)
                raise
            if pid == 0:
                status = 1
                try:
                    for fd in (tasks_w, out_r, *workers, *tasks.values()):
                        os.close(fd)
                    _serve(job, tasks_r, out_w)
                    status = 0
                finally:
                    os._exit(status)  # never back into the caller: no atexit hook, no buffer flushed twice
            os.close(tasks_r)
            os.close(out_w)
            workers[out_r] = (pid, os.fdopen(out_r, "rb"))
            tasks[out_r] = tasks_w
            held[out_r] = index
        pending = iter(range(processes, chunks))
        poller = select.poll()
        for fd in workers:
            poller.register(fd, select.POLLIN)
        while done < chunks:
            for fd, _ in poller.poll():
                pid, results = workers[fd]
                try:
                    outcome = pickle.load(results)
                except (EOFError, pickle.UnpicklingError):  # the worker has ended; it is reaped below
                    poller.unregister(fd)
                    if held[fd] is not None:
                        raise ChildProcessError(f"the worker sampling chunk {held[fd]} {_ended(pid)}")
                    continue
                if not outcome[0]:
                    raise outcome[1] from Exception(f"in the worker of chunk {held[fd]}:\n{outcome[2]}")
                index, held[fd] = held[fd], next(pending, None)
                if held[fd] is None:
                    os.close(tasks.pop(fd))  # the worker reads end of file and exits
                else:
                    try:
                        os.write(tasks[fd], _INDEX.pack(held[fd]))
                    except BrokenPipeError:  # the worker has died: its end of file names the chunk
                        pass
                done += 1
                yield index, outcome[1]
    finally:
        for fd in tasks.values():
            os.close(fd)
        for pid, results in workers.values():
            if done < chunks:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            results.close()


def map_chunks(
    fn, args: tuple, seed: int, total: int, chunk_size: int, workers: int | None = None, reduce=None
) -> np.ndarray:
    """Concatenate fn(rng_i, count_i, *args) over the fixed chunk layout, in chunk order.

    `fn` returns a 1-d array of length count_i.  With `reduce`, each chunk's
    job returns reduce(samples), an integer array of the same shape and dtype
    for every chunk (it may overwrite the samples), and the result is the sum
    of those arrays, added up as they arrive.  A pool worker pickles each
    job's result, never `fn` or `reduce`.  `workers` defaults to the usable
    CPU count (`worker_count`); the pool forks min(workers, chunks, usable
    CPUs) processes, and none for one worker or one chunk.  The result is
    identical for any `workers` value.
    """
    if seed < 0:  # numpy would reject it inside the first chunk, maybe in a worker
        raise ValueError(f"seed must be >= 0, got {seed}")
    chunks = chunk_count(total, chunk_size)
    job = (fn, seed, int(total), int(chunk_size), args, reduce)
    workers = worker_count(workers)
    if workers <= 1 or chunks == 1 or sys.platform != "linux":
        results = ((index, _run_chunk(job, index)) for index in range(chunks))
    else:
        results = _run_forked(job, chunks, min(workers, chunks, _usable_cpus()))
    with contextlib.closing(results):  # a failure here still kills and reaps every worker
        if reduce is None:
            parts = dict(results)
            return np.concatenate([parts[index] for index in range(chunks)])
        _, summed = next(results)
        for _, counts in results:
            summed = summed + counts
        return summed
