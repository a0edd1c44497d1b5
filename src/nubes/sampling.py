"""Reproducible parallel sampling on SFC64 substreams.

Work is split into fixed-size chunks; chunk i always draws from numpy's SFC64
bit generator seeded with SeedSequence(seed, spawn_key=(i,)).
The chunk layout depends only on (total, chunk_size), never on the worker
count, and partial results are combined in chunk-index order, so every
reduction is a pure function of (seed, total, chunk_size) regardless of how
many processes execute it.

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
the job then returns an integer array instead of the samples and the run
returns the sum of those arrays, which is exact in any order, so no process
ever holds more than one chunk of samples.

Workers: a run uses every usable CPU unless it is given a worker count
(`workers=None`, the default of `map_chunks` and of the samplers built on
it); `workers=1` runs every chunk in this process.  A pool starts only for a
run of more than one chunk and more than one worker, on Linux.  It is a set
of `os.fork` children, whatever the multiprocessing start method, each with
a task pipe and a result pipe of its own and one chunk at a time: the parent
writes a worker its next chunk index as soon as it has read that worker's
pickled result, so a free worker always takes the next chunk.  The parent
puts the results in chunk order and reaps every child before `map_chunks`
returns or raises, so the children's CPU time and memory are in its
RUSAGE_CHILDREN.  Elsewhere every chunk runs in this process, as with
`workers=1` (macOS system libraries are not safe in a forked child that does
not exec).
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import sys

import numpy as np

__all__ = ["substream", "chunk_counts", "block_rows", "layout", "worker_count", "map_chunks"]

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


def chunk_counts(total: int, chunk_size: int) -> list[int]:
    """Sizes of the fixed chunk decomposition of `total` items."""
    if total < 1:
        raise ValueError(f"the number of samples must be >= 1, got total={total}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    try:  # a list too long to index or to allocate
        counts = [chunk_size] * -(-total // chunk_size)
    except (OverflowError, MemoryError) as exc:
        raise ValueError(f"total={total} is too many items to lay out in chunks of {chunk_size}") from exc
    counts[-1] = total - chunk_size * (len(counts) - 1)
    return counts


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
    return {
        "bit_generator": BIT_GENERATOR.__name__,
        "chunk_size": chunk_size,
        "chunks": len(chunk_counts(total, chunk_size)),
    }


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


def _run_chunk(job):
    fn, seed, index, count, args, reduce = job
    samples = fn(substream(seed, index), count, *args)
    return samples if reduce is None else reduce(samples)


_INDEX = struct.Struct("<q")  # a chunk index in a worker's task pipe


def _serve(jobs: list, tasks: int, out: int):
    """Worker loop: run each chunk whose index arrives on `tasks` and send its
    pickled outcome over `out`, until the parent closes `tasks`."""
    with os.fdopen(out, "wb") as results:
        while raw := os.read(tasks, _INDEX.size):  # a whole index: the parent writes one into an empty pipe
            (index,) = _INDEX.unpack(raw)
            try:
                outcome = (True, _run_chunk(jobs[index]))  # looked up at each call, so a wrapper of it applies
            except Exception as exc:  # an interrupt ends the worker, and the parent names its chunk
                import traceback

                outcome = (False, exc, traceback.format_exc())
            try:
                payload = pickle.dumps(outcome)
            except Exception as exc:  # a result or an exception that does not pickle: send why
                payload = pickle.dumps((False, exc, f"pickling {outcome[1]!r}"))
            results.write(payload)
            results.flush()


def _ended(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    return f"exited with status {os.waitstatus_to_exitcode(status)}"


def _run_forked(jobs: list, processes: int) -> list:
    """_run_chunk over `jobs`, in job order, run by `processes` forked workers.

    Each worker holds one chunk at a time.  The parent writes a worker the
    next chunk index as soon as it has read that worker's result, and closes
    the worker's task pipe once no chunk is left, so it exits while the
    others finish.  A worker sends nothing until it is given its next index,
    so its result pipe holds at most one pickle and the parent always knows
    which chunk each worker holds.  A worker's exception is raised here with
    its type and message; a worker that ends while it holds a chunk raises
    ChildProcessError naming that chunk.  Every worker is reaped, killed
    first if the run failed, before this returns or raises.
    """
    parts = [None] * len(jobs)
    done = 0
    workers = {}  # result fd -> (pid, result stream)
    tasks = {}  # result fd -> its worker's task pipe, until no chunk is left for the worker
    held = {}  # result fd -> index of the chunk its worker runs, None once no chunk is left
    try:
        for index in range(processes):  # processes <= len(jobs): every worker starts with a chunk
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
                    _serve(jobs, tasks_r, out_w)
                    status = 0
                finally:
                    os._exit(status)  # never back into the caller: no atexit hook, no buffer flushed twice
            os.close(tasks_r)
            os.close(out_w)
            workers[out_r] = (pid, os.fdopen(out_r, "rb"))
            tasks[out_r] = tasks_w
            held[out_r] = index
        pending = iter(range(processes, len(jobs)))
        poller = select.poll()
        for fd in workers:
            poller.register(fd, select.POLLIN)
        while done < len(jobs):
            for fd, _ in poller.poll():
                pid, results = workers[fd]
                try:
                    outcome = pickle.load(results)
                except (EOFError, pickle.UnpicklingError):  # the worker has ended
                    poller.unregister(fd)
                    del workers[fd]
                    results.close()
                    status = os.waitpid(pid, 0)[1]
                    if held[fd] is not None:
                        raise ChildProcessError(f"the worker sampling chunk {held[fd]} {_ended(status)}")
                    continue
                if not outcome[0]:
                    raise outcome[1] from Exception(f"in the worker of chunk {held[fd]}:\n{outcome[2]}")
                parts[held[fd]] = outcome[1]
                done += 1
                held[fd] = next(pending, None)
                if held[fd] is None:
                    os.close(tasks.pop(fd))  # the worker reads end of file and exits
                    continue
                try:
                    os.write(tasks[fd], _INDEX.pack(held[fd]))
                except BrokenPipeError:  # the worker has died: its end of file names the chunk
                    pass
        return parts
    finally:
        for fd in tasks.values():
            os.close(fd)
        for pid, results in workers.values():
            if done < len(jobs):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            results.close()


def map_chunks(
    fn, args: tuple, seed: int, total: int, chunk_size: int, workers: int | None = None, reduce=None
) -> np.ndarray:
    """Concatenate fn(rng_i, count_i, *args) over the fixed chunk layout.

    `fn` returns a 1-d array of length count_i.  With `reduce`, each chunk's
    job returns reduce(samples), an integer array of the same shape for every
    chunk (it may overwrite the samples), and the result is the sum of those
    arrays.  A pool worker pickles each job's result, never `fn` or
    `reduce`.  `workers` defaults to the usable CPU count (`worker_count`);
    the pool forks min(workers, chunks, usable CPUs) processes, and none for
    one worker or one chunk.  The result is identical for any `workers` value.
    """
    if seed < 0:  # numpy would reject it inside the first chunk, maybe in a worker
        raise ValueError(f"seed must be >= 0, got {seed}")
    jobs = [
        (fn, seed, i, c, args, reduce)
        for i, c in enumerate(chunk_counts(total, chunk_size))
    ]
    workers = worker_count(workers)
    if workers <= 1 or len(jobs) == 1 or sys.platform != "linux":
        parts = [_run_chunk(j) for j in jobs]
    else:
        parts = _run_forked(jobs, min(workers, len(jobs), _usable_cpus()))
    return np.concatenate(parts) if reduce is None else np.sum(parts, axis=0)
