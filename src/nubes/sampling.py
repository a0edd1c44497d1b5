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
in a core's cache.  The chaos sampler draws one row per sample (through
`draw_rows`) and computes each sample from its own row; the path sampler
draws one row per time step, across all the chunk's paths, and carries each
path's running sums from step to step.  Both compute in a fixed order and
without BLAS, so the values do not depend on the block size, the BLAS build
or its thread count.

A run may reduce each chunk inside its own job (`map_chunks(..., reduce=)`):
the job then returns an integer array instead of the samples and the run
returns the sum of those arrays, which is exact in any order, so no process
ever holds more than one chunk of samples.

Workers: a run uses every usable CPU unless it is given a worker count
(`workers=None`, the default of `map_chunks` and of the samplers built on
it); `workers=1` runs every chunk in this process.  A pool starts only for a
run of more than one chunk and more than one worker, on Linux.  It is a work
queue of `os.fork` children, whatever the multiprocessing start method: the
parent writes every chunk index into one shared pipe, as fast as the pipe
takes them, and each child takes one index at a time, runs the chunk and
sends the pickled result back over a pipe of its own.  The parent puts the
results in chunk order and reaps every child before `map_chunks` returns or
raises, so the children's CPU time and memory are in its RUSAGE_CHILDREN.
Elsewhere every chunk runs in this process, as with `workers=1` (macOS
system libraries are not safe in a forked child that does not exec).
"""

from __future__ import annotations

import math
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
    n_chunks = math.ceil(total / chunk_size)
    counts = [chunk_size] * n_chunks
    counts[-1] = total - chunk_size * (n_chunks - 1)
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


def draw_rows(rng: np.random.Generator, count: int, width: int, row_values) -> np.ndarray:
    """row_values(w) over `count` rows of `width` normals drawn from `rng`.

    `row_values` gets each block of `draw_blocks`, which it may overwrite,
    and returns one value per row of it, each from that row alone, so the
    result equals row_values of the (count, width) array drawn whole.
    """
    out = np.empty(count)
    start = 0
    for w in draw_blocks(rng, count, width):
        out[start : start + len(w)] = row_values(w)
        start += len(w)
    return out


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
    """
    return _usable_cpus() if workers is None else workers


def _run_chunk(job):
    fn, seed, index, count, args, reduce = job
    samples = fn(substream(seed, index), count, *args)
    return samples if reduce is None else reduce(samples)


_INDEX = struct.Struct("<q")  # a chunk index in the task pipe
# a message from a worker: chunk index and pickle length, -1 when it takes the chunk
_MESSAGE = struct.Struct("<qq")


def _write_all(fd: int, data: bytes):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_exactly(fd: int, size: int) -> bytes:
    """`size` bytes from `fd`, or fewer if it reaches end of file first."""
    parts = []
    while size:
        part = os.read(fd, min(size, 1 << 16))  # what a pipe holds; a larger buffer is only shrunk again
        if not part:
            break
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _serve(jobs: list, tasks: int, out: int):
    """Worker loop: run the chunks whose indices this process takes from `tasks`
    until the queue is closed and empty, and send each outcome over `out`."""
    while raw := os.read(tasks, _INDEX.size):  # a whole index: every write is whole and atomic
        (index,) = _INDEX.unpack(raw)
        _write_all(out, _MESSAGE.pack(index, -1))
        try:
            outcome = (True, _run_chunk(jobs[index]))  # looked up at each call, so a wrapper of it applies
        except Exception as exc:  # an interrupt ends the worker, and the parent names its chunk
            import traceback

            outcome = (False, exc, traceback.format_exc())
        try:
            payload = pickle.dumps(outcome)
        except Exception as exc:  # a result or an exception that does not pickle: send why
            payload = pickle.dumps((False, exc, f"pickling {outcome[1]!r}"))
        _write_all(out, _MESSAGE.pack(index, len(payload)) + payload)


def _ended(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    return f"exited with status {os.waitstatus_to_exitcode(status)}"


def _run_forked(jobs: list, processes: int) -> list:
    """_run_chunk over `jobs`, in job order, run by `processes` forked workers.

    The workers take chunk indices from one pipe as they finish chunks.  The
    pipe is filled without blocking, a PIPE_BUF of indices at a time, while
    the results are read, so a queue longer than the pipe holds never stalls
    a worker that waits to send a result.  A worker's exception is raised
    here with its type and message; a worker that ends without the result of
    a chunk it took raises ChildProcessError naming that chunk.  Every worker
    is reaped, killed first if the run failed, before this returns or raises.
    """
    queue = b"".join(map(_INDEX.pack, range(len(jobs))))
    sent = 0
    tasks_r, tasks_w = os.pipe()
    os.set_blocking(tasks_w, False)
    workers = {}  # result pipe -> [pid, index of the chunk it runs or None]
    parts = [None] * len(jobs)
    done = 0
    try:
        for _ in range(processes):
            out_r, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in (tasks_w, out_r, *workers):
                        os.close(fd)
                    _serve(jobs, tasks_r, out_w)
                    status = 0
                finally:
                    os._exit(status)  # never back into the caller: no atexit hook, no buffer flushed twice
            os.close(out_w)
            workers[out_r] = [pid, None]
        os.close(tasks_r)
        tasks_r = None
        poller = select.poll()
        for fd in workers:
            poller.register(fd, select.POLLIN)
        while done < len(jobs):
            while tasks_w is not None:  # hand out what the pipe takes, PIPE_BUF bytes at a time
                try:
                    sent += os.write(tasks_w, queue[sent:sent + select.PIPE_BUF])  # all or nothing
                except BlockingIOError:
                    break
                if sent == len(queue):
                    os.close(tasks_w)  # the workers read end of file once the queue is empty
                    tasks_w = None
            if not workers:  # a worker ended after it took a chunk but before it said so
                raise ChildProcessError(f"no worker returned the result of chunk {parts.index(None)}")
            for fd, _ in poller.poll():
                message = _read_exactly(fd, _MESSAGE.size)
                if len(message) == _MESSAGE.size:
                    index, size = _MESSAGE.unpack(message)
                    if size < 0:
                        workers[fd][1] = index
                        continue
                    payload = _read_exactly(fd, size)
                    if len(payload) == size:
                        outcome = pickle.loads(payload)
                        if not outcome[0]:
                            raise outcome[1] from Exception(f"in the worker of chunk {index}:\n{outcome[2]}")
                        parts[index] = outcome[1]
                        workers[fd][1] = None
                        done += 1
                        continue
                poller.unregister(fd)  # end of file: the worker has ended
                os.close(fd)
                pid, held = workers.pop(fd)
                status = os.waitpid(pid, 0)[1]
                if held is not None:
                    raise ChildProcessError(f"the worker sampling chunk {held} {_ended(status)}")
        return parts
    finally:
        for fd in (tasks_r, tasks_w):
            if fd is not None:
                os.close(fd)
        for fd, (pid, _) in workers.items():
            if done < len(jobs):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


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
