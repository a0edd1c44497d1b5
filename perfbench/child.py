"""Run one nubes CLI scenario in this fresh interpreter and record its cost.

    python3 child.py LAUNCH_NS RECORD TRACE_DIR -- CLI_ARGS...

LAUNCH_NS is the parent's `time.perf_counter_ns()` just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so `setup_ns` covers interpreter start, `import nubes` and
argument parsing.  The scenario itself is timed from the resolved
configuration to the written output (`cli.run`).  TRACE_DIR is `-` for an
untraced run; otherwise the tracer is installed and spans are written there.
The record is a JSON file written at RECORD.
"""

import json
import multiprocessing
import resource
import sys
import time


def _cpu_s() -> float:
    # pool workers are joined inside cli.run, so RUSAGE_CHILDREN holds them
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def main(argv: list[str]) -> int:
    launch_ns, record_path, trace_dir = int(argv[0]), argv[1], argv[2]
    cli_args = argv[argv.index("--") + 1 :]
    tracer = None
    if trace_dir != "-":
        import tracer as tracing

        tracer = tracing.Tracer(trace_dir)
    import nubes
    from nubes import cli

    if tracer is not None:
        tracing.install(tracer)
    cfg = cli.parse_config(cli_args)
    parsed_ns = time.perf_counter_ns()
    cpu_before = _cpu_s()
    rc = cli.run(cfg)
    done_ns = time.perf_counter_ns()
    cpu_s = _cpu_s() - cpu_before
    if tracer is not None:
        tracer.dump()

    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    import numpy
    import scipy

    record = {
        "rc": rc,
        "setup_s": (parsed_ns - launch_ns) / 1e9,
        "wall_s": (done_ns - parsed_ns) / 1e9,
        "cpu_s": cpu_s,
        "rss_mib": own_kib / 1024,
        "worker_rss_mib": worker_kib / 1024,
        "provenance": {
            "nubes": getattr(nubes, "__version__", None),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
            "bit_generator": type(nubes.sampling.substream(0, 0).bit_generator).__name__,
            "PATH_CHUNK": getattr(nubes.expfun, "PATH_CHUNK", None),
            "SAMPLE_CHUNK": getattr(nubes.chaos, "SAMPLE_CHUNK", None),
            "start_method": multiprocessing.get_start_method(),
        },
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
