"""Run one gcdzeta CLI command in this fresh interpreter and record it.

    python3 child.py RECORD TRACE [CLI ARGS...]

The parent stamps the launch on CLOCK_MONOTONIC; this process stamps the
moment `gcdzeta.cli` is imported, then times `cli.main(argv)` alone.
With TRACE=1 the tracer wraps the library first, writes its spans next
to RECORD and checks that every original is restored.  RECORD receives
one JSON object; the exit code is the CLI's.  With no arguments the
script only imports the CLI, to warm the bytecode and file caches.
"""

import sys
import time


def main() -> int:
    import gcdzeta.cli as cli

    ready_ns = time.monotonic_ns()
    if len(sys.argv) < 3:
        return 0
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter_ns()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else 2
    main_ns = time.perf_counter_ns() - t0
    sys.stdout.flush()

    import json
    import os
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    numpy = sys.modules.get("numpy")
    record = {
        "ready_ns": ready_ns,
        "main_s": main_ns / 1e9,
        "exit": code,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "python": sys.version.split()[0],
        "numpy": getattr(numpy, "__version__", None),
    }
    if tracer is not None:
        record["restored"] = tracer.uninstall()
        record["layers"] = tracer.summary()
        label = os.path.splitext(record_path)[0].split(os.sep)[-2:]
        tracer.write_spans(record_path + ".spans.jsonl", "/".join(label))
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
