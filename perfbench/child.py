"""CLI invocations in fresh processes: a fork server for ``gsobolev.cli.main``.

Usage::

    python3 child.py SRC_DIR

Imports ``gsobolev.cli`` once, then reads one JSON request per line on
standard input, ``{"argv", "result", "trace", "log"}``, and for each forks a
process that runs ``gsobolev.cli.main(argv)`` with its standard output and
error appended to ``log``.  Every invocation starts from the same state, the
server's just after the imports, as a new interpreter would, but without
paying for interpreter start and imports again.  The forked process times
``cli.main`` alone and writes ``{"rc", "wall_s", "peak_rss_mb"}`` to
``result``.  With a ``trace`` path, the layer wrappers are installed first
and the span summary is written there after ``main`` returns, outside the
timed window.  The server answers each request with one line,
``{"status": <exit code of the forked process>}``, and exits at the end of
its input.
"""

import json
import os
import resource
import sys
import time
import traceback


def peak_rss_mb() -> float:
    """High-water RSS of this process.  A forked process starts with the
    server's resident pages, as a new interpreter would after the same
    imports; ``ru_maxrss`` may count more than that, so read ``VmHWM``
    first."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def invoke(request: dict) -> None:
    """Run one request in the forked process; never returns."""
    import gsobolev.cli

    code = 1
    try:
        log = os.open(request["log"], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)
        null = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null, 0)
        os.close(null)
        recorder = None
        if request["trace"]:
            import tracer

            recorder = tracer.SpanRecorder()
            recorder.install()
        t0 = time.perf_counter()
        try:
            rc = gsobolev.cli.main(request["argv"])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        wall_s = time.perf_counter() - t0
        with open(request["result"], "w", encoding="utf-8") as fh:
            json.dump({"rc": rc, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb()}, fh)
        if recorder is not None:
            with open(request["trace"], "w", encoding="utf-8") as fh:
                json.dump(recorder.summary(), fh)
        code = 0
    except BaseException:  # noqa: BLE001 - reported in the log and the exit code
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: child.py SRC", file=sys.stderr)
        return 2
    sys.path.insert(0, sys.argv[1])
    import gsobolev.cli  # noqa: F401 - imported once, before any fork
    import tracer  # noqa: F401

    for line in iter(sys.stdin.readline, ""):
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            invoke(request)
        _, status = os.waitpid(pid, 0)
        sys.stdout.write(json.dumps({"status": os.waitstatus_to_exitcode(status)}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
