"""Launch the engine's server with the benchmark's span recorder installed.

    python3 e2ebench/serve_traced.py HOST:PORT DATABASE_DIR DUMP_DIR

Does what ``python -m repro --serve HOST:PORT DATABASE_DIR --durability
batch`` does (recover the directory, then serve until SIGTERM), with the
layer wrappers of :mod:`spans` installed first.  SIGUSR1 writes the spans
so far and the engine's counters to ``DUMP_DIR/trace-<n>.json``; SIGUSR2
removes the wrappers.
"""

import itertools
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

from spans import ENGINE_TARGETS, SERVER_TARGETS, Recorder, engine_counters  # noqa: E402


def main(address: str, directory: str, dump_dir: str) -> None:
    recorder = Recorder().install({**ENGINE_TARGETS, **SERVER_TARGETS})
    recorder.install_server_executor()
    from repro import Database
    from repro.server import serve

    db = Database.open(directory, durability="batch")
    dumps = itertools.count(1)

    def dump(signum, frame):
        recorder.dump(os.path.join(dump_dir, f"trace-{next(dumps)}.json"),
                      {"counters": engine_counters(db)})

    signal.signal(signal.SIGUSR1, dump)
    signal.signal(signal.SIGUSR2, lambda signum, frame: recorder.uninstall())
    host, _, port = address.rpartition(":")
    serve(db, host, int(port))


if __name__ == "__main__":
    main(*sys.argv[1:4])
