"""Start ``repro serve`` for the benchmark, optionally with layer tracing.

Usage::

    python3 perfbench/serve.py --root <checkout> [--trace-out FILE] \\
        -- --port 0 --workers 2 --executor thread --cache-dir DIR

Everything after ``--`` goes to ``repro serve`` unchanged, so untraced
runs execute exactly the CLI daemon.  With ``--trace-out`` the layer
wrappers of :mod:`tracing` are installed first, every job and graph
operation gets its own trace id, and the spans are written to FILE once
SIGTERM has drained the daemon.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _trace_requests(tracer) -> None:
    """Open one span per job / graph operation, tagged with its id."""
    from repro.service.scheduler import SparsifierService

    execute = SparsifierService._execute
    graph_op = SparsifierService._graph_op

    def traced_execute(self, job):
        tracer.set_trace(job.id)
        with tracer.span("service.execute"):
            return execute(self, job)

    def traced_graph_op(self, payload):
        tracer.set_trace(f"{payload.get('graph_id')}:{payload.get('op')}")
        with tracer.span("service.graph_op"):
            return graph_op(self, payload)

    SparsifierService._execute = traced_execute
    SparsifierService._graph_op = traced_graph_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True,
                        help="checkout holding src/repro")
    parser.add_argument("--trace-out", default=None,
                        help="write the daemon's spans here on exit")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.root) / "src"))
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.cli import main as repro_main

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        _trace_requests(tracer)
        tracer.enabled = True
    code = repro_main(["serve", *serve_args])
    if tracer is not None:
        tracer.enabled = False
        tracer.write(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
