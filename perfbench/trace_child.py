"""Run one otlab CLI command with span recording installed.

Usage: python3 perfbench/trace_child.py SPANS_OUT -- <otlab arguments>

The traced construct_verify_7c run starts its CLI children through this
file instead of ``python3 -m otlab.cli``; the spans go to SPANS_OUT as
JSON and the exit code is the CLI's own.
"""

import sys

import bench_trace


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    tracer = bench_trace.Tracer()
    bench_trace.install(tracer)
    from otlab import cli

    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
