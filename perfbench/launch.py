"""Traced stand-in for ``python -m pbrcheck``.

Usage: ``python launch.py SPANS_FILE ARG...``.  Times ``import pbrcheck.cli``
(with the ``linprog`` hook installed first), wraps the layer entry points,
calls ``cli.main(ARGS)`` and writes the spans to SPANS_FILE before exiting
with the CLI's exit code.  Needs ``src`` on PYTHONPATH, like the plain CLI.
"""

import sys

import tracing


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    tracing.hook_linprog(rec)
    span = rec.open("import.cli")
    import pbrcheck.cli as cli

    rec.close(span)
    tracing.wrap_pbrcheck(rec)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
