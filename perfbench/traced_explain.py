"""Run the rashpdp CLI with spans recorded around each layer.

    python traced_explain.py TRACE.jsonl RUN_ID -- explain --data ... --out ...

The spans are written to TRACE.jsonl when the CLI returns; the exit code is
the CLI's. `rashpdp` must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import sys

from spans import Tracer, install


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    missing = install(tracer)
    for target in missing:
        print(f"trace: {target} not found, not traced", file=sys.stderr)
    import rashpdp.cli

    try:
        return rashpdp.cli.main(cli_args)
    finally:
        tracer.write_jsonl(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
