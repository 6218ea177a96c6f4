"""Runs one `discrimattr` CLI command in this process with every layer
traced, then writes the spans and counters as JSON.

    PYTHONPATH=src python3 bench/traced_cli.py SPANS_OUT RUN_ID build --config C

Exits with the CLI's exit code.
"""
import json
import sys

from tracing import Tracer, instrument


def main(argv):
    out, run, args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(run)
    with tracer.span("cli.process"):
        with tracer.span("cli.import"):
            from discrimattr import cli
        with instrument(tracer), tracer.span(f"cli.{args[0]}"):
            code = cli.main(args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
