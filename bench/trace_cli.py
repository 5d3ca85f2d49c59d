"""Run ``dkimle`` under the span tracer and write the trace to a file.

    python bench/trace_cli.py TRACE_JSON fit --protocol ... --out ...

Forked pool workers inherit the wrappers and ship their spans back with
each result.  Run with PYTHONPATH pointing at the checkout's src/.
"""

import json
import sys

from dkimle import cli

from tracer import Tracer


def main(trace_path: str, argv: list) -> int:
    tracer = Tracer()
    missing = tracer.install()
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        tracer.uninstall()
    exported = tracer.export()
    exported["missing"] = missing
    with open(trace_path, "w") as fh:
        json.dump(exported, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
