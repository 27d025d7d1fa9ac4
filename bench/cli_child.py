"""`python -m ivp.cli ARGS` under the tracer.

Prints what the command prints and exits with its code; then appends
one JSON line with the call's per-layer figures and spans to the file
named by IVP_BENCH_TRACE_FILE.
"""

import json
import os
import sys
from time import perf_counter

_T0 = perf_counter()
import ivp.cli  # noqa: E402
IMPORT_S = perf_counter() - _T0

from calltrace import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = ivp.cli.main(sys.argv[1:])
    except SystemExit as exc:             # argparse usage errors
        code = exc.code
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(os.environ["IVP_BENCH_TRACE_FILE"], "a") as fh:
        fh.write(json.dumps({
            "import_s": IMPORT_S,
            "totals": tracer.totals(),
            "evals_in_intval": tracer.calls_under(
                "polys.RatPoly.eval_at", "membership.is_integer_valued"),
            "spans": tracer.spans,
        }) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
