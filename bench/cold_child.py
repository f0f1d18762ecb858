"""One traced cold CLI program: ``python3 bench/cold_child.py CLI-ARGS...``.

It does what ``python -m lgadroit.cli CLI-ARGS...`` does, under the
tracer. The lgadroit import becomes a span of its own, with the numpy
import the program makes as its child. The report goes to stdout as
usual. The spans follow on stderr as one line that starts with ``TRACE``.
"""
import sys

from workloads import timed_import

t_start, t_numpy, t_numpy_end, t_imported = timed_import()

import json  # noqa: E402

import lgadroit.cli  # noqa: E402
from tracer import PROGRAM, Tracer  # noqa: E402


def main() -> int:
    tr = Tracer()
    tr.program = 0
    root = tr.open(PROGRAM, start=t_start)
    imported = tr.open("setup.lgadroit_import", start=t_start)
    tr.record("setup.numpy_import", t_numpy, t_numpy_end)
    tr.close(imported, end=t_imported)
    try:
        with tr.installed():
            code = lgadroit.cli.main(sys.argv[1:])
        sys.stdout.flush()
    finally:
        tr.close(root)
        print("TRACE " + json.dumps(tr.export()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
