"""The package loads numpy with one OpenBLAS thread, unless numpy or the user chose first.

OpenBLAS reads its thread count once, while numpy loads it, so every case
runs a fresh interpreter. The child reports the threads of its own process
(from ``/proc/self/task``) and the environment variables its imports
changed. The cases skip where ``/proc/self/task`` is missing or numpy's BLAS
is not OpenBLAS, and a case that needs a worker thread to tell two runs
apart skips on fewer than 2 CPUs.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# OpenBLAS starts no more threads than the process may run on
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir()
    or "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower(),
    reason="needs /proc/self/task and a numpy built on OpenBLAS")

# the child prints {"threads": [...], "changed": [...]}: the thread count after
# each import line, and the names of the variables the imports set or removed
CHILD = """\
import json, os
before = dict(os.environ)
threads = []
for line in {imports!r}:
    exec(line)
    threads.append(len(os.listdir("/proc/self/task")))
changed = sorted(k for k in before.keys() | os.environ.keys() if before.get(k) != os.environ.get(k))
print(json.dumps({{"threads": threads, "changed": changed}}))
"""

# a cli run that also reports, on stderr, the threads it ran with
CLI_CHILD = """\
import os, sys
import lgadroit.cli
code = lgadroit.cli.main(sys.argv[1:])
sys.stdout.flush()
print(len(os.listdir("/proc/self/task")), file=sys.stderr)
sys.exit(code)
"""


def child_env(**variables: str) -> dict[str, str]:
    """This environment without the three BLAS variables, plus ``variables``, importing ``src``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **variables}


def run_imports(*imports: str, **variables: str) -> dict:
    done = subprocess.run([sys.executable, "-c", CHILD.format(imports=imports)],
                          env=child_env(**variables), capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_import_leaves_one_thread_and_no_variable():
    assert run_imports("import lgadroit.cli") == {"threads": [1], "changed": []}


@pytest.mark.parametrize("variable", BLAS_VARIABLES)
def test_a_variable_the_user_set_is_honored_and_left_as_given(variable):
    out = run_imports("import lgadroit.cli", **{variable: "2"})
    assert out["changed"] == []
    if CPUS >= 2:
        assert out["threads"] == [2]


def test_numpy_imported_first_keeps_its_pool():
    out = run_imports("import numpy", "import lgadroit.cli")
    assert out["changed"] == []
    assert out["threads"][1] == out["threads"][0]
    if CPUS >= 2:
        assert out["threads"][0] >= 2  # numpy's pool was there to keep


@pytest.mark.skipif(CPUS < 2, reason="one CPU gives OpenBLAS one thread either way")
@pytest.mark.parametrize("flags", [
    [],
    ["--p1", "0.002", "--p2", "0.05", "--eps-ro", "0.01", "--gamma", "0.002", "--kick", "0.9"],
], ids=["default", "plausible_noise_kick"])
def test_report_bytes_do_not_depend_on_the_blas_thread_count(flags):
    digests, threads = [], []
    for variables in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        done = subprocess.run([sys.executable, "-c", CLI_CHILD, "--format", "json", *flags],
                              env=child_env(**variables), capture_output=True, check=True)
        digests.append(hashlib.sha256(done.stdout).hexdigest())
        threads.append(int(done.stderr))
    assert threads == [1, 2]
    assert digests[0] == digests[1]
