"""Running ops in-process against the checkout's own ``qmeas``.

Each op calls ``qmeas.cli.main(argv)`` with stdout and stderr captured, so
argparse, the handlers, file I/O and the canonical JSON are timed as a user
pays for them; interpreter start and import are measured apart, as set-up.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"  # scratch space, records and spans of each run
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(Exception):
    """The checkout's own ``qmeas`` sources cannot be run."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def configure_environment() -> None:
    """Cap the BLAS pool at nproc and put the checkout's ``src`` first on the path.

    Must run before numpy is imported; child interpreters inherit both.
    """
    limit = nproc()
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = limit + 1
        if not 1 <= current <= limit:
            os.environ[var] = str(limit)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def require_sources() -> None:
    if not (SRC / "qmeas" / "__init__.py").is_file():
        raise CheckoutError(f"no qmeas sources under {SRC}")


def import_cli():
    """Import ``qmeas.cli`` and check that it is the checkout's own code."""
    require_sources()
    import qmeas
    import qmeas.cli

    if SRC.resolve() not in Path(qmeas.__file__).resolve().parents:
        raise CheckoutError(f"qmeas imported from {qmeas.__file__}, not from {SRC}")
    return qmeas.cli


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qmeas").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "QMEAS_DENSE_CAP": os.environ.get("QMEAS_DENSE_CAP"),
        "machine": platform.machine(),
    }


@dataclass
class OpRecord:
    id: str
    latency_s: float
    code: int | None
    failure: str | None  # None when the op passed its check
    incorrect: bool  # it returned an answer, and the answer was wrong
    warnings: int
    stdout_sha256: str
    files_sha256: dict = field(default_factory=dict)
    bits: int = 0
    values: int = 0


def judge(op: Op, code: int | None, stdout: str, stderr: str, error: str | None):
    """(failure reason or None, whether the output was wrong) for one op."""
    if error is not None:
        return f"raised: {error.strip().splitlines()[-1]}", True
    if code not in op.ok_codes:
        first = stderr.strip().splitlines()[0] if stderr.strip() else ""
        return f"exit {code}: {first}", False
    try:
        op.check(json.loads(stdout)["report"])
    except Exception as exc:  # any error in checking the output fails the op
        return f"{type(exc).__name__}: {exc}", True
    return None, False


def run_op(cli, op: Op, tracer=None) -> OpRecord:
    for name in op.outputs:  # a failing op must not pass on an earlier pass's files
        if os.path.exists(name):
            os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    error = None
    if tracer is not None:
        tracer.op = op.id
    gc.collect()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:  # an op that raises is a failed op, not a failed run
            code = None
            error = traceback.format_exc()
        latency = time.perf_counter() - start
    stdout, stderr = out.getvalue(), err.getvalue()
    failure, incorrect = judge(op, code, stdout, stderr, error)
    files = {}
    for name in op.outputs:
        if os.path.exists(name):
            with open(name, "rb") as fh:
                files[name] = sha256_bytes(fh.read())
    return OpRecord(
        id=op.id,
        latency_s=latency,
        code=code,
        failure=failure,
        incorrect=incorrect,
        warnings=sum(w.category.__name__ == "NumericHealthWarning" for w in caught),
        stdout_sha256=sha256_bytes(stdout.encode()),
        files_sha256=files,
        bits=op.bits if failure is None else 0,
        values=op.values if failure is None else 0,
    )
