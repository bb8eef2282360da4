"""Self-test of the benchmark's checks: corrupted outputs must fail their op.

    python3 bench/selftest.py

Runs real ops through the same ``run_op`` path as the benchmark, with a
CLI stand-in that corrupts one thing in the genuine output: a sidecar
conditional, one table entry, the witness evaluation.  It also runs an op
that exits non-zero and one that raises.  Each corrupted case must be
reported as a failed op; each untouched control must pass.  Exits 1 when
any case is misjudged.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace

import harness
import workloads


class Corrupting:
    """Stands in for ``qmeas.cli``: runs the real ``main``, then corrupts."""

    def __init__(self, cli, corrupt_payload=None, corrupt_files=None, exit_code=None):
        self.cli = cli
        self.corrupt_payload = corrupt_payload
        self.corrupt_files = corrupt_files
        self.exit_code = exit_code

    def main(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(argv)
        out = buf.getvalue()
        if self.corrupt_payload is not None:
            doc = json.loads(out)
            self.corrupt_payload(doc["report"])
            out = json.dumps(doc) + "\n"
        sys.stdout.write(out)
        if self.corrupt_files is not None:
            self.corrupt_files()
        return code if self.exit_code is None else self.exit_code


class Raising:
    def main(self, argv):
        raise RuntimeError("injected failure")


def nudge_conditional(path: str, index: int, factor: float):
    def corrupt():
        with open(path, encoding="ascii") as fh:
            sidecar = json.load(fh)
        sidecar["conditional_probs"][index] *= factor
        with open(path, "w", encoding="ascii") as fh:
            json.dump(sidecar, fh)

    return corrupt


def perturb_table(report):
    tau = next(iter(report["table"]))
    report["table"][tau] *= 1.0 + 1e-6


def lower_evaluation(report):
    report["evaluation"] = 1.0 - 1e-9


def cases(cli):
    stream = {op.id: op for op in workloads.build("stream", 0)}
    exact = {op.id: op for op in workloads.build("exact", 0)}
    sample, table, witness = stream["s0"], exact["factored14"], exact["witness"]
    sidecar = sample.outputs[1]
    missing = workloads.Op("missing", ["measure", "--basis", "missing.json", "--tau", "0"],
                           check=lambda report: None)
    # (label, op, cli stand-in, whether the op must fail)
    return [
        ("sample, untouched", sample, cli, False),
        ("sample, block-final conditional nudged", sample,
         Corrupting(cli, corrupt_files=nudge_conditional(sidecar, 4, 1.0 + 1e-6)), True),
        ("sample, non-final conditional nudged", sample,
         Corrupting(cli, corrupt_files=nudge_conditional(sidecar, 7, 1.0 + 1e-12)), True),
        ("table, untouched", table, Corrupting(cli), False),
        ("table, one entry perturbed", table, Corrupting(cli, corrupt_payload=perturb_table), True),
        ("witness, untouched", witness, cli, False),
        ("witness, evaluation below 1", witness,
         Corrupting(cli, corrupt_payload=lower_evaluation), True),
        ("witness, exit 2 after a correct payload", witness, Corrupting(cli, exit_code=2), True),
        ("missing input file, exit 2", missing, cli, True),
        ("op raises", replace(witness, id="raises"), Raising(), True),
    ]


def main() -> int:
    harness.configure_environment()
    cli = harness.import_cli()
    home = os.getcwd()
    harness.RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=harness.RUNS)
    os.chdir(workdir)
    misjudged = 0
    try:
        for label, op, runner, must_fail in cases(cli):
            record = harness.run_op(runner, op)
            ok = (record.failure is not None) == must_fail
            misjudged += not ok
            verdict = record.failure or "passed"
            print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}")
    finally:
        os.chdir(home)
        shutil.rmtree(workdir)
    print(f"{misjudged} misjudged")
    return 1 if misjudged else 0


if __name__ == "__main__":
    sys.exit(main())
