"""qmeas benchmark: times CLI invocations end to end, and layer by layer.

    python3 bench/run.py --workload {stream,exact,all} --seed N
                         --seconds S --trace {0,1}

Ops of one workload run as a closed loop: one client in one process, each
op starting after the previous one returns, whole passes over the op list
until the time is spent.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs untraced passes for half the time and traced passes for
the other half, and reports the per-layer metrics.  Every op's output is
checked outside its timed region.  The last line of stdout is one JSON
object; a record of the run (provenance, per-op results) and, when traced,
the spans are written under ``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import corpus
import harness
import tracing
import workloads

SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 60
IMPORT_NAMES = {"qmeas": "import.qmeas_s", "qmeas.randlab": "import.qmeas.randlab_s",
                "scipy.stats": "import.scipy_stats_s"}


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Launch-to-ready time of a fresh interpreter for this workload."""
    workdir.mkdir()
    probe = Path(__file__).with_name("setup_probe.py")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(probe), workload, str(seed)], cwd=workdir,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir)
    if line.strip() != "ready" or proc.returncode != 0:
        raise harness.CheckoutError(f"set-up probe exited {proc.returncode} without getting ready")
    return ready


def import_times(workdir: Path) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime`` in a fresh interpreter.

    A package counts with every module below it.  ``scipy.stats`` has no
    line of its own (scipy loads it lazily), so its figure is the sum over
    its submodules' outermost lines.
    """
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qmeas"], cwd=workdir,
                         capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if out.returncode != 0:
        raise harness.CheckoutError(f"import probe failed: {out.stderr[-300:]}")
    entries = []  # (depth, cumulative seconds, module), children before parents
    for line in out.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( +)(\S+)\s*$", line)
        if m:
            entries.append((len(m.group(2)), int(m.group(1)) / 1e6, m.group(3)))
    times = {}
    for package, metric in IMPORT_NAMES.items():
        inside = lambda name: name == package or name.startswith(package + ".")
        total = 0.0
        for i, (depth, cumulative, name) in enumerate(entries):
            parent = next((e for e in entries[i + 1 :] if e[0] < depth), None)
            if inside(name) and (parent is None or not inside(parent[2])):
                total += cumulative
        times[metric] = total
    return times


def run_passes(cli, ops, budget: float, min_passes: int, tracer=None) -> list[list]:
    """Whole passes over the ops, another one starting while the time used
    plus half a pass stays within ``budget`` seconds, so runs end near it."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append([harness.run_op(cli, op, tracer) for op in ops])
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 0.5 / len(passes)) > budget:
            return passes


def op_medians(passes) -> list[float]:
    """Each op's median latency over all its runs, in op order."""
    latencies: dict[str, list[float]] = {}
    for r in (r for p in passes for r in p):
        latencies.setdefault(r.id, []).append(r.latency_s)
    return [statistics.median(v) for v in latencies.values()]


def end_to_end(passes, setups: list[float], workload: str) -> dict:
    """End-to-end metrics: ``wall_s`` is one pass with every op at its median."""
    records = [r for p in passes for r in p]
    medians = op_medians(passes)
    wall = sum(medians)
    n = len(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (wall, "s", n),
        "op_p50_s": (statistics.median(medians), "s", len(records)),
        "op_p90_s": (statistics.quantiles(medians, n=10, method="inclusive")[8], "s",
                     len(records)),
        "fail_frac": (sum(r.failure is not None for r in records) / len(records), "frac",
                      len(records)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    if workload == "stream":
        metrics["bits_per_s"] = (sum(r.bits for r in records) / n / wall, "1/s", n)
    if workload == "exact":
        metrics["values_per_s"] = (sum(r.values for r in records) / n / wall, "1/s", n)
    return metrics


def per_layer(untraced, traced, tracer: tracing.Tracer, imports: dict, changed: int,
              checked: int) -> dict:
    n = len(traced)
    records = [r for p in untraced + traced for r in p]
    metrics = {}
    for name, agg in tracer.aggregate().items():
        metrics[f"{name}.calls"] = (agg["calls"] / n, "count", n)
        metrics[f"{name}.self_s"] = (agg["self_s"] / n, "s", n)
    for name in ("measurement.sample_bits.bits", "randlab.run_battery.bits",
                 "jsonio.canonical_dumps.bytes"):
        metrics[name] = (tracer.counters[name] / n, "bytes" if "bytes" in name else "count", n)
    metrics["states.prefix_density.max_qubits"] = (
        tracer.counters["states.prefix_density.max_qubits"], "count", n)
    metrics["states.prefix_density.bytes"] = (
        tracer.counters["states.prefix_density.bytes"] / n, "bytes-computed", n)
    for module in tracing.TRACED:
        metrics[f"{module}.raised"] = (tracer.raised[module] / n, "count", n)
    metrics["health.numeric_warnings"] = (
        sum(r.warnings for p in traced for r in p) / n, "count", n)
    overhead = sum(op_medians(traced)) / sum(op_medians(untraced)) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac", n + len(untraced))
    metrics["cli.digest_changed"] = (changed, "count", len(records))
    metrics["cli.digest_checked"] = (checked, "count", len(records))
    metrics["fail_frac"] = (sum(r.failure is not None for r in records) / len(records), "frac",
                            len(records))
    for name, value in imports.items():
        metrics[name] = (value, "s", 1)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    harness.require_sources()
    run_dir = harness.RUNS / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setups = [] if traced else [time_setup(workload, seed, run_dir / f"setup{i}")
                                for i in range(SETUP_REPEATS)]
    imports = import_times(run_dir) if traced else {}
    cli = harness.import_cli()
    ops_dir = run_dir / "ops"
    ops_dir.mkdir()
    home = Path.cwd()
    os.chdir(ops_dir)
    try:
        ops = workloads.build(workload, seed)
        if traced:
            untraced = run_passes(cli, ops, seconds / 2, 1)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced_passes = run_passes(cli, ops, seconds / 2, 1, tracer)
        else:
            untraced, traced_passes = run_passes(cli, ops, seconds, 2), []
    finally:
        os.chdir(home)
        shutil.rmtree(ops_dir)
    passes = untraced + traced_passes
    records = [r for p in passes for r in p]
    checked, changed = corpus.changed_ops(corpus.load(), workload, seed, records)
    if traced:
        metrics = per_layer(untraced, traced_passes, tracer, imports, len(changed), len(checked))
        tracer.write_spans(run_dir / "spans.jsonl")
    else:
        metrics = end_to_end(untraced, setups, workload)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "provenance": harness.provenance(),
        "passes": len(passes),
        "setup_s": setups,
        "digest_changed": sorted(changed),
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "ops": [[asdict(r) for r in p] for p in passes],
    }
    with open(run_dir / "record.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    return {
        "record": record,
        "correct": not any(r.incorrect for r in records),
        "attempted": len(records),
        "failed": sum(r.failure is not None for r in records),
        "failures": sorted({f"{r.id}: {r.failure}" for r in records if r.failure}),
    }


# metrics in the final JSON line; the summary lines also show the rest
END_TO_END = ("setup_s", "wall_s", "op_p50_s", "op_p90_s", "peak_rss_mb")


def summary_lines(workload: str, outcome: dict) -> list[str]:
    record = outcome["record"]
    lines = [f"# {workload}: seed {record['seed']}, trace {record['trace']}, "
             f"{record['passes']} passes, {outcome['attempted']} ops, {outcome['failed']} failed"]
    lines.append("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, m in record["metrics"].items():
        lines.append(f"{workload:8s} {name:52s} {m['value']:14.6g} {m['unit']:14s} n={m['n']}")
    lines.extend(f"# failed op {f}" for f in outcome["failures"])
    return lines


def result_line(outcome: dict, names) -> dict:
    metrics = outcome["record"]["metrics"]
    return {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in names},
    }


def run_all(args) -> int:
    """Each workload in its own interpreter, so set-up and peak memory stay its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write("".join(out.stdout.splitlines(keepends=True)[:-1]))
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        result = json.loads(out.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.configure_environment()
    if args.workload == "all":
        return run_all(args)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(summary_lines(args.workload, outcome)))
    names = outcome["record"]["metrics"] if args.trace else END_TO_END
    print(json.dumps(result_line(outcome, names), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
