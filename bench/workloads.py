"""The benchmark's workloads: seeded inputs, op lists and per-op checks.

An op is one ``qmeas`` CLI invocation.  Each workload derives every input
(stream seeds, rotation angles, classical-test prefixes, ``verify --seed``)
from the workload seed, writes its input files into the run's working
directory, and returns the same op list on every pass.  Checks run after
the op, outside its timed region, and raise when the output is wrong.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles

STREAM_BITS = 100_000
DEEP_BITS = 600_000
TAU_TOL = 1e-12


@dataclass
class Op:
    """One CLI invocation and the check of its payload's ``report``.

    ``check`` raises (``CheckFailed`` or any other error) when the output
    is wrong; it runs only when the exit code is one of ``ok_codes``.
    """

    id: str
    argv: list[str]
    check: Callable[[dict], None]
    ok_codes: tuple[int, ...] = (0,)
    bits: int = 0  # bits sampled, written and battery-tested, credited on success
    values: int = 0  # premeasure values the op requests
    outputs: list[str] = field(default_factory=list)  # files whose digests are recorded


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"qmeas-bench:{workload}:{seed}")


def _angles(rng: random.Random, count: int) -> list[float]:
    # keep |sin 2 theta| >= sin 0.7 so long blocks stay far from underflow
    return [round(rng.uniform(0.35, 1.22), 6) for _ in range(count)]


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True)


# ---------------------------------------------------------------------------
# stream


def check_stream_files(prefix: str, n_bits: int, basis: dict, seed: int) -> None:
    with open(f"{prefix}.bits", encoding="ascii") as fh:
        bits = "".join(fh.read().split())
    expect(len(bits) == n_bits, f"{prefix}.bits holds {len(bits)} bits, want {n_bits}")
    expect(set(bits) <= {"0", "1"}, f"{prefix}.bits holds characters other than 0/1")
    with open(f"{prefix}.json", encoding="ascii") as fh:
        sidecar = json.load(fh)
    expect(sidecar["n_bits"] == n_bits and sidecar["seed"] == seed, "sidecar header mismatch")
    conds = sidecar["conditional_probs"]
    expect(len(conds) == n_bits, f"sidecar holds {len(conds)} conditionals, want {n_bits}")
    for pos, got, want in oracles.stream_conditional_errors(oracles.oracle_for(basis), bits, conds):
        raise CheckFailed(f"conditional at bit {pos} is {got!r}, oracle {want!r}")


def sample_op(op_id: str, seed: int, basis_arg: str, basis: dict, n_bits: int, credit: bool) -> Op:
    prefix = op_id

    def check(report: dict) -> None:
        (entry,) = report["streams"]
        expect(entry["n_bits"] == n_bits, "payload n_bits mismatch")
        expect(entry["paths"] == [f"{prefix}.bits", f"{prefix}.json"], "payload paths mismatch")
        check_stream_files(prefix, n_bits, basis, seed)

    argv = ["sample", "--bits", str(n_bits), "--seed", str(seed), "--basis", basis_arg,
            "--out-prefix", prefix]
    return Op(op_id, argv, check, bits=n_bits if credit else 0,
              outputs=[f"{prefix}.bits", f"{prefix}.json"])


def stream_ops(seed: int) -> list[Op]:
    rng = _rng("stream", seed)
    thetas = _angles(rng, 7)
    _write_json("rot.json", {"kind": "rotation", "theta": thetas})
    bases = [
        ("hadamard", {"kind": "hadamard"}),
        ("standard", {"kind": "standard"}),
        ("rot.json", {"kind": "rotation", "theta": thetas}),
    ]
    ops = [
        sample_op(f"s{i}", rng.randrange(1 << 31), arg, basis, STREAM_BITS, credit=True)
        for i, (arg, basis) in enumerate(bases)
    ]
    files = [f"{op.id}.bits" for op in ops]

    def check_battery(report: dict) -> None:
        expect([r["stream_id"] for r in report["reports"]] == files, "battery stream ids")
        expect(all(r["n_bits"] == STREAM_BITS for r in report["reports"]), "battery n_bits")
        expect(report["aggregate"]["n_streams"] == len(files), "aggregate stream count")

    # exit 1 means the aggregate flagged a test: a statistical result, not a failure
    ops.append(Op("battery", ["battery", *files, "--aggregate"], check_battery,
                  ok_codes=(0, 1)))
    # The deep op reaches blocks n >= 1023, where the block measures underflow.
    ops.append(sample_op("deep", rng.randrange(1 << 31), "hadamard", {"kind": "hadamard"},
                         DEEP_BITS, credit=False))
    return ops


# ---------------------------------------------------------------------------
# exact


def check_table(report: dict, depth: int, want: dict[str, float]) -> None:
    table = report["table"]
    expect(len(table) == 1 << depth and table.keys() == want.keys(), f"depth-{depth} table keys")
    for tau, value in table.items():
        expect(abs(value - want[tau]) <= 1e-9 * want[tau] + 1e-300,
               f"table entry {tau} is {value!r}, oracle {want[tau]!r}")
    expect(abs(report["sum"] - 1.0) <= TAU_TOL, f"table sums to {report['sum']!r}")
    expect(abs(sum(table.values()) - 1.0) <= TAU_TOL, "table entries do not sum to 1")


def exact_ops(seed: int) -> list[Op]:
    rng = _rng("exact", seed)
    thetas = _angles(rng, 5)
    _write_json("rot.json", {"kind": "rotation", "theta": thetas})
    hadamard = oracles.HadamardOracle()
    # oracle tables are built on first use, so set-up does not pay for them
    rotation_table = functools.cache(
        lambda: oracles.premeasure_table(oracles.RotationOracle(thetas), 10))
    hadamard_table = functools.cache(lambda: oracles.premeasure_table(hadamard, 14))

    def check_oracle_compare(report: dict) -> None:
        expect(report["depth"] == 11, "oracle-compare depth")
        expect(report["oracle_max_deviation"] <= 1e-10,
               f"oracle_max_deviation {report['oracle_max_deviation']!r}")

    def check_rotation(report: dict) -> None:
        check_table(report, 10, rotation_table())
        expect(report["additivity_max"] <= TAU_TOL, f"additivity_max {report['additivity_max']!r}")

    def check_factored(report: dict) -> None:
        check_table(report, 14, hadamard_table())
        head = sum(v for tau, v in report["table"].items() if tau.startswith("00000"))
        expect(oracles.premeasure_table(hadamard, 5)["00000"] == 11 / 256, "oracle 11/256")
        expect(abs(head - 11 / 256) <= TAU_TOL, f'Hadamard "00000" marginal is {head!r}')

    def check_state(report: dict) -> None:
        expect(report["coherence"]["ok"] and report["density"]["ok"], "coherence/density not ok")
        eigen = report["eigen"]
        expect(eigen["block_index"] == 0 and eigen["block_size"] == 5, "eigen block")
        expect(eigen["groups"] == oracles.eigen_groups(5), f"eigen groups {eigen['groups']}")
        expect(eigen["zero_multiplicity"] == oracles.corner_count(5), "zero multiplicity")

    oracle11 = Op("oracle11", ["measure", "--basis", "hadamard", "--oracle-compare", "--depth", "11"],
                  check_oracle_compare, values=2 * 2048)
    rot10 = Op("rot10", ["measure", "--basis", "rot.json", "--tau-depth", "10", "--additivity"],
               check_rotation, values=(1 << 11) - 1)  # tables at depths 10..0
    factored14 = Op("factored14",
                    ["measure", "--basis", "hadamard", "--tau-depth", "14", "--path", "factored"],
                    check_factored, values=1 << 14)
    state11 = Op("state11", ["state", "--paper-rho", "--check-depth", "11", "--eigen", "5"],
                 check_state)
    (quadratic, lift), cheap = certify_ops(seed)
    # Most certification ops take milliseconds; running them five times a
    # pass, spread between the heavy ops, gives their medians samples taken
    # at different moments.
    return [*cheap, oracle11, quadratic, *cheap, rot10, state11, *cheap, lift, *cheap,
            factored14, *cheap]


# ---------------------------------------------------------------------------
# certification, run inside the exact workload


def certify_ops(seed: int) -> tuple[list[Op], list[Op]]:
    """(heavy ops, cheap ops): lemma checks, the witness test and a lifted test."""
    rng = _rng("certify", seed)
    prefixes = sorted({format(x, "010b") for x in rng.sample(range(1 << 10), 512)})
    _write_json("gen.json", {"levels": {"1": {"10": prefixes}}})
    lifted_mass = functools.cache(
        lambda: sum(oracles.premeasure_table(oracles.HadamardOracle(), 10)[p] for p in prefixes))

    def check_passed(report: dict) -> None:
        expect(report["passed"] is True, f"{report['lemma_id']} did not pass")
        oracle_dev = report["parameters"].get("oracle_max_deviation")
        expect(oracle_dev is None or oracle_dev <= 1e-10, f"dense oracle deviation {oracle_dev!r}")

    def check_witness(report: dict) -> None:
        expect(abs(report["evaluation"] - 1.0) <= TAU_TOL, f"evaluation {report['evaluation']!r}")
        expect(report["tau"] < 2.0 ** -3, f"tau {report['tau']!r} not below 2^-3")
        expect(report["failure"]["fails_at_order"] is True, "witness does not fail the state")

    def check_mixed(report: dict) -> None:
        entries = report["failure"]["entries"]
        expect([e["level"] for e in entries] == [1, 2, 3], "eval levels")
        for e in entries:
            # the maximally mixed state meets each projection in its rank density
            expect(abs(e["value"] - e["tau"]) <= TAU_TOL, f"level {e['level']} value != tau")
            expect(e["tau"] < 2.0 ** -e["level"], f"level {e['level']} tau not below 2^-m")

    def check_lift(report: dict) -> None:
        stage = report["levels"]["1"]["10"]
        expect(stage["rank"] == 512 and stage["tau"] == 0.5, "lifted rank/tau")
        expect(stage["classical_measure"] == 0.5, "classical measure")
        expect(abs(stage["evaluation"] - lifted_mass()) <= 1e-10,
               f"lifted evaluation {stage['evaluation']!r}, oracle {lifted_mass()!r}")

    verify_seed = str(rng.randrange(1 << 31))
    quadratic = Op("quadratic", ["verify", "quadratic-bounds", "--n", "10", "--seed", verify_seed],
                   check_passed)
    lift = Op("lift", ["qmlt", "lift", "--mlt", "gen.json", "--basis", "hadamard",
                       "--state", "paper-rho"], check_lift)
    cheap = [
        Op("pairing", ["verify", "kron-pairing", "--n", "10", "--seed", verify_seed], check_passed),
        Op("corner", ["verify", "corner-block", "--n", "10", "--seed", verify_seed], check_passed),
        Op("family", ["verify", "family", "--canonical", "30"], check_passed),
        Op("witness", ["qmlt", "witness", "--m", "3"], check_witness),
        Op("eval", ["qmlt", "eval", "--witness", "3", "--state", "mixed"], check_mixed),
    ]
    return [quadratic, lift], cheap


WORKLOADS = {"stream": stream_ops, "exact": exact_ops}


def build(workload: str, seed: int) -> list[Op]:
    """Write the workload's input files into the working directory; return its ops."""
    return WORKLOADS[workload](seed)
