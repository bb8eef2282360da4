"""Batch command-line driver.

Subcommands mirror the package layout: ``state`` builds and checks states,
``measure`` computes premeasure tables, ``sample`` draws bit streams,
``battery`` runs the statistical tests, ``qmlt`` lifts and evaluates
staged tests, and ``verify`` runs the lemma checks.  Every report is a
canonical-JSON payload carrying the invoking config and its hash, so
identical invocations produce identical bytes.

Exit codes: 0 success, 1 a check or lemma failed, 2 bad input (including an
exceeded block budget), 3 the dense cap was exceeded.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import qmlt as qmlt_mod
from . import verify as verify_mod
from .errors import BadQuery, BudgetExceeded, CapExceeded, QmeasError
from .jsonio import canonical_dumps, config_hash, load_document
from .measurement import (
    MeasurementSystem,
    additivity_check,
    premeasure,
    premeasure_table,
    sample_bits,
)
from .randlab import aggregate, run_battery
from .states import (
    FactoredState,
    check_coherence,
    check_density,
    eigenvalue_groups,
    parse_state_spec,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


# ---------------------------------------------------------------------------
# shared loaders


def _load_state(token: str):
    if token in ("paper-rho", "paper_rho"):
        return FactoredState.witness_state()
    if token == "mixed":
        return FactoredState.maximally_mixed()
    return parse_state_spec(load_document(token))


def _load_basis(token: str) -> MeasurementSystem:
    if token == "standard":
        return MeasurementSystem.standard()
    if token == "hadamard":
        return MeasurementSystem.hadamard()
    return MeasurementSystem.from_spec(load_document(token))


def _state_label(state) -> str:
    return getattr(state, "label", state.__class__.__name__)


def _parse_seeds(args) -> list[int]:
    if args.seeds is not None:
        lo, sep, hi = args.seeds.partition("..")
        if not sep:
            raise BadQuery(f"--seeds wants A..B, got {args.seeds!r}")
        try:
            first, last = int(lo), int(hi)
        except ValueError:
            raise BadQuery(f"--seeds wants integer endpoints, got {args.seeds!r}") from None
        if last < first:
            raise BadQuery(f"--seeds range {args.seeds!r} is empty")
        return list(range(first, last + 1))
    return [args.seed]


# ---------------------------------------------------------------------------
# state


def cmd_state(args) -> tuple[dict, int]:
    if args.general is not None:
        h_doc = load_document(args.general[0])
        g_doc = load_document(args.general[1])
        state = parse_state_spec(
            {
                "kind": "general",
                "h": h_doc.get("h", h_doc),
                "g": g_doc.get("g", g_doc),
            }
        )
    elif args.mixed:
        state = FactoredState.maximally_mixed()
    elif args.state is not None:
        state = _load_state(args.state)
    else:
        state = FactoredState.witness_state()
    report: dict = {}
    code = EXIT_OK
    if args.check_depth is not None:
        coherence = check_coherence(state, args.check_depth)
        density = check_density(state, args.check_depth)
        report["coherence"] = coherence.payload()
        report["density"] = density.payload()
        if not (coherence.ok and density.ok):
            code = EXIT_CHECK_FAILED
    if args.eigen is not None:
        report["eigen"] = _eigen_report(state, args.eigen)
    report["state"] = state.describe() if hasattr(state, "describe") else _state_label(state)
    return report, code


def _eigen_report(state, block_size: int) -> dict:
    if not isinstance(state, FactoredState):
        raise BadQuery("eigen summaries need a factored state")
    # block sizes grow by one in the built-in and general families and stay 1 in
    # the mixed state, so the search ends at the first block no larger than the last
    index, previous = 0, 0
    while True:
        try:
            block = state.block(index)
        except BadQuery:  # a finite state ran out of blocks
            raise BadQuery(f"state has no block of size {block_size}") from None
        if block.n == block_size:
            break
        if block.n > block_size or block.n <= previous:
            raise BadQuery(f"state has no block of size {block_size}")
        index, previous = index + 1, block.n
    groups = eigenvalue_groups(block)
    return {
        "block_size": block_size,
        "block_index": index,
        "groups": [
            {"kind": g.kind, "value": g.value, "multiplicity": g.multiplicity}
            for g in groups
        ],
        "zero_multiplicity": sum(g.multiplicity for g in groups if g.value == 0.0),
    }


# ---------------------------------------------------------------------------
# measure


def _table_keys(depth: int) -> list[str]:
    """Bit strings of all table indices, qubit 1 (the least-significant bit) first."""
    if depth == 0:
        return [""]
    return [format(idx, f"0{depth}b")[::-1] for idx in range(1 << depth)]


def cmd_measure(args) -> tuple[dict, int]:
    state = _load_state(args.state)
    system = _load_basis(args.basis)
    report: dict = {}
    if args.tau:
        values = {}
        for tau in args.tau:
            values[tau] = premeasure(state, system, tau, args.path)
        report["values"] = values
        if args.additivity:
            report["additivity_max"] = max(
                additivity_check(state, system, tau, args.path) for tau in args.tau
            )
    if args.tau_depth is not None:
        table = premeasure_table(state, system, args.tau_depth, args.path)
        report["table"] = dict(zip(_table_keys(args.tau_depth), table.tolist()))
        report["sum"] = float(np.sum(table))
        if args.additivity:
            report["additivity_max"] = _table_additivity(state, system, args.tau_depth, args.path)
    if args.oracle_compare:
        depth = args.depth if args.depth is not None else args.tau_depth
        if depth is None:
            raise BadQuery("--oracle-compare needs --depth")
        factored = premeasure_table(state, system, depth, "factored")
        dense = premeasure_table(state, system, depth, "dense")
        report["oracle_max_deviation"] = float(np.max(np.abs(factored - dense)))
        report["depth"] = depth
    if not report:
        raise BadQuery("measure wants --tau, --tau-depth or --oracle-compare")
    return report, EXIT_OK


def _table_additivity(state, system: MeasurementSystem, depth: int, path: str) -> float:
    worst = 0.0
    upper = premeasure_table(state, system, depth, path)
    for j in range(depth - 1, -1, -1):
        lower = premeasure_table(state, system, j, path)
        split = upper.reshape(2, 1 << j)
        worst = max(worst, float(np.max(np.abs(lower - split[0] - split[1]))))
        upper = lower
    return worst


# ---------------------------------------------------------------------------
# sample / battery


def cmd_sample(args) -> tuple[dict | None, int]:
    state = _load_state(args.state)
    system = _load_basis(args.basis)
    if args.bits < 0:
        raise BadQuery(f"--bits must be non-negative, got {args.bits}")
    seeds = _parse_seeds(args)
    entries = []
    for seed in seeds:
        sample = sample_bits(state, system, args.bits, seed)
        if args.out_prefix is None:
            sys.stdout.write(sample.bit_string() + "\n")
        else:
            prefix = args.out_prefix if len(seeds) == 1 else f"{args.out_prefix}_s{seed}"
            paths = sample.write(prefix)
            entries.append(
                {
                    "seed": seed,
                    "n_bits": len(sample),
                    "paths": list(paths),
                    "conditional_product": sample.conditional_product(),
                }
            )
    if args.out_prefix is None:
        return None, EXIT_OK
    return {"streams": entries}, EXIT_OK


def _battery_streams(args) -> list[tuple[str, str]]:
    streams = []
    sources = args.files or ["-"]
    for src in sources:
        if src == "-":
            for i, line in enumerate(sys.stdin):
                line = line.strip()
                if line:
                    streams.append((f"stdin:{i}", line))
        else:
            with open(src, "r", encoding="ascii") as fh:
                text = "".join(fh.read().split())
            streams.append((src, text))
    return streams


def cmd_battery(args) -> tuple[dict, int]:
    streams = _battery_streams(args)
    reports = [
        run_battery(bits, alpha=args.alpha, stream_id=stream_id)
        for stream_id, bits in streams
    ]
    report: dict = {"reports": [r.payload() for r in reports]}
    code = EXIT_OK
    if args.aggregate:
        summary = aggregate(reports)
        report["aggregate"] = summary.payload()
        if summary.flagged:
            code = EXIT_CHECK_FAILED
    return report, code


# ---------------------------------------------------------------------------
# qmlt


def cmd_qmlt_witness(args) -> tuple[dict, int]:
    cls, last = qmlt_mod.build_witness_test(args.m, block_budget=args.budget)
    state = _load_state(args.state)
    test = qmlt_mod.QuantumMLT({args.m: cls})
    test.validate_tau_bounds()
    failure = qmlt_mod.failure_report(test, state, delta=args.delta)
    (entry,) = failure.entries  # the one level, at the witness depth
    report = {
        "m": args.m,
        "n_blocks": last,
        "depth": entry.depth,
        "rank": entry.rank,
        "tau": entry.tau,
        "evaluation": entry.value,
        "failure": failure.payload(),
    }
    return report, EXIT_OK


def cmd_qmlt_lift(args) -> tuple[dict, int]:
    classical = qmlt_mod.ClassicalMLT.from_doc(load_document(args.mlt))
    system = _load_basis(args.basis)
    lifted = qmlt_mod.lift_classical_mlt(classical, system)
    lifted.validate_tau_bounds()
    state = _load_state(args.state) if args.state is not None else None
    levels = {}
    for m, cls in sorted(lifted.levels.items()):
        stages = {}
        classical_stages = classical.levels[m].stages
        for depth in cls.depths():
            entry = {
                "rank": cls.rank_at(depth),
                "tau": cls.tau_at(depth),
                "classical_measure": (
                    classical.levels[m].uniform_measure_at(depth)
                    if depth in classical_stages
                    else 0.0
                ),
            }
            if state is not None:
                entry["evaluation"] = qmlt_mod.evaluate_state(cls, state, depth)
            stages[str(depth)] = entry
        levels[str(m)] = stages
    report: dict = {"levels": levels}
    if state is not None:
        report["failure"] = qmlt_mod.failure_report(lifted, state, delta=args.delta).payload()
    return report, EXIT_OK


def cmd_qmlt_eval(args) -> tuple[dict, int]:
    if args.witness is not None:
        test = qmlt_mod.build_witness_mlt(range(1, args.witness + 1), block_budget=args.budget)
    elif args.mlt is not None:
        classical = qmlt_mod.ClassicalMLT.from_doc(load_document(args.mlt))
        test = qmlt_mod.lift_classical_mlt(classical, _load_basis(args.basis))
    else:
        raise BadQuery("eval wants --witness M or --mlt FILE")
    test.validate_tau_bounds()
    state = _load_state(args.state)
    failure = qmlt_mod.failure_report(test, state, delta=args.delta)
    return {"failure": failure.payload()}, EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify_kron_pairing(args) -> tuple[dict, int]:
    report = verify_mod.verify_kron_pairing(n=args.n, trials=args.trials, seed=args.seed)
    return report.payload(), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_verify_quadratic(args) -> tuple[dict, int]:
    report = verify_mod.verify_quadratic_bounds(n=args.n, trials=args.trials, seed=args.seed)
    return report.payload(), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_verify_corner(args) -> tuple[dict, int]:
    report = verify_mod.verify_corner_block_bound(n=args.n, trials=args.trials, seed=args.seed)
    return report.payload(), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_verify_family(args) -> tuple[dict, int]:
    if args.spec is not None:
        spec = verify_mod.FamilySpec.from_doc(load_document(args.spec))
    else:
        spec = verify_mod.FamilySpec.canonical(args.canonical)
    report = verify_mod.verify_family(spec)
    return report.payload(), EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeas",
        description="Structured-state measurement experiments on bit sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="build a state and run its checks")
    p_state.add_argument("--paper-rho", action="store_true", help="the built-in block-product state (default)")
    p_state.add_argument("--mixed", action="store_true", help="the maximally mixed state")
    p_state.add_argument("--general", nargs=2, metavar=("H_JSON", "G_JSON"), help="corner family from h/g tables")
    p_state.add_argument("--state", help="state document path, or paper-rho / mixed")
    p_state.add_argument("--check-depth", type=int, help="run coherence + density checks to this depth")
    p_state.add_argument("--eigen", type=int, metavar="N", help="summarize the eigenstructure of the size-N block")
    p_state.set_defaults(handler=cmd_state)

    p_measure = sub.add_parser("measure", help="premeasure values and diagnostics")
    p_measure.add_argument("--state", default="paper-rho")
    p_measure.add_argument("--basis", default="standard")
    p_measure.add_argument("--tau", action="append", help="a 0/1 prefix; repeatable")
    p_measure.add_argument("--tau-depth", type=int, help="tabulate all prefixes of this length")
    p_measure.add_argument("--path", choices=("auto", "dense", "factored"), default="auto")
    p_measure.add_argument("--additivity", action="store_true", help="report the worst additivity deviation")
    p_measure.add_argument("--oracle-compare", action="store_true", help="compare factored and dense paths")
    p_measure.add_argument("--depth", type=int, help="depth for --oracle-compare")
    p_measure.set_defaults(handler=cmd_measure)

    p_sample = sub.add_parser("sample", help="draw measurement bit streams")
    p_sample.add_argument("--state", default="paper-rho")
    p_sample.add_argument("--basis", default="standard")
    p_sample.add_argument("--bits", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--seeds", help="inclusive seed range A..B")
    p_sample.add_argument("--out-prefix", help="write PREFIX.bits / PREFIX.json instead of stdout")
    p_sample.set_defaults(handler=cmd_sample)

    p_battery = sub.add_parser("battery", help="statistical battery over bit streams")
    p_battery.add_argument("files", nargs="*", help="bit files, or - for one stream per stdin line")
    p_battery.add_argument("--alpha", type=float, default=0.01)
    p_battery.add_argument("--aggregate", action="store_true")
    p_battery.set_defaults(handler=cmd_battery)

    p_qmlt = sub.add_parser("qmlt", help="staged tests: witness construction, lifting, evaluation")
    qmlt_sub = p_qmlt.add_subparsers(dest="subcommand", required=True)

    p_witness = qmlt_sub.add_parser("witness", help="build the witness test at one level")
    p_witness.add_argument("--m", type=int, required=True)
    p_witness.add_argument("--budget", type=int, default=64, help="largest allowed block size")
    p_witness.add_argument("--state", default="paper-rho")
    p_witness.add_argument("--delta", type=float, default=0.0)
    p_witness.set_defaults(handler=cmd_qmlt_witness)

    p_lift = qmlt_sub.add_parser("lift", help="lift a classical staged test")
    p_lift.add_argument("--mlt", required=True, help="classical test document")
    p_lift.add_argument("--basis", default="standard")
    p_lift.add_argument("--state", help="optionally evaluate this state on the lifted test")
    p_lift.add_argument("--delta", type=float, default=0.0)
    p_lift.set_defaults(handler=cmd_qmlt_lift)

    p_eval = qmlt_sub.add_parser("eval", help="failure report of a state against a test")
    p_eval.add_argument("--witness", type=int, metavar="M", help="witness levels 1..M")
    p_eval.add_argument("--mlt", "--lifted", dest="mlt", help="classical test document to lift")
    p_eval.add_argument("--basis", default="standard")
    p_eval.add_argument("--budget", type=int, default=64)
    p_eval.add_argument("--state", default="paper-rho")
    p_eval.add_argument("--delta", type=float, default=0.0)
    p_eval.set_defaults(handler=cmd_qmlt_eval)

    p_verify = sub.add_parser("verify", help="lemma checks")
    verify_sub = p_verify.add_subparsers(dest="subcommand", required=True)

    p_pairing = verify_sub.add_parser("kron-pairing")
    p_pairing.add_argument("--n", type=int, default=8)
    p_pairing.add_argument("--trials", type=int, default=1000)
    p_pairing.add_argument("--seed", type=int, default=0)
    p_pairing.set_defaults(handler=cmd_verify_kron_pairing)

    p_quad = verify_sub.add_parser("quadratic-bounds")
    p_quad.add_argument("--n", type=int, default=8)
    p_quad.add_argument("--trials", type=int, default=100_000)
    p_quad.add_argument("--seed", type=int, default=0)
    p_quad.set_defaults(handler=cmd_verify_quadratic)

    p_corner = verify_sub.add_parser("corner-block")
    p_corner.add_argument("--n", type=int, default=8)
    p_corner.add_argument("--trials", type=int, default=10_000)
    p_corner.add_argument("--seed", type=int, default=0)
    p_corner.set_defaults(handler=cmd_verify_corner)

    p_family = verify_sub.add_parser("family")
    p_family.add_argument("--spec", help="family document with h/g tables")
    p_family.add_argument("--canonical", type=int, default=30, metavar="N_MAX",
                          help="check the built-in family up to this block size")
    p_family.set_defaults(handler=cmd_verify_family)

    return parser


def _payload_command(args) -> str:
    sub = getattr(args, "subcommand", None)
    return f"{args.command}.{sub}" if sub else args.command


def _emit_error(args_command: str, exc: QmeasError) -> None:
    doc = {"command": args_command, "error": {"code": exc.code, "message": str(exc)}}
    if isinstance(exc, BudgetExceeded) and exc.required is not None:
        doc["error"]["required"] = exc.required
    sys.stderr.write(canonical_dumps(doc) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    command = _payload_command(args)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "handler"}
    try:
        report, code = args.handler(args)
    except CapExceeded as exc:
        _emit_error(command, exc)
        return EXIT_CAP
    except QmeasError as exc:
        _emit_error(command, exc)
        return EXIT_BAD_INPUT
    except OSError as exc:
        sys.stderr.write(
            canonical_dumps({"command": command, "error": {"code": "io", "message": str(exc)}})
            + "\n"
        )
        return EXIT_BAD_INPUT
    if report is not None:
        payload = {
            "command": command,
            "config": config,
            "config_hash": config_hash(config),
            "seed": config.get("seed"),
            "report": report,
        }
        sys.stdout.write(canonical_dumps(payload) + "\n")
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
