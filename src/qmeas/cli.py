"""Batch command-line driver.

Subcommands mirror the package layout: ``state`` builds and checks states,
``measure`` computes premeasure tables, ``sample`` draws bit streams,
``battery`` runs the statistical tests, ``qmlt`` lifts and evaluates
staged tests, and ``verify`` runs the lemma checks.  Every report is a
canonical-JSON payload carrying the invoking config and its hash, so
identical invocations produce identical bytes.

Exit codes: 0 success, 1 a check or lemma failed, 2 bad input (including an
exceeded block budget), 3 the dense cap or the factored-table bound was
exceeded.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from . import qmlt as qmlt_mod
from . import verify as verify_mod
from .errors import BadQuery, BadSpec, BudgetExceeded, CapExceeded, InsufficientData, QmeasError
from .jsonio import BitTable, canonical_dumps, config_hash, load_document, number_from_json
from .measurement import (
    MeasurementSystem,
    additivity_check,
    premeasure,
    premeasure_table,
    sample_bits,
)
from .randlab import aggregate, require_alpha, run_battery
from .states import (
    FactoredState,
    build_corner_block,
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


def _parse_seeds(args) -> range:
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
        return range(first, last + 1)
    return range(args.seed, args.seed + 1)


# ---------------------------------------------------------------------------
# state


def cmd_state(args) -> tuple[dict, int]:
    if args.general is not None:
        # each file holds its table, bare (a mapping or a list) or under its own key
        docs = zip("hg", map(load_document, args.general))
        tables = {key: doc.get(key, doc) if isinstance(doc, dict) else doc for key, doc in docs}
        state = parse_state_spec({"kind": "general", **tables})
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
        report["coherence"] = coherence
        report["density"] = density
        if not (coherence.ok and density.ok):
            code = EXIT_CHECK_FAILED
    if args.eigen is not None:
        report["eigen"] = _eigen_report(state, args.eigen)
    report["state"] = state.describe() if hasattr(state, "describe") else _state_label(state)
    return report, code


def _eigen_report(state, block_size: int) -> dict:
    if not isinstance(state, FactoredState):
        raise BadQuery("eigen summaries need a factored state")
    # the built-in states and general families hold block i of i + 5 qubits
    index = block_size - 5
    try:
        block = state.block(index)
    except BadQuery:  # no block at that index
        block = None
    if block is None or block.n != block_size:
        raise BadQuery(f"state has no block of size {block_size}")
    groups = eigenvalue_groups(block)
    return {
        "block_size": block_size,
        "block_index": index,
        "groups": [
            {"kind": g.kind, "value": g.value, "multiplicity": g.multiplicity}
            for g in groups
        ],
        "zero_multiplicity": sum(g.multiplicity for g in groups if not g.positive),
    }


# ---------------------------------------------------------------------------
# measure


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
        report["table"] = BitTable(table)
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
    one_stream = seeds.stop - seeds.start == 1  # len() overflows past 2**63 seeds
    entries = []
    for seed in seeds:
        sample = sample_bits(state, system, args.bits, seed)
        if args.out_prefix is None:
            sys.stdout.write(sample.bit_string() + "\n")
        else:
            prefix = args.out_prefix if one_stream else f"{args.out_prefix}_s{seed}"
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
            try:
                for i, line in enumerate(sys.stdin):
                    line = line.strip()
                    if line:
                        streams.append((f"stdin:{i}", line))
            except UnicodeDecodeError:  # stdin decodes strictly in a UTF-8 locale
                raise InsufficientData("stdin holds a byte that is no character") from None
        else:
            # a non-ASCII byte reads as U+FFFD, which the battery refuses as no bit
            with open(src, "r", encoding="ascii", errors="replace") as fh:
                text = "".join(fh.read().split())
            streams.append((src, text))
    return streams


def cmd_battery(args) -> tuple[dict, int]:
    require_alpha(args.alpha)  # before any input is read: no stream at all still checks it
    streams = _battery_streams(args)
    reports = [
        run_battery(bits, alpha=args.alpha, stream_id=stream_id)
        for stream_id, bits in streams
    ]
    report: dict = {"reports": reports}
    code = EXIT_OK
    if args.aggregate:
        summary = aggregate(reports)
        report["aggregate"] = summary
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
        "failure": failure,
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
        report["failure"] = qmlt_mod.failure_report(lifted, state, delta=args.delta)
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
    return {"failure": failure}, EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify_kron_pairing(args) -> tuple[dict, int]:
    report = verify_mod.verify_kron_pairing(n=args.n, trials=args.trials, seed=args.seed)
    return report, EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_verify_quadratic(args) -> tuple[dict, int]:
    report = verify_mod.verify_quadratic_bounds(n=args.n, trials=args.trials, seed=args.seed)
    return report, EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_verify_corner(args) -> tuple[dict, int]:
    report = verify_mod.verify_corner_block_bound(n=args.n, trials=args.trials, seed=args.seed)
    return report, EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_verify_family(args) -> tuple[dict, int]:
    if args.spec is not None:
        doc = load_document(args.spec)
        if not isinstance(doc, dict) or "h" not in doc or "g" not in doc:
            raise BadSpec("family spec needs 'h' and 'g' tables")
        blocks = FactoredState.general_family(doc["h"], doc["g"]).blocks
        targets = doc.get("target_delta"), doc.get("target_F", doc.get("target_f"))
        targets = [None if t is None else number_from_json(t, "family targets") for t in targets]
        report = verify_mod.verify_family(blocks, *targets)
    else:
        if args.canonical < 5:
            raise BadQuery(
                f"--canonical N checks the block sizes 5..N; N must be at least 5, got {args.canonical}"
            )
        blocks = (build_corner_block(n) for n in range(5, args.canonical + 1))
        report = verify_mod.verify_family(blocks)
    return report, EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections raise ``BadQuery``, for one error document."""

    def error(self, message):
        raise BadQuery(message)


def _state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--paper-rho", action="store_true", help="the built-in block-product state (default)")
    p.add_argument("--mixed", action="store_true", help="the maximally mixed state")
    p.add_argument("--general", nargs=2, metavar=("H_JSON", "G_JSON"), help="corner family from h/g tables")
    p.add_argument("--state", help="state document path, or paper-rho / mixed")
    p.add_argument("--check-depth", type=int, help="run coherence + density checks to this depth")
    p.add_argument("--eigen", type=int, metavar="N", help="summarize the eigenstructure of the size-N block")
    p.set_defaults(handler=cmd_state)


def _measure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", default="paper-rho")
    p.add_argument("--basis", default="standard")
    p.add_argument("--tau", action="append", help="a 0/1 prefix; repeatable")
    p.add_argument("--tau-depth", type=int, help="tabulate all prefixes of this length")
    p.add_argument("--path", choices=("auto", "dense", "factored"), default="auto")
    p.add_argument("--additivity", action="store_true", help="report the worst additivity deviation")
    p.add_argument("--oracle-compare", action="store_true", help="compare factored and dense paths")
    p.add_argument("--depth", type=int, help="depth for --oracle-compare")
    p.set_defaults(handler=cmd_measure)


def _sample_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", default="paper-rho")
    p.add_argument("--basis", default="standard")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", help="inclusive seed range A..B")
    p.add_argument("--out-prefix", help="write PREFIX.bits / PREFIX.json instead of stdout")
    p.set_defaults(handler=cmd_sample)


def _battery_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="*", help="bit files, or - for one stream per stdin line")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--aggregate", action="store_true")
    p.set_defaults(handler=cmd_battery)


_BUDGET_HELP = "largest allowed block size; the default 64 reaches level 3: N(3) = 35 <= 64 < N(4) = 69"


def _witness_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=64, help=_BUDGET_HELP)
    p.add_argument("--state", default="paper-rho")
    p.add_argument("--delta", type=float, default=0.0)
    p.set_defaults(handler=cmd_qmlt_witness)


def _lift_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mlt", required=True, help="classical test document")
    p.add_argument("--basis", default="standard")
    p.add_argument("--state", help="optionally evaluate this state on the lifted test")
    p.add_argument("--delta", type=float, default=0.0)
    p.set_defaults(handler=cmd_qmlt_lift)


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--witness", type=int, metavar="M", help="witness levels 1..M")
    p.add_argument("--mlt", "--lifted", dest="mlt", help="classical test document to lift")
    p.add_argument("--basis", default="standard")
    p.add_argument("--budget", type=int, default=64, help=_BUDGET_HELP)
    p.add_argument("--state", default="paper-rho")
    p.add_argument("--delta", type=float, default=0.0)
    p.set_defaults(handler=cmd_qmlt_eval)


def _lemma_args(handler):
    def add(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=8)
        p.add_argument("--trials", type=int, default=verify_mod.DEFAULT_TRIALS)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(handler=handler)

    return add


def _family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="family document with h/g tables")
    p.add_argument("--canonical", type=int, default=30, metavar="N_MAX",
                   help="check the built-in family up to this block size")
    p.set_defaults(handler=cmd_verify_family)


# name -> (help, arguments of a command or the table of a command group);
# the verify subcommands are listed without help
_COMMANDS = {
    "state": ("build a state and run its checks", _state_args),
    "measure": ("premeasure values and diagnostics", _measure_args),
    "sample": ("draw measurement bit streams", _sample_args),
    "battery": ("statistical battery over bit streams", _battery_args),
    "qmlt": ("staged tests: witness construction, lifting, evaluation", {
        "witness": ("build the witness test at one level", _witness_args),
        "lift": ("lift a classical staged test", _lift_args),
        "eval": ("failure report of a state against a test", _eval_args),
    }),
    "verify": ("lemma checks", {
        "kron-pairing": (None, _lemma_args(cmd_verify_kron_pairing)),
        "quadratic-bounds": (None, _lemma_args(cmd_verify_quadratic)),
        "corner-block": (None, _lemma_args(cmd_verify_corner)),
        "family": (None, _family_args),
    }),
}


def _command_path(argv: list[str], table: dict = _COMMANDS) -> list[str]:
    """The command names ``argv`` invokes: at each level, its first token not starting with "-"."""
    index = next((i for i, token in enumerate(argv) if not token.startswith("-")), None)
    if index is None or argv[index] not in table:
        return []
    name = argv[index]
    spec = table[name][1]
    return [name] + (_command_path(argv[index + 1 :], spec) if isinstance(spec, dict) else [])


def _add_commands(parser: argparse.ArgumentParser, table: dict, dest: str, path) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, spec) in table.items():
        if path is not None and path[:1] != [name]:
            # a choice with its help line, as add_parser registers one, but no parser
            if help_text is not None:
                sub._choices_actions.append(sub._ChoicesPseudoAction(name, (), help_text))
            sub._name_parser_map[name] = None
            continue
        child = sub.add_parser(name, **({} if help_text is None else {"help": help_text}))
        if isinstance(spec, dict):
            _add_commands(child, spec, "subcommand", None if path is None else path[1:])
        else:
            spec(child)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``qmeas`` parser; its rejections raise ``BadQuery``.

    With no ``argv`` every command gets its parser.  Given ``argv``, every
    command and subcommand name is still registered with its help, so usage,
    help listings and invalid-choice messages are unchanged, but only the
    command path ``argv`` names (``sample``, or ``verify family``) gets a
    parser: an invocation builds at most two child parsers, not fourteen.
    """
    parser = _Parser(
        prog="qmeas",
        description="Structured-state measurement experiments on bit sequences.",
    )
    _add_commands(parser, _COMMANDS, "command", None if argv is None else _command_path(list(argv)))
    return parser


def _payload_command(args) -> str:
    sub = getattr(args, "subcommand", None)
    return f"{args.command}.{sub}" if sub else args.command


def _emit_error(args_command: str, exc: QmeasError) -> None:
    doc = {"command": args_command, "error": {"code": exc.code, "message": str(exc)}}
    if isinstance(exc, BudgetExceeded) and exc.required is not None:
        doc["error"]["required"] = exc.required
    sys.stderr.write(canonical_dumps(doc) + "\n")


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as one stderr line, naming no source file: its bytes do not depend on the install."""
    return f"{category.__name__}: {message}\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # --help
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    except BadQuery as exc:
        _emit_error(".".join(_command_path(argv)) or "qmeas", exc)
        return EXIT_BAD_INPUT
    command = _payload_command(args)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "handler"}
    format_warning, warnings.formatwarning = warnings.formatwarning, _warning_line
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
    finally:
        warnings.formatwarning = format_warning
    if report is not None:
        payload = {
            "command": command,
            "config": config,
            "config_hash": config_hash(config),
            # a --seeds range chose the seeds: each stream entry names its own
            "seed": None if config.get("seeds") is not None else config.get("seed"),
            "report": report,
        }
        sys.stdout.write(canonical_dumps(payload) + "\n")
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
