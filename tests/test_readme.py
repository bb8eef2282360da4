"""The README's library sketch runs as written and prints what its comments say, and its
cookbook parses and runs, line by line, from a fresh directory."""

import ast
import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path


from qmeas.cli import build_parser, main
from qmeas.errors import BadQuery

README = Path(__file__).resolve().parents[1] / "README.md"
ELEVEN_256 = 11 / 256


def sketch_values() -> dict[str, object]:
    """Run the README's python block; map each bare expression's source to its value."""
    text = README.read_text(encoding="utf-8")
    (source,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    namespace: dict = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values[ast.get_source_segment(source, node)] = eval(
                compile(ast.Expression(node.value), "README", "eval"), namespace
            )
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return values


def within_ulps(value, target, ulps):
    return abs(float(value) - target) <= ulps * math.ulp(target)


def test_library_sketch_values():
    values = sketch_values()
    # the factored path rounds fl(1/sqrt(2))^2 up, so the value sits 2 ulps low
    assert within_ulps(values['premeasure(rho, B, "00000")'], ELEVEN_256, 4)
    assert values["rho.prefix(7).rho.shape"] == (128, 128)
    # the dense path reads entry 0 of the depth-5 dense table, 5 ulps low
    assert values['premeasure(chain, B, "00000")'] == ELEVEN_256 - 5 * math.ulp(ELEVEN_256)
    assert within_ulps(values["table.reshape(-1, 32)[:, 0].sum()"], ELEVEN_256, 4)
    assert isinstance(values["run_battery(sample, alpha=0.01).failures"], list)
    tau = values["cls.tau_at(witness_depth(last))"]
    assert repr(tau).startswith("0.45911639") and tau < 0.5
    assert values["evaluate_state(cls, rho, witness_depth(last))"] == 1.0


def cookbook_block() -> str:
    cookbook = README.read_text(encoding="utf-8").split("## CLI cookbook", 1)[1]
    (block,) = re.findall(r"```sh\n(.*?)```", cookbook, flags=re.S)
    return block


def test_cookbook_commands_parse():
    """Every `qmeas` command of the cookbook, each side of a pipe, is one the parser accepts."""
    commands, rejected = [], []
    for line in cookbook_block().splitlines():
        for part in line.split("|"):
            argv = shlex.split(part, comments=True)
            if argv[:1] != ["qmeas"]:
                continue
            command = " ".join(argv)
            commands.append(command)
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    build_parser().parse_args(argv[1:])
            except (SystemExit, BadQuery):  # --help exits; a rejection raises BadQuery
                rejected.append(command)
    assert commands and rejected == []


def test_cookbook_makes_each_output_directory_first():
    """`--out-prefix DIR/name` exits 2 (`io`) unless DIR exists: `mkdir -p DIR` comes first."""
    block = cookbook_block()
    made, prefixes, unmade = set(), [], []
    for line in block.splitlines():
        made.update(re.findall(r"^mkdir -p (\S+)$", line.strip()))
        for prefix in re.findall(r"--out-prefix (\S+)", line):
            prefixes.append(prefix)
            directory = prefix.rpartition("/")[0]
            if directory and directory not in made:
                unmade.append(line)
    assert prefixes and unmade == []


# the documents the cookbook reads but never makes; test.json is the README's staged test
COOKBOOK_DOCUMENTS = {
    "h.json": {"h": {"5": 6, "6": 10}},
    "g.json": {"g": {"5": 0.015, "6": 0.0078125}},
    "family.json": {"h": {"5": 6, "6": 10}, "g": {"5": 0.015, "6": 0.0078125}},
}


def cookbook_documents() -> dict[str, str]:
    """The documents the cookbook reads, by file name, as JSON text."""
    (staged,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    return {name: json.dumps(doc) for name, doc in {**COOKBOOK_DOCUMENTS, "test.json": json.loads(staged)}.items()}


def run_cookbook(call) -> list[str]:
    """Run every cookbook line in the working directory; return the commands run, in order.

    ``call(argv, stdin)`` runs one `qmeas` call (argv after the program name) and
    returns its exit code and stdout.  Each side of a pipe is one call, the first
    call's stdout the second's stdin; stdin is None outside a pipe.  Each call
    exits 0 (0 or 1 for `battery --aggregate`).
    """
    for name, text in cookbook_documents().items():
        Path(name).write_text(text, encoding="utf-8")
    ran = []
    for line in cookbook_block().splitlines():
        stdin = None
        for part in line.split("|"):
            argv = shlex.split(part, comments=True)
            if argv[:2] == ["mkdir", "-p"]:
                for directory in argv[2:]:
                    Path(directory).mkdir(parents=True, exist_ok=True)
                continue
            if not argv:
                continue
            assert argv[0] == "qmeas", line
            code, stdin = call(argv[1:], stdin)
            assert code in ((0, 1) if argv[1] == "battery" and "--aggregate" in argv else (0,)), part
            ran.append(argv[1])
    return ran


def main_call(capsys, monkeypatch):
    """A ``run_cookbook`` call: ``main`` in process, stdout read from ``capsys``."""

    def call(argv, stdin):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        return code, capsys.readouterr().out

    return call


def test_cookbook_runs(capsys, monkeypatch, tmp_path):
    """Every cookbook line runs in a fresh directory and exits 0 (0 or 1 for `battery --aggregate`)."""
    monkeypatch.chdir(tmp_path)
    ran = run_cookbook(main_call(capsys, monkeypatch))
    assert ran.count("battery") == 2 and len(ran) == len(re.findall(r"\bqmeas ", cookbook_block()))
