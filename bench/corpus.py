"""Determinism corpus: SHA-256 of each op's stdout and of the files it writes.

``corpus.json`` maps workload -> seed -> op id -> digests.  A run counts the
ops whose bytes differ from the corpus (``cli.digest_changed``), a signal of
changed behaviour rather than a failure.  Regenerate it, after a change
that is meant to alter output bytes, with

    python3 bench/corpus.py 0..15

which runs one pass of every workload for each seed of the range.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import harness
import workloads

CORPUS = Path(__file__).resolve().parent / "corpus.json"


def load() -> dict:
    if not CORPUS.is_file():
        return {}
    with open(CORPUS, encoding="ascii") as fh:
        return json.load(fh)


def entry(record) -> dict:
    return {"stdout": record.stdout_sha256, "files": record.files_sha256}


def changed_ops(corpus: dict, workload: str, seed: int, records) -> tuple[set[str], set[str]]:
    """(op ids with a corpus entry, op ids whose bytes differ from it)."""
    known = corpus.get(workload, {}).get(str(seed), {})
    checked = {r.id for r in records if r.id in known}
    changed = {r.id for r in records if r.id in known and entry(r) != known[r.id]}
    return checked, changed


def regenerate(seeds: range) -> dict:
    harness.configure_environment()
    cli = harness.import_cli()
    corpus: dict = {}
    home = os.getcwd()
    harness.RUNS.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix="corpus-", dir=harness.RUNS)
            os.chdir(workdir)
            try:
                ops = workloads.build(workload, seed)
                records = [harness.run_op(cli, op) for op in ops]
            finally:
                os.chdir(home)
                shutil.rmtree(workdir)
            corpus.setdefault(workload, {})[str(seed)] = {r.id: entry(r) for r in records}
            print(f"{workload} seed {seed}: {len(records)} ops", flush=True)
    return corpus


def main(argv: list[str]) -> int:
    if len(argv) != 1 or ".." not in argv[0]:
        print("usage: python3 bench/corpus.py FIRST..LAST", file=sys.stderr)
        return 2
    first, last = (int(x) for x in argv[0].split(".."))
    corpus = regenerate(range(first, last + 1))
    with open(CORPUS, "w", encoding="ascii") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
