"""Every call of the CLI byte corpus (``corpus.py``) prints and writes the bytes
``corpus.json`` records, and some call of it passes every option of the CLI."""

import argparse
import warnings

import pytest

import corpus
from qmeas.cli import build_parser


@pytest.mark.parametrize("name", list(corpus.GROUPS))
def test_corpus_replays_byte_for_byte(tmp_path, name):
    """A moved entry fails; a machine-dependent one is compared only under the corpus's fingerprint."""
    recorded, replayed = corpus.load(), corpus.record(tmp_path, [name])
    assert list(recorded["groups"]) == list(corpus.GROUPS), "the groups changed; regenerate the corpus"
    same_machine = recorded["fingerprint"] == replayed["fingerprint"]
    group, again = recorded["groups"][name], replayed["groups"][name]
    assert again["documents"] == group["documents"], f"{name}: its documents changed; regenerate the corpus"
    assert [e["id"] for e in again["entries"]] == [e["id"] for e in group["entries"]], (
        f"{name}: its calls changed; regenerate the corpus"
    )
    moved, skipped = [], []
    for old, new in zip(group["entries"], again["entries"]):
        if "machine_dependent" in old and not same_machine:
            skipped.append(old["id"])
        elif new != old:
            moved.append(old["id"])
    if skipped:
        warnings.warn(
            f"corpus fingerprint {recorded['fingerprint']} differs; skipped {len(skipped)} of {name}: {skipped}"
        )
    assert moved == []


def parser_options() -> list[tuple[list[str], str]]:
    """(command path, option string) of every option of the full parser tree but help."""
    options, parsers = [], [([], build_parser())]
    while parsers:
        path, parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += [(path + [name], child) for name, child in action.choices.items()]
            elif not isinstance(action, argparse._HelpAction):
                options += [(path, option) for option in action.option_strings]
    return options


def test_every_option_is_passed_by_a_corpus_call():
    argvs = [e["argv"] for group in corpus.load()["groups"].values() for e in group["entries"]]
    missing = [
        " ".join(path + [option])
        for path, option in parser_options()
        if not any(argv[: len(path)] == path and option in argv for argv in argvs)
    ]
    assert missing == []
