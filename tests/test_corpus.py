"""Every call of the CLI byte corpus (``corpus.py``) prints and writes the bytes ``corpus.json`` records."""

import warnings

import corpus


def test_corpus_replays_byte_for_byte(tmp_path):
    """A moved entry fails; a machine-dependent one is compared only under the corpus's fingerprint."""
    recorded, replayed = corpus.load(), corpus.record(tmp_path)
    same_machine = recorded["fingerprint"] == replayed["fingerprint"]
    assert list(replayed["groups"]) == list(recorded["groups"])
    moved, skipped = [], []
    for name, group in recorded["groups"].items():
        again = replayed["groups"][name]
        assert again["documents"] == group["documents"], f"{name}: its documents changed; regenerate the corpus"
        assert [e["id"] for e in again["entries"]] == [e["id"] for e in group["entries"]], (
            f"{name}: its calls changed; regenerate the corpus"
        )
        for old, new in zip(group["entries"], again["entries"]):
            if "machine_dependent" in old and not same_machine:
                skipped.append(f"{name}: {old['id']}")
            elif new != old:
                moved.append(f"{name}: {old['id']}")
    if skipped:
        warnings.warn(f"corpus fingerprint {recorded['fingerprint']} differs; skipped {len(skipped)}: {skipped}")
    assert moved == []
