"""Integers past Python's int-to-str digit limit print exactly in canonical JSON.

Python 3.11 (and 3.10.7 on) refuses ``str`` of an int of more than 4,300
digits; the writer then converts through ``decimal``.  Where no limit exists
``str`` never refuses, and every assertion here holds all the same.
"""

import contextlib
import decimal
import json
import sys
from fractions import Fraction

import pytest

from qmeas import jsonio, qmlt, states
from qmeas.cli import main
from qmeas.jsonio import canonical_dumps
from qmeas.states import FactoredState

from exact import family_tau


@contextlib.contextmanager
def digit_limit(limit):
    """Python's int-to-str digit limit set to ``limit`` (0 lifts it), restored on exit."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:  # Python 3.10.0-3.10.6: no limit to set
        yield
        return
    saved = sys.get_int_max_str_digits()
    setter(limit)
    try:
        yield
    finally:
        setter(saved)


def exact_str(value: int) -> str:
    with digit_limit(0):
        return str(value)


def test_big_ints_print_exactly_under_any_digit_limit():
    big = 7**20_000  # 16,902 digits
    digits = exact_str(big)
    for limit in (0, 640, 4300):  # 640 is the least limit Python accepts
        with digit_limit(limit):
            doc = canonical_dumps({"n": big, "m": [-big, 1, 10**639]})
        assert doc == f'{{"m":[-{digits},1,1{"0" * 639}],"n":{digits}}}'


def test_a_repeated_big_int_converts_once(monkeypatch):
    big = 3**10_480  # 5,001 digits
    calls = []
    convert = decimal.Decimal

    def counting(value):
        calls.append(value)
        return convert(value)

    monkeypatch.setattr(decimal, "Decimal", counting)
    jsonio._decimal_repr.cache_clear()
    with digit_limit(4300):
        doc = canonical_dumps({"rank": big, "entries": [{"rank": big}]})
    digits = exact_str(big)
    assert doc == f'{{"entries":[{{"rank":{digits}}}],"rank":{digits}}}'
    # where Python sets no digit limit, str never refuses and decimal is never reached
    assert len(calls) == (1 if hasattr(sys, "set_int_max_str_digits") else 0)


def witness_rank(m):
    cls, _ = qmlt.build_witness_test(m, block_budget=100_000)
    return cls.rank_at(cls.max_depth())


def eval_rank(levels):
    cls = qmlt.build_witness_mlt(range(1, levels + 1), block_budget=100_000).levels[levels]
    return cls.rank_at(cls.max_depth())


@pytest.mark.parametrize(
    "argv, field, value",
    [
        ("qmlt witness --m 6 --budget 100000", "rank", lambda: witness_rank(6)),
        ("qmlt eval --witness 7 --state mixed --budget 100000", "rank", lambda: eval_rank(7)),
    ],
    ids=["witness6", "eval7"],
)
def test_commands_with_big_ints_exit_zero(capsys, argv, field, value):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    number = value()
    assert len(exact_str(number)) > 4300
    assert f'"{field}":{exact_str(number)},' in out


def report_of(out):
    with digit_limit(0):
        return json.loads(out)["report"]


def test_deep_state_check_prints_no_big_integer(capsys):
    """The density check names its prefix by qubits, so stdlib json reads it at the default limit."""
    assert main("state --paper-rho --check-depth 20000".split()) == 0
    with digit_limit(4300):
        report = json.loads(capsys.readouterr().out)["report"]
    assert report["coherence"] == {"ok": True, "max_deviation": 0, "failed_at": None, "tol": 1e-10}
    assert report["density"]["ok"] and report["density"]["qubits"] == 20000


def test_blocks_past_the_float_range_print_their_exact_fields(capsys):
    """A block of n >= 1,075 qubits has float scales 0.0, but prints (n, r, kappa) exactly."""
    assert main("state --paper-rho --check-depth 580000".split()) == 0
    blocks = report_of(capsys.readouterr().out)["state"]["blocks"]
    assert [b["n"] for b in blocks] == list(range(5, 5 + len(blocks)))
    deep = [b for b in blocks if b["n"] >= 1075]
    assert deep
    for b in deep:
        assert b == {"n": b["n"], "corner_count": (1 << b["n"]) // b["n"], "corner_ratio": 1}


def test_level_eight_certifies_exactly(capsys):
    """Blocks from size 1,075 on have float scales 0.0; the witness reads their ratios exactly."""
    assert main("qmlt witness --m 8 --budget 100000".split()) == 0
    report = report_of(capsys.readouterr().out)
    tau = family_tau(report["n_blocks"])
    assert report["rank"] == tau * 2 ** report["depth"]
    assert report["tau"] == float(tau)
    assert report["evaluation"] == 1


def test_mixed_mass_is_tau_through_level_eight(capsys):
    assert main("qmlt eval --witness 8 --state mixed --budget 100000".split()) == 0
    entries = report_of(capsys.readouterr().out)["failure"]["entries"]
    assert [e["level"] for e in entries] == list(range(1, 9))
    for e in entries:
        assert e["value"] == e["tau"] == float(Fraction(e["rank"], 2 ** e["depth"]))


def test_state_eigen_lookup_builds_at_most_one_block(capsys, monkeypatch):
    """Block N - 5 is looked up, not searched for: one block built, none materialized."""
    built, sizes = [], []
    real_state, real_check = FactoredState.maximally_mixed, states.DensityBlock.__post_init__

    def spy():
        built.append(real_state())
        return built[-1]

    def counted(block):
        sizes.append(block.n)
        real_check(block)

    monkeypatch.setattr(FactoredState, "maximally_mixed", spy)
    monkeypatch.setattr(states.DensityBlock, "__post_init__", counted)
    assert main("state --mixed --eigen 100000".split()) == 0
    eigen = report_of(capsys.readouterr().out)["eigen"]
    assert (eigen["block_index"], eigen["zero_multiplicity"]) == (99_995, 0)
    assert eigen["groups"][0]["multiplicity"] == 1 << 100_000
    assert sizes == [100_000]
    assert built[0].blocks == []


def test_state_eigen_past_the_float_range_materializes_nothing(capsys):
    assert main("state --paper-rho --eigen 100000".split()) == 0
    report = report_of(capsys.readouterr().out)
    assert report["eigen"]["zero_multiplicity"] == (1 << 100_000) // 100_000
    assert report["state"]["blocks"] == []
