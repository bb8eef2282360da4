"""Deterministic JSON serialization for reports and input documents.

Reports must be byte-identical across runs for a fixed configuration and
seed, so floats are written with 17 significant digits (full double
round-trip precision), dictionary keys are sorted, and nothing time- or
path-dependent is ever placed in a payload.

Flat float lists and 1-D float64 arrays are written run by run: each run of
equal bit patterns is found in one numpy pass, and each distinct pattern is
formatted once, so a sampler sidecar of 10^5 values, nearly all exactly 0.5,
costs a few hundred formats and joins.  A premeasure table travels as a
``BitTable`` of its array, whose object {bit string: value} ``_table_json``
lays out from arrays in one uint8 buffer, with no str per entry.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

import numpy as np

from .errors import BadSpec


def _float_repr(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize a non-finite float")
    return format(x, ".17g")


def _int_repr(x: int) -> str:
    """``str(x)``, through ``decimal`` where ``str`` refuses an int past Python's digit limit."""
    try:
        return str(x)
    except ValueError:
        return _decimal_repr(x)


@functools.lru_cache(maxsize=4)  # a report may print one big int twice (a witness rank)
def _decimal_repr(x: int) -> str:
    import decimal  # only ints of thousands of digits need it

    return str(decimal.Decimal(x))


def _float_runs(values: Sequence[float]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The ``_float_repr`` of each distinct bit pattern, each run's index into them, and the run lengths.

    Runs of equal bit patterns are found in one ``!=`` pass, and only the
    run heads are sorted and searched, so each distinct pattern is formatted
    once.  Keying on bit patterns keeps 0.0 and -0.0 apart; a non-finite
    value still raises ``ValueError``.
    """
    patterns = np.asarray(values, dtype=np.float64).view(np.uint64)
    is_head = np.ones(patterns.size, dtype=bool)
    np.not_equal(patterns[1:], patterns[:-1], out=is_head[1:])
    starts = np.flatnonzero(is_head)
    lengths = np.diff(np.append(starts, patterns.size))
    heads = patterns[starts]
    distinct = np.unique(heads)
    reprs = [_float_repr(x) for x in distinct.view(np.float64).tolist()]
    return reprs, np.searchsorted(distinct, heads), lengths


@dataclasses.dataclass(frozen=True)
class BitTable:
    """A table of 2^d floats, written as the canonical object {bit string: value}.

    Entry i's key is its d bits, qubit 1 (the least significant bit of i)
    first: the layout of ``premeasure_table``.
    """

    values: np.ndarray


_TABLE_ROWS = 1 << 14  # entries laid out per pass of the table writer


def _numerals(numbers, width: int) -> np.ndarray:
    """ASCII binary numerals of ``numbers``, ``width`` digits each, the most significant first."""
    bits = np.unpackbits(np.asarray(numbers, dtype=">u8").reshape(-1, 1).view(np.uint8), axis=1)
    return bits[:, 64 - width :] + np.uint8(ord("0"))


def _table_json(values: np.ndarray) -> str:
    """A ``BitTable``'s canonical JSON, laid out in one uint8 buffer: no str per entry.

    Sorted, the keys are the binary numerals of 0 ... 2^d - 1 whose first
    digit is qubit 1, so the values in key order are the table with its
    qubit axes reversed.  A pass lays up to ``_TABLE_ROWS`` entries out as
    rows of one width: quote, the d key digits, quote, colon, then the
    entry's repr and a comma, NUL-padded to the longest; dropping the NULs
    leaves the entries' bytes in order.
    """
    depth = values.size.bit_length() - 1
    ordered = np.asarray(values, dtype=np.float64).reshape((2,) * depth).transpose().reshape(-1)
    reprs, which, lengths = _float_runs(ordered)
    cells = np.array([r + "," for r in reprs], dtype=bytes)
    index = np.repeat(which.astype(np.min_scalar_type(len(reprs))), lengths)
    size = np.array([len(r) + 1 for r in reprs])[which] @ lengths + ordered.size * (depth + 3)
    body = np.empty(1 + int(size), np.uint8)
    rows = min(ordered.size, _TABLE_ROWS)
    low = rows.bit_length() - 1  # the key digits that vary within a pass, the last ones
    record = np.empty((rows, depth + 3 + cells.itemsize), np.uint8)
    record[:, [0, depth + 1, depth + 2]] = np.frombuffer(b'"":', np.uint8)
    record[:, depth + 1 - low : depth + 1] = _numerals(np.arange(rows), low)
    cells = cells.view(np.uint8).reshape(len(reprs), -1)
    gathered = np.empty((rows, cells.shape[1]), np.uint8)
    body[0], at = ord("{"), 1
    for start in range(0, ordered.size, rows):
        record[:, 1 : depth + 1 - low] = _numerals(start >> low, depth - low)
        record[:, depth + 3 :] = np.take(cells, index[start : start + rows], axis=0, out=gathered, mode="clip")
        laid = record[record != 0]
        body[at : at + laid.size] = laid
        at += laid.size
    body[-1] = ord("}")  # in place of the last comma
    return str(body.data, "ascii")


def canonical_dumps(obj: Any) -> str:
    """Serialize to canonical JSON: sorted keys, 17-significant-digit floats.

    A dataclass instance is written as its fields (``dataclasses.asdict``).
    """
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(_int_repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_repr(float(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, BitTable):
        out.append(_table_json(obj.values))
    elif isinstance(obj, dict):
        keys = sorted(obj)
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        out.append("{")
        for i, key in enumerate(keys):
            if i:
                out.append(",")
            out.append(encode_basestring_ascii(key))
            out.append(":")
            _write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) or (isinstance(obj, np.ndarray) and obj.ndim >= 1):
        if isinstance(obj, np.ndarray):
            flat = obj.ndim == 1 and obj.dtype == np.float64
        else:
            flat = set(map(type, obj)) <= {float}
        if flat:
            # flat float lists and arrays (sampler sidecars): one join over the runs
            reprs, which, lengths = _float_runs(obj)
            runs = ((reprs[i] + ",") * (k - 1) + reprs[i] for i, k in zip(which.tolist(), lengths.tolist()))
            out.append("[" + ",".join(runs) + "]")
            return
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _write(dataclasses.asdict(obj), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to canonical JSON")


def config_hash(config: Any) -> str:
    """Stable hash of a configuration document."""
    return hashlib.sha256(canonical_dumps(config).encode("ascii")).hexdigest()


def number_from_json(value: Any, what: str, integral: bool = False) -> float | int:
    """A document's number as a finite float, or as an int when ``integral``; else ``BadSpec``.

    Strings and booleans are not numbers, an int past the float range is not
    finite, and an integral entry may be a float only without a fractional part.
    """
    if integral and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if number else math.nan
    except OverflowError:  # an int past the float range
        x = math.inf
    if not math.isfinite(x) or (integral and not x.is_integer()):
        shown = repr(value) if isinstance(value, (str, float)) else type(value).__name__
        raise BadSpec(f"{what} must be {'integers' if integral else 'finite numbers'}, got {shown}")
    return int(x) if integral else x


def complex_from_json(item: Any) -> complex:
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise BadSpec(f"complex entries must be [re, im] pairs, got {item!r}")
    return complex(*(number_from_json(p, "complex entries") for p in item))


def matrix_from_json(rows: Any) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise BadSpec("matrix must be a non-empty list of rows")
    width = None
    data = []
    for row in rows:
        if not isinstance(row, list):
            raise BadSpec("matrix rows must be lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise BadSpec("matrix rows must all have the same length")
        data.append([complex_from_json(item) for item in row])
    return np.array(data, dtype=complex)


def load_document(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadSpec(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, not JSON, or an int past Python's digit limit
        raise BadSpec(f"{path} is not valid JSON: {exc}") from exc
