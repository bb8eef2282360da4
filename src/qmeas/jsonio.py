"""Deterministic JSON serialization for reports and input documents.

Reports must be byte-identical across runs for a fixed configuration and
seed, so floats are written with 17 significant digits (full double
round-trip precision), dictionary keys are sorted, and nothing time- or
path-dependent is ever placed in a payload.
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


def _float_reprs(values: Sequence[float]) -> list[str]:
    """``_float_repr`` of each value, formatting each distinct bit pattern once.

    Sampler sidecars repeat a few hundred values (nearly all exactly 0.5)
    across their whole length.  Keying on bit patterns keeps 0.0 and -0.0
    apart; a non-finite value still raises ``ValueError``.
    """
    patterns = np.asarray(values, dtype=np.float64).view(np.uint64)
    # a plain sort and a search of the few distinct patterns: return_inverse would argsort
    distinct = np.unique(patterns)
    reprs = np.array([_float_repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return reprs[np.searchsorted(distinct, patterns)].tolist()


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
    elif isinstance(obj, dict):
        keys = sorted(obj)
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        if set(map(type, obj.values())) <= {float}:
            # flat {str: float} tables: one join instead of one call per value
            reprs = _float_reprs([obj[key] for key in keys])
            out.append(
                "{"
                + ",".join(encode_basestring_ascii(k) + ":" + r for k, r in zip(keys, reprs))
                + "}"
            )
            return
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
            # flat float lists and arrays (sampler sidecars): one join
            out.append("[" + ",".join(_float_reprs(obj)) + "]")
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
