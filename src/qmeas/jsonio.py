"""Deterministic JSON serialization for reports and input documents.

Reports must be byte-identical across runs for a fixed configuration and
seed, so floats are written with 17 significant digits (full double
round-trip precision), dictionary keys are sorted, and nothing time- or
path-dependent is ever placed in a payload.
"""

from __future__ import annotations

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

import numpy as np

from .errors import BadSpec


def _float_repr(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize a non-finite float")
    return format(x, ".17g")


def _float_reprs(values: Sequence[float]) -> list[str]:
    """``_float_repr`` of each value, formatting each distinct bit pattern once.

    Sampler sidecars repeat a few hundred values (nearly all exactly 0.5)
    across their whole length.  Keying on bit patterns keeps 0.0 and -0.0
    apart; a non-finite value still raises ``ValueError``.
    """
    patterns = np.array(values, dtype=np.float64).view(np.uint64)
    distinct, where = np.unique(patterns, return_inverse=True)
    reprs = np.array([_float_repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return reprs[where].tolist()


def canonical_dumps(obj: Any) -> str:
    """Serialize to canonical JSON: sorted keys, 17-significant-digit floats."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
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
        if set(map(type, obj)) <= {float}:
            # flat float lists (sampler sidecars): one join
            out.append("[" + ",".join(_float_reprs(obj)) + "]")
            return
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to canonical JSON")


def config_hash(config: Any) -> str:
    """Stable hash of a configuration document."""
    return hashlib.sha256(canonical_dumps(config).encode("ascii")).hexdigest()


def complex_from_json(item: Any) -> complex:
    if (
        not isinstance(item, (list, tuple))
        or len(item) != 2
        or not all(isinstance(p, (int, float)) for p in item)
    ):
        raise BadSpec(f"complex entries must be [re, im] pairs, got {item!r}")
    return complex(item[0], item[1])


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
    except json.JSONDecodeError as exc:
        raise BadSpec(f"{path} is not valid JSON: {exc}") from exc
