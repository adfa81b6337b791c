"""Deterministic JSON documents with exact rationals.

All emitted documents are canonical: keys sorted, no insignificant
whitespace, rationals serialized as "p/q" strings, and a trailing
newline.  Identical inputs therefore produce byte-identical outputs,
and every document re-parses to equal in-memory values.  Digests are
computed on the canonical form, so they are stable under field
reordering of the source document.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction
from typing import Any

from .errors import ValidationError

SCHEMA_VERSION = 1


def fraction_to_str(value: Fraction) -> str:
    value = Fraction(value)
    return "%d/%d" % (value.numerator, value.denominator)


def str_to_fraction(text: str) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    parts = str(text).split("/")
    if len(parts) == 1:
        return Fraction(int(parts[0]))
    if len(parts) != 2:
        raise ValueError("not a rational literal: %r" % (text,))
    return Fraction(int(parts[0]), int(parts[1]))


def _normalize(obj: Any) -> Any:
    if isinstance(obj, (str, int)):
        return obj              # most leaves; skips the Fraction ABC check
    if isinstance(obj, Fraction):
        return fraction_to_str(obj)
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def canonical_dumps(obj: Any) -> str:
    return json.dumps(_normalize(obj), sort_keys=True,
                      separators=(",", ":")) + "\n"


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def write_document(path: str, obj: Any):
    """Atomic canonical write."""
    data = canonical_dumps(obj)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sftlab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_document(path: str) -> Any:
    """Parse a JSON input; text that is not JSON is invalid input."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ValidationError("%s is not a JSON document: %s"
                                  % (path, exc))
