"""Fallible computations as plain values.

Every effectful operation in this library (sequencing traversals, the
call-by-value interpreter, recursive projection) uses the same minimal
effect: a computation either succeeds with a value or fails with a text
message.  Failures carry no structure beyond the message on purpose;
interpreters compare messages byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Failure", "Result", "Success"]


@dataclass(frozen=True)
class Success:
    value: Any


@dataclass(frozen=True)
class Failure:
    message: str


Result = Success | Failure

