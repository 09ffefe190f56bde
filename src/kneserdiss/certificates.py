"""Certificates: vertex sets claimed to induce bounded degree, plus JSON forms."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Certificate:
    """A vertex subset claimed to induce maximum degree <= d.

    ``members`` are sorted element tuples for Kneser vertices, or 1-based
    vertex indices for generic graphs.
    """

    d: int
    members: tuple
    n: int | None = None
    k: int | None = None

    def __len__(self) -> int:
        return len(self.members)

    def to_json(self, valid: bool | None = None) -> str:
        doc = {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "set": [list(m) if isinstance(m, tuple) else m for m in self.members],
        }
        if valid is not None:
            doc["valid"] = valid
        return json.dumps(doc)


def _json_int(value, what: str) -> int:
    # JSON true/false load as bool, which Python counts as int
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return value


def _load_json(text: str, what: str, parse_float=None):
    # ValueError covers JSONDecodeError, integers past the digit limit and
    # DomainError from parse_float; deep nesting overflows the decoder's
    # recursion
    try:
        return json.loads(text, parse_float=parse_float)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"malformed {what} JSON: {exc}") from exc


def certificate_from_json(text: str) -> Certificate:
    doc = _load_json(text, "certificate")
    if not isinstance(doc, dict) or not isinstance(doc.get("set"), list):
        raise DomainError("certificate JSON must be an object with a 'set' list")
    members = []
    for entry in doc["set"]:
        if isinstance(entry, list):
            members.append(tuple(sorted(_json_int(e, "set element") for e in entry)))
        else:
            members.append(_json_int(entry, "set entry"))
    n, k = doc.get("n"), doc.get("k")
    return Certificate(
        d=_json_int(doc.get("d", 1), "d"),
        members=tuple(members),
        n=None if n is None else _json_int(n, "n"),
        k=None if k is None else _json_int(k, "k"),
    )
