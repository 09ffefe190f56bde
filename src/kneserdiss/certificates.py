"""Certificates: vertex sets claimed to induce bounded degree, plus JSON forms."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DomainError, require_int


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
    # JSON true/false load as bool, which require_int refuses
    for entry in doc["set"]:
        for e in entry if isinstance(entry, list) else (entry,):
            require_int("set member", e, 1)
    members = tuple(tuple(sorted(e)) if isinstance(e, list) else e for e in doc["set"])
    n, k, d = doc.get("n"), doc.get("k"), doc.get("d", 1)
    require_int("d", d, 0)
    for name, value in (("n", n), ("k", k)):
        if value is not None:
            require_int(name, value, 1)
    return Certificate(d=d, members=members, n=n, k=k)
