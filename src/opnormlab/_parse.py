"""Tiny call-syntax parser behind the spec-string mini-languages."""
from __future__ import annotations

import re

from .errors import DomainError

_CALL = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)\s*$")


def parse_call(text: str) -> tuple[str, list[float]]:
    """Split ``name(a,b,...)`` into a lowercased name and float arguments.

    Line breaks and other non-printable characters are rejected, so a spec
    that reports echo stays on one line.
    """
    if not text.isprintable():
        raise DomainError(f"spec {text!r} holds a line break or another non-printable character")
    m = _CALL.match(text)
    if not m:
        raise DomainError(f"cannot parse {text!r}; expected name(arg,...)")
    name = m.group(1).lower()
    body = m.group(2).strip()
    if not body:
        return name, []
    try:
        args = [float(tok) for tok in body.split(",")]
    except ValueError as exc:
        raise DomainError(f"non-numeric argument in {text!r}") from exc
    return name, args
