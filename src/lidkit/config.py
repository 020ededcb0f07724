"""Flat key-value config files and their resolution against a key table.

Every tool in the kit reads the same trivial format: one ``key = value``
pair per line, ``#`` starts a comment, later keys override earlier ones.
``resolve`` checks the parsed pairs against a table mapping every settable
key to its default: an unknown key, a value that does not convert to its
default's type, a NaN, or a value outside the key's domain is an
``InvalidConfig`` naming the key, and the result holds every key of the
table with a typed value.
"""

from __future__ import annotations

import hashlib

from .errors import InvalidConfig


def parse_config(text: str) -> dict[str, str]:
    """Parse config text into an ordered key -> value dict."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"expected 'key = value', got {raw!r}", line_no)
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise InvalidConfig("empty key", line_no)
        out[key] = value.strip()
    return out


def _typed(key: str, value, default):
    kind = type(default)
    # exact type checks: a bool is an int but never a valid setting
    if isinstance(value, str) or (kind is float and type(value) is int):
        try:
            value = kind(value)
        except ValueError:
            pass
    if type(value) is not kind:
        raise InvalidConfig(f"{key}: expected {kind.__name__}, got {value!r}")
    if value != value:
        raise InvalidConfig(f"{key}: expected {kind.__name__}, got NaN")
    return value


def resolve(
    table: dict[str, object],
    overrides: dict[str, object] | None,
    domains: dict[str, tuple] | None = None,
) -> dict[str, object]:
    """The effective config: ``table``'s defaults with ``overrides`` applied.

    An override may be a string (as parsed from a file or ``--set``) or a
    value already of its default's type, so resolving a resolved config
    returns it unchanged. ``domains`` maps a key to ``(phrase, test)``; a
    value ``test`` refuses is an ``InvalidConfig`` naming the key and
    ``phrase``.
    """
    out = dict(table)
    for key, value in (overrides or {}).items():
        if key not in table:
            raise InvalidConfig(f"unknown config key {key!r}")
        out[key] = _typed(key, value, table[key])
        phrase, test = (domains or {}).get(key, ("", None))
        if test is not None and not test(out[key]):
            raise InvalidConfig(f"{key}: expected {phrase}, got {out[key]!r}")
    return out


def config_hash(cfg: dict[str, object]) -> str:
    """Short stable digest of a config, used in output stamps."""
    h = hashlib.sha256()
    for key in sorted(cfg):
        h.update(f"{key}={cfg[key]}\n".encode("utf-8"))
    return h.hexdigest()[:12]
