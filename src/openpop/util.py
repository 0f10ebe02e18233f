"""Key-value config files (`key = value` lines, `#` comments) and CSV text."""

from __future__ import annotations

import csv
import io
from dataclasses import fields

from .errors import ConfigError


def read_kv_pairs(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def _coerce_like(current, value: str):
    """Parse `value` with the type of `current` (bool, int, float, tuple, str)."""
    if isinstance(current, bool):
        return value.lower() in ("1", "true", "yes", "on")
    if isinstance(current, int):
        return int(value)
    if isinstance(current, float):
        return float(value)
    if isinstance(current, tuple):
        return tuple(int(v) for v in value.replace(",", " ").split())
    return value


def apply_kv(defaults, pairs: dict[str, str]) -> dict:
    """Coerce a kv dict against a defaults dataclass instance's field types."""
    names = {f.name for f in fields(defaults)}
    out = {}
    for key, value in pairs.items():
        if key not in names:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = _coerce_like(getattr(defaults, key), value)
    return out


def format_cell(value) -> str:
    """Floats by repr, so written values read back exactly."""
    return repr(value) if isinstance(value, float) else str(value)


def csv_text(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([format_cell(v) for v in row] for row in rows)
    return buffer.getvalue()
