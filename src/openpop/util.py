"""Key-value config files (`key = value` lines, `#` comments) and CSV text."""

from __future__ import annotations

import csv
import io

from .errors import ConfigError


def read_kv_pairs(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"line {lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def parse_setting(key: str, current, text: str):
    """`text` read with the type of `current`: an int, a float, or a tuple
    of ints separated by commas or spaces. A ConfigError names `key` and
    `text`."""
    try:
        if isinstance(current, int):
            return int(text)
        if isinstance(current, float):
            return float(text)
        return tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError:
        kind = {int: "an integer", float: "a number"}.get(
            type(current), "integers separated by commas or spaces")
        raise ConfigError(f"{key} must be {kind}, got {text!r}") from None


def format_cell(value) -> str:
    """Floats by repr, so written values read back exactly."""
    return repr(value) if isinstance(value, float) else str(value)


def csv_text(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([format_cell(v) for v in row] for row in rows)
    return buffer.getvalue()
