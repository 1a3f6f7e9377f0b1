"""Deterministic run reports: nested key-value text plus optional CSV.

Reports serialize nested dicts/lists of scalars with a stable layout and
shortest-round-trip float formatting, so identical runs produce
byte-identical documents except for the wall_time_ms line.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_report", "write_csv", "strip_volatile"]


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return "none"
    return str(value)


def _render(value, indent, lines):
    pad = "  " * indent
    if isinstance(value, dict):
        for key, sub in value.items():
            if isinstance(sub, (dict, list)) and not _is_flat_list(sub):
                lines.append(f"{pad}{key}:")
                _render(sub, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_render_inline(sub)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and not _is_flat_list(item):
                lines.append(f"{pad}-")
                _render(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_render_inline(item)}")
    else:
        lines.append(f"{pad}{_fmt(value)}")


def _is_flat_list(value):
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value
    )


def _render_inline(value):
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return _fmt(value)


def render_report(doc):
    """Serialize a nested report document deterministically."""
    lines = []
    _render(doc, 0, lines)
    return "\n".join(lines) + "\n"


def strip_volatile(text):
    """Drop the wall-time line for bit-identical comparisons."""
    return "\n".join(
        line for line in text.splitlines() if not line.strip().startswith("wall_time_ms:")
    )


def write_csv(path, rows):
    """Write per-point report rows as CSV: the point (its coordinates joined
    by ';'), then every other column, sorted by name."""
    header = sorted({k for r in rows for k in r if k != "point"})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["point"] + header) + "\n")
        for r in rows:
            point = ";".join(f"{x!r}" for x in r["point"])
            fh.write(",".join([point] + [_fmt(r.get(k, "")) for k in header]) + "\n")
