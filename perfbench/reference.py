"""Reference outputs and the comparisons that count a benchmark failure.

``reference.json`` holds the outputs of the reference commit on every input
the benchmark can draw: the coefficients of each one-shot fit, the final
coefficients and ledger sum of each stream, and the numeric content of
``report.csv`` and ``summary.csv`` of each sweep. ``make_reference.py``
writes it. A value matches when it is within ``TOLERANCE`` absolutely, or
relatively for values larger than one; text fields and integers must be equal.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: Largest accepted difference from the reference (relative above magnitude 1).
TOLERANCE = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def close(value: float, expected: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= TOLERANCE * max(1.0, abs(expected))


def vectors_match(values, expected) -> bool:
    values = [float(v) for v in values]
    return len(values) == len(expected) and all(map(close, values, expected))


def _cell_matches(text: str, expected: str) -> bool:
    if text == expected:
        return True
    try:
        return close(float(text), float(expected))
    except ValueError:
        return False


def csv_mismatches(text: str, expected: str) -> list[tuple[dict, dict]]:
    """Rows of ``text`` that differ from the same row of ``expected``.

    Each mismatch is returned as (row, expected row), both as column→text
    dicts; a row missing on either side is paired with an empty dict. A
    different header makes every expected row a mismatch.
    """
    rows = [line.split(",") for line in text.strip().splitlines()]
    ref = [line.split(",") for line in expected.strip().splitlines()]
    header, ref_header = (rows[0] if rows else []), ref[0]
    if header != ref_header:
        return [({}, dict(zip(ref_header, r))) for r in ref[1:]]
    out = []
    for i in range(1, max(len(rows), len(ref))):
        got = dict(zip(header, rows[i])) if i < len(rows) else {}
        want = dict(zip(ref_header, ref[i])) if i < len(ref) else {}
        if got.keys() != want.keys() or not all(
            _cell_matches(got[c], want[c]) for c in want
        ):
            out.append((got, want))
    return out
