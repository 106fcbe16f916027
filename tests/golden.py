"""Golden values for the characterization tests.

Each golden file under ``tests/golden/`` maps a case name to the plain-JSON
values that case produced on a known-good tree. Strings, booleans and
integers must match exactly and floats to a relative tolerance of 1e-9;
rates and counts therefore match exactly, since a one-row change moves a
rate by far more than that.

To re-record a file from the current tree (only after a change that is
meant to move these numbers), run the tests with VFLKIT_RECORD_GOLDEN=1.
"""
import json
import math
import os
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-9


def plain(value):
    """The value as JSON would hold it: numpy scalars and arrays unwrapped."""
    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, np.generic):
            return obj.item()
        raise TypeError(f"not JSON-able: {type(obj).__name__}")
    return json.loads(json.dumps(value, default=default))


def _mismatches(expected, observed, where: str) -> list[str]:
    if isinstance(expected, dict) and isinstance(observed, dict):
        if set(expected) != set(observed):
            return [f"{where}: keys {sorted(expected)} != {sorted(observed)}"]
        out = []
        for key in expected:
            out += _mismatches(expected[key], observed[key], f"{where}.{key}")
        return out
    if isinstance(expected, list) and isinstance(observed, list):
        if len(expected) != len(observed):
            return [f"{where}: length {len(expected)} != {len(observed)}"]
        out = []
        for i, (e, o) in enumerate(zip(expected, observed)):
            out += _mismatches(e, o, f"{where}[{i}]")
        return out
    numbers = (int, float)
    if (isinstance(expected, float) or isinstance(observed, float)) and \
            isinstance(expected, numbers) and isinstance(observed, numbers) \
            and not isinstance(expected, bool) \
            and not isinstance(observed, bool):
        if math.isclose(expected, observed, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{where}: {expected!r} != {observed!r}"]
    if type(expected) is not type(observed) or expected != observed:
        return [f"{where}: {expected!r} != {observed!r}"]
    return []


def check(file: str, case: str, observed):
    """Compare ``observed`` with the recorded case, or record it."""
    path = GOLDEN_DIR / f"{file}.json"
    observed = plain(observed)
    doc = {}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    if os.environ.get("VFLKIT_RECORD_GOLDEN") == "1":
        doc[case] = observed
        GOLDEN_DIR.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    if case not in doc:
        raise AssertionError(f"no golden value for {file}:{case}")
    problems = _mismatches(doc[case], observed, case)
    if problems:
        raise AssertionError("golden mismatch:\n" + "\n".join(problems[:20]))
