"""Rewrite the stored golden reports of tests/test_golden.py from the code
in src/, at PRUNELAB_WORKERS=1.

    PYTHONPATH=src python tests/golden/regenerate.py [case ...]

With no case named, every case is run.  For each stored report that
changes, prints the columns that differ with the largest relative drift of
each, and the new sha256, which then replaces the case's digest in
tests/test_golden.py.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_golden  # noqa: E402


def main(names: list) -> int:
    os.environ["PRUNELAB_WORKERS"] = "1"
    cases = [(c, "csv", *test_golden.CASES[c][:2]) for c in test_golden.CASES]
    cases += [(c, "json", *test_golden.JSON_CASES[c][:2]) for c in test_golden.JSON_CASES]
    unknown = set(names) - {case for case, *_ in cases}
    if unknown:
        print(f"unknown cases: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    for case, fmt, kind, body in cases:
        if names and case not in names:
            continue
        path = test_golden.GOLDEN / f"{case}.{fmt}"
        with tempfile.TemporaryDirectory() as work:
            report = test_golden.render(Path(work), kind, body, fmt)
        old = path.read_bytes() if path.exists() else None
        if report == old:
            continue
        path.write_bytes(report)
        print(f"{path.name}: sha256 {hashlib.sha256(report).hexdigest()}")
        if old is not None:
            print(test_golden.report_diff(old.decode(), report.decode(), fmt))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
