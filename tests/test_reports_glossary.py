"""REPORTS.md has one line per (kind, name) that the stored reports hold.

The names are every row column and every summary entry of every stored
report in `tests/golden/`, read through `test_golden.report_columns`, with a
pruned layer's `_l<k>` suffix folded and summary entries kept by their
`summary.` paths.  Config entries echo the kind's config fields and are not
listed.  The test fails on a name that has no glossary line, and on a line
that names nothing any stored report has.
"""

import json
import re
from collections import Counter
from pathlib import Path

from test_golden import GOLDEN, report_columns

GLOSSARY = Path(__file__).resolve().parents[1] / "REPORTS.md"
LAYER = re.compile(r"_l\d+$")


def report_names(paths) -> set:
    """(kind, name) for every row column and summary entry of the reports."""
    names = set()
    for path in paths:
        columns = report_columns(path.read_text(encoding="utf-8"), path.suffix[1:])
        kind = json.loads(columns.get("kind", columns.get("config.kind"))[0])
        for name in columns:
            if name not in ("kind", "columns") and not name.startswith("config."):
                names.add((kind, LAYER.sub("_l<k>", name)))
    return names


def glossary_lines(text: str) -> list:
    """(kind, name) for every table line of the glossary, under its `## kind` heading."""
    lines, kind = [], None
    for line in text.splitlines():
        if line.startswith("## "):
            kind = line[3:].strip()
        elif line.startswith("| `"):
            lines.append((kind, line.split("|")[1].strip().strip("`")))
    return lines


def _stored_reports():
    return sorted(p for p in GOLDEN.iterdir() if p.suffix in (".csv", ".json"))


def test_every_stored_report_name_has_one_glossary_line():
    lines = glossary_lines(GLOSSARY.read_text(encoding="utf-8"))
    assert [key for key, n in Counter(lines).items() if n > 1] == []
    missing = sorted(report_names(_stored_reports()) - set(lines))
    assert missing == [], "add a REPORTS.md line for each"


def test_every_glossary_line_names_a_stored_report_name():
    names = report_names(_stored_reports())
    stale = [key for key in glossary_lines(GLOSSARY.read_text(encoding="utf-8")) if key not in names]
    assert stale == [], "these REPORTS.md lines name nothing a stored report has"


def test_a_column_added_to_a_report_is_missing_from_the_glossary(tmp_path):
    stored = GOLDEN / "fcn-depth-5.csv"
    # the header and every row gain one cell
    lines = stored.read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    lines = [line if line.startswith("# ") else line + (",new_col" if i == header else ",1") for i, line in enumerate(lines)]
    mutated = tmp_path / stored.name
    mutated.write_text("\n".join(lines) + "\n", encoding="utf-8")
    glossary = set(glossary_lines(GLOSSARY.read_text(encoding="utf-8")))
    assert report_names([mutated]) - glossary == {("fcn-sweep", "new_col")}
