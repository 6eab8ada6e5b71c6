#!/usr/bin/env python3
"""Numeric drift between two artifact trees, one line per file, then a count per verdict:

    python3 .github/drift.py BASE HEAD

Each file under either tree gets one verdict:
  identical          the same bytes;
  equal within 1e-12 relative
                     numbers differ, each by at most 1e-12 relative;
  moved              numbers differ by more: the largest absolute and the largest relative
                     change, each with its column (or key) and the first row where that
                     column moves by more than 1e-12 relative;
  text changed       anything else differs (a header, a row count, a word, an exit code);
  only in BASE/HEAD  the file is missing from the other tree.
CSVs compare by header column, row by row, and sweep_metrics.csv by the key in its first
column.  *.txt and *.stdout files of `key = value` lines (metrics.txt, `momobs check`
reports) compare by key.  Every other file, *.exit and *.stderr included, compares as text.
Uses the stdlib only.  Exits 0 when every file is identical or equal, else 1.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from collections import Counter
from pathlib import Path

REL_TOL = 1e-12


def read_table(path: Path):
    """{column: {row key: cell}} of a CSV or `key = value` file; None for text compared whole."""
    text = path.read_text()
    if path.suffix == ".csv":
        header, *body = csv.reader(io.StringIO(text))
        if any(len(row) != len(header) for row in body):
            return None
        keyed = path.name == "sweep_metrics.csv"
        table = {column: {} for column in header}
        for number, row in enumerate(body, start=1):
            key = f"{header[0]}={row[0]}" if keyed else str(number)
            for column, cell in zip(header, row):
                table[column][key] = cell
        return table
    pairs = [line.partition(" = ") for line in text.splitlines() if line]
    if path.suffix not in (".txt", ".stdout") or not pairs or not all(sep for _, sep, _ in pairs):
        return None
    return {key: {"": value} for key, _, value in pairs}


def change(a: str, b: str):
    """(absolute, relative) change between two cells; None if they differ and are not numbers."""
    if a == b:
        return 0.0, 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    gap = abs(x - y)
    if not math.isfinite(gap):
        return math.inf, math.inf
    return gap, gap / max(abs(x), abs(y))


def compare(base: Path, head: Path) -> str:
    """The verdict line's text for one file present in both trees."""
    if base.read_bytes() == head.read_bytes():
        return "identical"
    old, new = read_table(base), read_table(head)
    if old is None or new is None or list(old) != list(new):
        return "text changed"
    worst = {}  # "abs" / "rel": (size, column, first moved row of that column)
    for column, cells in old.items():
        if list(cells) != list(new[column]):
            return "text changed"
        steps = [change(cells[row], new[column][row]) for row in cells]
        if None in steps:
            return "text changed"
        moved = [row for row, (_, rel) in zip(cells, steps) if rel > REL_TOL]
        if not moved:
            continue
        for kind, size in zip(("abs", "rel"), map(max, zip(*steps))):
            if size > worst.get(kind, (-1.0,))[0]:
                worst[kind] = (size, column, moved[0])
    if not worst:
        return f"equal within {REL_TOL:g} relative"
    return "moved: " + ", ".join(
        f"largest {kind} {size:.3g} ({column}" + (f", first row {row})" if row else ")")
        for kind, (size, column, row) in worst.items())


def drift(base_root: Path, head_root: Path):
    """(relative path, verdict) for every file under either tree, in path order."""
    files = {p.relative_to(root) for root in (base_root, head_root)
             for p in root.rglob("*") if p.is_file()}
    for rel in sorted(files):
        base, head = base_root / rel, head_root / rel
        if not base.is_file():
            yield rel, "only in HEAD"
        elif not head.is_file():
            yield rel, "only in BASE"
        else:
            yield rel, compare(base, head)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: drift.py BASE HEAD (two artifact directories)", file=sys.stderr)
        return 2
    verdicts = Counter()
    for rel, verdict in drift(Path(args[0]), Path(args[1])):
        print(f"{rel}: {verdict}")
        verdicts[verdict.partition(":")[0]] += 1
    print(f"{sum(verdicts.values())} files: "
          + ", ".join(f"{count} {verdict}" for verdict, count in verdicts.most_common()))
    settled = verdicts["identical"] + verdicts[f"equal within {REL_TOL:g} relative"]
    return 0 if settled == sum(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
