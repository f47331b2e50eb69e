"""The byte format of every CSV and JSON run artifact.

Tables are UTF-8 with '\\n' line ends, quoted by `csv.writer`; documents
are JSON with two-space indent, sorted keys and a final newline. Keeping
the format here alone is what makes reruns byte-identical everywhere.
"""

from __future__ import annotations

import csv
import json


def write_csv(path, header, rows) -> None:
    """Write a header row, then every row of `rows`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """Parse a JSON file; a file that is not UTF-8 JSON raises a
    ValueError that names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
