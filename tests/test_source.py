"""Checks on the source text: line counts only fall when code goes, not
when lines are merged."""

import glob
import os

from conftest import SRC

MAX_COLUMNS = 120


def test_no_source_line_is_longer_than_120_columns():
    paths = sorted(glob.glob(os.path.join(SRC, "qprune", "*.py")))
    assert len(paths) > 10
    too_long = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f.read().splitlines(), 1):
                if len(line) > MAX_COLUMNS:
                    too_long.append(f"{os.path.basename(path)}:{number} has {len(line)} columns")
    assert too_long == []
