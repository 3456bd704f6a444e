"""`BoundReport.serialize` text frozen on a grid of (q, k, n) cells.

`tests/data/bound_reports.txt` holds, for each cell, both serializations
(6 significant digits, and `ceil_reals`) or the refusal message of a cell
the bounds refuse.  Only serialize precision is kept, so the file does not
depend on the last bits of the platform's libm.  To print the text again:

    PYTHONPATH=src python tests/test_bound_golden.py > tests/data/bound_reports.txt
"""

import pathlib

from fpcodes.bounds import bound_report
from fpcodes.core import ParameterError

GOLDEN = pathlib.Path(__file__).parent / "data" / "bound_reports.txt"
CELLS = [
    (q, k, n)
    for q in (2, 3, 4, 16, 256, 65536, 2**40)
    for k in (2, 3, 5, 8, 16)
    for n in (k + 1, 1000, 10**6)
]


def cell_text(q, k, n):
    try:
        report = bound_report(q, k, n)
    except ParameterError as exc:
        return f"q {q}\nk {k}\nn {n}\nrefused {exc}\n"
    return f"{report.serialize()}ceil\n{report.serialize(ceil_reals=True)}"


def golden_text():
    return "\n".join(cell_text(q, k, n) for q, k, n in CELLS)


def test_reports_match_golden_file():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    print(golden_text(), end="")
