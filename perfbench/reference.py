"""A fixed reference task that gauges how fast the machine runs right now.

Usage: python3 perfbench/reference.py

It does what a CLI invocation does, with code that no change to the
program can touch: a fresh interpreter imports numpy, then a pure-Python
backtracking search over dicts, sets and tuples counts the reduced Latin
squares of order 6 (9408 of them).  It exits 1 if the count is wrong.
The benchmark times it between invocations of the program and divides the
program's times by its time (see ``run.py``).
"""
from __future__ import annotations

import sys

import numpy  # noqa: F401  (the program's start-up imports numpy too)

ORDER = 6
REDUCED_LATIN_SQUARES = 9408


def count_reduced_latin_squares(n: int) -> int:
    """Latin squares of order n whose first row and column are 0..n-1."""
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]
    grid: dict[tuple[int, int], int] = {}
    rows = {r: {r} for r in range(n)}
    cols = {c: {c} for c in range(n)}
    symbols = frozenset(range(n))

    def fill(i: int) -> int:
        if i == len(cells):
            return 1
        r, c = cells[i]
        total = 0
        for s in sorted(symbols - rows[r] - cols[c]):
            grid[(r, c)] = s
            rows[r].add(s)
            cols[c].add(s)
            total += fill(i + 1)
            rows[r].discard(s)
            cols[c].discard(s)
            del grid[(r, c)]
        return total

    return fill(0)


def main() -> int:
    found = count_reduced_latin_squares(ORDER)
    if found != REDUCED_LATIN_SQUARES:
        print(f"reference: counted {found} reduced Latin squares of order "
              f"{ORDER}, expected {REDUCED_LATIN_SQUARES}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
