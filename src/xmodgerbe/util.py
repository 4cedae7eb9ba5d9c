"""Shared plumbing: error types, search budgets, check reports."""
from __future__ import annotations

from dataclasses import dataclass, field


class StructureError(ValueError):
    """Raised when input data does not satisfy a structural precondition."""


class BudgetError(RuntimeError):
    """Raised when a search would exceed its configured budget.

    Carries enough context to report what was attempted and how big it was;
    callers must treat this as "not computed", never as "empty result".
    """

    def __init__(self, what: str, needed: int, budget: int):
        super().__init__(
            f"{what}: needs ~{needed} steps, budget is {budget} "
            f"(raise the budget or use --force where supported)"
        )
        self.what = what
        self.needed = needed
        self.budget = budget


DEFAULT_BUDGET = 2_000_000


@dataclass
class Budget:
    """Countdown node counter shared across a search."""

    limit: int = DEFAULT_BUDGET
    used: int = 0
    what: str = "search"

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetError(self.what, self.used, self.limit)


# Uncalled: perfbench/tracer.py still hooks `util.pmap` by name; delete both together.
def pmap(fn, items, jobs: int = 1, chunksize: int = 1):
    """Order-preserving map, optionally through a process pool.

    Results are returned in the order of `items` regardless of `jobs`, so a
    parallel run is byte-for-byte reproducible against a serial one.
    """
    import multiprocessing  # here, so that importing util stays cheap
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with multiprocessing.Pool(processes=jobs) as pool:
        return pool.map(fn, items, chunksize=chunksize)


@dataclass
class Report:
    """Accumulates named check results; `ok` is the conjunction.

    A check made on a stack of rows (`add_rows`) also keeps a pass flag per
    row: `rows` is the conjunction, row by row, of every such check."""

    checks: list[tuple[str, bool]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    rows: object = None

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok)))
        if not ok:
            self.violations.append(f"{name}: {detail}" if detail else name)

    def add_rows(self, name: str, ok) -> None:
        """Record a law checked elementwise: `ok` is a boolean array whose
        last axis runs over simplices, with one row per stacked item or no
        leading axis for a single item; a row passes when all its entries
        do."""
        per_row = ok.all(axis=-1).reshape(-1)
        self.rows = per_row if self.rows is None else self.rows & per_row
        self.add(name, per_row.all())

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.checks)

    def summary(self) -> str:
        if self.ok:
            return "ok ({} checks)".format(len(self.checks))
        return "FAILED: " + "; ".join(self.violations)
