"""Frozen golden tables and the comparisons the verify command runs."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple, Union

from .counts import (
    GENERAL_LABELED,
    GENERAL_UNLABELED,
    SIMPLEX_LABELED,
    SIMPLEX_UNLABELED,
    TreeClassSpec,
    build_table,
    simplex_total_sequence,
)

Cell = Tuple[int, Union[int, str]]  # (n, g) with g an int or "total"

TABLE_SPECS: Dict[str, Tuple[TreeClassSpec, int]] = {
    "general-unlabeled": (GENERAL_UNLABELED, 12),
    "general-labeled": (GENERAL_LABELED, 12),
    "simplex-unlabeled": (SIMPLEX_UNLABELED, 15),
    "simplex-labeled": (SIMPLEX_LABELED, 15),
}
SIMPLEX_EXTRA_TOTALS_MAX_N = 25


def load_golden() -> Dict[str, Dict[Cell, int]]:
    """The checked-in golden data, keyed by family name then (n, g)."""
    from importlib import resources  # on first use: it pulls in pathlib, tempfile, ...

    out: Dict[str, Dict[Cell, int]] = {}
    text = resources.files("galledtrees").joinpath("data/golden_tables.csv").read_text()
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("table,"):
            continue
        name, n, g, value = line.split(",")
        cell = (int(n), g if g == "total" else int(g))
        out.setdefault(name, {})[cell] = int(value)
    return out


class TableCheck(NamedTuple):
    cells_checked: int
    mismatches: List[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_against_golden() -> TableCheck:
    """Recompute every golden cell with the recursion engine and diff."""
    golden = load_golden()
    cells_checked = 0
    mismatches: List[str] = []
    for name, (spec, max_n) in TABLE_SPECS.items():
        table = build_table(spec, max_n)
        for (n, g), want in golden[name].items():
            if n > max_n:
                continue  # the simplex totals beyond the table, handled below
            got = table.row_totals[n] if g == "total" else table.entries[(n, g)]
            cells_checked += 1
            if got != want:
                mismatches.append(f"{name} n={n} g={g}: {got} != {want}")
    seq = simplex_total_sequence(SIMPLEX_EXTRA_TOTALS_MAX_N)
    for (n, g), want in golden["simplex-unlabeled"].items():
        if n <= TABLE_SPECS["simplex-unlabeled"][1]:
            continue
        cells_checked += 1
        if seq[n] != want:
            mismatches.append(f"simplex-unlabeled n={n} total: {seq[n]} != {want}")
    return TableCheck(cells_checked, mismatches)
