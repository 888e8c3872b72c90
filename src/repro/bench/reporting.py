"""Benchmark reporting: printable tables and persisted result files.

Every benchmark in ``benchmarks/`` prints the rows/series the paper's
corresponding table or figure reports, and persists the same content
under ``results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence


@dataclass
class Report:
    """One experiment's output: a title, table rows, and notes."""

    experiment: str  # e.g. "fig8"
    title: str
    header: Sequence[str]
    rows: list[Sequence] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        self.rows.append(cells)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        lines = [f"== {self.experiment}: {self.title} ==", ""]
        lines.append(format_table(self.header, self.rows))
        if self.notes:
            lines.append("")
            lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "title": self.title,
            "header": list(self.header),
            "rows": [list(r) for r in self.rows],
            "notes": self.notes,
        }


def format_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width ASCII table."""
    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    table = [list(map(cell, header))] + [list(map(cell, r)) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    out = []
    for i, row in enumerate(table):
        out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def results_dir(base: "str | Path | None" = None) -> Path:
    """``results/`` next to the repo root (created on demand)."""
    root = Path(base) if base is not None else Path(__file__).resolve().parents[3]
    path = root / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_report(report: Report, base: "str | Path | None" = None) -> Path:
    """Write <results>/<experiment>.txt and .json; return the txt path."""
    out = results_dir(base)
    txt = out / f"{report.experiment}.txt"
    txt.write_text(report.render() + "\n")
    (out / f"{report.experiment}.json").write_text(
        json.dumps(report.to_json(), indent=2)
    )
    return txt
