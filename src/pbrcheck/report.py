"""Report documents emitted by the command line: text, JSON and CSV renderings.

JSON is the canonical machine format and round-trips losslessly (floats keep
full repr precision); text tables are for humans and print probabilities with
12 significant digits, rendering zero-flagged cells as ``0*``; CSV carries the
probability matrices only.
"""

from __future__ import annotations

import io
import csv
import json
import math
from dataclasses import dataclass, field

from .errors import DomainError
from .ontic import FeasibilityVerdict
from .quantum import as_real
from .scenarios import ProbabilityTable, payload_field


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass
class ReportDocument:
    """One command's worth of results: tables, verdicts and run metadata."""

    scenario: str
    tables: list[ProbabilityTable] = field(default_factory=list)
    verdicts: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "scenario": self.scenario,
            "metadata": self.metadata,
            "tables": [t.to_dict() for t in self.tables],
            "verdicts": self.verdicts,
            "extras": self.extras,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ReportDocument":
        """Rebuild a document, revalidating every table's invariants; a missing key or a wrong type is refused."""
        return cls(
            scenario=payload_field(payload, "scenario", str),
            tables=[ProbabilityTable.from_dict(t) for t in payload_field(payload, "tables", list)],
            verdicts=[_verdict_entry(v) for v in payload_field(payload, "verdicts", list)],
            metadata=payload_field(payload, "metadata", dict),
            extras=payload_field(payload, "extras", dict),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls.from_payload(json.loads(text))

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for key, value in self.metadata.items():
            lines.append(f"{key}: {_render_value(value)}")
        for table in self.tables:
            lines.append("")
            lines.extend(_table_lines(table))
        for verdict in self.verdicts:
            lines.append("")
            lines.append(f"verdict [{verdict.get('name', 'feasibility')}]: {verdict['status']}")
            if verdict.get("violated_constraint"):
                lines.append(f"  {verdict['violated_constraint']}")
            if verdict.get("max_residual") is not None:
                lines.append(f"  witness max residual: {_fmt(verdict['max_residual'])}")
        if self.extras:
            lines.append("")
            for key, value in self.extras.items():
                lines.append(f"{key}: {_render_value(value)}")
        if any(t.zero_flags.any() for t in self.tables):
            lines.append("")
            lines.append("* marks probabilities at or below the zero-flag threshold.")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """Probability rows of all tables, one header from the first table.

        Like the text rendering, zero-flagged cells are reported as exact 0;
        the unclipped values live in the JSON document.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if self.tables:
            writer.writerow(self.tables[0].column_labels)
            for table in self.tables:
                flags = table.zero_flags
                for i, row in enumerate(table.probabilities):
                    writer.writerow(["0" if flags[i, j] else _fmt(x) for j, x in enumerate(row)])
        return buffer.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise DomainError(f"unknown format {fmt!r}")


def _verdict_entry(verdict) -> dict:
    """A verdict entry read back, refused unless it is a dict whose status is "feasible" or "infeasible".

    A ``name``, if given, must be a ``str``; a ``violated_constraint`` that is
    not None a ``str``, and a ``max_residual`` that is not None a real >= 0.
    """
    if payload_field(verdict, "status", str) not in ("feasible", "infeasible"):
        raise DomainError(f"status must be 'feasible' or 'infeasible', got {verdict['status']!r}")
    if "name" in verdict:
        payload_field(verdict, "name", str)
    if verdict.get("violated_constraint") is not None:
        payload_field(verdict, "violated_constraint", str)
    if verdict.get("max_residual") is not None:
        as_real(verdict["max_residual"], "max_residual", 0, math.inf)
    return verdict


def _render_value(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, dict):
        return " ".join(f"{k}={_render_value(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    return str(value)


def _table_lines(table: ProbabilityTable) -> list[str]:
    flags = table.zero_flags
    label_width = max(len("row"), *(len(r) for r in table.row_labels))
    cells = []
    for i, row in enumerate(table.probabilities):
        cells.append(["0*" if flags[i, j] else _fmt(p) for j, p in enumerate(row)])
    col_widths = [
        max(len(table.column_labels[j]), *(len(c[j]) for c in cells))
        for j in range(len(table.column_labels))
    ]
    header = "row".ljust(label_width) + "  " + "  ".join(
        lab.rjust(w) for lab, w in zip(table.column_labels, col_widths)
    )
    body = [
        table.row_labels[i].ljust(label_width)
        + "  "
        + "  ".join(c.rjust(w) for c, w in zip(cells[i], col_widths))
        for i in range(len(cells))
    ]
    return [f"table: {table.title}" if table.title else "table:", header, *body]


def verdict_summary(name: str, verdict: FeasibilityVerdict) -> dict:
    """JSON-friendly summary of a feasibility verdict (witness table included)."""
    summary = {
        "name": name,
        "status": verdict.status,
        "violated_constraint": verdict.violated_constraint,
        "max_residual": None if verdict.max_residual is None else float(verdict.max_residual),
    }
    if verdict.witness is not None:
        summary["witness"] = verdict.witness.table.tolist()
    return summary
