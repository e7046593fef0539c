"""Project report assembly and rendering (CSV, JSON, markdown)."""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from varxpert.util import csv_text, stable_json


class ProjectReport(NamedTuple):
    project: str
    files: int
    variability_blocks: int
    distinct_macros: int
    commits: int  # non-merge commits inside the analysis window
    devs: int
    generalist_pct: float
    specialist_pct: float
    mixed_pct: float
    doa_dev_pct: float
    doa_precision: Optional[float]
    doa_recall: Optional[float]
    ownership_dev_pct: float
    ownership_precision: Optional[float]
    ownership_recall: Optional[float]
    meets_min_devs: bool  # more than 30 developers, informational only

    def to_csv(self) -> str:
        return csv_text(self._fields, [self])

    def to_json(self) -> str:
        return stable_json(self._asdict())

    def to_markdown(self) -> str:
        def pct(value: float) -> str:
            return f"{value:.2f}"

        def ratio(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:.2f}"

        header = (
            "| Project | # Files | # Var. | # Commits | # Devs. "
            "| Generalist / Specialist / Mixed (%) "
            "| DOA (% of devs) | DOA P / R "
            "| Ownership (% of devs) | Ownership P / R |"
        )
        divider = "|" + " --- |" * 10
        # a bare | would split the cell, and CR or LF the row
        project = re.sub("[\r\n]", "<br>", self.project.replace("|", "\\|"))
        row = (
            f"| {project} | {self.files} | {self.variability_blocks} "
            f"| {self.commits} | {self.devs} "
            f"| {pct(self.generalist_pct)} / {pct(self.specialist_pct)} / {pct(self.mixed_pct)} "
            f"| {pct(self.doa_dev_pct)} | {ratio(self.doa_precision)} / {ratio(self.doa_recall)} "
            f"| {pct(self.ownership_dev_pct)} "
            f"| {ratio(self.ownership_precision)} / {ratio(self.ownership_recall)} |"
        )
        return "\n".join([header, divider, row]) + "\n"

    def render(self, output_format: str) -> str:
        if output_format == "json":
            return self.to_json()
        if output_format == "markdown":
            return self.to_markdown()
        return self.to_csv()
