"""Tabular sweep reports and log-log slope fitting.

CSV output is RFC-4180 style with '.' decimals and a fixed float format,
so identical runs produce byte-identical files.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12e")
    return str(v)


class FitError(ValueError):
    """A log-log fit over data that vanish or overflow; maps to exit code 1."""


def fit_loglog(x, y, drop_head: int = 0):
    """Least-squares slope of log(y) vs log(x), all positive and finite (else FitError);
    `drop_head` discards the smallest-x entries (pre-asymptotic regime)."""
    x = np.asarray(x, dtype=float)[drop_head:]
    y = np.asarray(y, dtype=float)[drop_head:]
    if x.size < 2:
        raise ValueError("need at least two points to fit a slope")
    if not (np.all((0 < x) & (x < np.inf)) and np.all((0 < y) & (y < np.inf))):
        raise FitError(f"log-log fit needs positive finite data, got {y.tolist()} at {x.tolist()}")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(intercept)


@dataclass
class ExperimentReport:
    """One sweep: named columns, one row per parameter value, and a summary
    dict (fitted slopes, targets, pass flags)."""

    name: str
    columns: list
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add_row(self, *values):
        if len(values) != len(self.columns):
            raise ValueError("row length does not match columns")
        self.rows.append(tuple(values))

    def column(self, name):
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows])

    @property
    def passed(self) -> bool:
        return bool(self.summary.get("passed", True))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\r\n")
            w.writerow(self.columns)
            for row in self.rows:
                w.writerow([format_value(v) for v in row])
            if self.summary:
                w.writerow([])
                for key in sorted(self.summary):
                    w.writerow([key, format_value(self.summary[key])])
