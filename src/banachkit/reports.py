"""Suite reports: per-check records with verdicts, JSON and CSV output.

Checks come in two tiers. ASSERT checks are machine-decidable contracts
(exact identities, direction-tagged comparisons) and drive the exit
status; OBSERVE checks record empirical constants that no effective
bound pins down, and never fail a run. All numeric fields are a pure
function of the master seed; the runtime field is wall clock (the
seconds a check took, timed from the report's creation or its previous
record) and is excluded from reproducibility comparisons.
"""

import csv
import io
import json
import time
from dataclasses import dataclass, field

from .estimates import Record

__all__ = ["CheckRecord", "SuiteReport"]

ASSERT, OBSERVE = "ASSERT", "OBSERVE"

VERSION = "0.1.0"


@dataclass
class CheckRecord(Record):
    name: str
    tier: str
    verdict: str  # "pass" | "fail" | "observe"
    measured: float | None = None
    bound: float | None = None
    inputs: dict = field(default_factory=dict)
    seed: int | None = None
    runtime: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class SuiteReport:
    suite: str
    master_seed: int
    records: list = field(default_factory=list)
    version: str = VERSION
    _mark: float = field(default_factory=time.perf_counter, init=False, repr=False,
                         compare=False)

    def add(self, record):
        self.records.append(record)
        self._mark = time.perf_counter()
        return record

    def check(self, name, ok, measured=None, bound=None, tier=ASSERT, seed=None,
              runtime=None, extra=None):
        """Add a record, with a copy of extra as its extra dict. Without an
        explicit runtime, the record gets the wall seconds since the
        report was created or since its previous record."""
        if runtime is None:
            runtime = time.perf_counter() - self._mark
        verdict = ("pass" if ok else "fail") if tier == ASSERT else "observe"
        return self.add(CheckRecord(name, tier, verdict, measured, bound, seed=seed,
                                    runtime=runtime, extra=dict(extra or {})))

    @property
    def passed(self):
        return all(r.verdict != "fail" for r in self.records)

    def to_dict(self):
        return {
            "suite": self.suite,
            "version": self.version,
            "master_seed": self.master_seed,
            "passed": self.passed,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["suite", "check", "tier", "verdict", "measured", "bound", "seed"])
        for r in self.records:
            writer.writerow([self.suite, r.name, r.tier, r.verdict, r.measured, r.bound, r.seed])
        return buf.getvalue()

    def summary_lines(self):
        lines = []
        for r in self.records:
            m = "" if r.measured is None else f" measured={r.measured:.6g}"
            b = "" if r.bound is None else f" bound={r.bound:.6g}"
            lines.append(f"[{r.verdict.upper():7s}] {self.suite}/{r.name}{m}{b}")
        status = "OK" if self.passed else "FAILED"
        lines.append(f"suite {self.suite}: {status} "
                     f"({sum(r.verdict == 'pass' for r in self.records)} pass, "
                     f"{sum(r.verdict == 'fail' for r in self.records)} fail, "
                     f"{sum(r.verdict == 'observe' for r in self.records)} observe)")
        return lines
