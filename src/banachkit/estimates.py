"""Result types for one-sided, witness-carrying numerical estimates.

Optimization can only certify one side of a sup or inf. Every estimator
in this package therefore returns an Estimate whose direction says which
side is certified, together with the witness achieving the value, so any
reported number can be reproduced independently of the search that found
it.
"""

from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

__all__ = ["Record", "Estimate", "AverageResult", "GaugeValue", "jsonable"]

LOWER, UPPER, EXACT = "lower", "upper", "exact"


class Record:
    """Dataclass mixin: to_dict maps each field, in declaration order, to
    its jsonable value."""

    def to_dict(self):
        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}


@dataclass
class Estimate(Record):
    value: float
    direction: str  # "lower" | "upper" | "exact"
    witness: Any = None
    budget: int = 0
    seed: int | None = None
    stderr: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.direction not in (LOWER, UPPER, EXACT):
            raise ValueError(f"bad direction {self.direction!r}")


@dataclass
class AverageResult(Record):
    """Expectation of a norm under random signs or gaussians."""

    value: float
    method: str  # "exact-enumeration" | "monte-carlo"
    samples: int
    stderr: float
    seed: int | None = None


@dataclass
class GaugeValue(Record):
    """Upper estimate of an infimum-type gauge, with the achieving
    unit-vector configuration as witness."""

    value: float
    direction: str = UPPER
    witness: Any = None
    budget: int = 0
    seed: int | None = None
    meta: dict = field(default_factory=dict)


def jsonable(obj):
    """Recursively convert numpy containers into plain Python."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    return obj
