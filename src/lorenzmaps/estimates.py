"""The result type both estimators return, and their method names.

It imports nothing beyond the standard library, so the lap estimator,
which needs only exact rational arithmetic, loads no numpy with it.
"""

from __future__ import annotations

from dataclasses import dataclass

SPECTRAL = "spectral"
LAPS = "laps"


@dataclass(frozen=True)
class EntropyEstimate:
    """An entropy value with its provenance and an error estimate."""

    entropy: float
    gamma: float
    method: str
    order: int
    error_bound: float
    certified: bool
