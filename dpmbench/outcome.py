"""What one workload run hands back to the runner."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: metric name → value, in the unit ``run.py`` declares for it; a
    #: per-layer metric the workload never reaches is left out
    metrics: dict = field(default_factory=dict)
    #: human-readable report lines printed before the result line
    lines: list = field(default_factory=list)

    @property
    def success_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0
