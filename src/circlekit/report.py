"""Check results and run reports, as the verify suites and the
fragmentation commands print them.  Kept apart from verify so that a
command which reports checks need not import the suites."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def passed(self) -> bool:
        return self.residual < self.tol


@dataclass
class RunReport:
    command: str
    checks: list = field(default_factory=list)
    inputs_digest: str = ""
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "checks": [
                {"name": c.name, "residual": c.residual, "tol": c.tol, "pass": c.passed}
                for c in self.checks
            ],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.inputs_digest:
            lines.append(f"inputs:  {self.inputs_digest}")
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: residual {c.residual:.6e} (tol {c.tol:.1e})")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'} ({self.wall_time:.2f} s)")
        return "\n".join(lines)


def digest_inputs(**kwargs) -> str:
    blob = json.dumps(kwargs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
