"""Verification report plumbing shared by the sweep checkers and the CLI.

Every comparison a checker makes goes through ``VerificationReport.check``,
which counts it and records it as a failure unless it holds; no other module
writes a report's counts or failures, so every failure is a counted check.
"""

from __future__ import annotations

from typing import Any

from . import _EXPORTS

__all__ = list(_EXPORTS["reports"])

FAILURE_CAP = 25  # keep every report readable; the count still reflects all failures
JSON_SAFE_INT = 2**53  # larger integers lose precision in IEEE doubles


def _json_safe(value: Any) -> Any:
    # integers past JSON_SAFE_INT become decimal strings, at any depth
    if isinstance(value, int) and abs(value) > JSON_SAFE_INT:
        return str(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


class VerificationReport:
    """Outcome of sweeping one claim over an index range.

    ``failures`` holds at most FAILURE_CAP records (sorted by the order they
    were found, which is ascending in n for every checker here);
    ``failure_count`` counts all of them.  ``passed`` is true exactly when
    nothing failed.
    """

    def __init__(self, label: str, spec: dict[str, Any] | None = None, metadata: dict[str, Any] | None = None):
        # every count starts at 0; fields are assigned in the order to_json keeps
        self.label, self.spec, self.checked, self.skipped = label, spec, 0, 0
        self.failures: list[dict[str, Any]] = []
        self.failure_count = 0
        self.metadata = {} if metadata is None else metadata

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def check(self, ok: bool, **fields: Any) -> None:
        """Count one comparison; unless ``ok``, record ``fields`` as its failure."""
        self.checked += 1
        if not ok:
            self.record_failure(**fields)

    def record_failure(self, **fields: Any) -> None:
        self.failure_count += 1
        if len(self.failures) < FAILURE_CAP:
            self.failures.append(dict(fields))

    def to_json(self) -> dict[str, Any]:
        """Every field in declaration order, ``passed`` before ``metadata``;
        integers with |v| > 2^53 are written as decimal strings."""
        out = _json_safe(vars(self))
        out["passed"], out["metadata"] = self.passed, out.pop("metadata")  # metadata moves last
        return out
