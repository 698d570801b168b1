"""Slack records: the one result row every inequality evaluation produces."""

from __future__ import annotations

from dataclasses import dataclass

#: Relative tolerance for declaring an inequality tight ("holds with equality").
EQUALITY_RTOL = 1e-10

#: Relative tolerance below which a negative slack counts as a violation.
VIOLATION_RTOL = 1e-10


@dataclass(frozen=True)
class SlackRecord:
    """One inequality evaluation.

    ``slack`` is signed so that a nonnegative value always means the
    inequality holds as stated, regardless of its direction. ``scale`` is
    max(1, magnitude of every top-level additive term) and bounds the
    round-off a cancelling difference can carry; equality detection uses
    the narrower max(1, |lhs|, |rhs|) window.
    """

    lhs: float
    rhs: float
    slack: float
    equality: bool
    scale: float
    alpha: int | None = None
    k: int | None = None
    entry_id: str | None = None
    n: int | None = None
    radius: float | None = None
    angle_hash: str | None = None
