"""Shared diagnostic counters and the episode-abort signal.

Two severity levels exist. Soft events (zero-norm vectors in a cosine,
isolated graph vertices, a non-monotone head loss) are counted and the
episode continues. Fatal events (non-finite losses, degenerate inputs a
loss cannot accept) raise :class:`EpisodeAbort`; the evaluation loop
counts the abort, drops the episode from statistics, and fails the whole
run if aborts exceed 1% of the requested task count.
"""

from __future__ import annotations

from collections import Counter


class EpisodeAbort(Exception):
    """Fatal per-episode failure; carries a short machine-readable reason."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class Diagnostics:
    """Mutable record of one episode or run: named event counters, and
    the seconds spent in each phase (not part of `as_dict`)."""

    def __init__(self):
        self.counts: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()

    def record(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def as_dict(self) -> dict[str, int]:
        return {k: self.counts[k] for k in sorted(self.counts)}

    def __repr__(self):
        return f"Diagnostics({dict(self.counts)!r})"
