"""The output check: every delivery against the seeded input.

For each subscriber the benchmark lists which events it must receive
(``required``) and which it may receive (``allowed``, a superset; they
differ only on rule-dense, where a rule being replaced may or may not
still be live when a pack is matched).  A delivery fails the check when it
is a duplicate of an earlier (sender, seqno), arrives out of per-sender
order, carries a type or attributes other than those published, or was
never allowed.  A required event that never arrives is missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

Key = tuple[int, int]                       # (sender service id, seqno)


@dataclass
class CheckResult:
    expected: int = 0
    delivered: int = 0
    missing: int = 0
    duplicated: int = 0
    reordered: int = 0
    altered: int = 0
    unexpected: int = 0
    #: One line per kind of failure, for the report.
    notes: list[str] = field(default_factory=list)

    @property
    def wrong(self) -> int:
        """Deliveries that are not what was published, in the right order."""
        return (self.duplicated + self.reordered + self.altered
                + self.unexpected)

    @property
    def failed(self) -> int:
        return self.missing + self.wrong

    def add(self, other: "CheckResult") -> None:
        for name in ("expected", "delivered", "missing", "duplicated",
                     "reordered", "altered", "unexpected"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.notes.extend(other.notes)


def check_subscriber(name: str,
                     published: Mapping[Key, tuple[str, Mapping]],
                     deliveries: Iterable[tuple[Key, str, Mapping]],
                     required: Iterable[Key],
                     allowed: Callable[[Key], bool] | None = None
                     ) -> CheckResult:
    """Check one subscriber's deliveries, given in arrival order."""
    result = CheckResult()
    required = set(required)
    result.expected = len(required)
    seen: set[Key] = set()
    last_seqno: dict[int, int] = {}
    for key, event_type, attrs in deliveries:
        result.delivered += 1
        sender, seqno = key
        if key in seen:
            result.duplicated += 1
            continue
        seen.add(key)
        if seqno <= last_seqno.get(sender, 0):
            result.reordered += 1
        last_seqno[sender] = max(seqno, last_seqno.get(sender, 0))
        original = published.get(key)
        if original is None or original[0] != event_type \
                or dict(original[1]) != dict(attrs):
            result.altered += 1
        elif key not in required and (allowed is None or not allowed(key)):
            result.unexpected += 1
    result.missing = len(required - seen)
    for kind in ("missing", "duplicated", "reordered", "altered",
                 "unexpected"):
        count = getattr(result, kind)
        if count:
            result.notes.append(f"{name}: {count} {kind}")
    return result
