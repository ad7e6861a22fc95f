"""The structured event journal: an append-only, bounded log of lifecycle events.

Metrics say *how many*, traces say *how long* — the journal says *what
happened, in order*: request start/end (with trace ids), queue-full
rejections, deadline timeouts, session evictions, store snapshots, gate
verdicts, shutdown.  The service appends one :class:`Event` per
occurrence; operators read them back through the ``events`` service
request or ``valuecheck events [--follow]``.

Properties:

* **Bounded** — events live in a ring of ``capacity`` entries.  Old
  events are dropped oldest-first; the drop is *observable* (``dropped``
  count, ``first_seq`` moving forward), never silent.
* **Totally ordered** — every event gets a monotonically increasing
  ``seq`` under one lock, so "give me everything after seq N" is an
  exact resume cursor even with concurrent emitters.
* **Optionally durable** — a ``sink_path`` mirrors every event to a
  JSONL file as it is emitted (the ring bounds memory, the file keeps
  history; rotation is the operator's business).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.clock import wall_clock
from repro.obs.sinks import write_jsonl


@dataclass(frozen=True)
class Event:
    """One journal entry.  ``ts`` is wall-clock (a timestamp, not a
    duration — see :mod:`repro.obs.clock`)."""

    seq: int
    ts: float
    kind: str
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"seq": self.seq, "ts": round(self.ts, 6), "kind": self.kind, **self.attrs}


class EventJournal:
    """Thread-safe bounded journal with an exact ``since`` cursor."""

    def __init__(self, capacity: int = 2048, sink_path: str | Path | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque[Event] = deque(maxlen=capacity)
        self._next_seq = 1
        self._dropped = 0
        self._sink_path = Path(sink_path) if sink_path is not None else None

    # -- writing ---------------------------------------------------------

    def emit(self, kind: str, **attrs) -> Event:
        """Append one event; returns it (with its assigned seq)."""
        with self._lock:
            event = Event(seq=self._next_seq, ts=wall_clock(), kind=kind, attrs=attrs)
            self._next_seq += 1
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(event)
            if self._sink_path is not None:
                write_jsonl(self._sink_path, event.as_dict())
        return event

    def close(self) -> None:
        """Stop mirroring to the sink file (the ring keeps recording)."""
        with self._lock:
            self._sink_path = None

    # -- reading ---------------------------------------------------------

    def events(
        self,
        since: int = 0,
        limit: int | None = None,
        kind: str | None = None,
    ) -> list[Event]:
        """Events with ``seq > since``, oldest first, optionally filtered
        by kind (prefix match: ``kind="session"`` matches
        ``session.evicted``) and capped at the *oldest* ``limit`` rows —
        so a follower's cursor (``since = last returned seq``) walks
        forward without gaps."""
        with self._lock:
            rows = [event for event in self._events if event.seq > since]
        if kind is not None:
            rows = [
                event
                for event in rows
                if event.kind == kind or event.kind.startswith(kind + ".")
            ]
        if limit is not None and limit >= 0:
            rows = rows[:limit]
        return rows

    def tail(self, n: int = 20) -> list[Event]:
        with self._lock:
            return list(self._events)[-n:] if n > 0 else []

    @property
    def first_seq(self) -> int:
        """Oldest retained seq (0 when empty).  A reader whose cursor is
        below ``first_seq - 1`` has missed events to truncation."""
        with self._lock:
            return self._events[0].seq if self._events else 0

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._events[-1].seq if self._events else 0

    @property
    def dropped(self) -> int:
        """Events lost to ring truncation since startup."""
        with self._lock:
            return self._dropped

    def stats(self) -> dict:
        with self._lock:
            return {
                "events": self._next_seq - 1,
                "retained": len(self._events),
                "capacity": self.capacity,
                "dropped": self._dropped,
                "first_seq": self._events[0].seq if self._events else 0,
                "last_seq": self._events[-1].seq if self._events else 0,
            }
