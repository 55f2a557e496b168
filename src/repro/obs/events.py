"""Typed simulation events and the in-memory ring-buffer event log.

Every instrumented simulator reports what happened as a stream of
:class:`SimEvent` records — *frame sent*, *MAC rejected*, *ToA
estimate*, *attack step*, *IDS alert*, *trust update* — tagged with the
paper layer (:class:`repro.core.layers.Layer`) it occurred on and the
clock it occurred at.  The :class:`EventLog` keeps the most recent
``capacity`` events in a ring buffer (old events are dropped, never
reallocated), so always-on instrumentation has bounded memory, and
exports/imports the stream as JSONL for offline analysis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Union

from repro.core.layers import Layer

__all__ = ["EventKind", "SimEvent", "EventLog"]

#: Scalar payload values an event may carry (JSON-serialisable).
FieldValue = Union[str, int, float, bool]


class EventKind(str, Enum):
    """The vocabulary of simulation events the layers emit."""

    # network layer (repro.ivn)
    FRAME_SENT = "frame-sent"
    FRAME_DELIVERED = "frame-delivered"
    MAC_VERIFIED = "mac-verified"
    MAC_REJECTED = "mac-rejected"
    BUS_OFF = "bus-off"
    # physical layer (repro.phy)
    TOA_ESTIMATE = "toa-estimate"
    RANGING = "ranging"
    UNLOCK_ATTEMPT = "unlock-attempt"
    # data layer (repro.datalayer)
    ATTACK_STEP = "attack-step"
    # detection / response (repro.collab, repro.core)
    IDS_ALERT = "ids-alert"
    TRUST_UPDATE = "trust-update"
    DETECTION = "detection"
    RESPONSE_ACTION = "response-action"
    # fault injection / resilience (repro.faults)
    FAULT_INJECTED = "fault-injected"
    BREAKER_STATE = "breaker-state"
    DEGRADATION_CHANGE = "degradation-change"
    # application telemetry (repro.cloud, repro.ssi)
    CLOUD_REQUEST = "cloud-request"
    DID_RESOLUTION = "did-resolution"
    # streaming detection (repro.sentinel)
    ALARM_TRANSITION = "alarm-transition"
    INCIDENT = "incident"
    # resumable campaigns (repro.campaign)
    SHARD_START = "shard-start"
    SHARD_DONE = "shard-done"
    CAMPAIGN_RESUMED = "campaign-resumed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_KIND_BY_VALUE = {kind.value: kind for kind in EventKind}
_LAYER_BY_NAME = {layer.name.lower(): layer for layer in Layer}


@dataclass(frozen=True)
class SimEvent:
    """One structured simulation event.

    Attributes:
        seq: monotonically increasing sequence number within one log
            (total order for events sharing a timestamp).
        t: event time — simulation-clock seconds for timed simulators,
            step index for stepwise engines (the emitting layer decides).
        kind: the event vocabulary entry.
        layer: the paper layer the event belongs to.
        source: the emitting component (bus name, stage name, member id).
        message: a short human-readable description.
        fields: scalar payload (distances, counters, verdicts).
    """

    seq: int
    t: float
    kind: EventKind
    layer: Layer
    source: str
    message: str
    fields: dict[str, FieldValue] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serialisable representation (stable key order)."""
        return {
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind.value,
            "layer": self.layer.name.lower(),
            "source": self.source,
            "message": self.message,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimEvent":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad input."""
        try:
            kind = _KIND_BY_VALUE[data["kind"]]
            layer = _LAYER_BY_NAME[data["layer"]]
            seq, t = data["seq"], data["t"]
            source, message = data["source"], data["message"]
            fields = data.get("fields", {})
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed event record: {exc}") from exc
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise ValueError(f"event seq must be an int, got {seq!r}")
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            raise ValueError(f"event t must be a number, got {t!r}")
        if not isinstance(source, str) or not isinstance(message, str):
            raise ValueError("event source/message must be strings")
        if not isinstance(fields, dict):
            raise ValueError("event fields must be an object")
        for key, value in fields.items():
            if not isinstance(key, str) or not isinstance(value, (str, int, float, bool)):
                raise ValueError(f"event field {key!r} must map a string to a scalar")
        return cls(seq=seq, t=float(t), kind=kind, layer=layer,
                   source=source, message=message, fields=dict(fields))


class EventLog:
    """Bounded in-memory event store with JSONL import/export.

    The log never grows past ``capacity`` events: once full, appending
    drops the oldest entry (and counts it in :attr:`dropped`), so a
    long-running instrumented simulation keeps the *recent* history —
    the part an attack timeline needs — at O(capacity) memory.

    Streaming consumers register with :meth:`subscribe`; every stored
    event is pushed to each subscriber *after* it lands in the ring, in
    subscription order.  Subscribers survive :meth:`clear` (the data is
    wiped, the taps are not), so a detection engine attached once keeps
    seeing events across resets.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[SimEvent] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0
        self._listeners: list[Callable[[SimEvent], None]] = []

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self._ring)

    def subscribe(self, listener: Callable[[SimEvent], None]) -> Callable[[], None]:
        """Push every future stored event to ``listener``.

        Returns an unsubscribe callable.  Listeners are notified in
        subscription order, after the event is in the ring; a listener
        emitting back into the same log therefore sees its own events
        too — consumers filter by :class:`EventKind` to avoid loops.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def _notify(self, event: SimEvent) -> None:
        for listener in list(self._listeners):
            listener(event)

    def emit(self, kind: EventKind, layer: Layer, source: str, message: str,
             *, t: float = 0.0, **fields: FieldValue) -> SimEvent:
        """Append one event and return it."""
        event = SimEvent(seq=self._seq, t=t, kind=kind, layer=layer,
                         source=source, message=message, fields=fields)
        self._seq += 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        if self._listeners:
            self._notify(event)
        return event

    def append(self, event: SimEvent) -> None:
        """Append an already-built event (used by JSONL import/merge)."""
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        self._seq = max(self._seq, event.seq + 1)
        if self._listeners:
            self._notify(event)

    def events(self, *, kind: EventKind | None = None,
               layer: Layer | None = None) -> list[SimEvent]:
        """Events in emission order, optionally filtered."""
        return [
            e for e in self._ring
            if (kind is None or e.kind is kind)
            and (layer is None or e.layer is layer)
        ]

    def layers(self) -> set[Layer]:
        """Distinct layers that produced at least one event."""
        return {e.layer for e in self._ring}

    def clear(self) -> None:
        self._ring.clear()
        self._seq = 0
        self.dropped = 0

    # -- JSONL ---------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One compact JSON object per line, in emission order."""
        import json

        return "\n".join(json.dumps(e.to_dict(), separators=(",", ":"))
                         for e in self._ring)

    def write_jsonl(self, path: str | Path) -> int:
        """Write the log to ``path``; returns the number of events written."""
        text = self.to_jsonl()
        Path(path).write_text(text + ("\n" if text else ""))
        return len(self._ring)

    @classmethod
    def from_jsonl(cls, lines: Iterable[str] | str,
                   capacity: int = 65536) -> "EventLog":
        """Rebuild a log from JSONL text (or an iterable of lines)."""
        import json

        if isinstance(lines, str):
            lines = lines.splitlines()
        log = cls(capacity=capacity)
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {number}: not JSON: {exc}") from exc
            log.append(SimEvent.from_dict(data))
        return log

    @classmethod
    def read_jsonl(cls, path: str | Path, capacity: int = 65536) -> "EventLog":
        return cls.from_jsonl(Path(path).read_text(), capacity=capacity)
