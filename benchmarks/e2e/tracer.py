"""Outside-in layer tracer: where a run's time goes, layer by layer.

Nothing under ``src/`` changes.  Two mechanisms, both installed from
outside and removed by :meth:`LayerTracer.uninstall`:

* **Time, by sampling.**  A wall-clock timer (``ITIMER_REAL``) interrupts
  the run every ``INTERVAL_S``.  Each sample charges the time since the
  previous one to the layer of the innermost frame that belongs to a
  layer package (``repro.<layer>``), or to ``unattributed`` (the harness
  and the experiment files) when no frame does.  That is a span's self
  time at sampling resolution: a layer's own code, plus the library and
  callback code it calls, minus the other layers it calls.  The samples
  add up to the traced wall time exactly.
* **Counts, by wrapping.**  The functions named in ``COUNTERS`` are
  wrapped (class attributes for methods, and every module attribute
  that holds the original for functions, so ``from x import f`` copies
  count too).  A counter counts every call, same-layer calls included.

Wrapping every public callable of every layer, and timing a span at each
layer boundary, was tried first: it halved ``tool-campaign``'s rate and
cut ``paper-figures``' by 40% (the fault injector, the sentinel and the
telemetry records take millions of small calls), far over the 20%
overhead budget.

While :attr:`LayerTracer.recording` is set, each sample's stack of layer
entries is also turned into nested Chrome trace events, so the export
shows layer-boundary spans at sampling resolution.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import signal
import sys
import types
from time import perf_counter

#: The layer packages under ``src/repro`` that the workloads reach.
#: ``runner`` (only reached through pytest subprocesses) and ``audit``
#: (checks the repository, not a scenario) are left out.
LAYERS = ("phy", "ivn", "crypto", "ssi", "datalayer", "sos", "collab", "core",
          "lint", "flow", "redteam", "faults", "sentinel", "obs", "campaign")

#: Time inside the traced phase but in no layer: the harness itself.
UNATTRIBUTED = "unattributed"

#: ``module:qualname`` of a counted callable -> the counter it bumps.
COUNTERS = {
    "repro.crypto.aes:AES.__init__": "crypto.aes_key_schedules",
    "repro.crypto.aes:AES.encrypt_block": "crypto.aes_blocks",
    "repro.crypto.aes:AES.decrypt_block": "crypto.aes_blocks",
    "repro.crypto.ed25519:generate_public_key": "crypto.ed25519_keygens",
    "repro.crypto.ed25519:sign": "crypto.ed25519_signs",
    "repro.crypto.ed25519:verify": "crypto.ed25519_verifies",
    "repro.crypto.x25519:x25519": "crypto.x25519_mults",
    "repro.lint.engine:Linter.run": "lint.runs",
    "repro.flow.taint:analyze": "flow.analyses",
    "repro.redteam.planner:plan": "redteam.plans",
    "repro.faults.injector:FaultInjector.fires": "faults.fires",
    "repro.obs.events:EventLog.emit": "obs.events_emitted",
    "repro.sentinel.engine:SentinelEngine.on_event": "sentinel.events_seen",
    "repro.ivn.bus:DeliveryRecord.__init__": "ivn.frames_on_wire",
}

#: Sampling period of the wall-clock timer.
INTERVAL_S = 0.0005


def _layer_of(module_name: str | None) -> str | None:
    if not module_name or not module_name.startswith("repro."):
        return None
    layer = module_name.split(".", 2)[1]
    return layer if layer in LAYERS else None


def _import_layers() -> None:
    """Import every module of every layer, so every copy of a counted
    function exists before the copies are rebound."""
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        for info in pkgutil.walk_packages(package.__path__, f"repro.{layer}."):
            importlib.import_module(info.name)


class LayerTracer:
    """Sampled per-layer self time, call counters and trace events."""

    def __init__(self) -> None:
        self.self_s = {layer: 0.0 for layer in (*LAYERS, UNATTRIBUTED)}
        self.counters = {name: 0 for name in sorted(set(COUNTERS.values()))}
        self.samples = 0
        self.events: list[dict] = []
        self.recording = False
        self._layer_by_code: dict[types.CodeType, str | None] = {}
        self._open: list[tuple[tuple[str, str], float]] = []   # recorded spans
        self._restore: list[tuple[object, str, object]] = []
        self._previous_handler = None
        self._t_origin = self._last = perf_counter()

    # -- counting ---------------------------------------------------------------

    def _counting(self, fn, counter: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_counters(self) -> None:
        wrappers: dict[int, object] = {}   # id(original function) -> wrapper
        for key, counter in COUNTERS.items():
            module_name, qualname = key.split(":")
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for name in path:
                owner = getattr(owner, name)
            original = vars(owner)[attr]
            wrapper = self._counting(original, counter)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, types.ModuleType):
                wrappers[id(original)] = wrapper
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith(("repro.", "e2e_")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    # -- sampling ---------------------------------------------------------------

    def _code_layer(self, frame) -> str | None:
        code = frame.f_code
        try:
            return self._layer_by_code[code]
        except KeyError:
            layer = _layer_of(frame.f_globals.get("__name__"))
            self._layer_by_code[code] = layer
            return layer

    def _on_sample(self, signum, frame) -> None:
        now = perf_counter()
        self.samples += 1
        if self.recording:
            stack = self._layer_stack(frame)
            layer = stack[-1][0] if stack else UNATTRIBUTED
            self._record(stack)
        else:
            layer = UNATTRIBUTED
            while frame is not None:
                found = self._code_layer(frame)
                if found is not None:
                    layer = found
                    break
                frame = frame.f_back
        self.self_s[layer] += now - self._last
        self._last = now

    def _layer_stack(self, frame) -> list[tuple[str, str]]:
        """(layer, entry function) for each layer entry, outermost first."""
        entries: list[tuple[str, str]] = []
        while frame is not None:
            layer = self._code_layer(frame)
            if layer is not None:
                entry = (layer, frame.f_code.co_name)
                if entries and entries[-1][0] == layer:
                    entries[-1] = entry
                else:
                    entries.append(entry)
            frame = frame.f_back
        entries.reverse()
        return entries

    def _record(self, stack: list[tuple[str, str]]) -> None:
        """Close the recorded spans the new sample left; open the new ones
        from the previous sample on."""
        keep = 0
        while (keep < len(stack) and keep < len(self._open)
               and self._open[keep][0] == stack[keep]):
            keep += 1
        self._close_spans(keep, self._last)
        self._open.extend((entry, self._last) for entry in stack[keep:])

    def _close_spans(self, keep: int, end: float) -> None:
        while len(self._open) > keep:
            (layer, name), start = self._open.pop()
            self.events.append(self._event(f"{layer}:{name}", layer, start, end - start))

    # -- lifetime ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap the counted functions and start the sampling timer."""
        _import_layers()
        self._wrap_counters()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_sample)
        self._t_origin = self._last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> float:
        """Stop sampling and put every original back; returns the traced
        wall time.  The time since the last sample goes to the harness."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        now = perf_counter()
        self.self_s[UNATTRIBUTED] += now - self._last
        self._close_spans(0, now)
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return now - self._t_origin

    # -- the harness's own spans -------------------------------------------------

    def op_event(self, index: int, start: float, duration: float) -> None:
        """Record the harness's span for step ``index`` (one op, or a pass
        or campaign of ops); ends the recorded layer spans with it."""
        if self.recording:
            self._close_spans(0, start + duration)
            self.events.append(self._event(f"step {index}", "op", start, duration))

    def _event(self, name: str, category: str, start: float, duration: float) -> dict:
        return {"name": name, "cat": category, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - self._t_origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3)}

    # -- reporting --------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """A ``traceEvents`` document that Perfetto and chrome://tracing open."""
        return {"traceEvents": sorted(self.events, key=lambda e: (e["ts"], -e["dur"])),
                "displayTimeUnit": "ms"}

    def table(self, wall_s: float) -> str:
        """The per-layer self-time table, largest share first."""
        lines = [f"{'layer':<14}{'self_s':>10}{'share':>8}"]
        for layer, seconds in sorted(self.self_s.items(), key=lambda kv: -kv[1]):
            lines.append(f"{layer:<14}{seconds:>10.4f}{seconds / wall_s:>8.1%}")
        lines.append(f"{'total':<14}{sum(self.self_s.values()):>10.4f}"
                     f"   ({self.samples} samples)")
        return "\n".join(lines)
