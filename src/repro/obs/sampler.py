"""Where the CPU goes, by layer: a statistical ``SIGPROF`` sampler.

``signal.setitimer(ITIMER_PROF)`` interrupts the process as it uses
CPU; each interrupt charges one sample to the layer of the innermost
Python frame's module.  A ``repro`` module names its package (``core``,
``net``, ``log`` ...; ``transport`` by module), any other its top-level
package, with ``asyncio``/``selectors`` as ``loop`` and ``json`` as
``codec``.  Code a module generates (dataclass ``__init__``) counts for
that module; a C function's time lands on its Python caller.  Kernels
tick the timer coarsely (often 250 Hz whatever is asked), so samples
are scaled to the CPU time the process really used.  Main thread only.
"""

from __future__ import annotations

import signal
from time import process_time
from typing import Dict

_GROUPS = {"asyncio": "loop", "selectors": "loop", "json": "codec"}
_INTERVAL = 0.001                   # seconds of CPU between samples asked


def layer_of(module: str) -> str:
    """The layer a module (by its ``__name__``) belongs to."""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return ".".join(parts[1:3]) if parts[1] == "transport" else parts[1]
    return _GROUPS.get(parts[0], parts[0])


class LayerSampler:
    """Samples per layer between :meth:`start` and :meth:`stop` (also a
    context manager)."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.cpu_s = 0.0                # process CPU while sampling
        self._layers: Dict[object, str] = {}     # code object -> layer
        self._previous = None

    def _sample(self, _signum, frame) -> None:
        code = frame.f_code if frame is not None else None
        layer = self._layers.get(code)
        if layer is None:
            layer = self._layers[code] = layer_of(
                frame.f_globals.get("__name__") or "other"
                if frame is not None else "other")
        self.counts[layer] = self.counts.get(layer, 0) + 1

    def start(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self.cpu_s -= process_time()
        signal.setitimer(signal.ITIMER_PROF, _INTERVAL, _INTERVAL)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        self.cpu_s += process_time()
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    __enter__ = start

    def __exit__(self, *_exc) -> None:
        self.stop()

    def cpu_ms(self) -> Dict[str, float]:
        """CPU milliseconds per layer, largest first."""
        scale = self.cpu_s * 1000.0 / max(sum(self.counts.values()), 1)
        return {layer: count * scale for layer, count in
                sorted(self.counts.items(), key=lambda kv: -kv[1])}
