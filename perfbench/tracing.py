"""Span recorder for the traced run.

Spans are recorded from the benchmark's own code around each call into an
scdkit module, plus one span per FftPlan.execute call, installed by
wrapping the method at the class. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import asdict, dataclass, field

# Per-layer metrics summed from the spans of one op, keyed by span name.
_SPAN_TIMES = {
    "fftcore.execute_s": "fftcore.execute",
    "fam.frame_s": "fam.frame",
    "fam.demodulate_s": "fam.demodulate",
    "fam.fam_scd_s": "fam.fam_scd",
    "signal.normalize_s": "signal.normalize",
    "ssca.ssca_full_s": "ssca.ssca_full",
    "estimate.scd_to_grid_s": "estimate.scd_to_grid",
    "oracle.alpha_profile_s": "oracle.alpha_profile",
    "io.read_iq_s": "io.read_iq",
    "io.write_scd1_s": "io.write_scd1",
    "io.write_profile_csv_s": "io.write_profile_csv",
    "io.write_pgm_s": "io.write_pgm",
}
_FFT_COUNTS = {
    "fftcore.transforms": "transforms",
    "fftcore.points": "points",
    "fftcore.flops_computed": "flops",
    "fftcore.bytes_computed": "bytes",
}
_SSCA_COUNTS = {
    "ssca.peak_alloc_mb": "peak_alloc_mb",
    "ssca.disk_write_mb": "disk_write_mb",
    "ssca.spill_bytes_computed": "spill_bytes",
    "ssca.spilled": "spilled",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; otherwise every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, 0.0, parent=parent, op=self.op)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def fft_spans(self, plan_cls):
        """Wrap plan_cls.execute so every call records a fftcore span."""
        original = plan_cls.execute
        tracer = self

        def execute(plan, a, axis=-1):
            with tracer._record("fftcore.execute") as s:
                out = original(plan, a, axis)
            points = out.size
            s.counts = {
                "transforms": points // plan.size,
                "points": points,
                "flops": 5.0 * points * math.log2(plan.size),
                "bytes": a.nbytes + out.nbytes,
            }
            return out

        plan_cls.execute = execute
        try:
            yield
        finally:
            plan_cls.execute = original

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def op_metrics(spans: list[Span], op) -> dict:
    """Per-layer numbers of one traced op, from the spans tagged with it."""
    idx = [i for i, s in enumerate(spans) if s.op == op]
    root = next(i for i in idx if spans[i].name == "op")
    child_time = {i: 0.0 for i in idx}
    for i in idx:
        if spans[i].parent is not None:
            child_time[spans[i].parent] += spans[i].duration
    mine = [spans[i] for i in idx]
    m = {}
    for metric, name in _SPAN_TIMES.items():
        m[metric] = sum(s.duration for s in mine if s.name == name)
    ffts = [s for s in mine if s.name == "fftcore.execute"]
    m["fftcore.calls"] = len(ffts)
    for metric, key in _FFT_COUNTS.items():
        m[metric] = sum(s.counts[key] for s in ffts)
    m["fam.self_s"] = sum(
        spans[i].duration - child_time[i] for i in idx if spans[i].name.startswith("fam.")
    )
    m["ssca.self_s"] = sum(
        spans[i].duration - child_time[i] for i in idx if spans[i].name == "ssca.ssca_full"
    )
    for metric, key in _SSCA_COUNTS.items():
        m[metric] = sum(s.counts.get(key, 0) for s in mine if s.name == "ssca.ssca_full")
    grid = [s for s in mine if s.name == "estimate.scd_to_grid"]
    m["estimate.bins_per_s"] = (
        sum(s.counts["bins"] for s in grid) / m["estimate.scd_to_grid_s"] if grid else 0.0
    )
    m["trace.span_coverage"] = child_time[root] / spans[root].duration
    return m


def median_metrics(per_op: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
