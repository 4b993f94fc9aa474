"""In-memory span recording around the sparseattn module attributes.

A layer is a function named ``<module>.<attr>`` inside the package.  To trace
it, the original function object is looked up in its defining module, and
every attribute of every loaded ``sparseattn`` module that is bound to that
same object is replaced by a wrapper.  That catches both ``from .construct
import sample_stiefel`` aliases and ``attention.logits(...)`` module calls,
and it keeps working when a refactor moves a caller into another module.  A
layer whose defining attribute is gone is reported as missing, never as a
zero count.

Each call records a span: id, layer name, start, end, parent span (the
innermost traced call open on the same thread) and thread id, plus a few
shape-derived numbers taken from the arguments and the result.  Spans stay
in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    cpu: float = 0.0
    info: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _qr_flop(L: int, h: int) -> float:
    # Householder QR of an L x h matrix (2Lh^2 - 2h^3/3) plus forming the
    # reduced Q explicitly (the same again).
    return 4.0 * L * h * h - 4.0 * h**3 / 3.0


def _stiefel_info(args, kwargs, result):
    L, h = result.shape
    return {"L": L, "h": h, "flop": _qr_flop(L, h)}


def _check_info(args, kwargs, result):
    L = args[1].L
    info = {"L": L, "passed": bool(result.passed)}
    violation = getattr(result, "first_violation", None)
    if violation is not None:
        info["first_fail_row_frac"] = violation[0] / L
    return info


def _sweep_info(args, kwargs, result):
    return {"redraws": sum(record.redraws_used for record in result)}


def _logits_info(args, kwargs, result):
    inputs = args[0] if args else kwargs["inputs"]
    L, d_hid = inputs.x.shape
    d = inputs.w_query.shape[1]
    # q = x Wq and k = x Wk (2 L d_hid d each), then q k^T (2 L^2 d).
    return {"L": L, "flop": 4.0 * L * d_hid * d + 2.0 * L * L * d}


# (defining module, attribute, shape hook).  The hook runs after the call and
# must not fail the call: its errors are recorded on the span instead.
LAYERS = [
    ("matrices", "generate", None),
    ("matrices", "read_coo", None),
    ("construct", "build_log_gap", None),
    ("construct", "svd_factor", None),
    ("construct", "sample_stiefel", _stiefel_info),
    ("construct", "compress", None),
    ("construct", "assemble", None),
    ("attention", "logits", _logits_info),
    ("verify", "check_conditions", _check_info),
    ("sweep", "run_sweep", _sweep_info),
    ("sweep", "_run_record", None),
    ("sweep", "find_dmin", None),
    ("concentration", "run_bench", None),
    ("concentration", "estimate_errors", None),
    ("concentration", "project_pair", None),
    ("cli", "main", None),
    ("cli", "cmd_approx", None),
]


# Metrics derived from array shapes rather than measured.
COMPUTED = {
    "construct.sample_stiefel.gflop",
    "attention.logits.gflop",
    "verify.check_conditions.dense_mb",
}


class Tracer:
    """Records spans for the wrapped layers; ``install`` / ``uninstall``
    patch and restore the package's module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.sites: dict[str, list[str]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            cpu_start = time.process_time()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                cpu = time.process_time() - cpu_start
                stack.pop()
                span = Span(span_id, name, start, end, parent, threading.get_ident(), cpu, error=error)
                if hook is not None and error is None:
                    try:
                        span.info = hook(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                        span.info = {"hook_error": f"{type(exc).__name__}: {exc}"}
                tracer.spans.append(span)

        return traced

    def install(self, package: str = "sparseattn") -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for module_name, attr, hook in LAYERS:
            layer = f"{module_name}.{attr}"
            home = modules.get(f"{package}.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.missing.append(layer)
                continue
            wrapper = self.wrap(layer, original, hook)
            sites = []
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
                        sites.append(f"{mod_name}.{key}")
            self.sites[layer] = sorted(sites)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - child_time.get(span.id, 0.0) for span in spans}


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer numbers from the recorded spans.

    Times and counts are totals over all spans; a ratio with nothing to
    divide is 0.  A value is None when a layer it depends on could not be
    wrapped.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def has(*layers):
        return not any(layer in tracer.missing for layer in layers)

    def calls(layer):
        return float(len(by_name.get(layer, []))) if has(layer) else None

    def busy(layer):
        return sum(s.duration for s in by_name.get(layer, [])) if has(layer) else None

    def self_s(layer):
        return sum(selfs[s.id] for s in by_name.get(layer, [])) if has(layer) else None

    def info_sum(layer, key):
        return sum(s.info.get(key, 0.0) for s in by_name.get(layer, [])) if has(layer) else None

    def ancestor(span, layer):
        parent = span.parent
        while parent is not None:
            p = by_id[parent]
            if p.name == layer:
                return p
            parent = p.parent
        return None

    m: dict[str, float | None] = {}
    m["construct.sample_stiefel.calls"] = calls("construct.sample_stiefel")
    m["construct.sample_stiefel.busy_s"] = busy("construct.sample_stiefel")
    flop = info_sum("construct.sample_stiefel", "flop")
    m["construct.sample_stiefel.gflop"] = None if flop is None else flop / 1e9

    m["sweep.find_dmin.calls"] = calls("sweep.find_dmin")
    m["sweep.find_dmin.self_s"] = self_s("sweep.find_dmin")
    # Redraws the sweep records report, and process CPU inside run_sweep
    # (all threads, BLAS included).
    m["sweep.redraws"] = info_sum("sweep.run_sweep", "redraws")
    m["sweep.cpu_s"] = None if not has("sweep.run_sweep") else sum(
        s.cpu for s in by_name.get("sweep.run_sweep", [])
    )
    # Redraws checked over QRs drawn inside find_dmin; widths tried counts
    # distinct (find_dmin call, sample width) pairs.
    if has("construct.sample_stiefel", "sweep.find_dmin", "sweep.run_sweep"):
        sweep_qrs = [
            (ancestor(s, "sweep.find_dmin"), s) for s in by_name.get("construct.sample_stiefel", [])
        ]
        sweep_qrs = [(owner.id, s.info.get("h")) for owner, s in sweep_qrs if owner is not None]
        m["sweep.stiefel_useful_ratio"] = m["sweep.redraws"] / len(sweep_qrs) if sweep_qrs else 0.0
        m["sweep.widths_tried"] = float(len(set(sweep_qrs)))
    else:
        m["sweep.stiefel_useful_ratio"] = m["sweep.widths_tried"] = None

    checks = by_name.get("verify.check_conditions", [])
    m["verify.check_conditions.calls"] = calls("verify.check_conditions")
    m["verify.check_conditions.busy_s"] = busy("verify.check_conditions")
    if has("verify.check_conditions"):
        # Computed: the two boolean and one float64 L x L arrays the check
        # builds per call for the target's masks and log-values.
        m["verify.check_conditions.dense_mb"] = sum(10.0 * s.info.get("L", 0) ** 2 for s in checks) / 1e6
        judged = [s for s in checks if "passed" in s.info]
        m["verify.pass_ratio"] = sum(s.info["passed"] for s in judged) / len(judged) if judged else 0.0
        fail_rows = [s.info["first_fail_row_frac"] for s in checks if "first_fail_row_frac" in s.info]
        m["verify.first_fail_row_frac_p50"] = statistics.median(fail_rows) if fail_rows else 0.0
    else:
        m["verify.check_conditions.dense_mb"] = m["verify.pass_ratio"] = None
        m["verify.first_fail_row_frac_p50"] = None

    # Busy time of the record tasks over (worker threads x sweep wall time).
    if has("sweep.run_sweep", "sweep._run_record"):
        records = by_name.get("sweep._run_record", [])
        wall = sum(s.duration for s in by_name.get("sweep.run_sweep", []))
        threads = len({s.thread for s in records})
        m["sweep.worker_busy_ratio"] = (
            sum(s.duration for s in records) / (threads * wall) if records and wall > 0 else 0.0
        )
        # Share of record time that the named layers' spans account for.
        named = ("construct.sample_stiefel", "verify.check_conditions", "matrices.generate",
                 "construct.svd_factor", "construct.build_log_gap")
        covered = 0.0
        for span in spans:
            if span.name == "sweep.find_dmin" and ancestor(span, "sweep._run_record"):
                covered += selfs[span.id]
            elif span.name in named and ancestor(span, "sweep._run_record"):
                covered += span.duration
        record_time = sum(s.duration for s in records)
        m["sweep.record_coverage"] = covered / record_time if record_time > 0 else 0.0
    else:
        m["sweep.worker_busy_ratio"] = m["sweep.record_coverage"] = None

    m["construct.svd_factor.calls"] = calls("construct.svd_factor")
    m["construct.svd_factor.busy_s"] = busy("construct.svd_factor")
    m["construct.build_log_gap.busy_s"] = busy("construct.build_log_gap")
    m["construct.compress.busy_s"] = busy("construct.compress")
    m["construct.assemble.busy_s"] = busy("construct.assemble")
    m["attention.logits.calls"] = calls("attention.logits")
    m["attention.logits.busy_s"] = busy("attention.logits")
    flop = info_sum("attention.logits", "flop")
    m["attention.logits.gflop"] = None if flop is None else flop / 1e9
    m["matrices.read_coo.busy_s"] = busy("matrices.read_coo")
    m["cli.cmd_approx.self_s"] = self_s("cli.cmd_approx")
    m["matrices.generate.calls"] = calls("matrices.generate")
    m["matrices.generate.busy_s"] = busy("matrices.generate")
    m["concentration.estimate_errors.busy_s"] = busy("concentration.estimate_errors")
    m["concentration.project_pair.calls"] = calls("concentration.project_pair")
    conc = ("concentration.run_bench", "concentration.estimate_errors", "concentration.project_pair")
    m["concentration.self_s"] = (
        sum(self_s(layer) for layer in conc) if has(*conc) else None
    )
    return m


def span_records(tracer: Tracer) -> list[dict]:
    """Spans as plain dicts for writing out, times relative to the first span."""
    origin = min((s.start for s in tracer.spans), default=0.0)
    return [
        {**asdict(s), "start": s.start - origin, "end": s.end - origin}
        for s in sorted(tracer.spans, key=lambda s: s.start)
    ]
