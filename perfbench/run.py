"""sparseattn benchmark runner.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_growth --seed 2024 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout; nothing is
installed.  Thread settings are left as the environment has them.  The run
sets up its inputs from the seed, repeats the workload's operation until
``--seconds`` have passed (at least once), checks every output, and prints
one JSON result as the last line of standard output.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from one extra traced set-up and operation.  Details go to
``.perfbench_out/`` in the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import COMPUTED, Tracer, layer_metrics, span_records
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 2024
SETUP_REPEATS = 3
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SPARSEATTN_THREADS",
)


class SetupError(RuntimeError):
    pass


@dataclass
class Op:
    """One timed operation and the verdict on its output."""

    wall_s: float
    text: str | None = None
    problems: list[str] = field(default_factory=list)


def fresh_import():
    """Import sparseattn (and its CLI module) anew from ``src/``."""
    for name in [n for n in sys.modules if n == "sparseattn" or n.startswith("sparseattn.")]:
        del sys.modules[name]
    sa = importlib.import_module("sparseattn")
    importlib.import_module("sparseattn.cli")
    return sa


def run_ops(workload, sa, inputs, workdir, reference, seconds=None, count=None) -> list[Op]:
    """Run operations until ``seconds`` pass or ``count`` are done.

    Only the operation itself is timed; reading and checking its output is
    not.  An operation that raises or whose output is wrong is recorded as
    failed and the loop goes on.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            result = workload.run(sa, inputs, workdir, len(ops))
        except Exception:
            op = Op(time.perf_counter() - t0, problems=[traceback.format_exc(limit=3)])
        else:
            op = Op(time.perf_counter() - t0)
            try:
                op.text = workload.output(result)
                op.problems = workload.problems(sa, inputs, result)
            except Exception:
                op.problems = [traceback.format_exc(limit=3)]
        if op.text is not None:
            if reference.get("text") is None:
                reference["text"] = op.text
            elif op.text != reference["text"]:
                op.problems.append(f"output differs from {reference['source']}")
        ops.append(op)
        if count is not None and len(ops) >= count:
            return ops
        if count is None and time.perf_counter() - start >= seconds:
            return ops


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "git_commit": git_commit(),
    }


def measure(workload, args, workdir: str) -> dict:
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (the package's import cost, paid once)

    numpy_s = time.perf_counter() - t0
    sys.path.insert(0, str(SRC))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sa = fresh_import()
        inputs = workload.inputs(sa, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    if not Path(sa.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"sparseattn was imported from {sa.__file__}, not from {SRC}")

    expected_path = EXPECTED_DIR / f"{workload.name}-seed{args.seed}{workload.suffix}"
    reference = {"text": None, "source": "the first operation of this run"}
    if expected_path.is_file() and not args.write_expected:
        reference = {"text": expected_path.read_text(encoding="utf-8"), "source": expected_path.name}

    ops = run_ops(workload, sa, inputs, workdir, reference, seconds=args.seconds)
    if args.write_expected and ops[0].text is not None:
        expected_path.write_text(ops[0].text, encoding="utf-8")

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "machine": machine_info(),
        "setup_times_s": setup_times,
        "numpy_import_s": numpy_s,
        "expected_file": reference["source"],
    }
    wall = statistics.median(op.wall_s for op in ops)
    metrics = {
        "wall_s": wall,
        "setup_s": numpy_s + statistics.median(setup_times),
        # The larger of this process and its largest waited-for child, so
        # work moved into worker processes still counts.
        "peak_rss_mb": max(
            resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024.0,
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            inputs = workload.inputs(sa, args.seed, workdir)
            traced = run_ops(workload, sa, inputs, workdir, reference, count=1)
        finally:
            tracer.uninstall()
        ops += traced
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_s"] = traced[0].wall_s - wall
        result["trace"] = {"missing": tracer.missing, "sites": tracer.sites}
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(span_records(tracer)) + "\n", encoding="utf-8")
    result["ops"] = [{"wall_s": op.wall_s, "problems": op.problems} for op in ops]
    result["metrics"] = metrics
    return result


def report(result: dict, spec: list[dict]) -> dict:
    """The final result line: every metric of ``spec`` with its unit."""
    metrics = {}
    for entry in spec:
        value = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": None if value is None else float(value), "unit": entry["unit"]}
        if value is None:
            metrics[entry["name"]]["missing"] = True
    failed = sum(1 for op in result["ops"] if op["problems"])
    return {
        "correct": failed == 0,
        "attempted": len(result["ops"]),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="store this seed's first output as the expected output")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "sparseattn" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: need {bench_file} and the package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text(encoding="utf-8"))
    spec = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        result = measure(workload, args, workdir)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    final = report(result, spec)
    out_path = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    computed = sorted(COMPUTED & set(final["metrics"]))
    out_path.write_text(
        json.dumps({**result, "computed_metrics": computed, "result": final}, indent=1) + "\n",
        encoding="utf-8",
    )

    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for i, op in enumerate(result["ops"]):
        verdict = "ok" if not op["problems"] else "FAILED: " + " | ".join(op["problems"])
        print(f"op {i}: {op['wall_s']:.4f} s {verdict}")
    print(f"failed_ratio {final['failed']}/{final['attempted']} = "
          f"{final['failed'] / final['attempted']:.4f}  (checked against {result['expected_file']})")
    if "trace" in result:
        print("trace missing layers: " + (", ".join(result["trace"]["missing"]) or "none"))
    for name, entry in final["metrics"].items():
        print(f"{name} = {entry['value']} {entry['unit']}" + (" (computed)" if name in COMPUTED else ""))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
