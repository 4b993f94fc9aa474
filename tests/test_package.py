"""The public surface of the package and the demos that use it."""

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sparseattn
import sparseattn.cli

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_resolve_once_each():
    assert len(set(sparseattn.__all__)) == len(sparseattn.__all__)
    for name in sparseattn.__all__:
        assert getattr(sparseattn, name) is not None, name
    for module, gone in [
        (sparseattn.construct, "LogGapMatrix"),
        (sparseattn.construct, "reconstruct_target"),
        (sparseattn.concentration, "tail_estimate"),
        (sparseattn.render, "RenderSpec"),
        (sparseattn.cli, "UsageError"),
        (sparseattn.verify, "compile_target"),
        (sparseattn.verify, "CompiledTarget"),
        (sparseattn.sweep, "q_sweep"),
        (sparseattn.verify, "margin_report"),
        (sparseattn.cli, "cmd_qsweep"),
        (sparseattn.cli, "load_sweep_config"),
        (sparseattn.verify, "check_direct"),
        (sparseattn.matrices, "validate"),
        (sparseattn.matrices, "ValidationReport"),
        (sparseattn.matrices, "InvariantViolation"),
        (sparseattn.render, "read_pgm"),
        (sparseattn.construct, "Factorization"),
        (sparseattn.sweep, "_scaled_left"),
        (sparseattn.construct, "ProjectionPair"),
        (sparseattn.matrices, "min_nonzero_rows"),
        (sparseattn.verify.ApproxReport, "to_json"),
    ]:
        assert not hasattr(sparseattn, gone) and not hasattr(module, gone)


def test_traced_layers_resolve():
    # The benchmark's tracer wraps these functions by name; a layer that no
    # longer resolves makes its per-layer metrics null.  The list is read
    # from the tracer's source, which is not imported here.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    entries = next(
        node.value.elts for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    layers = [(entry.elts[0].value, entry.elts[1].value) for entry in entries]
    assert layers
    for module, attr in layers:
        layer = getattr(importlib.import_module(f"sparseattn.{module}"), attr, None)
        assert callable(layer), f"{module}.{attr}"


def test_traced_layer_hooks_read_what_the_layers_return(tmp_path, monkeypatch):
    # A hook that fails is recorded on its span as a hook_error, not raised,
    # so a layer whose arguments or result change shape would read 0 in its
    # per-layer metrics.  Each hook is fed a real call of its layer here.
    # The tracer runs from its source text, registered so its dataclasses
    # build, and nothing is written under perfbench/.
    path = ROOT / "perfbench" / "tracing.py"
    tracing = types.ModuleType("perfbench_tracing")
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing.__dict__)
    hooks = {f"{module}.{attr}": hook for module, attr, hook in tracing.LAYERS if hook is not None}

    params = sparseattn.ApproxParams(L=16, k=2, gamma=2.0, eps1=0.15, eps2=1.41)
    A = sparseattn.generate(params, seed=3)
    gap = sparseattn.build_log_gap(A, params.eps1, params.eps2)
    V = sparseattn.svd_factor(gap)
    cfg = sparseattn.SweepConfig(
        params=params, L_grid=[16], d_lower=8, d_upper=32, d_points=4,
        q=0.25, trials_per_L=1, master_seed=5,
    )
    inputs = sparseattn.assemble(*sparseattn.compress(gap, V, sparseattn.sample_stiefel(16, 3, 7)))
    calls = {
        "construct.sample_stiefel": [((16, 3, 7), {"L", "h", "flop"})],
        "attention.logits": [((inputs,), {"L", "flop"})],
        "verify.check_conditions": [
            ((gap, A, params.eps1, params.eps2), {"L", "passed"}),
            ((0.0 * gap, A, params.eps1, params.eps2), {"L", "passed", "first_fail_row_frac"}),
        ],
        "sweep.run_sweep": [((cfg, tmp_path / "sweep.csv"), {"redraws"})],
    }
    assert set(calls) == set(hooks)
    for layer, cases in calls.items():
        module, attr = layer.split(".")
        fn = getattr(importlib.import_module(f"sparseattn.{module}"), attr)
        for args, keys in cases:
            info = hooks[layer](args, {}, fn(*args))
            assert set(info) == keys, layer
    assert hooks["attention.logits"]((inputs,), {}, None)["flop"] == 4.0 * 16 * 6 * 6 + 2.0 * 16**2 * 6


def test_every_public_function_has_a_caller_outside_the_tests():
    # A public def or class that only tests use belongs with the oracles in
    # tests/conftest.py.  A name counts as used when a package module (the
    # re-exports of __init__ aside), a demo or a benchmark script names it:
    # as a name, an attribute, an import or an identifier string, so the
    # tracer's LAYERS entries count.
    package = sorted(
        path for path in (ROOT / "src" / "sparseattn").glob("*.py")
        if path.name != "__init__.py"
    )
    callers = [
        *package, *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    used = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    used.add(node.value)
    unused = [
        f"{path.stem}.{node.name}"
        for path in package
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in used
    ]
    assert unused == []


def test_every_exception_class_is_a_value_error():
    # cli.main turns ValueError and OSError into exit code 2; an exception
    # class outside that family would escape it with a traceback and exit 1,
    # the code for a failed verification.
    modules = [
        importlib.import_module(f"sparseattn.{path.stem}")
        for path in sorted((ROOT / "src" / "sparseattn").glob("*.py"))
        if path.name != "__init__.py"
    ]
    defined = [
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    ]
    assert defined
    assert [cls.__qualname__ for cls in defined if not issubclass(cls, ValueError)] == []


def test_package_imports_only_numpy_and_the_standard_library():
    # Every spawned sweep worker re-imports the package, and the benchmark's
    # peak memory counts the largest worker: a heavy import such as
    # scipy.linalg costs each worker tens of MB.
    allowed = {"numpy", *sys.stdlib_module_names}
    for path in sorted((ROOT / "src" / "sparseattn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_demo_imports_resolve():
    # test_demo_runs skips the slow dmin_log_growth demo, so every demo's
    # imports from the package are checked here without running it.
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sparseattn"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


def run_demo(demo, cwd):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", ["approximate_sparse_matrix.py", "jlt_concentration.py"])
def test_demo_runs(demo, tmp_path):
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]


def test_growth_demo_refuses_a_stale_csv_without_a_traceback(tmp_path):
    # A CSV with rows and no sidecar, as versions before the sidecar left it.
    # The refusal comes before any record runs, so no worker starts.
    from sparseattn.sweep import CSV_HEADER

    (tmp_path / "dmin_growth.csv").write_text(f"{CSV_HEADER}\n32,0,1.0,10,1.0,1,1\n")
    result = run_demo("dmin_log_growth.py", tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and "no sidecar" in result.stderr
    assert "dmin_growth.csv.json" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def readme_blocks(lang):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def test_readme_commands_parse_and_its_config_loads(tmp_path):
    # Every sparseattn command the README shows parses with the CLI's own
    # parser (lines with <placeholders> aside, and without the shell's
    # output redirection), and its config block loads.
    parser = sparseattn.cli.build_parser()
    commands = []
    for block in readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("sparseattn ") and not re.search(r"<[^>]*>", line):
                commands.append(line)
    assert {command.split()[1] for command in commands} >= {"approx", "sweep", "render"}
    for command in commands:
        try:
            parser.parse_args(shlex.split(command.split(">", 1)[0])[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
    (config,) = readme_blocks("ini")
    path = tmp_path / "sweep.cfg"
    path.write_text(config, encoding="utf-8")
    assert sparseattn.cli.load_sweep_configs(path)
