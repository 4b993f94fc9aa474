"""The public surface of the package and the demos that use it."""

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
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


@pytest.mark.parametrize("demo", ["approximate_sparse_matrix.py", "jlt_concentration.py"])
def test_demo_runs(demo, tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]


def readme_blocks(lang):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def test_readme_commands_parse_and_its_config_loads(tmp_path):
    # Every sparseattn command the README shows parses with the CLI's own
    # parser (lines with <placeholders> aside), and its config block loads.
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
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
    (config,) = readme_blocks("ini")
    path = tmp_path / "sweep.cfg"
    path.write_text(config, encoding="utf-8")
    assert sparseattn.cli.load_sweep_configs(path)
