import ast
import importlib.util
from pathlib import Path

import latlab
import latlab.cli
import latlab.tables


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so the package's checks must raise
    package = Path(latlab.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_only_cli_main_renders_a_result():
    # each _cmd_* returns its result; main alone chooses JSON or CSV and
    # writes stdout, and cli._render_json is the package's one JSON renderer
    package = Path(latlab.__file__).parent
    tree = ast.parse((package / "cli.py").read_text())
    found = [
        f"{func.name}:{node.lineno}"
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name.startswith("_cmd_")
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id in ("_render_json", "_emit_csv", "print")
    ]
    assert not found, found
    dumps = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
            and isinstance(node.value, ast.Name) and node.value.id == "json")
        or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("json")
            and any(alias.name in ("dump", "dumps", "JSONEncoder") for alias in node.names))
    ]
    assert not dumps, dumps


def _top_level_private_names(tree):
    """(name, defining node) for every _-prefixed top-level function, class
    or constant that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def test_every_private_helper_has_a_caller():
    # a helper left behind by a deletion is referenced nowhere in the
    # package outside its own definition
    package = Path(latlab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    references: dict[str, set[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, set()).add(id(node))
    found = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, definition in _top_level_private_names(tree)
        if not references.get(name, set()) - {id(node) for node in ast.walk(definition)}
    ]
    assert not found, found


def test_every_traced_target_is_defined_where_the_tracer_patches_it():
    # the benchmark's tracer replaces each (owner, attribute) of its TARGETS
    # and reads the original from the owner's __dict__, so a helper deleted
    # or moved out of its module breaks traced benchmark runs
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in tracer.TARGETS
               if attr not in vars(tracer._resolve(latlab, owner))]
    assert tracer.TARGETS and not missing, missing
