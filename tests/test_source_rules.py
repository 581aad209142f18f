import ast
from pathlib import Path

import latlab


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
    # each _cmd_* returns its result; main alone chooses JSON or CSV
    tree = ast.parse((Path(latlab.__file__).parent / "cli.py").read_text())
    found = [
        f"{func.name}:{node.lineno}"
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name.startswith("_cmd_")
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id in ("_emit_json", "_emit_csv")
    ]
    assert not found, found
