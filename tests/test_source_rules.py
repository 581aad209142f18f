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
