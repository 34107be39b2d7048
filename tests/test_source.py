import ast
from pathlib import Path

import ogpf

SRC = Path(ogpf.__file__).parent


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts; runtime checks raise the typed errors of
    # ogpf.errors instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []
