"""The engine imports nothing outside the standard library except numpy, its one runtime dependency."""

import ast
import pathlib
import sys

import samplerank


def test_engine_imports_only_stdlib_and_numpy():
    outside = []
    for path in sorted(pathlib.Path(samplerank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not outside
