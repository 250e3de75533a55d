"""The engine imports nothing outside the standard library except numpy, its one runtime dependency, packs
and unpacks bytes in one binary-file codec, and maps a file in one place, the embeddings loader."""

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


CODEC = {"read_binary_file", "write_binary_file"}
BYTE_CALLS = {("struct", "pack"), ("struct", "unpack"), ("struct", "unpack_from"),
              ("np", "frombuffer"), ("numpy", "frombuffer")}


def _module_calls(calls, functions):
    """(calls inside the engine's functions named *functions*, "file:line: call" of each one elsewhere) for
    every ``module.attribute(...)`` call in *calls*."""
    inside, outside = 0, []
    for path in sorted(pathlib.Path(samplerank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node) for function in ast.walk(tree)
                   if isinstance(function, ast.FunctionDef) and function.name in functions
                   for node in ast.walk(function)}
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr) in calls):
                if id(node) in allowed:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}: {func.value.id}.{func.attr}")
    return inside, outside


def test_only_the_binary_codec_packs_and_unpacks_bytes():
    inside, outside = _module_calls(BYTE_CALLS, CODEC)
    assert inside and not outside


def test_only_load_embeddings_maps_a_file():
    """One read path for embeddings: ``data.load_embeddings`` maps the file, and nothing else maps one."""
    inside, outside = _module_calls({("mmap", "mmap")}, {"load_embeddings"})
    assert inside == 1 and not outside
    for path in sorted(pathlib.Path(samplerank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not (isinstance(node, ast.ImportFrom) and node.module == "mmap"), path.name
            if isinstance(node, ast.Import) and "mmap" in [alias.name for alias in node.names]:
                assert path.name == "data.py"
