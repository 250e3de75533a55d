"""README's code runs as written, so the documentation cannot drift from the package's exports."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)[1]
    exec(compile(block, f"{README}:Library use", "exec"), {})
