"""The benchmark's tracing targets still name callables with the arguments it reads.

``bench/tracing.py`` replaces ``samplerank.<module>.<attr>`` for each of
its targets and binds each call to read named arguments. A rename or a
signature change in the package would break the benchmark silently, so
this checks the targets against the package without changing ``bench/``.
"""

import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
# every argument the count functions read, as listed when this check was written
READ_ARGUMENTS = {"x", "predictor", "points", "path", "ft_corpus", "labeled_ids",
                  "spec", "budgets", "strategies", "n_seeds"}


def _load_tracing():
    """Execute the file as a module of its own; nothing is written next to it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    sys.modules[module.__name__] = module  # dataclasses look the module up
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


TARGETS = _load_tracing().TARGETS


def _arguments_read(count) -> set[str]:
    """Names the count function looks up in the bound call, e.g. ``a["spec"]``."""
    return set(re.findall(r'\[\s*"(\w+)"\s*\]', inspect.getsource(count)))


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_target_resolves_with_the_arguments_it_reads(target):
    fn = getattr(importlib.import_module(f"samplerank.{target.module}"), target.attr)
    assert callable(fn)
    if target.count is not None:
        params = inspect.signature(fn).parameters
        missing = _arguments_read(target.count) - set(params)
        assert not missing, f"{target.module}.{target.attr} lacks {sorted(missing)}"


def test_argument_scan_finds_every_argument_read():
    found = set().union(*(_arguments_read(t.count) for t in TARGETS if t.count is not None))
    assert found == READ_ARGUMENTS
