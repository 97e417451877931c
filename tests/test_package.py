"""The package surface: every exported name resolves, and the README's
Python quick start runs and prints what its comments say."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bhecke

README = Path(__file__).resolve().parents[1] / "README.md"
PUBLIC = sorted(f"bhecke.{m.name}" for m in pkgutil.iter_modules(bhecke.__path__)
                if not m.name.startswith("_"))


@pytest.mark.parametrize("name", ["bhecke"] + PUBLIC)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_readme_quick_start_runs():
    # Each line `expr  # value: comment` must evaluate to value; warnings
    # are errors under the pytest settings.
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    checked = 0
    for line in code.splitlines():
        stmt, _, comment = line.partition("  #")
        if comment:
            expected = comment.strip().split(":", 1)[0]
            assert repr(eval(stmt, scope)) == expected, line
            checked += 1
        else:
            exec(stmt, scope)
    assert checked == 4
