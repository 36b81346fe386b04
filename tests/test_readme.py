"""README's library example runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under ## Library example"
    return match.group(1)


def test_library_example_prints_its_comments():
    code = library_example()
    expected = [
        line.split("  # ", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert len(expected) == 5
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == expected
