"""The distribution metadata in pyproject.toml matches the package."""

from __future__ import annotations

import re
from pathlib import Path

import cachepriv

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def project_field(name: str) -> str:
    # a regex, not tomllib, which Python 3.10 lacks
    text = PYPROJECT.read_text(encoding="utf-8")
    table = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
    match = re.search(rf'^{name} = "([^"]*)"$', table, re.MULTILINE)
    assert match is not None, f"no {name} in [project]"
    return match.group(1)


def test_the_distribution_is_named_and_versioned_as_the_package():
    assert project_field("name") == "cachepriv"
    assert project_field("version") == cachepriv.__version__
    scripts = PYPROJECT.read_text(encoding="utf-8").split("[project.scripts]\n", 1)[1]
    assert scripts.startswith('cachepriv = "cachepriv.cli:main"\n')
