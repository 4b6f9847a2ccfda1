"""The package and its tests keep to the oldest Python that ``pyproject.toml`` declares."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import lcdsc

_PACKAGE = Path(lcdsc.__file__).parent
_ROOT = _PACKAGE.parents[1]


def _oldest() -> tuple[int, int]:
    text = (_ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_sources_parse_under_the_oldest_grammar():
    # the tests, and the benchmark modules the contract test loads, run on it too
    paths = [*_PACKAGE.glob("*.py"), *_ROOT.glob("tests/*.py"), *_ROOT.glob("perfbench/*.py")]
    assert any(p.parent.name == "perfbench" for p in paths)
    for path in sorted(paths):
        ast.parse(path.read_text(), filename=str(path), feature_version=_oldest())


def _opcodes(node):
    if isinstance(node, re._parser.SubPattern):
        for op, arg in node:
            yield str(op)
            yield from _opcodes(arg)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcodes(item)


@pytest.mark.skipif(not hasattr(re, "_parser"), reason="the regex parser predates 3.11")
def test_patterns_use_no_regex_syntax_newer_than_3_10():
    # possessive quantifiers (*+, ++, ?+, {m,n}+) and atomic groups (?>...) came
    # in 3.11; an older re rejects them when the module is imported
    assert _oldest() <= (3, 10)
    patterns = [value for info in pkgutil.iter_modules(lcdsc.__path__)
                for value in vars(importlib.import_module(f"lcdsc.{info.name}")).values()
                if isinstance(value, re.Pattern)]
    assert patterns
    for pattern in patterns:
        ops = set(_opcodes(re._parser.parse(pattern.pattern, pattern.flags)))
        assert not ops & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, pattern
