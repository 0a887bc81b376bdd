"""Every evolink import in the demos and the README resolves.

The sources are parsed with ``ast`` and never run, so this stays fast;
it catches a rename or a deletion that orphans a documented import.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FENCE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def readme_blocks() -> list[str]:
    return FENCE.findall((ROOT / "README.md").read_text())


def _resolves(module: str, name: str | None = None) -> bool:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(owner, name):
        return True
    return _resolves(f"{module}.{name}")


def unresolved(source: str) -> list[str]:
    """The evolink imports in ``source`` that do not resolve."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "evolink":
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not _resolves(node.module, a.name)]
        elif isinstance(node, ast.Import):
            missing += [a.name for a in node.names
                        if a.name.split(".")[0] == "evolink" and not _resolves(a.name)]
    return missing


def test_the_sources_are_found():
    assert len(DEMOS) >= 5
    blocks = readme_blocks()
    assert any("from evolink." in b for b in blocks)


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    assert unresolved(path.read_text()) == []


def test_readme_imports_resolve():
    for block in readme_blocks():
        assert unresolved(block) == []


def test_a_missing_name_is_reported():
    source = ("from evolink.model import GcnChain, no_such_name\n"
              "from evolink import graphs, no_such_module\n"
              "import evolink.tape, evolink.nowhere\n")
    assert unresolved(source) == ["evolink.model.no_such_name", "evolink.no_such_module",
                                  "evolink.nowhere"]
