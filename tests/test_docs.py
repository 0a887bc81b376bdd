"""Every evolink import in the demos and the README resolves, and so does
every README code span that names a submodule's attribute; the demos run.

The imports and spans are checked by parsing the sources with ``ast``,
which catches a rename or a deletion that orphans a documented import or
leaves stale prose such as ``model.SomethingDeleted``. The demos then run
as scripts, which catches a call whose signature or behaviour changed.
"""
import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import evolink

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FENCE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
ANY_FENCE = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
SPAN = re.compile(r"`([^`\n]+)`")
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(evolink.__path__))
# "graphs.SnapshotGraph", "evolink.tape.expit" or "graphs.normalize_weights(raw)".
QUALIFIED = re.compile(rf"(?:evolink\.)?({'|'.join(SUBMODULES)})\.([A-Za-z_][\w.]*)(?:\(.*\))?")


def readme_blocks() -> list[str]:
    return FENCE.findall((ROOT / "README.md").read_text())


def readme_prose() -> str:
    """The README without its fenced code blocks."""
    return ANY_FENCE.sub("", (ROOT / "README.md").read_text())


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


def unresolved_spans(text: str) -> list[str]:
    """The inline code spans of ``text`` naming ``<submodule>.<name>``
    (a dotted name; any call arguments ignored) that do not resolve."""
    missing = []
    for span in SPAN.findall(text):
        match = QUALIFIED.fullmatch(span)
        if match is None:
            continue
        owner = importlib.import_module(f"evolink.{match[1]}")
        for part in match[2].split("."):
            owner = getattr(owner, part, missing)
        if owner is missing:
            missing.append(span)
    return missing


def test_the_sources_are_found():
    assert len(DEMOS) >= 5
    blocks = readme_blocks()
    assert any("from evolink." in b for b in blocks)
    assert sum(1 for span in SPAN.findall(readme_prose()) if QUALIFIED.fullmatch(span)) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    assert unresolved(path.read_text()) == []


# 05_gamma_sweep.py takes several seconds, and the gamma-sweep acceptance
# gate already runs its code path.
RUN_DEMOS = [p for p in DEMOS if not p.name.startswith("05_")]


@pytest.mark.parametrize("path", RUN_DEMOS, ids=[p.name for p in RUN_DEMOS])
def test_demo_runs(path, tmp_path):
    """A demo runs to exit 0; it writes its files into its working directory."""
    env = {**os.environ, "PYTHONPATH": str(Path(evolink.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_imports_resolve():
    for block in readme_blocks():
        assert unresolved(block) == []


def test_readme_code_spans_resolve():
    assert unresolved_spans(readme_prose()) == []


def test_a_missing_name_is_reported():
    source = ("from evolink.model import GcnChain, no_such_name\n"
              "from evolink import graphs, no_such_module\n"
              "import evolink.tape, evolink.nowhere\n")
    assert unresolved(source) == ["evolink.model.no_such_name", "evolink.no_such_module",
                                  "evolink.nowhere"]
    prose = ("`model.GcnChain.final`, `model.GcnChain.no_such_name`, `evolink.tape.expit`, "
             "`graphs.normalize_weights(raw)`, `graphs.no_such_name(g)`, `report.json`")
    assert unresolved_spans(prose) == ["model.GcnChain.no_such_name", "graphs.no_such_name(g)"]
