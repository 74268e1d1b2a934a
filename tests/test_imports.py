"""Modules of `ekgen` outside `ekgen.diffkit` use only diffkit's public
names: no `from ekgen.diffkit... import _name`, relative or absolute, and
no `dk._name` on a name bound to diffkit."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
DIFFKIT = "ekgen.diffkit"


def _modules():
    return sorted(p for p in (SRC / "ekgen").rglob("*.py")
                  if "diffkit" not in p.relative_to(SRC).parts)


def _absolute(node: ast.ImportFrom, package: list[str]) -> str:
    """The module that `node` imports from, with a relative one resolved
    against `package`."""
    base = package[:len(package) - node.level + 1] if node.level else []
    return ".".join(base + ([node.module] if node.module else []))


def _private_diffkit_uses(path: Path, root: Path = SRC) -> list[str]:
    """Where the module at `path`, a package path under `root`, imports or
    reads a private name of diffkit."""
    package = list(path.relative_to(root).parent.parts)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _absolute(node, package)
            for a in node.names:
                full = f"{module}.{a.name}"
                if full == DIFFKIT:
                    aliases.add(a.asname or a.name)
                elif module.startswith(DIFFKIT) and a.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} imports {full}")
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names
                           if a.name == DIFFKIT and a.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"{path.name}:{node.lineno} uses "
                         f"{node.value.id}.{node.attr}")
    return found


def test_no_module_outside_diffkit_uses_its_private_names():
    modules = _modules()
    assert {p.name for p in modules} >= {"embed.py", "graph2seq.py", "pipeline.py"}
    assert [use for p in modules for use in _private_diffkit_uses(p)] == []


@pytest.mark.parametrize("source, found", [
    ("from .diffkit.tensor import _child, Tensor\n",
     ["imports ekgen.diffkit.tensor._child"]),
    ("from ekgen.diffkit import _const\n", ["imports ekgen.diffkit._const"]),
    ("from . import diffkit as dk\nx = dk._child\n", ["uses dk._child"]),
    ("from .diffkit import Tensor\nfrom . import config\nx = config._p\n", []),
])
def test_the_scan_sees_private_imports(tmp_path, source, found):
    path = tmp_path / "ekgen" / "mod.py"
    path.parent.mkdir()
    path.write_text(source, encoding="utf-8")
    uses = _private_diffkit_uses(path, tmp_path)
    assert [u.split(" ", 1)[1] for u in uses] == found
