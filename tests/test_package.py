"""The package as a whole: what ``clir`` exports, and no import in its
modules that nothing uses. Standard library only, so it runs wherever the
tests run."""

import ast
import re
import types
from pathlib import Path

import clir

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clir"

# an unused import is kept only where its line says why
_EXPLAINED = re.compile(r"#\s*noqa:\s*F401\b\s*\S")


def _unused_imports(source):
    """(line, name) of each module-level import that the module never reads
    and whose line carries no ``# noqa: F401`` with a reason."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.append((alias.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported
            if name not in read and not _EXPLAINED.search(lines[line - 1])]


def test_no_module_imports_a_name_it_does_not_use():
    unused = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"  # its imports are the package's exports
        and (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_the_import_check_flags_only_unused_unexplained_names():
    source = (
        "import os\n"
        "import os.path\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,\n"
        ")\n"
        "from sys import argv as args\n"
        "from sys import version  # noqa: F401\n"
        "from sys import path  # noqa: F401  read by a plugin\n"
        "\n"
        "def f():\n"
        "    return dumps(args)\n"
    )
    assert _unused_imports(source) == [(1, "os"), (2, "os"), (5, "loads"), (8, "version")]


def _readme_library_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"from clir import \(([^)]*)\)", section)
    return [name.strip() for name in block.group(1).split(",") if name.strip()]


def test_clir_exports_exactly_the_names_readme_imports_from_it():
    names = _readme_library_names()
    assert len(names) == 7
    public = {
        name for name, value in vars(clir).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
