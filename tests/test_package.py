"""The package as a whole: what ``clir`` exports, what the benchmark reads
from it, and no import, module-level name, function or class in its modules
that nothing uses. Standard library only, so it runs wherever the tests run."""

import ast
import functools
import importlib
import re
import types
from pathlib import Path

import clir
from clir.cli import SETTINGS

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


def _assigned_names(node):
    """The names a module-level statement binds by assignment, dunders aside."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)
            and not (name.id.startswith("__") and name.id.endswith("__"))]


def _defined_names(node):
    """The name a module-level ``def`` or ``class`` binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    return []


def _unread_module_names(sources, bound=_assigned_names, read_outside=frozenset()):
    """{module: [(line, name)]} of each name that ``bound`` finds a
    module-level statement binding, that its own module never reads, no
    other module of ``sources`` ({dotted module name: source}) imports and
    ``read_outside`` does not hold."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {(node.module, alias.name) for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = {}
    for module, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found = [(node.lineno, name) for node in tree.body for name in bound(node)
                 if name not in read and (module, name) not in imported
                 and name not in read_outside]
        if found:
            unread[module] = found
    return unread


def _package_sources():
    return {f"clir.{path.stem}" if path.stem != "__init__" else "clir":
            path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _identifiers(source):
    """Every name, attribute and imported name that ``source`` mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_module_binds_a_name_nothing_reads():
    assert _unread_module_names(_package_sources()) == {}


def test_no_module_defines_a_function_or_class_nothing_reads():
    # a reference implementation that only the tests call counts as read
    read_outside = set()
    for path in sorted([*(ROOT / "tests").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        read_outside |= _identifiers(path.read_text(encoding="utf-8"))
    assert _unread_module_names(_package_sources(), _defined_names, read_outside) == {}


def test_the_name_check_flags_only_names_nothing_reads():
    sources = {
        "clir.a": (
            "__all__ = []\n"
            "X = 1\n"
            "_Y = 2\n"
            "Z: int = 3\n"
            "P, (Q, R) = 4, (5, 6)\n"
            "S = T = 7\n"
            "\n"
            "def f():\n"
            "    return X + Q\n"
        ),
        "clir.b": "from clir.a import Z, T\nW = 8\nW += 1\n",
    }
    assert _unread_module_names(sources) == {
        "clir.a": [(3, "_Y"), (5, "P"), (5, "R"), (6, "S")],
        "clir.b": [(2, "W")],
    }


def test_the_definition_check_flags_only_defs_and_classes_nothing_reads():
    sources = {
        "clir.a": (
            "def used():\n"
            "    return _helper()\n"
            "\n"
            "def _helper():\n"
            "    return 1\n"
            "\n"
            "def _left_behind(x):\n"
            "    return x\n"
            "\n"
            "class Exported:\n"
            "    pass\n"
            "\n"
            "class _Dead:\n"
            "    def method(self):\n"
            "        return _helper\n"
            "\n"
            "async def reference():\n"
            "    pass\n"
            "\n"
            "X = 1\n"
        ),
        "clir.b": "from clir.a import Exported\n",
    }
    outside = _identifiers("from clir.a import used\nimport clir.a\nclir.a.reference()\n")
    assert _unread_module_names(sources, _defined_names, outside) == {
        "clir.a": [(7, "_left_behind"), (13, "_Dead")],
    }


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


def test_readme_lists_exactly_the_settings_as_config_keys():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("`--config FILE` supplies", 1)[1].split("\n\n", 1)[0]
    listed = paragraph.split("The keys are", 1)[1].split(":", 1)[1].split(".", 1)[0]
    assert re.findall(r"`([^`]+)`", listed) == list(SETTINGS)


# a stage runs only inside the one query loop and the library's per-query call
_STAGES = {"run_first_stage", "_run_first_stage", "run_second_stage", "run_two_stage"}
_STAGE_CALLERS = {"sweep_runs", "run_two_stage"}


def _stray_stage_calls(source):
    """(line, caller) of each call of a stage, by name or as an attribute,
    outside the top-level functions ``_STAGE_CALLERS`` name; ``caller`` is
    the enclosing top-level def or class, None at module level."""
    found = []
    for top in ast.parse(source).body:
        caller = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and caller not in _STAGE_CALLERS:
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in _STAGES:
                    found.append((node.lineno, caller))
    return found


def test_only_the_query_loop_runs_a_stage():
    stray = {module: found for module, source in _package_sources().items()
             if (found := _stray_stage_calls(source))}
    assert stray == {}


def test_the_stage_call_check_flags_only_calls_outside_the_loop():
    source = (
        "from clir import pipeline\n"
        "\n"
        "def sweep_runs(q):\n"
        "    def inner():\n"
        "        return run_second_stage(q)\n"
        "    return run_first_stage(q), inner()\n"
        "\n"
        "def run_two_stage(q):\n"
        "    return _run_first_stage(q)\n"
        "\n"
        "def verb(qs):\n"
        "    return [pipeline.run_two_stage(q) for q in qs], run_first_stage\n"
        "\n"
        "class Loop:\n"
        "    def run(self, q):\n"
        "        return _run_first_stage(q)\n"
        "\n"
        "X = run_second_stage(None)\n"
    )
    assert _stray_stage_calls(source) == [(12, "verb"), (16, "Loop"), (18, None)]


def _perfbench_names(sources):
    """(read, wrapped): dotted paths of the clir names that perfbench reads,
    parsed from ``sources`` (file name to text), which are never run. ``read``
    holds each name imported from clir, each attribute read off such a name,
    and every name in ``wrapped``, the (module, name) pairs of ``WRAPPED`` in
    spans.py, which perfbench's tracer replaces by module and name."""
    read, wrapped = set(), set()
    for file_name, source in sources.items():
        tree = ast.parse(source)
        bound = {}  # local name -> the dotted clir path it was imported as
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "clir":
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "clir":
                        read.add(alias.name)
                        bound[alias.asname or "clir"] = alias.name if alias.asname else "clir"
        read |= set(bound.values())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in bound):
                read.add(f"{bound[node.value.id]}.{node.attr}")
            elif (file_name == "spans.py" and isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]):
                wrapped |= {f"{module}.{name}" for module, name, _ in ast.literal_eval(node.value)}
    return read | wrapped, wrapped


def _resolve(dotted):
    """The object at a dotted path: its longest importable module prefix,
    then attributes; AttributeError if one of them is missing."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        return functools.reduce(getattr, parts[cut:], module)
    raise ModuleNotFoundError(dotted)


def _unresolved(names):
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    return missing


def test_every_clir_name_perfbench_reads_or_wraps_resolves():
    # perfbench/ is the benchmark and changes apart from the library: a name
    # it imports that is gone fails its run, and a wrapped name that is gone
    # silently blanks its span's metrics (pipeline.run_s) on every workload
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "perfbench").glob("*.py"))}
    read, wrapped = _perfbench_names(sources)
    assert {"clir.evaluation.run_two_stage", "clir.index.analyze"} <= wrapped
    assert {"clir.corpus.load_corpus", "clir.translate.TableAdapter.from_file",
            "clir.evaluation.sweep_n", "clir.cli.main"} <= read
    assert _unresolved(read) == []
    assert [name for name in sorted(wrapped) if not callable(_resolve(name))] == []


def test_the_perfbench_name_check_reads_imports_attributes_and_wrapped_names():
    sources = {
        "a.py": (
            "import json\n"
            "from clir import cli, evaluation as ev\n"
            "from clir.index import ScoredDoc\n"
            "\n"
            "def f(pipeline):\n"
            "    import clir\n"
            "    import clir.corpus as corpus\n"
            "    ev.hook = json.dumps\n"
            "    return ev.sweep_n(cli.main, ScoredDoc.doc_id, clir.__file__, corpus.Query,\n"
            "                      pipeline.not_clir)\n"
        ),
        "spans.py": "WRAPPED = (('clir.pipeline', 'search', 'index.search'),)\nX = (('a', 'b', 'c'),)\n",
    }
    read, wrapped = _perfbench_names(sources)
    assert wrapped == {"clir.pipeline.search"}
    assert read == {"clir", "clir.__file__", "clir.cli", "clir.cli.main", "clir.corpus",
                    "clir.corpus.Query", "clir.evaluation", "clir.evaluation.sweep_n",
                    "clir.index.ScoredDoc", "clir.index.ScoredDoc.doc_id", "clir.pipeline.search"}
    assert _unresolved(read | {"clir.evaluation.no_such_name", "clir.cli.main.nope"}) == [
        "clir.cli.main.nope", "clir.evaluation.no_such_name"]


# every output file goes through clir.files.replacing, the one writer
_WRITE_MODE = re.compile("[wax+]")
_WRITE_METHODS = {"write_text", "write_bytes"}
_RENAMES = {"replace", "rename"}


def _stray_writes(source):
    """Line of each call that can write a file other than through the one
    writer: an ``open`` whose mode holds w, a, x or + or is not a string
    literal, a ``Path.write_text`` or ``write_bytes``, and an ``os.replace``
    or ``os.rename``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            writes = any(not isinstance(mode, ast.Constant) or not isinstance(mode.value, str)
                         or _WRITE_MODE.search(mode.value) for mode in modes)
        else:
            owner = getattr(getattr(func, "value", None), "id", None)
            writes = name in _WRITE_METHODS or name in _RENAMES and owner == "os"
        if writes:
            found.append(node.lineno)
    return found


def test_only_the_one_writer_writes_files():
    stray = {module: found for module, source in _package_sources().items()
             if module != "clir.files" and (found := _stray_writes(source))}
    assert stray == {}
    assert _stray_writes((PACKAGE / "files.py").read_text(encoding="utf-8"))


def test_the_write_check_flags_only_calls_that_can_write():
    source = (
        "import io, os\n"
        "open(p)\n"
        "open(p, 'r', encoding='utf-8')\n"
        "open(p, mode='rb')\n"
        "open(p, 'w', encoding='utf-8')\n"
        "io.open(p, mode='a')\n"
        "open(p, 'r+b')\n"
        "open(p, 'xb')\n"
        "open(p, mode)\n"
        "path.write_text(text)\n"
        "os.replace(a, b)\n"
        "os.rename(a, b)\n"
        "key.replace('-', '_')\n"
        "path.read_text()\n"
    )
    assert _stray_writes(source) == [5, 6, 7, 8, 9, 10, 11, 12]


# the target analyzer is the index's: only the frozen entry points, which
# take one to check it against the index, and the check itself name it
_TARGET_TAKERS = {"run_first_stage", "run_two_stage", "sweep_runs", "sweep_n", "_check_target"}


def _stray_target_parameters(source):
    """(line, function) of each function or lambda, at any depth, that
    takes a parameter named ``cfg_tgt`` and is not one of ``_TARGET_TAKERS``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            name = getattr(node, "name", "<lambda>")
            if name not in _TARGET_TAKERS and any(p and p.arg == "cfg_tgt" for p in params):
                found.append((node.lineno, name))
    return found


def test_only_the_entry_points_take_a_target_analyzer():
    stray = {module: found for module, source in _package_sources().items()
             if (found := _stray_target_parameters(source))}
    assert stray == {}


def test_the_target_parameter_check_flags_every_other_taker():
    source = (
        "def run_first_stage(query, index, cfg, cfg_src, cfg_tgt, depth=None):\n"
        "    def inner(cfg_tgt):\n"
        "        return cfg_tgt\n"
        "    return inner\n"
        "\n"
        "def translate_query(query, method, index, cfg_src, cfg_tgt, adapter):\n"
        "    pass\n"
        "\n"
        "class Translator:\n"
        "    async def run(self, *, cfg_tgt=None):\n"
        "        return lambda cfg_tgt: cfg_tgt\n"
        "\n"
        "def positional(cfg_tgt, /):\n"
        "    pass\n"
        "\n"
        "def reads_it(index):\n"
        "    cfg_tgt = index.analyzer\n"
        "    return cfg_tgt\n"
    )
    found = _stray_target_parameters(source)
    assert sorted(found) == [(2, "inner"), (6, "translate_query"), (10, "run"),
                             (11, "<lambda>"), (13, "positional")]


# how a command ends has one home: clir.cli.main prints each failure and sets
# every exit status, a closed pipe's 141 among them
def _stray_exit_handling(source):
    """(line, owner) of each ``except`` handler that names BrokenPipeError
    and each ``return`` of an integer literal outside the top-level function
    ``main``; ``owner`` is the enclosing top-level def or class, None at
    module level."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if owner == "main":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                stray = "BrokenPipeError" in _identifiers(ast.unparse(node.type))
            else:
                value = getattr(node, "value", None) if isinstance(node, ast.Return) else None
                stray = isinstance(value, ast.Constant) and type(value.value) is int
            if stray:
                found.append((node.lineno, owner))
    return sorted(found, key=lambda item: item[0])


def test_only_main_sets_an_exit_status():
    assert _stray_exit_handling((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_the_exit_check_flags_only_pipe_handlers_and_status_literals_outside_main():
    source = (
        "def main(argv):\n"
        "    try:\n"
        "        return run(argv)\n"
        "    except BrokenPipeError:\n"
        "        return 141\n"
        "\n"
        "def _emit(fh):\n"
        "    try:\n"
        "        fh.flush()\n"
        "    except (ValueError, BrokenPipeError):\n"
        "        return 141\n"
        "    return 0\n"
        "\n"
        "class Verb:\n"
        "    def run(self):\n"
        "        return 2\n"
        "\n"
        "def tag(args):\n"
        "    if args.tag:\n"
        "        return args.tag\n"
        "    return None\n"
        "\n"
        "def verbose(args):\n"
        "    return True\n"
        "\n"
        "try:\n"
        "    import fcntl\n"
        "except ImportError:\n"
        "    fcntl = None\n"
        "except builtins.BrokenPipeError:\n"
        "    pass\n"
    )
    assert _stray_exit_handling(source) == [(10, "_emit"), (11, "_emit"), (12, "_emit"),
                                            (16, "Verb"), (30, None)]


# a document's texts have one home: clir.corpus names a document's title,
# keywords and abstract, and every other module reads them as Document.texts
_DOCUMENT_FIELDS = {"title", "keywords", "abstract"}


def _stray_field_reads(source):
    """Line of each attribute, read or set, named title, keywords or abstract."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in _DOCUMENT_FIELDS)


def test_only_the_corpus_reads_a_documents_fields():
    stray = {module: found for module, source in _package_sources().items()
             if module != "clir.corpus" and (found := _stray_field_reads(source))}
    assert stray == {}
    assert _stray_field_reads((PACKAGE / "corpus.py").read_text(encoding="utf-8"))


def test_the_field_check_flags_only_attributes_of_those_names():
    source = (
        "doc.title\n"
        "Document(doc_id, lang, title=t, keywords=[], abstract=a)\n"
        "' '.join(doc.texts)\n"
        "[k for k in doc.keywords if k]\n"
        "record['abstract']\n"
        "doc.abstract = text\n"
        "getattr(doc, 'title')\n"
        "title, *keywords, abstract = doc.texts\n"
        "f(self.title.strip())\n"
    )
    assert _stray_field_reads(source) == [1, 4, 6, 9]
