"""The names that the README and the docstrings and comments of the package,
the tests and the demos cite in backticks must still exist: a private name
(one with a leading underscore), a `module.name` of the package
(`timeflow.module.name` too) and a `Class.attribute` of one of its classes."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "timeflow"
SOURCES = [path for folder in (SRC, ROOT / "tests", ROOT / "demos")
           for path in sorted(folder.glob("*.py"))]
# an identifier or dotted name between single or double backticks, nothing else
TOKEN = re.compile(r"(?<!`)``?([A-Za-z_][\w.]*\w)``?(?!`)")


def _bound(body):
    """The names that the statements of `body` bind: functions, classes,
    assignment and annotation targets, and imports."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def _definitions():
    """(module -> its top-level names, class -> its body's names, every name
    bound in any body) over the package, the tests and the demos."""
    modules, classes, everywhere = {}, {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(getattr(node, "body", None), list):
                everywhere |= _bound(node.body)
        if path.parent == SRC:
            modules[path.stem] = _bound(tree.body)
            classes.update((node.name, _bound(node.body)) for node in tree.body
                           if isinstance(node, ast.ClassDef))
    return modules, classes, everywhere


def _doc_texts():
    """(file, text) for the README and for each source file's docstrings and comments."""
    yield "README.md", (ROOT / "README.md").read_text(encoding="utf-8")
    for path in SOURCES:
        source = path.read_text(encoding="utf-8")
        docs = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(source))
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef))]
        comments = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                    if tok.type == tokenize.COMMENT]
        yield str(path.relative_to(ROOT)), "\n".join(docs + comments)


def _resolves(name, modules, classes, everywhere):
    head, *rest = name.removeprefix("timeflow.").split(".")
    if head in modules:  # module[.name[...]]
        if not rest:
            return True
        if rest[0] not in modules[head]:
            return False
        head, *rest = rest
    if head in classes and rest:
        return rest[0] in classes[head]
    return not head.startswith("_") or head in everywhere  # other dotted names are not ours


def test_backticked_names_in_the_docs_exist():
    defs = _definitions()
    stale = sorted({(where, name) for where, text in _doc_texts()
                    for name in TOKEN.findall(text) if not _resolves(name, *defs)})
    assert not stale, f"backticked names that nothing defines: {stale}"
