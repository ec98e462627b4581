"""Static checks: every module of the package and of the tests uses what it
imports, every private module-level name of the package is read, every
public module-level function or class of the package has a user, no
module of the package imports scipy (numpy is its one runtime dependency),
and no module of the package but ``kernels`` branches on a kernel's class
(a kernel declares what its callers need to know).

``mdf/__init__.py`` is left out of the import check: importing is how it
re-exports the API.  No linter is a dependency, so the checks are walks
over the standard library's ``ast``.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mdf").glob("*.py"))
FILES = [p for p in PACKAGE if p.name != "__init__.py"]
FILES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """'name (line k)' for each name an import binds and the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_flags_what_is_never_read():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d\nd(np)\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 1)"]


def unread_private_names(sources):
    """'module:name' for each module-level ``_name`` the sources define and never read.

    ``sources`` maps a module name to its source.  A read is a loaded
    name, an attribute of that name, or an import of it, in any of the
    sources; dunder names are left out.
    """
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.add((module, name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_every_private_name_of_the_package_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unread_private_names(sources) == []


def test_the_private_name_check_flags_what_is_never_read():
    sources = {
        "a": "_X = 1\n_Y, __all__ = 2, []\ndef _f():\n    return _X\nclass _C:\n    pass\n",
        "b": "from a import _C\nimport a\na._f()\n",
    }
    assert unread_private_names(sources) == ["a:_Y"]


def unread_public_names(sources, docs="", bench=""):
    """'module:name' for each public module-level ``def`` or ``class`` that nothing uses.

    ``sources`` maps a module name to its source; ``__init__`` is left
    out as a reader, since re-exporting a name is not using it.  A name is
    used when another definition of the sources loads it (a loaded name or
    an attribute of that name), when ``docs`` names it inside backticks (an
    inline span or a fenced block), or when ``bench`` mentions it as a word.
    """
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.add((module, node.name))
        if module == "__init__":
            continue
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    spans = re.findall(r"```(.*?)```|`([^`]+)`", docs, re.DOTALL)
    read.update(w for span in spans for w in re.findall(r"\w+", "".join(span)))
    read.update(re.findall(r"\w+", bench))
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_every_public_name_of_the_package_is_used():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    bench = "".join(p.read_text() for p in sorted((ROOT / "perfbench").rglob("*"))
                    if p.suffix in (".py", ".md"))
    docs = (ROOT / "README.md").read_text()
    assert unread_public_names(sources, docs, bench) == []


def test_the_public_name_check_flags_what_is_never_used():
    sources = {
        "__init__": "from .a import f, g, h, k, C, D\n",
        "a": "def f():\n    return f()\ndef g():\n    pass\nclass C:\n    pass\n"
             "class D:\n    pass\ndef h():\n    pass\ndef k():\n    pass\n",
        "b": "from a import C\nimport a\na.g()\nC()\n",
    }
    docs = "the class `D` is documented, k is not\n```python\nh(1)\n```\n"
    assert unread_public_names(sources, docs, bench="f =") == ["a:k"]
    assert unread_public_names(sources, docs) == ["a:f", "a:k"]


def scipy_imports(source):
    """'line k' for each import of scipy or of a scipy submodule in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(f"line {node.lineno}")
    return lines


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_the_package_does_not_import_scipy(path):
    assert scipy_imports(path.read_text()) == []


def test_the_scipy_check_flags_every_import_form():
    source = ("import scipy\nimport numpy, scipy.special as sp\nfrom scipy import linalg\n"
              "def f():\n    from scipy.special import exp1\nfrom .scipy import x\nimport scipyx\n")
    assert scipy_imports(source) == ["line 1", "line 2", "line 3", "line 5"]


def kernel_class_branches(source, classes):
    """'line k' for each ``isinstance`` against, or ``type(...)`` compared with, a class named
    in ``classes``.

    A class counts by its name, bare or as an attribute (``kernels.F0Kernel``).
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            operands = node.args[1:]
        elif isinstance(node, ast.Compare) and any(
                isinstance(o, ast.Call) and getattr(o.func, "id", None) == "type"
                for o in [node.left, *node.comparators]):
            operands = [node.left, *node.comparators]
        else:
            continue
        names = {getattr(n, "id", None) or getattr(n, "attr", None)
                 for operand in operands for n in ast.walk(operand)}
        if names & classes:
            lines.append(node.lineno)
    return [f"line {k}" for k in sorted(lines)]


KERNELS_TREE = ast.parse((ROOT / "src" / "mdf" / "kernels.py").read_text())
KERNEL_CLASSES = {node.name for node in KERNELS_TREE.body if isinstance(node, ast.ClassDef)}


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "kernels.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_but_kernels_branches_on_a_kernel_class(path):
    assert kernel_class_branches(path.read_text(), KERNEL_CLASSES) == []


def test_the_kernel_class_check_flags_isinstance_and_type():
    source = ("if isinstance(f, (int, kernels.CauchyKernel)):\n    pass\n"
              "ok = type(f) is F0Kernel\nok = F0Kernel != type(f)\n"
              "ok = isinstance(f, dict) or type(f) is int or f is F0Kernel\n")
    assert kernel_class_branches(source, {"CauchyKernel", "F0Kernel"}) == [
        "line 1", "line 3", "line 4"]
