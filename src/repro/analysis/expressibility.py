"""P4-expressibility pass: the AST lint, package- and call-graph-aware.

Beyond a one-module walk that only catches attribute-style library calls
(``math.sqrt``), this pass covers:

- ``from math import sqrt`` followed by a bare ``sqrt(x)`` is flagged, as
  is ``import numpy as anything`` followed by ``anything.mean(...)``;
- a whole package can be walked recursively (every ``.py`` under it);
- when scanning a single module, calls into ``from``-imported helpers are
  followed into their defining modules, so a division hidden in a helper
  reached from a data-plane update path is still caught;
- a trailing ``# p4-ok`` comment suppresses the finding on that line
  (downgraded to an ST406 info note, so JSON output still records it) —
  the documented escape hatch for compile-time-bounded loops.  A file
  whose first lines contain ``# p4-ok-file`` is skipped entirely during
  package walks (the Welford floating-point reference), but still scanned
  when named directly.

Forbidden constructs (each a registered rule):

- ST401: ``/``, ``//``, ``%``, ``**`` (binary or augmented);
- ST402: float literals;
- ST403: calls into math/numpy/statistics, however imported;
- ST404: ``float()``, ``divmod()``, ``pow()``;
- ST405: ``while`` loops (data-dependent iteration; ``for`` over a fixed
  ``range`` is compiler unrolling and accepted).
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import os
from types import ModuleType
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, make

__all__ = [
    "P4_CLAIMING_MODULES",
    "scan_source",
    "scan_file",
    "scan_module",
    "scan_package_dir",
]

#: Modules whose data-plane paths claim P4 expressibility; the CI gate
#: (tests/analysis/test_ci_gate.py) lints every one of these on every run.
P4_CLAIMING_MODULES: Tuple[str, ...] = (
    "repro.core.bitops",
    "repro.core.approx",
    "repro.core.stats",
    "repro.core.outlier",
    "repro.core.ewma",
    "repro.core.percentile",
)

_FORBIDDEN_BINOPS = {
    ast.Div: "division",
    ast.FloorDiv: "integer division",
    ast.Mod: "modulo",
    ast.Pow: "exponentiation",
}

_FORBIDDEN_MODULES = {"math", "numpy", "np", "statistics"}
_FORBIDDEN_BUILTINS = {"float", "divmod", "pow"}

_SUPPRESS_PRAGMA = "# p4-ok"
_FILE_PRAGMA = "# p4-ok-file"

#: How deep the single-module scan follows from-imported helpers.
_MAX_FOLLOW_DEPTH = 3


def _collect_imports(tree: ast.AST) -> Tuple[Set[str], Dict[str, str]]:
    """Names that reach forbidden libraries.

    Returns ``(module_aliases, banned_names)``: aliases that refer to a
    forbidden module (``import numpy as np`` → ``np``) and bare names bound
    from one (``from math import sqrt as s`` → ``{"s": "math.sqrt"}``).
    """
    module_aliases: Set[str] = set(_FORBIDDEN_MODULES)
    banned_names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _FORBIDDEN_MODULES:
                    module_aliases.add(alias.asname or root)
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in _FORBIDDEN_MODULES:
                for alias in node.names:
                    banned_names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return module_aliases, banned_names


class _Visitor(ast.NodeVisitor):
    def __init__(
        self,
        file: Optional[str],
        module_aliases: Set[str],
        banned_names: Dict[str, str],
    ):
        self.file = file
        self.module_aliases = module_aliases
        self.banned_names = banned_names
        self.diagnostics: List[Diagnostic] = []

    def _flag(self, node: ast.AST, code: str, construct: str, detail: str) -> None:
        self.diagnostics.append(
            make(
                code,
                f"{construct}: {detail}",
                file=self.file,
                line=getattr(node, "lineno", None),
                construct=construct,
                detail=detail,
            )
        )

    def _check_op(self, node: ast.AST, op: ast.operator) -> None:
        for op_type, name in _FORBIDDEN_BINOPS.items():
            if isinstance(op, op_type):
                self._flag(node, "ST401", name, "P4 ALUs have no divider")

    def visit_BinOp(self, node: ast.BinOp) -> None:
        self._check_op(node, node.op)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_op(node, node.op)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, float):
            self._flag(node, "ST402", "float literal", repr(node.value))
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._flag(node, "ST405", "while loop", "data-dependent iteration")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in self.module_aliases:
                self._flag(
                    node,
                    "ST403",
                    "library call",
                    f"{func.value.id}.{func.attr} is not a switch primitive",
                )
        if isinstance(func, ast.Name):
            if func.id in self.banned_names:
                self._flag(
                    node,
                    "ST403",
                    "library call",
                    f"{func.id} (= {self.banned_names[func.id]}) "
                    "is not a switch primitive",
                )
            elif func.id in _FORBIDDEN_BUILTINS:
                self._flag(node, "ST404", "builtin call", f"{func.id}()")
        self.generic_visit(node)


def _apply_suppressions(
    diagnostics: List[Diagnostic], source_lines: Sequence[str]
) -> List[Diagnostic]:
    """Downgrade findings whose source line carries ``# p4-ok``."""
    out: List[Diagnostic] = []
    for diag in diagnostics:
        line_text = ""
        if diag.line and 1 <= diag.line <= len(source_lines):
            line_text = source_lines[diag.line - 1]
        if _SUPPRESS_PRAGMA in line_text:
            out.append(
                make(
                    "ST406",
                    f"suppressed {diag.code} ({diag.context.get('construct')}) "
                    "via '# p4-ok'",
                    file=diag.file,
                    line=diag.line,
                    suppressed=diag.code,
                    construct=diag.context.get("construct"),
                )
            )
        else:
            out.append(diag)
    return out


def _scan_tree(
    tree: ast.AST, source_lines: Sequence[str], file: Optional[str]
) -> List[Diagnostic]:
    module_aliases, banned_names = _collect_imports(tree)
    visitor = _Visitor(file, module_aliases, banned_names)
    visitor.visit(tree)
    return _apply_suppressions(visitor.diagnostics, source_lines)


def scan_source(source: str, file: Optional[str] = None) -> List[Diagnostic]:
    """Scan Python source text; returns all diagnostics found."""
    tree = ast.parse(source)
    return _scan_tree(tree, source.splitlines(), file)


def _has_file_pragma(source: str) -> bool:
    for line in source.splitlines()[:5]:
        if _FILE_PRAGMA in line:
            return True
    return False


def _module_source_path(module_name: str, near: Optional[str]) -> Optional[str]:
    """Resolve a module name to a source file: sibling file, then importlib."""
    if near:
        candidate = (
            os.path.join(os.path.dirname(near), *module_name.split(".")) + ".py"
        )
        if os.path.exists(candidate):
            return candidate
    try:
        spec = importlib.util.find_spec(module_name)
    except (ImportError, ValueError, ModuleNotFoundError):
        return None
    if spec is not None and spec.origin and spec.origin.endswith(".py"):
        return spec.origin
    return None


def _imported_callables(
    tree: ast.AST, file: Optional[str]
) -> Dict[str, Tuple[str, str]]:
    """Map local name → (source path, function name) for from-imports."""
    out: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 0:
            continue
        root = (node.module or "").split(".")[0]
        if not node.module or root in _FORBIDDEN_MODULES:
            continue
        path = _module_source_path(node.module, near=file)
        if path is None:
            continue
        for alias in node.names:
            out[alias.asname or alias.name] = (path, alias.name)
    return out


def _called_names(tree: ast.AST) -> Set[str]:
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def _follow_calls(
    call_tree: ast.AST,
    import_tree: ast.AST,
    file: Optional[str],
    visited: Set[Tuple[str, str]],
    depth: int,
) -> List[Diagnostic]:
    """Lint from-imported helpers that ``call_tree`` calls, recursively.

    ``import_tree`` supplies the import bindings — the whole module when
    recursing into a single helper function, since its from-imports live
    at module level, outside the function's subtree.
    """
    if depth >= _MAX_FOLLOW_DEPTH:
        return []
    diagnostics: List[Diagnostic] = []
    callables = _imported_callables(import_tree, file)
    for name in sorted(_called_names(call_tree) & set(callables)):
        path, func_name = callables[name]
        if (path, func_name) in visited:
            continue
        visited.add((path, func_name))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                helper_source = handle.read()
            helper_tree = ast.parse(helper_source)
        except (OSError, SyntaxError):
            continue
        if _has_file_pragma(helper_source):
            continue
        for node in helper_tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == func_name
            ):
                diagnostics.extend(
                    _scan_tree(node, helper_source.splitlines(), path)
                )
                diagnostics.extend(
                    _follow_calls(node, helper_tree, path, visited, depth + 1)
                )
    return diagnostics


def scan_file(path: str, follow_calls: bool = True) -> List[Diagnostic]:
    """Scan one Python file; optionally follow from-imported helpers."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    diagnostics = scan_source(source, file=path)
    if follow_calls:
        tree = ast.parse(source)
        diagnostics.extend(_follow_calls(tree, tree, path, set(), depth=0))
    return diagnostics


def scan_package_dir(directory: str) -> List[Diagnostic]:
    """Recursively scan every ``.py`` file under a directory.

    Files carrying a ``# p4-ok-file`` pragma in their first lines are
    skipped with an ST406 note — the whole-file escape hatch for
    documented host-side code (the Welford reference).
    """
    diagnostics: List[Diagnostic] = []
    for root, dirs, files in os.walk(directory):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            if _has_file_pragma(source):
                diagnostics.append(
                    make(
                        "ST406",
                        "file skipped via '# p4-ok-file' pragma",
                        file=path,
                        line=1,
                    )
                )
                continue
            diagnostics.extend(scan_source(source, file=path))
    return diagnostics


def scan_module(
    module: Union[ModuleType, str], follow_calls: bool = True
) -> List[Diagnostic]:
    """Scan an imported module, a dotted module name, or a package.

    Packages are walked recursively; plain modules are scanned with
    call-graph following (helpers reached from the module are linted too).
    """
    if isinstance(module, str):
        spec = importlib.util.find_spec(module)
        if spec is None or spec.origin is None:
            raise ImportError(f"cannot locate module {module!r}")
        if spec.submodule_search_locations:
            return scan_package_dir(list(spec.submodule_search_locations)[0])
        path = spec.origin
    else:
        path = inspect.getsourcefile(module) or inspect.getfile(module)
        if os.path.basename(path) == "__init__.py":
            return scan_package_dir(os.path.dirname(path))
    return scan_file(path, follow_calls=follow_calls)
