"""Shared data model for the source-analysis visitors.

Every check module consumes :class:`ModuleInfo` — one parsed source
file plus the import-resolution maps the visitors share — and produces
plain :class:`Finding` records; the analyzer turns those into coded
:class:`~repro.check.diagnostics.Diagnostic` entries after applying
inline suppressions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "Finding",
    "ModuleInfo",
    "collect_imports",
    "local_bindings",
    "root_name",
]


@dataclass(frozen=True)
class Finding:
    """One raw occurrence of a source lint, before suppression."""

    code: str
    message: str
    line: int
    column: int
    obj: Optional[str] = None


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed tree.

    Attributes:
        path: the path the file was read from (used for display).
        rel: forward-slash path relative to the analyzed root, used as
            the stable location in diagnostics.
        module: dotted module name (``repro.perf.parallel``) when the
            file sits inside the ``repro`` package, else the stem.
        tree: the parsed AST.
        source: the file's text (suppression comments come from here).
        module_aliases: local name -> dotted module it is bound to
            (``import repro.env as env`` => ``{"env": "repro.env"}``).
        imported_names: local name -> ``(module, attr)`` for
            ``from module import attr [as name]`` bindings, including
            imports that appear inside function bodies (merged; a
            slight over-approximation that errs toward reachability).
    """

    path: str
    rel: str
    module: str
    tree: ast.Module
    source: str
    module_aliases: Dict[str, str] = field(default_factory=dict)
    imported_names: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    @property
    def is_env_module(self) -> bool:
        """True for :mod:`repro.env` itself — the one sanctioned
        ``os.environ`` site (code ``S104``)."""
        return self.module == "repro.env"


def collect_imports(info: ModuleInfo) -> None:
    """Fill the alias maps from every import statement in the module."""
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.module_aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports are not used in this package
            for alias in node.names:
                local = alias.asname or alias.name
                info.imported_names[local] = (node.module, alias.name)


def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def local_bindings(func: ast.AST) -> Set[str]:
    """Names bound locally in ``func``'s own scope (params, assignments,
    loop targets, with-targets, comprehension-free approximation)."""
    names: Set[str] = set()
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = func.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            names.add(arg.arg)
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
    def bound_names(target: ast.expr) -> Set[str]:
        """Names *bound* by an assignment target.  A subscript or
        attribute store mutates an existing object — its base name is
        not a new local binding."""
        if isinstance(target, ast.Name):
            return {target.id}
        if isinstance(target, (ast.Tuple, ast.List)):
            out: Set[str] = set()
            for element in target.elts:
                out.update(bound_names(element))
            return out
        if isinstance(target, ast.Starred):
            return bound_names(target.value)
        return set()

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(bound_names(target))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            names.update(bound_names(node.target))
        elif isinstance(node, ast.For):
            names.update(bound_names(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            names.update(bound_names(node.optional_vars))
    return names
