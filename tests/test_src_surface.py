"""No code in src/ that only tests call: every top-level function, class
and assigned name of a simharvest module is loaded, imported or read as an
attribute somewhere in the package. Dunders (__all__, __version__) are
exempt, and a name listed in __all__ is not used by that alone. A load
counts only where no enclosing function, lambda or comprehension binds the
name itself, so a local that shares a module-level name does not keep it."""

import ast
from pathlib import Path

import simharvest

PACKAGE = Path(simharvest.__file__).parent

SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def defined_names(tree: ast.Module):
    """The names a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def own_nodes(scope: ast.AST):
    """scope's nodes, not descending into the scopes and classes within it."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, (*SCOPES, ast.ClassDef)):
            yield from own_nodes(child)


def local_names(scope: ast.AST) -> set[str]:
    """The names scope binds itself, less those it declares global."""
    names, declared = set(), set()
    for node in own_nodes(scope):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.partition(".")[0])
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return names - declared


def used_names(node: ast.AST, shadowed: frozenset = frozenset()):
    """The names node loads (unless a scope around the load binds them),
    imports or reads as attributes."""
    if isinstance(node, SCOPES):
        shadowed = shadowed | local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in shadowed:
            yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from used_names(child, shadowed)


def unused_names(trees: dict[str, ast.Module]) -> list[str]:
    used = {name for tree in trees.values() for name in used_names(tree)}
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in defined_names(tree)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_top_level_name_is_used_in_src():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert unused_names(trees) == []


def test_a_local_of_the_same_name_does_not_keep_a_definition():
    source = """
import math

__all__ = ["weigh"]
LIMIT = 3

def idf(n, df):
    return math.log(n / df)

def weigh(counts, idf):
    return [count * idf[term] for term, count in counts.items()][:LIMIT]

def fit(corpus):
    idf = {term: 0.0 for term in corpus}
    return weigh(corpus, idf)

fit({})
"""
    assert unused_names({"module.py": ast.parse(source)}) == ["module.py: idf"]
