"""Source audit: every function and class in src/netpeer is used inside src/.

A definition that only tests call belongs in tests/, and one that nothing
calls belongs nowhere. A name counts as used when some module of the
package mentions it as a Name, an Attribute or a `from ... import`.
"""

import ast
from pathlib import Path

import netpeer

SRC = Path(netpeer.__file__).parent

# Qualified names used only from outside src/, each with its reader
EXEMPT = {
    # the documented Monte Carlo API; the benchmark's mc_small_w2 workload calls it
    "run_cell",
    # read by benchmarks/spans.py's COUNTERS; moving it into tests/ is ROADMAP item 13
    "Graph.n_edges",
}


def definitions(tree):
    """(qualified name, bare name) of every function and class in a module."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + child.name, child.name
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def references(tree):
    """Every name a module mentions: Names, Attributes and from-imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def parse(src):
    """{file name: module tree} of the package directory `src`."""
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}


def unused_definitions(src):
    """Qualified names of the non-dunder definitions under `src` that no module mentions."""
    trees = parse(src)
    used = {name for tree in trees.values() for name in references(tree)}
    return sorted(
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for qualname, name in definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in used and qualname not in EXEMPT
    )


def test_every_definition_is_used_in_src():
    assert unused_definitions(SRC) == []


def test_exemptions_are_still_defined_and_unused():
    # an exemption that src/ starts to use, or that is gone, is stale
    trees = parse(SRC).values()
    defined = {qualname for tree in trees for qualname, _ in definitions(tree)}
    used = {name for tree in trees for name in references(tree)}
    assert EXEMPT <= defined
    assert not {qualname.rsplit(".", 1)[-1] for qualname in EXEMPT} & used


def test_flags_a_helper_nothing_calls(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "sampling.py", "a") as fh:
        fh.write("\n\ndef _orphan(s):\n    return s.n\n")
    assert unused_definitions(tmp_path) == ["sampling.py:_orphan"]
