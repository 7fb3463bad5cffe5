"""Every module-level function, class and method in `src/genbound` is run by
some code path: referenced somewhere in the package outside its own body.
The exceptions are the names in `UNCALLED_EXPORTS`, each exported by
`genbound/__init__.py` for a stated reason, and dunder methods, which Python
calls implicitly. An export is no exemption by itself, so a public class
cannot keep dead code alive. References are matched by name, so a name used
anywhere counts for every definition of it; a method counts only names read
as attributes (`obj.name`), so a local variable does not keep alive a method
of the same name."""

import ast
from pathlib import Path

import genbound

PACKAGE = Path(genbound.__file__).parent

# exported definitions that nothing in the package calls, with the reason
# each is kept
UNCALLED_EXPORTS = {
    "bounds.weak_bound": "acceptance criterion 10 compares the certified conclusion with it",
    "io.serialize_group": "the canonical document form of a group, which parsing reads back",
}


def _names(nodes, attributes_only: bool = False) -> set[str]:
    """Names read in `nodes`: attributes, and unless `attributes_only` also
    plain names and import-from aliases."""
    names = set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unused_definitions(package: Path) -> list[str]:
    """Qualified names of the definitions that no code path reaches."""
    definitions = []  # (qualified name, node, is a method)
    chunks = []  # (top-level nodes, the definitions they lie in)
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{path.stem}.{node.name}", node, False))
            if not isinstance(node, ast.ClassDef):
                chunks.append(([node], {node}))
                continue
            chunks.append((node.bases + node.keywords + node.decorator_list, {node}))
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    definitions.append((f"{path.stem}.{node.name}.{item.name}", item, True))
                chunks.append(([item], {node, item}))
    read = [(_names(nodes), _names(nodes, True), owners) for nodes, owners in chunks]
    return [
        qualname
        for qualname, node, method in definitions
        if not any(
            node.name in (attrs if method else names)
            for names, attrs, owners in read
            if node not in owners
        )
    ]


def test_every_definition_has_a_caller_or_is_exported():
    assert unused_definitions(PACKAGE) == list(UNCALLED_EXPORTS)
    exported = _names([ast.parse((PACKAGE / "__init__.py").read_text())])
    assert {name.rpartition(".")[2] for name in UNCALLED_EXPORTS} <= exported
