"""Every backticked `module.name` in README.md names something genbound has:
`genbound.x` a module of the package, and `x.name` a name in module x. A
rename or a deletion that leaves the README behind fails here."""

import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import genbound

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(genbound.__path__)}


def readme_names() -> set[str]:
    """The backticked dotted names in README.md that start at genbound or at
    one of its modules, such as `genbound.groups` and `groups.walk`."""
    dotted = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
    return {name for name in dotted if name.split(".")[0] in MODULES | {"genbound"}}


def resolves(name: str) -> bool:
    module, *attributes = name.removeprefix("genbound.").split(".")
    try:
        found = importlib.import_module(f"genbound.{module}")
        reduce(getattr, attributes, found)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_module_name_in_the_readme_resolves():
    names = readme_names()
    assert {"genbound.subgroups", "groups.walk"} <= names
    assert sorted(name for name in names if not resolves(name)) == []
