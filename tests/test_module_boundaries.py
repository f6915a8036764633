"""No vanetkit module reads another one's underscore names: what a module
keeps private stays free to change without breaking its neighbours."""

import ast
import pathlib

import pytest

import vanetkit

SRC = pathlib.Path(vanetkit.__file__).parent
MODULES = {"vanetkit"} | {f"vanetkit.{path.stem}" for path in SRC.glob("*.py")
                          if path.stem != "__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _module_of(expr, aliases: dict[str, str]) -> str | None:
    """The vanetkit module an expression names, if it names one."""
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    if isinstance(expr, ast.Attribute):
        parent = _module_of(expr.value, aliases)
        if parent is not None and f"{parent}.{expr.attr}" in MODULES:
            return f"{parent}.{expr.attr}"
    return None


def private_reads(source: str, module: str) -> list[str]:
    """Each place where `source`, the text of `module`, imports an
    underscore name from another vanetkit module or reads one off it."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}      # local name -> the vanetkit module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        aliases[alias.name.split(".")[0]] = "vanetkit"
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                source_module = ".".join(filter(None, ("vanetkit", node.module)))
            else:
                source_module = node.module
            if source_module not in MODULES:
                continue
            for alias in node.names:
                if _private(alias.name) and source_module != module:
                    found.append(f"line {node.lineno}: imports {alias.name} "
                                 f"from {source_module}")
                if f"{source_module}.{alias.name}" in MODULES:
                    aliases[alias.asname or alias.name] = f"{source_module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _module_of(node.value, aliases)
            if owner is not None and owner != module:
                found.append(f"line {node.lineno}: reads {owner}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = "vanetkit" if path.stem == "__init__" else f"vanetkit.{path.stem}"
        problems = private_reads(path.read_text(), module)
        if problems:
            found[path.name] = problems
    assert found == {}


@pytest.mark.parametrize("source", [
    "from . import crypto\ncrypto._PUBLIC_KEYS.clear()\n",
    "from .crypto import _g_pow\n",
    "from vanetkit.crypto import _g_pow\n",
    "from vanetkit import crypto as c\nc._g_pow(3)\n",
    "import vanetkit.crypto\nvanetkit.crypto._g_pow(3)\n",
    "import vanetkit.crypto as c\nc._g_pow(3)\n",
    "from . import _hidden\n",
])
def test_a_private_read_is_found(source):
    assert private_reads(source, "vanetkit.simnet") != []


@pytest.mark.parametrize("source", [
    "from . import crypto\ncrypto.sign\nself._cache\n",
    "from .crypto import sign, __name__\n",
    "from . import simnet\nsimnet._Node\n",          # a module's own names
    "import random\nrandom._inst\n",                  # not a vanetkit module
])
def test_public_and_own_reads_pass(source):
    assert private_reads(source, "vanetkit.simnet") == []
