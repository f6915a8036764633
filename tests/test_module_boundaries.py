"""No vanetkit module reads another one's underscore names: what a module
keeps private stays free to change without breaking its neighbours.  Only
`wire` and `auth` know the handshake: no other module names a handshake
tag or codec of `wire` or builds an engine of `auth`.  And only `geomodel`
knows which way a segment may be entered: no other module compares a
segment's endpoint junctions."""

import ast
import pathlib

import pytest

import vanetkit

SRC = pathlib.Path(vanetkit.__file__).parent
MODULES = {"vanetkit"} | {f"vanetkit.{path.stem}" for path in SRC.glob("*.py")
                          if path.stem != "__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _qualified(expr, aliases: dict[str, str]) -> str | None:
    """The vanetkit name an expression names, if it names one: a module or
    a name read off one, qualified by its module."""
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    if isinstance(expr, ast.Attribute):
        parent = _qualified(expr.value, aliases)
        if parent in MODULES:
            return f"{parent}.{expr.attr}"
    return None


def _module_names(tree) -> tuple[dict[str, str], list[tuple[int, str, str]]]:
    """The local names `tree` binds to vanetkit modules or their names, as
    local name -> qualified name, and each (line, module, name) it imports
    from a vanetkit module."""
    aliases: dict[str, str] = {}
    imported = []
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
                imported.append((node.lineno, source_module, alias.name))
                aliases[alias.asname or alias.name] = f"{source_module}.{alias.name}"
    return aliases, imported


def private_reads(source: str, module: str) -> list[str]:
    """Each place where `source`, the text of `module`, imports an
    underscore name from another vanetkit module or reads one off it."""
    tree = ast.parse(source)
    aliases, imported = _module_names(tree)
    found = [f"line {line}: imports {name} from {owner}"
             for line, owner, name in imported if _private(name) and owner != module]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _qualified(node.value, aliases)
            if owner in MODULES and owner != module:
                found.append(f"line {node.lineno}: reads {owner}.{node.attr}")
    return found


_ENGINES = {"vanetkit.auth.AuthInitiator", "vanetkit.auth.AuthResponder"}


def _handshake_format(qualified: str) -> bool:
    """Whether a qualified name is a handshake tag (`AUTH_*`) or a handshake
    codec (`*_auth_*`) of `wire`."""
    module, _, name = qualified.rpartition(".")
    return module == "vanetkit.wire" and (name.startswith("AUTH_") or "_auth_" in name)


def handshake_leaks(source: str) -> list[str]:
    """Each place where `source` names a handshake tag or codec of `wire`
    or constructs a handshake engine of `auth`."""
    tree = ast.parse(source)
    aliases, imported = _module_names(tree)
    found = [f"line {line}: imports {name} from {owner}"
             for line, owner, name in imported if _handshake_format(f"{owner}.{name}")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = _qualified(node, aliases)
            if name is not None and _handshake_format(name):
                found.append(f"line {node.lineno}: names {name}")
        elif isinstance(node, ast.Call) and _qualified(node.func, aliases) in _ENGINES:
            found.append(f"line {node.lineno}: constructs {_qualified(node.func, aliases)}")
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


def test_only_wire_and_auth_know_the_handshake():
    """The simulator routes handshake frames by `auth.HANDSHAKE_TAGS` to
    `auth.Handshakes`; the messages' format and flow stay in `wire` and
    `auth`."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem not in ("wire", "auth"):
            problems = handshake_leaks(path.read_text())
            if problems:
                found[path.name] = problems
    assert found == {}


@pytest.mark.parametrize("source", [
    "from . import wire\nwire.AUTH_COMMIT\n",
    "from . import wire\nwire.decode_auth_response(body)\n",
    "from .wire import encode_auth_result\n",
    "from vanetkit import wire as w\nw.AUTH_RESULT\n",
    "import vanetkit.wire\nvanetkit.wire.AUTH_CHALLENGE\n",
    "from . import auth\nauth.AuthInitiator(party, rng, 0.0)\n",
    "from .auth import AuthResponder as Responder\nResponder(party, rng, 0.0)\n",
])
def test_a_handshake_leak_is_found(source):
    assert handshake_leaks(source) != []


@pytest.mark.parametrize("source", [
    "from . import auth, wire\nwire.BEACON\nwire.decode_frame(frame)\nauth.HANDSHAKE_TAGS\n",
    "from . import auth\nisinstance(engine, auth.AuthInitiator)\n",
    "log.first_auth_at\n",                            # not read off wire
])
def test_other_wire_and_auth_names_pass(source):
    assert handshake_leaks(source) == []


_ENDPOINTS = {"junction_a", "junction_b"}


def endpoint_comparisons(source: str) -> list[str]:
    """Each place where `source` compares a segment's `junction_a` or
    `junction_b`, which restates the rule for entering a segment."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            found += [f"line {node.lineno}: compares .{part.attr}" for part in ast.walk(node)
                      if isinstance(part, ast.Attribute) and part.attr in _ENDPOINTS]
    return found


def test_only_geomodel_compares_segment_endpoints():
    """Driving, route planning, the random walk and bundle validation read
    `RoadNetwork.exits`, the one entry rule, instead of restating it."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "geomodel":
            problems = endpoint_comparisons(path.read_text())
            if problems:
                found[path.name] = problems
    assert found == {}


@pytest.mark.parametrize("source", [
    "if seg.junction_a == here:\n    pass\n",
    "direction = FORWARD if nxt.junction_a == here else REVERSE\n",
    "here = cand.junction_b if cand.junction_a == here else cand.junction_a\n",
    "ok = here not in (seg.junction_a, seg.junction_b)\n",
    "ok = network.segments[s].junction_b is not here\n",
])
def test_an_endpoint_comparison_is_found(source):
    assert endpoint_comparisons(source) != []


@pytest.mark.parametrize("source", [
    "origins.update((seg.junction_a, seg.junction_b))\n",
    "direction, here = network.exits[here][seg_id]\n",
    "ok = seg.exit_junction(direction) == here\n",
])
def test_reading_endpoints_without_comparing_passes(source):
    assert endpoint_comparisons(source) == []
