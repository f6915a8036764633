"""No vanetkit module reads another one's underscore names: what a module
keeps private stays free to change without breaking its neighbours.  The
tests drive a `Simulation` through `step` and `receive`, not through its
underscore methods or its nodes'.  Only `wire` and `auth` know the
handshake: no other module names a handshake tag or codec of `wire` or
builds an engine of `auth`.  Only `geomodel` knows which way a segment may
be entered: no other module compares a segment's endpoint junctions.  Only
`crypto` computes an HMAC: no other module imports `hmac` or writes an
RFC 2104 pad byte.  And a config is parsed and validated without the
simulator: `config` reaches neither `simnet` nor `radio`, and `scenario`
names `simnet` only to build."""

import ast
import pathlib

import pytest

import vanetkit
from vanetkit import simnet
from vanetkit.simnet import Simulation

SRC = pathlib.Path(vanetkit.__file__).parent
TESTS = pathlib.Path(__file__).parent
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


# The underscore methods of `Simulation` a test may still read, and why.
SIMULATION_PRIVATES_READ = {
    "_random_walk": "set-up, before the first tick, so no step or receive reaches it; "
                    "test_geomodel pins it draw for draw against the walk it replaced",
}
# Names the simulation's methods once had: a test that patched one on an
# instance would now patch nothing.  The receive path's old names, then the
# protocol that moved onto `_Node` and the find directive's old name.
RETIRED_SIMULATION_NAMES = {
    "_handle_frame", "_dispatch_frame", "_handshake_done", "_handle_payload",
    "_handle_corroboration_request", "_answer_corroboration", "_corroboration_inbox_sweep",
    "_handle_aggregate", "_same_cell", "_handle_parking", "_handle_advert", "_forward_event",
    "_serve", "_seal_and_send", "_report_sender", "_audit_payload", "_rotate_if_due",
    "_beacon", "_schedule_auth", "_gc_sessions", "_detect", "_corroboration_requests",
    "_assembly", "_parking_announcements", "_advert_broadcast", "_expire_stores",
    "_searcher_show", "_handle_find",
}


def _simulation_privates() -> set[str]:
    return ({name for cls in (Simulation, simnet._Node) for name in vars(cls) if _private(name)}
            | RETIRED_SIMULATION_NAMES)


def simulation_private_reads(source: str) -> list[str]:
    """Each place where `source` reads an attribute named like an
    underscore method of `Simulation` or of its nodes that is not in
    SIMULATION_PRIVATES_READ."""
    names = _simulation_privates() - set(SIMULATION_PRIVATES_READ)
    return [f"line {node.lineno}: reads .{node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_tests_drive_a_simulation_through_step_and_receive():
    assert set(SIMULATION_PRIVATES_READ) <= _simulation_privates()
    found = {}
    for path in sorted(TESTS.rglob("*.py")):
        problems = simulation_private_reads(path.read_text())
        if problems:
            found[str(path.relative_to(TESTS))] = problems
    assert found == {}


@pytest.mark.parametrize("source", [
    "sim._node_step()\n",
    "positions, neighbors = sim._adjacency()\n",
    "shadow._script_step(t)\nshadow._mobility_step()\n",
    "handle = sim._delivery_step\n",
    "sim._handle_frame = counted\n",
    "sim._dispatch_frame(node, 'C', frame)\n",
    "sim._zone_speed(node)\n",
    "sim.nodes['n1']._handle_payload(sim, 'n2', tag, payload)\n",
    "sim._handle_aggregate(node, 'C', event)\n",
])
def test_a_simulation_private_read_is_found(source):
    assert simulation_private_reads(source) != []


@pytest.mark.parametrize("source", [
    "sim.step(0)\nsim.receive(node, 'C', frame)\nsim.neighbors['n1']\n",
    "sim._random_walk(seg, direction)\n",            # allowed, with its reason
    "crypto._g_pow(3)\nsim._zones\n",                 # not a method of Simulation
])
def test_public_and_allowed_simulation_reads_pass(source):
    assert simulation_private_reads(source) == []


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


_PAD_BYTES = {0x36, 0x5C}


def hmac_rewrites(source: str) -> list[str]:
    """Each place where `source` imports `hmac` or writes an RFC 2104 pad
    byte, as an int or as a bytes literal made of them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: imports {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "hmac"]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module == "hmac":
            found.append(f"line {node.lineno}: imports from hmac")
        elif isinstance(node, ast.Constant):
            value = node.value
            if ((type(value) is int and value in _PAD_BYTES)
                    or (isinstance(value, bytes) and value and set(value) <= _PAD_BYTES)):
                found.append(f"line {node.lineno}: writes pad byte {value!r}")
    return found


def test_only_crypto_computes_an_hmac():
    """Handshake responses and seals both go through `crypto.hmac_sha256`."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "crypto":
            problems = hmac_rewrites(path.read_text())
            if problems:
                found[path.name] = problems
    assert found == {}
    assert hmac_rewrites((SRC / "crypto.py").read_text()) != []


@pytest.mark.parametrize("source", [
    "import hmac\n",
    "import hmac as _hmac\n",
    "from hmac import digest\n",
    "pad = bytes(b ^ 0x36 for b in range(256))\n",
    "outer = bytes(b ^ 0x5C for b in key)\n",
    "ipad = b'\\x36' * 64\n",
])
def test_an_hmac_rewrite_is_found(source):
    assert hmac_rewrites(source) != []


@pytest.mark.parametrize("source", [
    "import hashlib\nhashlib.sha256(key).digest()\n",
    "from . import crypto\ncrypto.hmac_sha256(key, message)\n",
    "block = 64\nlabel = b'vk-resp'\n",
])
def test_other_hashing_passes(source):
    assert hmac_rewrites(source) == []


def _source(module: str) -> str:
    return (SRC / f"{module.rpartition('.')[2]}.py").read_text()


def imported_modules(source: str) -> set[str]:
    """The vanetkit modules other than the package that `source` imports."""
    tree = ast.parse(source)
    found = {f"{owner}.{name}" if owner == "vanetkit" else owner
             for _, owner, name in _module_names(tree)[1]}
    found |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
              for alias in node.names}
    return found & (MODULES - {"vanetkit"})


def test_config_reaches_no_simulator_module():
    """The parser and the validator need no simulator: `config`'s imports,
    followed through the package's modules, never reach it."""
    reached, todo = set(), ["vanetkit.config"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(imported_modules(_source(module)))
    assert reached & {"vanetkit.simnet", "vanetkit.radio"} == set()
    assert "vanetkit.simnet" in imported_modules(_source("vanetkit.scenario"))
    assert imported_modules("import vanetkit.radio\nfrom .simnet import Simulation\n") == {
        "vanetkit.radio", "vanetkit.simnet"}


def simnet_outside_build(source: str) -> list[str]:
    """Each place where `source` names `simnet` outside the body of
    `ScenarioBundle.build`."""
    tree = ast.parse(source)
    build = [f for c in ast.walk(tree)
             if isinstance(c, ast.ClassDef) and c.name == "ScenarioBundle"
             for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "build"]
    inside = {id(node) for f in build for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.alias):
            names = set(node.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names = set((node.module or "").split("."))
        if "simnet" in names and id(node) not in inside:
            found.append(f"line {node.lineno}: names simnet")
    return found


def test_scenario_names_simnet_only_to_build():
    assert simnet_outside_build(_source("vanetkit.scenario")) == []


@pytest.mark.parametrize("source, outside", [
    ("from .simnet import Simulation\n", True),
    ("from . import simnet\n", True),
    ("import vanetkit.simnet\n", True),
    ("class ScenarioBundle:\n    def run(self):\n        return simnet.Simulation\n", True),
    ("class ScenarioBundle:\n    def build(self):\n        from . import simnet\n"
     "        return simnet.Simulation(self.config)\n", False),
])
def test_a_simnet_name_outside_build_is_found(source, outside):
    assert (simnet_outside_build(source) != []) == outside
