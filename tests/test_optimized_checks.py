"""Invariant checks in the library raise named exceptions, also under
`python -O`, which strips `assert` statements.  Each case runs in a
fresh `-O` interpreter and reports the name of the exception raised."""

import os
import subprocess
import sys
import textwrap

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _raised_under_optimize(body: str) -> str:
    script = ("if __debug__:\n    raise SystemExit('not running under -O')\ntry:\n"
              + textwrap.indent(textwrap.dedent(body), "    ")
              + "\nexcept Exception as exc:\n    print(type(exc).__name__)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


_CASES = {
    "MissingCertificateError": """
        from vanetkit.trust import CertificateRepository, Roster, UserIdentity, register_user
        identity = register_user(Roster(), "u", 1)
        UserIdentity("u", identity.keys, CertificateRepository("u")).self_certificate
    """,
    "BundleNotLoadedError": """
        from vanetkit.scenario import ScenarioBundle
        from vanetkit.config import SimConfig
        ScenarioBundle("bundle", SimConfig(), "roads.txt", "roster.txt").build()
    """,
    "RouteCostError": """
        from vanetkit.geomodel import grid_document, load_network
        from vanetkit.relay import plan_route, recompute_route
        net = load_network(grid_document(4, 4, spacing=300.0))
        plan = plan_route(net, "j0_0", "j0_3")
        recompute_route(plan, net, {("h0_1", plan.directions[1])}, penalty=float("nan"))
    """,
    "MissingSessionKeyError": """
        import random
        from vanetkit import auth
        from vanetkit.trust import RevocationStore, Roster, register_user
        roster = Roster()
        for uid, seed in [("a", 1), ("b", 2), ("F", 3)]:
            register_user(roster, uid, seed)
        roster.befriend("a", "F")
        roster.befriend("b", "F")
        on_result = auth.AuthResponder.on_result

        def keyless_on_result(self, session_id, accepted, now):
            on_result(self, session_id, accepted, now)
            self.session_key = None

        auth.AuthResponder.on_result = keyless_on_result
        rng = random.Random(1)
        parties = [auth.Party(roster.user(u), RevocationStore(set(roster.users)),
                              rng.randbytes(16)) for u in ("a", "b")]
        auth.zk_mutual_authenticate(*parties, rng, now=0.0)
    """,
}


@pytest.mark.parametrize("error", sorted(_CASES))
def test_check_raises_its_named_exception_under_optimize(error):
    assert _raised_under_optimize(_CASES[error]) == error
