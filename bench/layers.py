"""Per-layer metrics of the traced run, computed from the tracer's spans.

Times are self time in seconds.  BENCHMARK.json declares each metric's
unit and better direction; the README maps each one to the end-to-end
metric it should move.  A target these lookups do not find is left in
`Tracer.unmatched`, which fails the traced run.
"""

from __future__ import annotations

from tracer import SIM, Tracer

# Trust-layer work of loading a roster: registering users and signing
# certificates.  The Schnorr arithmetic itself is crypto's self time.
ROSTER_TARGETS = ("trust.load_roster", "trust.register_user", "trust.sign_friend",
                  "trust.make_certificate", "trust.Roster.", "trust.CertificateRepository.add")
AUTH_ENGINE_TARGETS = ("auth.AuthInitiator.", "auth.AuthResponder.",
                       "auth.build_commitments", "auth.build_responses", "auth.match_keys")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, counters: dict[str, float]) -> dict[str, float]:
    """`counters` carries what the spans cannot: deliveries, beacon
    deliveries, build RSS growth, sessions made and tracing overhead."""
    calls, self_s = tr.calls, tr.self_s
    values = {
        "simnet.adjacency_s": self_s(SIM + "_adjacency"),
        "simnet.delivery_s": self_s(SIM + "_delivery_step"),
        "simnet.deliveries": counters["deliveries"],
        "simnet.beacon_deliveries": counters["beacon_deliveries"],
        "wire.decode_frame_calls": calls("wire.decode_frame"),
        "simnet.node_step_s": self_s(SIM + "_node_step"),
        "simnet.mobility_s": self_s(SIM + "_mobility_step"),
        "simnet.script_s": self_s(SIM + "_script_step"),
        "geomodel.advance_s": self_s("geomodel.advance_vehicle"),
        "simnet.build_s": self_s(SIM + "__init__"),
        "simnet.build_rss_mb": counters["build_rss_mb"],
        "trust.load_roster_s": tr.total_self(ROSTER_TARGETS),
        "trust.certificates_made": calls("trust.make_certificate"),
        "scenario.load_bundle_s": tr.total_self(("scenario.",)),
        "wire.decode_s": tr.total_self(("wire.decode_",)),
        "wire.encode_s": tr.total_self(("wire.encode_",)),
        "auth.handshakes_started": calls("auth.AuthInitiator.start"),
        "auth.engine_s": tr.total_self(AUTH_ENGINE_TARGETS),
        "auth.beacon_s": self_s("auth.emit_beacon"),
        "auth.accept_ratio": _ratio(counters["sessions"], calls("auth.AuthInitiator.start")),
        "aggregation.aggregate_yield": _ratio(tr.non_none("aggregation.assemble_aggregate"),
                                              calls("aggregation.assemble_aggregate")),
        "relay.reroute_calls": calls("relay.recompute_route"),
        "relay.reroute_s": self_s("relay.recompute_route"),
        "geomodel.shortest_path_s": self_s("geomodel.shortest_path"),
        "events.detector_s": tr.total_self(("events.CongestionDetector.",
                                            "events.evaluate_window")),
        "trace.overhead_s": counters["overhead_s"],
    }
    for short, target in (("sign", "sign"), ("public_key", "public_key"),
                          ("verify", "verify"), ("seal", "seal"), ("open", "open_sealed")):
        values[f"crypto.{short}_calls"] = calls(f"crypto.{target}")
        values[f"crypto.{short}_s"] = self_s(f"crypto.{target}")
    for short, target in (("assemble", "assemble_aggregate"),
                          ("verify_aggregate", "verify_aggregate")):
        values[f"aggregation.{short}_calls"] = calls(f"aggregation.{target}")
        values[f"aggregation.{short}_s"] = self_s(f"aggregation.{target}")
    return values
