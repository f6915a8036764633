#!/usr/bin/env python3
"""From one slow car to a threshold-signed congestion packet.

A single stopped car (flat tire) never becomes a network event: the
aggregation threshold demands corroboration from distinct signers.
"""

from vanetkit import (CongestionDetector, DetectionConfig, FORWARD,
                      RevocationStore, Roster, VehicleState, load_network,
                      register_user, verify_aggregate)
from vanetkit.aggregation import (assemble_aggregate, avg_users_per_minute,
                                  corroborate, required_signatures,
                                  sign_observation, JourneyContactLog)

net = load_network("junction a 0 0\njunction b 2000 0\nsegment road a b 100 twoway\n")
roster = Roster()
promoter = register_user(roster, "promoter", 1)
helper = register_user(roster, "helper", 2)

# Both cars crawl at 25 km/h on a 100 km/h road for a full minute.
detectors = {}
for name in ("promoter", "helper"):
    detectors[name] = CongestionDetector(DetectionConfig())
observations = {}
for t in range(61):
    for name, det in detectors.items():
        offset = float(t if name == "promoter" else t + 30)
        state = VehicleState(name, "road", FORWARD, offset, speed=25.0)
        det.push(float(t), state, net)
        obs = det.detect(float(t), net, name.encode().ljust(16, b"\0"))
        if obs:
            observations[name] = obs
            print(f"t={t}: {name} detects congestion on {obs.road_id}")

# The threshold adapts to how busy the journey has been: one contact in
# two minutes is a quiet road, so two signatures suffice.
journey = JourneyContactLog()
journey.record("helper", 0.0)
rate = avg_users_per_minute(journey, 120.0)
print(f"contact rate {rate:.2f}/min -> required signatures: {required_signatures(rate)}")

obs = observations["promoter"]
own = sign_observation(obs, promoter.keys.private_key, promoter.self_certificate,
                       b"p" * 16)

# Alone, the promoter cannot assemble anything.
alone = assemble_aggregate(obs, [own], rate, b"p" * 16, 120.0)
print(f"aggregate from the promoter alone: {alone}")

# The helper is stuck too, so it signs the received observation.
endorsement = corroborate(obs, observations["helper"], helper, b"h" * 16)
event = assemble_aggregate(obs, [own, endorsement], rate, b"p" * 16, 120.0)
print(f"aggregate with corroboration: {len(event.signatures)} signatures, "
      f"threshold {event.threshold}")

ok, reason = verify_aggregate(event, RevocationStore(set(roster.users)))
print(f"downstream verification: {ok} ({reason})")
