#!/usr/bin/env python3
"""Deciding what to do with a verified congestion event a vehicle does not
hold yet (a held or unverified one the vehicle has already dropped).

Vehicles not on the jammed road just relay; vehicles heading into it
replan against a 5x travel-time penalty on the congested segment.
"""

from vanetkit import decide_relay, load_network, plan_route, recompute_route
from vanetkit.aggregation import AggregatedEvent
from vanetkit.events import CongestionObservation
from vanetkit.geomodel import GeoCoordinate, grid_document

net = load_network(grid_document(4, 4, spacing=300.0))
plan = plan_route(net, "j0_0", "j0_3")
print("planned route:", " -> ".join(plan.segment_sequence),
      f"({plan.cost:.0f} s free flow)")

obs = CongestionObservation("h0_1", plan.directions[1],
                            GeoCoordinate(450.0, 0.0), 100.0, b"p" * 16)
event = AggregatedEvent(obs, (), b"p" * 16, 100.0, 0.5, 2)

plan.position_index = 0   # currently driving the first segment
action = decide_relay(event, own_firing=False, plan=plan)
print(f"jam on h0_1 two segments ahead -> action: {action}")

congested = {(obs.road_id, obs.direction)}
new_plan, changed, advisory = recompute_route(plan, net, congested)
print(f"replanned: changed={changed}")
print("detour:", " -> ".join(new_plan.segment_sequence),
      f"({new_plan.cost:.0f} s under congestion weights)")

# Off-route events are only relayed.
side_obs = CongestionObservation("v2_0", "fwd", GeoCoordinate(0.0, 750.0),
                                 100.0, b"q" * 16)
side_event = AggregatedEvent(side_obs, (), b"q" * 16, 100.0, 0.5, 2)
print("jam on a road off the route ->",
      decide_relay(side_event, False, new_plan))
