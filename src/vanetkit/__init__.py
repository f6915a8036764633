"""Self-organized smartphone VANET protocols and a deterministic simulator.

The library half implements the protocol stack: planar road geometry and
vehicle kinematics, a web of trust with friend-signed certificates,
pseudonymous beaconing with zero-knowledge mutual authentication,
congestion/parking detection, threshold-corroborated event aggregation,
and cooperative relaying with an encrypted-exchange incentive.

The simulator half (`vanetkit.simnet`, over the `vanetkit.radio`
transport) drives scripted road scenarios tick by tick under a single
seeded random stream and reports per-node packet metrics.  `vanetkit.kits`
generates ready-made scenario bundles; `vanetkit.cli` is the operator
surface.
"""

from .geomodel import (FORWARD, REVERSE, GeoCoordinate, MobilityDirective,
                       RoadNetwork, RoadSegment, VehicleState, advance_vehicle,
                       distance, grid_document, load_network)
from .trust import (Certificate, CertificateRepository, KeyPair,
                    RevocationRecord, RevocationStore, Roster, TrustGraph,
                    common_friends, exchange_revocations, load_roster,
                    register_user, report_misbehavior, sign_friend)
from .auth import (AuthTranscript, Handshakes, Party, Pseudonym,
                   PseudonymState, SessionKey, emit_beacon, rotate_pseudonym,
                   zk_mutual_authenticate)
from .events import (AdvertEvent, CongestionDetector, CongestionObservation,
                     DetectionConfig, EventStore, ParkedLocation, ParkingEvent,
                     ParkingMonitor, deliver_advert, walking_route)
from .aggregation import (AggregatedEvent, JourneyContactLog, SignedObservation,
                          assemble_aggregate, avg_users_per_minute, corroborate,
                          required_signatures, sign_observation, verify_aggregate)
from .relay import (CooperationRecord, RelayDecision, RoutePlan, cooperation_gate,
                    decide_relay, plan_route, recompute_route, route_affected)
from .config import SimConfig
from .simnet import (AuditLog, NetworkStats, NodeStats, Simulation, assign_obus,
                     collect_metrics, should_launch)

__version__ = "0.1.0"
