"""Scenario bundles for the three benchmark workloads.

Every bundle is built from the workload seed alone, with public helpers
(`kits.demo_bundle`, `kits.demo_roster_text`, `geomodel.grid_document`)
plus scenario text written here.  The simulator only ever sees the
bundle directory.

    city    the 600-vehicle demo city of acceptance test 09, first 60 s
    sprawl  2 400 vehicles on a 16x16 grid at the city's density, 5 ticks
    jam     600 vehicles, a quarter of the streets jammed both ways,
            a denser friendship graph and four park-and-leave cars

`smoke=True` scales each workload down so that it finishes in seconds
while still exercising every output check (see `WORKLOADS`).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from vanetkit import geomodel, kits


@dataclass(frozen=True)
class Shape:
    vehicles: int
    grid: int
    duration: int
    friends: int = 3             # friendships drawn per user (kits default)
    sustain_window: float = 60.0  # jam only; the library default is 60 s
    parkers: int = 0             # jam only: park-and-leave cars, one searcher each
    park: tuple[int, int] = (20, 50)  # jam only: parkers stop, then free their space


# name -> (full shape, smoke shape); BENCHMARK.json says why each is there.
WORKLOADS = {
    "city": (Shape(vehicles=600, grid=8, duration=60),
             Shape(vehicles=120, grid=4, duration=30)),
    "sprawl": (Shape(vehicles=2400, grid=16, duration=5),
               Shape(vehicles=300, grid=6, duration=2)),
    "jam": (Shape(vehicles=600, grid=8, duration=121, friends=8, parkers=4),
            Shape(vehicles=100, grid=4, duration=35, friends=8,
                  sustain_window=15.0, parkers=2, park=(10, 25))),
}

SPACING = 300.0      # metres per block, as in the demo city
SPEED_LIMIT = 50.0   # km/h on every street
JAM_SPEED = 3.0      # km/h crawl inside a congestion zone


def write_bundle(name: str, seed: int, directory: str, smoke: bool = False) -> str:
    """Write the bundle of workload `name` for `seed` into `directory`."""
    full, scaled_down = WORKLOADS[name]
    shape = scaled_down if smoke else full
    if name == "jam":
        return _jam_bundle(shape, seed, directory)
    return kits.demo_bundle(directory, vehicle_count=shape.vehicles,
                            duration=shape.duration, seed=seed, grid=shape.grid,
                            spacing=SPACING)


def _write(directory: str, filename: str, text: str) -> None:
    with open(os.path.join(directory, filename), "w") as fh:
        fh.write(text)


def _jam_bundle(shape: Shape, seed: int, directory: str) -> str:
    """City grid, seeded quarter of the segments jammed in both directions
    for the whole run, and `parkers` scripted cars that park and later
    leave (`park`) next to a searcher they are friends with.

    Scripted vehicles take the first roster users; the background fleet
    takes the rest in sorted order, so every vehicle has its own user.
    """
    os.makedirs(directory, exist_ok=True)
    road = geomodel.grid_document(shape.grid, shape.grid, spacing=SPACING,
                                  speed_limit=SPEED_LIMIT)
    segments = sorted(line.split()[1] for line in road.splitlines()
                      if line.startswith("segment "))
    rng = random.Random(f"jam-{seed}")
    jammed = sorted(rng.sample(segments, len(segments) // 4))

    roster = kits.demo_roster_text(shape.vehicles, friends_per_user=shape.friends,
                                   seed=seed)
    pair_friends = [f"friend u{2 * i:05d} u{2 * i + 1:05d}" for i in range(shape.parkers)]

    lines = ["name jam", f"seed {seed}", f"duration {shape.duration}",
             f"vehicle_count {shape.vehicles - 2 * shape.parkers}",
             f"sustain_window {shape.sustain_window:g}"]
    for i in range(shape.parkers):
        street = jammed[rng.randrange(len(jammed))]
        lines.append(f"vehicle P{i} user=u{2 * i:05d} segment={street} offset=150 "
                     f"dir=fwd speed={SPEED_LIMIT:g}")
        lines.append(f"vehicle S{i} user=u{2 * i + 1:05d} segment={street} offset=140 "
                     f"dir=fwd speed={SPEED_LIMIT:g} searcher")
        lines.append(f"park P{i} {shape.park[0]} {shape.park[1]}")
    for street in jammed:
        for direction in ("fwd", "rev"):
            lines.append(f"congestion_zone {street} {direction} 0 {shape.duration} "
                         f"{JAM_SPEED:g}")
    lines += ["road road.txt", "roster roster.txt"]

    _write(directory, "road.txt", road)
    _write(directory, "roster.txt", roster + "\n".join(pair_friends) + "\n")
    _write(directory, "scenario.txt", "\n".join(lines) + "\n")
    return directory
