"""Golden digests: the determinism contract locked across commits.

Each bundle below is run through `vanetkit run`; the sha256 of the
metrics CSV and of the trace it writes must equal the digest committed
in `tests/golden/digests.txt`.  A change that keeps the simulator's
outputs keeps these bytes.  A change meant to move them regenerates the
file and says why:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/digests.txt
"""

import contextlib
import hashlib
import os
import random
import sys
import tempfile

import pytest

from vanetkit import cli, geomodel, kits

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden", "digests.txt")


def _jam_bundle(directory: str, vehicles: int = 200, grid: int = 5, duration: int = 90,
                seed: int = 17) -> str:
    """A small jam: a quarter of the streets crawl both ways all run, every
    user draws 8 friendships, and one car parks and leaves next to a
    searching friend.  It drives detection, corroboration, aggregation,
    relaying and parking vacancies through the handshake."""
    os.makedirs(directory, exist_ok=True)
    road = geomodel.grid_document(grid, grid, spacing=300.0, speed_limit=50.0)
    segments = sorted(line.split()[1] for line in road.splitlines()
                      if line.startswith("segment "))
    rng = random.Random(f"golden-jam-{seed}")
    jammed = sorted(rng.sample(segments, len(segments) // 4))
    street = jammed[rng.randrange(len(jammed))]
    roster = kits.demo_roster_text(vehicles, friends_per_user=8, seed=seed)
    lines = ["name jam", f"seed {seed}", f"duration {duration}",
             f"vehicle_count {vehicles - 2}", "sustain_window 30",
             f"vehicle P0 user=u00000 segment={street} offset=150 dir=fwd speed=50",
             f"vehicle S0 user=u00001 segment={street} offset=140 dir=fwd speed=50 searcher",
             "park P0 15 40"]
    lines += [f"congestion_zone {s} {d} 0 {duration} 3" for s in jammed for d in ("fwd", "rev")]
    lines += ["road road.txt", "roster roster.txt"]
    for filename, text in (("road.txt", road),
                           ("roster.txt", roster + "friend u00000 u00001\n"),
                           ("scenario.txt", "\n".join(lines) + "\n")):
        with open(os.path.join(directory, filename), "w") as fh:
            fh.write(text)
    return directory


def _bundles(root: str) -> list[str]:
    directories = []
    for name in kits.KIT_NAMES:
        directory = os.path.join(root, name)
        kits.generate_kit(name, directory)
        directories.append(directory)
    directories.append(kits.demo_bundle(os.path.join(root, "demo"), vehicle_count=600,
                                        duration=120, seed=42))
    directories.append(_jam_bundle(os.path.join(root, "jam")))
    return directories


def current_digests(root: str) -> dict[str, str]:
    """Run every golden bundle under `root`; output file name -> sha256."""
    out_dir = os.path.join(root, "out")
    for directory in _bundles(root):
        if cli.main(["run", directory, "--out", out_dir]) != cli.EXIT_OK:
            raise RuntimeError(f"vanetkit run failed on {directory}")
    digests = {}
    for filename in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, filename), "rb") as fh:
            digests[filename] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def committed_digests() -> dict[str, str]:
    digests = {}
    with open(DIGESTS_PATH) as fh:
        for line in fh:
            digest, filename = line.split()
            digests[filename] = digest
    return digests


@pytest.mark.filterwarnings("ignore:vehicle count")
def test_outputs_match_committed_digests(tmp_path):
    expected = committed_digests()
    assert len(expected) == 2 * (len(kits.KIT_NAMES) + 2)
    assert current_digests(str(tmp_path)) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        with contextlib.redirect_stdout(sys.stderr):
            found = current_digests(scratch)
    for filename, digest in found.items():
        print(f"{digest}  {filename}")
