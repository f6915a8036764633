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
import sys
import tempfile

import pytest

from vanetkit import cli, kits

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden", "digests.txt")


def _bundles(root: str) -> list[str]:
    directories = []
    for name in kits.KIT_NAMES:
        directory = os.path.join(root, name)
        kits.generate_kit(name, directory)
        directories.append(directory)
    directories.append(kits.demo_bundle(os.path.join(root, "demo"), vehicle_count=600,
                                        duration=120, seed=42))
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
    assert len(expected) == 2 * (len(kits.KIT_NAMES) + 1)
    assert current_digests(str(tmp_path)) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        with contextlib.redirect_stdout(sys.stderr):
            found = current_digests(scratch)
    for filename, digest in found.items():
        print(f"{digest}  {filename}")
