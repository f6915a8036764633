import os

import pytest

from vanetkit import cli, kits

pytestmark = pytest.mark.filterwarnings("ignore:vehicle count")


def kit_dir(tmp_path, name="parking"):
    directory = tmp_path / name
    kits.generate_kit(name, str(directory))
    return str(directory)


def test_validate_ok(tmp_path, capsys):
    assert cli.main(["validate", kit_dir(tmp_path)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_reports_every_violation(tmp_path, capsys):
    directory = kit_dir(tmp_path)
    road = os.path.join(directory, "road.txt")
    with open(road, "w") as fh:
        fh.write("junction a 0 0\njunction b 10 0\nsegment s a b 0 twoway\n"
                 "segment s a b 50 twoway\n")
    assert cli.main(["validate", directory]) == 2
    err = capsys.readouterr().err
    assert "speed_limit" in err
    assert "duplicate segment" in err
    assert err.count("error:") >= 2    # all road problems, not just the first


def test_validate_missing_roster(tmp_path, capsys):
    directory = kit_dir(tmp_path)
    os.remove(os.path.join(directory, "roster.txt"))
    assert cli.main(["validate", directory]) == 2
    assert "missing roster" in capsys.readouterr().err


def test_run_writes_outputs_and_summary(tmp_path, capsys):
    directory = kit_dir(tmp_path)
    assert cli.main(["run", directory, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    for label in ("generated", "sent", "broadcasted", "received", "lost", "connections"):
        assert label in out
    metrics = tmp_path / "out" / "parking_42.metrics.csv"
    trace = tmp_path / "out" / "parking_42.trace"
    assert metrics.exists() and trace.exists()
    header = metrics.read_text().splitlines()[0]
    assert header == "node,generated,sent,broadcasted,received,lost,auth_attempts,auth_accepted"
    assert metrics.read_text().splitlines()[-1].startswith("TOTAL,")


def test_run_refuses_overwrite_without_force(tmp_path, capsys):
    directory = kit_dir(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["run", directory, "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["run", directory, "--out", out]) == 3
    assert "--force" in capsys.readouterr().err
    assert cli.main(["run", directory, "--out", out, "--force"]) == 0


def test_run_twice_identical_outputs(tmp_path, capsys):
    directory = kit_dir(tmp_path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", directory, "--out", out_a]) == 0
    assert cli.main(["run", directory, "--out", out_b]) == 0
    for suffix in ("parking_42.metrics.csv", "parking_42.trace"):
        with open(os.path.join(out_a, suffix), "rb") as fa, \
             open(os.path.join(out_b, suffix), "rb") as fb:
            assert fa.read() == fb.read()


def test_run_seed_override_changes_names(tmp_path, capsys):
    directory = kit_dir(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["run", directory, "--out", out, "--seed", "7"]) == 0
    assert os.path.exists(os.path.join(out, "parking_7.metrics.csv"))


def test_run_invalid_bundle_exits_2(tmp_path, capsys):
    directory = kit_dir(tmp_path)
    os.remove(os.path.join(directory, "road.txt"))
    assert cli.main(["run", directory]) == 2


def test_sweep_obu_fraction(tmp_path, capsys):
    directory = kit_dir(tmp_path, "congestion-chain")
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", directory, "--param", "obu_fraction=0.5,1.0",
                     "--out", out]) == 0
    path = os.path.join(out, "congestion-chain_sweep_obu_fraction.csv")
    lines = open(path).read().splitlines()
    assert lines[0].startswith("obu_fraction,")
    assert len(lines) == 3
    assert lines[1].startswith("0.5,") and lines[2].startswith("1,")


def test_sweep_single_value(tmp_path, capsys):
    directory = kit_dir(tmp_path)
    assert cli.main(["sweep", directory, "--param", "obu_fraction=1.0",
                     "--out", str(tmp_path / "s")]) == 0
    path = tmp_path / "s" / "parking_sweep_obu_fraction.csv"
    assert len(path.read_text().splitlines()) == 2


def test_sweep_rejects_unknown_parameter(tmp_path, capsys):
    directory = kit_dir(tmp_path)
    assert cli.main(["sweep", directory, "--param", "tick=1,2"]) == 2


@pytest.mark.parametrize("values", ["0.7", "1,2.5", "nan"])
def test_sweep_refuses_a_fractional_vehicle_count(tmp_path, capsys, values):
    """A fleet size runs as given or not at all: never truncated, and so
    never written to the sweep CSV as a size that did not run."""
    directory = kit_dir(tmp_path, "find-car")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", directory, "--param", f"vehicle_count={values}",
                     "--out", str(out)]) == 2
    assert f"whole numbers, not {values.split(',')[-1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param, values, refusals", [
    ("vehicle_count", "1,-1", ["vehicle_count=1: roster must provide one user per vehicle",
                               "vehicle_count=-1: vehicle_count must be at least 0"]),
    ("obu_fraction", "0.5,1.5", ["obu_fraction=1.5: obu_fraction must be within [0, 1]"]),
])
def test_sweep_validates_every_value_before_the_first_run(tmp_path, capsys, param, values,
                                                          refusals):
    """A value the bundle's validation refuses is named with its problem
    before anything runs: exit 2, and no CSV, not even a partial one."""
    directory = kit_dir(tmp_path, "find-car")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", directory, "--param", f"{param}={values}",
                     "--out", str(out)]) == cli.EXIT_VALIDATION
    printed = capsys.readouterr()
    assert [line for line in printed.err.splitlines() if line.startswith("error: ")] == [
        f"error: {refusal}" for refusal in refusals]
    assert "wrote" not in printed.out
    assert not out.exists()


@pytest.mark.parametrize("values", ["", ",", ",,"])
def test_sweep_with_no_values_is_a_usage_error(tmp_path, capsys, values):
    directory = kit_dir(tmp_path, "find-car")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", directory, "--param", f"obu_fraction={values}",
                     "--out", str(out)]) == cli.EXIT_VALIDATION
    assert "error: --param obu_fraction names no values" in capsys.readouterr().err
    assert not out.exists()


def test_kit_generation_and_unknown_name(tmp_path, capsys):
    out = str(tmp_path / "bundle")
    assert cli.main(["kit", "find-car", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert printed.count("wrote") == 3
    assert cli.main(["kit", "warp-drive", "--out", out]) == 2
    assert "available kits" in capsys.readouterr().err


def test_sweep_seed_override_matches_run(tmp_path, capsys):
    """With half the fleet equipped, which vehicles carry a unit depends on
    the seed; `sweep --seed 1` must total what `run --seed 1` does."""
    directory = kit_dir(tmp_path, "congestion-chain")
    with open(os.path.join(directory, "scenario.txt"), "a") as fh:
        fh.write("obu_fraction 0.5\n")
    out = str(tmp_path / "out")
    assert cli.main(["run", directory, "--seed", "1", "--out", out]) == 0
    with open(os.path.join(out, "congestion-chain_1.metrics.csv")) as fh:
        run_totals = fh.read().splitlines()[-1].split(",")[1:6]
    sweeps = {}
    for seed in ("1", None):
        sweep_out = str(tmp_path / f"sweep-{seed}")
        args = ["sweep", directory, "--param", "obu_fraction=0.5", "--out", sweep_out]
        assert cli.main(args + (["--seed", seed] if seed else [])) == 0
        with open(os.path.join(sweep_out, "congestion-chain_sweep_obu_fraction.csv")) as fh:
            sweeps[seed] = fh.read().splitlines()[1].split(",")[1:6]
    assert sweeps["1"] == run_totals
    assert sweeps[None] != run_totals      # the bundle's own seed, 42, totals otherwise


def oneway_bundle(tmp_path, vehicle):
    """A bundle on a road whose street s2 runs one way, from c to b."""
    (tmp_path / "road.txt").write_text(
        "junction a 0 0\njunction b 500 0\njunction c 1000 0\n"
        "segment s1 a b 50 twoway\nsegment s2 c b 50 oneway\n")
    (tmp_path / "roster.txt").write_text("user u1 1\nuser u2 2\nfriend u1 u2\n")
    (tmp_path / "scenario.txt").write_text(
        f"name oneway\nduration 30\n{vehicle}\n"
        "vehicle v2 user=u2 segment=s1 offset=40 dir=fwd speed=20\n"
        "road road.txt\nroster roster.txt\n")
    return str(tmp_path)


@pytest.mark.parametrize("vehicle, problem", [
    ("vehicle v1 user=u1 segment=s1 offset=10 dir=fwd speed=20 route=s2",
     "vehicle 'v1' route breaks: segment 's2' is one-way, cannot enter at 'b'"),
    ("vehicle v1 user=u1 segment=s2 offset=10 dir=rev speed=20",
     "vehicle 'v1' starts the wrong way on one-way segment 's2'"),
])
def test_validate_refuses_a_wrong_way_on_a_one_way_street(tmp_path, capsys, vehicle, problem):
    assert cli.main(["validate", oneway_bundle(tmp_path, vehicle)]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {problem}"]


def test_validate_accepts_a_one_way_street_driven_its_way(tmp_path, capsys):
    vehicle = "vehicle v1 user=u1 segment=s2 offset=10 dir=fwd speed=20 route=s1"
    assert cli.main(["validate", oneway_bundle(tmp_path, vehicle)]) == 0
    assert "ok:" in capsys.readouterr().out


@pytest.mark.parametrize("statement, problem", [
    ("vehicle v1 user=u1 segment=s1 offset=10 dir=sideways speed=20",
     "line 3: vehicle direction 'sideways' is not 'fwd' or 'rev'"),
    ("vehicle v1 user=u1 segment=s1 offset=10 dir=fwd speed=20 battery=full",
     "line 3: unknown battery level 'full'"),
    ("vehicle v1 user=u1 segment=s1 offset=10 dir=fwd speed=20\n"
     "congestion_zone s1 sideways 0 10 5",
     "line 4: congestion zone direction 'sideways' is not 'fwd' or 'rev'"),
])
def test_validate_and_run_refuse_a_value_the_run_cannot_read(tmp_path, capsys, statement,
                                                             problem):
    directory = oneway_bundle(tmp_path, statement)
    assert cli.main(["validate", directory]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {problem}"]
    assert cli.main(["run", directory, "--out", str(tmp_path / "out")]) == 2
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("line, edit, problem", [
    (2, "logo", "malformed 'logo' statement"),
    (2, "logo shopfront door", "malformed 'logo' statement"),
    (3, "cert ushop", "malformed 'cert' statement"),
    (3, "cert ushop ushop 0x", "malformed 'cert' statement"),
    (1, "advert ushop x 0 120 55 coffee", "malformed 'advert' statement"),
    (1, "advert ushop 300 0 120 55 " + "m" * 150, "advert message exceeds 140 characters"),
    (1, "advert ushop 300 0 nan inf coffee",
     "location, radius and expiry must be finite and the radius at least 0"),
    (1, "advert ushop inf 0 120 55 coffee",
     "location, radius and expiry must be finite and the radius at least 0"),
    (1, "advert ushop 300 0 -1 55 coffee",
     "location, radius and expiry must be finite and the radius at least 0"),
], ids=["logo-empty", "logo-extra", "cert-short", "cert-not-hex", "x-not-a-number",
        "long-message", "nan-radius", "inf-x", "negative-radius"])
def test_validate_refuses_a_malformed_advert_line(tmp_path, capsys, line, edit, problem):
    """Each line of the advert kit's package, edited to a value the advert
    cannot carry, is refused with its line number: exit 2, no traceback."""
    directory = kit_dir(tmp_path, "advert")
    path = os.path.join(directory, "advert.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[line - 1] = edit
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert cli.main(["validate", directory]) == cli.EXIT_VALIDATION
    assert [row for row in capsys.readouterr().err.splitlines() if row.startswith("error:")] == [
        f"error: advert line {line}: {problem}"]
