"""Pinned SHA-256 digests of the artifacts of a fixed battery of small CLI
runs, one run per line of `BATTERY`, covering every experiment and every
family.  `run_manifest.json` is left out, since it holds timings.

The digests hold for one numpy/scipy build, as the pinned bits in
`test_cones.py` and `test_network.py` do.  Every CSV header and JSON payload
carries the run id, which hashes `__version__`, so a version bump changes
every digest.  Regenerate the file after a deliberate change of output with

    PYTHONPATH=src python tests/test_artifact_digests.py
"""
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from nonstat_dyn.cli import EXPERIMENTS, main
from nonstat_dyn.maps import BUILTIN_FAMILIES

DIGESTS = Path(__file__).with_name("artifact_digests.json")

BATTERY = {
    "invariant-doubling": "invariant --family doubling --cells 256",
    "invariant-pm-q8": "invariant --family pm --gamma 0.1 --cells 256 "
                       "--quadrature 8",
    "invariant-breakpoint": "invariant --family breakpoint --gamma 0.05 "
                            "--cells 128",
    "invariant-tent": "invariant --family tent --gamma 0.1 --cells 128",
    "invariant-circle": "invariant --family circle --gamma 0.3 --cells 128",
    "evolve-pm": "evolve --family pm --gamma-hat 0.1 --delta 0.01 "
                 "--cells 128 --n 100 --checkpoint 10",
    "evolve-lsv": "evolve --family lsv --gamma-hat 0.1 --delta 0.01 "
                  "--cells 128 --n 100 --checkpoint 10 --phi0 half",
    "stability-pm": "stability --family pm --gamma-hat 0.1 "
                    "--deltas 0.02,0.01 --cells 128 --n 200 --sequences 2 "
                    "--checkpoint 20",
    "adversarial": "adversarial --eps 0.1 --n 500 --first-gap 32 "
                   "--cells 128",
    "birkhoff-pm-cov-lp": "birkhoff --family pm --gamma-hat 0.1 --delta 0.01 "
                          "--cells 128 --n 1000 --points 20 --covariance 1 "
                          "--j-max 6 --ensemble 1000 --lp 1",
    "birkhoff-doubling": "birkhoff --family doubling --gamma-hat 0.1 "
                         "--delta 0.01 --cells 128 --n 1000 --points 20 "
                         "--psi cos",
    "birkhoff-lsv-sin": "birkhoff --family lsv --gamma-hat 0.1 --delta 0.01 "
                        "--cells 128 --n 1000 --points 20 --psi sin",
    "birkhoff-pm-kappa-one": "birkhoff --family pm --kappa 0.3 --gamma-hat 0.1 "
                             "--delta 0.01 --cells 128 --n 1000 --points 20 "
                             "--psi one",
    "cone-doubling": "cone --family doubling --cells 128 --samples 10",
    "network-doubling": "network --family doubling --nodes 4 --n 50 "
                        "--ensemble 200 --bins 16",
    "network-circle": "network --family circle --gamma 0.2 --nodes 3 "
                      "--n 40 --ensemble 100 --bins 8 "
                      "--schedule periodic-failure",
    "ly-fit-doubling": "ly-fit --family doubling --cells 128 --n-test 10 "
                       "--powers 3",
    "perturb-probe-doubling": "perturb-probe --family doubling --cells 128 "
                              "--n 10 --seeds 2",
}


def run_digests(argv: str, outdir: str) -> dict:
    """{artifact: SHA-256} of one CLI run written into `outdir`, checked
    against the checksums its manifest records for the bytes it wrote."""
    assert main([*argv.split(), "--out", outdir]) == 0
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name != "run_manifest.json":
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(outdir, "run_manifest.json")) as fh:
        assert json.load(fh)["artifacts"] == out
    return out


def test_battery_covers_every_experiment_and_family():
    commands = [argv.split() for argv in BATTERY.values()]
    assert {c[0] for c in commands} == set(EXPERIMENTS)
    families = {c[c.index("--family") + 1] for c in commands if "--family" in c}
    # adversarial runs pm without a --family flag
    assert families | {"pm"} == set(BUILTIN_FAMILIES)
    assert set(json.loads(DIGESTS.read_text())) == set(BATTERY)


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_artifact_digests_pinned(tmp_path, name):
    pinned = json.loads(DIGESTS.read_text())[name]
    assert run_digests(BATTERY[name], str(tmp_path / name)) == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        digests = {name: run_digests(argv, os.path.join(root, name))
                   for name, argv in BATTERY.items()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} runs to {DIGESTS}", file=sys.stderr)
