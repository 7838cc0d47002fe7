import hashlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nonstat_dyn.cli import (BOUNDS, EXPERIMENTS, build_parser, flags, main,
                             random_step_density)

README = Path(__file__).resolve().parents[1] / "README.md"


def artifact_hashes(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name == "run_manifest.json":
            continue
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_invariant_doubling(tmp_path):
    out = tmp_path / "run"
    status = main(["invariant", "--family", "doubling", "--cells", "1024",
                   "--out", str(out)])
    assert status == 0
    report = json.load(open(out / "invariant_report.json"))
    assert report["data"]["residual"] < 1e-12
    rows = [l for l in open(out / "invariant_density.csv")
            if not l.startswith("#") and not l.startswith("cell")]
    vals = np.array([float(r.split(",")[1]) for r in rows])
    assert np.abs(vals - 1.0).max() < 1e-10


def test_negative_delta_is_config_error(tmp_path, capsys):
    status = main(["stability", "--family", "pm", "--deltas", "-0.01",
                   "--cells", "64", "--n", "50", "--sequences", "1",
                   "--out", str(tmp_path / "bad")])
    assert status == 2
    # every experiment that draws from a ball says so in the same words
    for command, key in [("stability --deltas", "deltas"),
                         ("perturb-probe --deltas", "deltas"),
                         ("evolve --delta", "delta"),
                         ("birkhoff --delta", "delta")]:
        capsys.readouterr()
        out = tmp_path / command.split()[0]
        assert main([*command.split(), "-0.01", "--out", str(out)]) == 2
        assert (capsys.readouterr().err ==
                f"config error: {key}: must be nonnegative, got -0.01\n")
        assert not out.exists()


def test_invalid_gamma_is_config_error(tmp_path):
    status = main(["invariant", "--family", "pm", "--gamma", "-0.05",
                   "--cells", "64", "--out", str(tmp_path / "bad2")])
    assert status == 2


@pytest.mark.parametrize("seed", range(6))
def test_evolve_ball_outside_range_is_config_error_before_any_step(
        tmp_path, capsys, seed):
    # [0.0099 - 0.01, 0.0099 + 0.01] reaches below pm's range; whether a draw
    # lands there depends on the seed, so the ball itself is checked first
    out = tmp_path / "ev"
    assert main(["evolve", "--family", "pm", "--gamma-hat", "0.0099",
                 "--delta", "0.01", "--cells", "64", "--n", "100",
                 "--seed", str(seed), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[-9.99999999999994e-05, 0.0199]" in err
    assert "range [1e-06, 1.0]" in err
    assert not out.exists()


BALL_OUTSIDE_RANGE = {
    "stability": ["--deltas", "0.01", "--n", "100", "--sequences", "2"],
    "perturb-probe": ["--deltas", "0.01", "--n", "20", "--seeds", "2"],
    "birkhoff": ["--delta", "0.01", "--n", "100", "--points", "5"],
}


@pytest.mark.parametrize("experiment", sorted(BALL_OUTSIDE_RANGE))
def test_ball_outside_range_is_config_error(tmp_path, capsys, experiment):
    # at 0.0099 +- 0.01 some draws fall below pm's range; clipping them to
    # its end would run a different law, so the ball is rejected up front
    out = tmp_path / experiment
    assert main([experiment, "--family", "pm", "--gamma-hat", "0.0099",
                 "--cells", "64", *BALL_OUTSIDE_RANGE[experiment],
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "gamma_hat, delta: the ball [-9.99999999999994e-05, 0.0199]" in err
    assert "range [1e-06, 1.0]" in err
    assert not out.exists()


ZERO_COUNTS = {
    "stability --sequences 0": "sequences",
    "perturb-probe --seeds 0": "seeds",
    "network --n 0": "n",
    "birkhoff --points 0": "points",
    "stability --n 0": "n",
    "perturb-probe --n 0": "n",
    "evolve --n 0": "n",
    "adversarial --n 0": "n",
    "birkhoff --covariance 1 --ensemble 0": "ensemble",
    "cone --samples 0": "samples",
    "ly-fit --n-test 0": "n_test",
    "stability --checkpoint 0": "checkpoint",
    "evolve --checkpoint 0": "checkpoint",
    "birkhoff --n 0": "n",
    "adversarial --first-gap 0": "first_gap",
    "network --ensemble 0": "ensemble",
    "invariant --quadrature 0": "quadrature",
}


@pytest.mark.parametrize("command", sorted(ZERO_COUNTS))
def test_zero_count_is_config_error_before_any_step(tmp_path, capsys,
                                                    command):
    out = tmp_path / "zero"
    assert main([*command.split(), "--out", str(out)]) == 2
    assert (capsys.readouterr().err ==
            f"config error: {ZERO_COUNTS[command]}: must be positive, got 0\n")
    assert not out.exists()


BELOW_MINIMUM = {
    **{f"{kind} --cells 1": "cells: must be at least 2, got 1"
       for kind, runner in EXPERIMENTS.items()
       if "cells" in inspect.signature(runner).parameters},
    "network --bins 1": "bins: must be at least 2, got 1",
    "network --nodes 1": "nodes: must be at least 2, got 1",
    "invariant --tol -1": "tol: must be nonnegative, got -1.0",
    "invariant --tol nan": "tol: must be nonnegative, got nan",
    "stability --seed -1": "seed: must be nonnegative, got -1",
    "adversarial --eps 0": "eps: must be positive, got 0.0",
    # kappa is checked for every family, not only pm and lsv, which read it
    "invariant --family doubling --kappa -5 --cells 64":
        "kappa: must lie in (0, 1), got -5.0",
    "invariant --family pm --kappa 1 --cells 64":
        "kappa: must lie in (0, 1), got 1.0",
    # so is b0, breakpoint_family's: not blamed on gamma, nor left unread
    "invariant --family breakpoint --b0 0.04 --cells 64":
        "b0: must lie in [0.05, 0.95], got 0.04",
    "invariant --family breakpoint --b0 0.96 --cells 64":
        "b0: must lie in [0.05, 0.95], got 0.96",
    "invariant --family breakpoint --b0 nan --cells 64":
        "b0: must lie in [0.05, 0.95], got nan",
    "invariant --family doubling --b0 nan --cells 64":
        "b0: must lie in [0.05, 0.95], got nan",
    "invariant --family doubling --b0 2 --cells 64":
        "b0: must lie in [0.05, 0.95], got 2.0",
}


@pytest.mark.parametrize("command", sorted(BELOW_MINIMUM))
def test_count_below_minimum_is_config_error_before_any_step(tmp_path, capsys,
                                                             command):
    out = tmp_path / "small"
    assert main([*command.split(), "--out", str(out)]) == 2
    assert (capsys.readouterr().err ==
            f"config error: {BELOW_MINIMUM[command]}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    ("--covariance 1 --j-max 0", "j_max: must be at least 1, got 0"),
    ("--lp 1 --balls 4", "balls: must be at least 8, got 4"),
    ("--band-eps -0.5", "band_eps: must be nonnegative, got -0.5"),
    # a value set out of range is rejected even where the run leaves it unread
    ("--ensemble 0", "ensemble: must be positive, got 0"),
    ("--balls 4", "balls: must be at least 8, got 4"),
    ("--j-max 0", "j_max: must be at least 1, got 0"),
], ids=["no-lag", "balls", "band-eps", "ensemble-unread", "balls-unread",
        "window-unread"])
def test_birkhoff_option_error_before_any_step(tmp_path, capsys, flags,
                                              message):
    out = tmp_path / "birk"
    assert main(["birkhoff", "--n", "50", "--points", "5", *flags.split(),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_birkhoff_takes_no_i_max(tmp_path, capsys):
    # the covariance window always starts at 0: neither a flag nor a config
    # key sets its start
    out = tmp_path / "birk"
    with pytest.raises(SystemExit) as exc:
        main(["birkhoff", "--i-max", "4", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --i-max 4" in capsys.readouterr().err
    cfg = tmp_path / "window.ini"
    cfg.write_text("[birkhoff]\ni_max = 4\n")
    assert main(["birkhoff", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown keys ['i_max'] in [birkhoff]" in capsys.readouterr().err
    assert not out.exists()


def test_negative_powers_is_config_error_before_any_step(tmp_path, capsys):
    out = tmp_path / "ly"
    assert main(["ly-fit", "--cells", "64", "--n-test", "5", "--powers", "-3",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert (capsys.readouterr().err ==
            "config error: powers: must be nonnegative, got -3\n")


@pytest.mark.parametrize("flags,message", [
    ("--schedule static --p 1.5", "persistence p must lie in (0, 1)"),
    ("--schedule static --period 1", "period must be at least 2"),
    ("--schedule periodic-failure --fail-rate 1.0",
     "fail_rate must lie in [0, 1)"),
], ids=["static-p", "static-period", "periodic-fail-rate"])
def test_schedule_parameter_checked_for_every_kind(tmp_path, capsys, flags,
                                                   message):
    # each schedule kind here leaves the out-of-range parameter unread
    out = tmp_path / "net"
    assert main(["network", *flags.split(), "--nodes", "3", "--n", "5",
                 "--ensemble", "20", "--bins", "8", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_invariant_zero_tol_converges(tmp_path):
    # tol 0 is in range: the doubling map's power iteration reaches residual
    # 0.0 exactly, so only a run that cannot meet it fails (exit 1)
    out = tmp_path / "inv"
    assert main(["invariant", "--family", "doubling", "--cells", "256",
                 "--tol", "0", "--out", str(out)]) == 0
    assert (out / "invariant_density.csv").exists()


def test_coupling_flag_is_usage_error(tmp_path, capsys):
    # the coupling is always diffusive; --alpha-c 0 leaves nodes uncoupled
    out = tmp_path / "net"
    with pytest.raises(SystemExit) as exc:
        main(["network", "--coupling", "zero", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --coupling zero" in capsys.readouterr().err
    assert not out.exists()


# numeric flags without a BOUNDS entry, each with why; the schedule
# parameters are checked whether or not a run reads them
UNBOUNDED = {
    **dict.fromkeys(["kappa", "b0"], "_family checks it for every family"),
    **dict.fromkeys(["a", "nu", "rho0", "lam", "alpha"],
                    "the library checks it"),
    **dict.fromkeys(["p", "fail_rate", "period"],
                    "gen_schedule checks it for every schedule kind"),
    **dict.fromkeys(["gamma", "gamma_hat", "alpha_c", "covariance", "lp"],
                    "no range"),
}


def test_every_numeric_flag_is_bounded_or_listed():
    numeric = {key for kind in EXPERIMENTS
               for key, default in flags(kind).items()
               if type(default) in (int, float)}
    # a misspelt key would silently drop its check
    assert set(BOUNDS) <= numeric
    assert numeric - set(BOUNDS) == set(UNBOUNDED)
    # `_check` words an excluded least as "must be positive"
    assert all(least == 0 for least, allowed in BOUNDS.values()
               if not allowed)


HEAVY_SCIPY = ("scipy.optimize", "scipy.sparse", "scipy.sparse.linalg",
               "scipy.ndimage")


def loaded_heavy_scipy(code):
    """The modules of HEAVY_SCIPY loaded after `code` runs in a fresh
    interpreter."""
    code += (f"\nimport sys; print([m for m in {HEAVY_SCIPY!r} "
             "if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_solver_modules_unloaded():
    # scipy's optimize, sparse and ndimage load on first use, so that every
    # experiment does not pay for them at start-up
    assert loaded_heavy_scipy("import nonstat_dyn.cli") == "[]"


def test_runs_leave_sparse_and_ndimage_unloaded(tmp_path):
    # evolve tracks seminorms and steps reused CSR operators, stability
    # builds an averaged operator: scipy's CSR kernel is loaded alone and
    # window extremes are numpy, so neither run imports scipy.sparse or
    # scipy.ndimage
    code = (f"from nonstat_dyn.cli import main\n"
            f"assert main(['evolve', '--family', 'pm', '--cells', '64', "
            f"'--n', '100', '--out', {str(tmp_path / 'e')!r}]) == 0\n"
            f"assert main(['stability', '--family', 'pm', '--cells', '64', "
            f"'--n', '50', '--sequences', '1', "
            f"'--out', {str(tmp_path / 's')!r}]) == 0")
    assert loaded_heavy_scipy(code) == "[]"


def test_manifest_lists_artifacts(tmp_path):
    out = tmp_path / "m"
    assert main(["invariant", "--family", "doubling", "--cells", "128",
                 "--out", str(out)]) == 0
    manifest = json.load(open(out / "run_manifest.json"))
    assert set(manifest["artifacts"]) == {"invariant_density.csv",
                                          "invariant_report.json"}
    for name, digest in manifest["artifacts"].items():
        with open(out / name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
    # where the run's CPU time and memory went, in the manifest only
    assert manifest["timings_ms"]["cpu"] >= 0
    assert manifest["peak_rss_mb"] >= 0
    faults = manifest["minor_faults"]
    assert type(faults) is int and faults >= 0
    children = manifest["children"]
    assert set(children) == {"cpu_ms", "minor_faults"}
    assert children["cpu_ms"] >= 0
    assert type(children["minor_faults"]) is int
    assert children["minor_faults"] >= 0


@pytest.mark.parametrize("cpus", [2, 1])
def test_manifest_counts_the_helpers_reaped_in_the_run(tmp_path, monkeypatch,
                                                      cpus):
    # an iid stream forced onto its build helper from its first test; shown
    # one CPU, the run forks no helper and its children count nothing
    from nonstat_dyn import _helpers, transfer
    monkeypatch.setattr(_helpers, "runnable_elsewhere", lambda: 0)
    monkeypatch.setattr(transfer, "FIRST_HELPER_RUN", 1)
    if cpus == 1:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = tmp_path / "evolve"
    assert main(["evolve", "--family", "pm", "--cells", "64", "--n", "40",
                 "--out", str(out)]) == 0
    children = json.load(open(out / "run_manifest.json"))["children"]
    if cpus == 1 or not _helpers.can_fork():
        assert children == {"cpu_ms": 0.0, "minor_faults": 0}
    else:
        assert children["minor_faults"] > 0


def test_csv_rows_carry_manifest_id(tmp_path):
    out = tmp_path / "c"
    main(["invariant", "--family", "doubling", "--cells", "64",
          "--out", str(out)])
    manifest = json.load(open(out / "run_manifest.json"))
    first = open(out / "invariant_density.csv").readline()
    assert first.strip() == f"# manifest {manifest['run_id']}"


def test_reruns_byte_identical(tmp_path):
    args = ["evolve", "--family", "pm", "--kappa", "0.5", "--gamma-hat",
            "0.1", "--delta", "0.01", "--cells", "128", "--n", "100",
            "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert artifact_hashes(a) == artifact_hashes(b)
    ma = json.load(open(a / "run_manifest.json"))
    mb = json.load(open(b / "run_manifest.json"))
    assert ma["artifacts"] == mb["artifacts"]
    assert ma["run_id"] == mb["run_id"]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[common]\nfamily = doubling\ncells = 64\nseed = 3\n"
                   "[invariant]\ngamma = 0.0\n")
    out = tmp_path / "cfgrun"
    assert main(["invariant", "--config", str(cfg), "--cells", "32",
                 "--out", str(out)]) == 0
    manifest = json.load(open(out / "run_manifest.json"))
    assert manifest["config"]["cells"] == 32  # flags win
    assert "seed" not in manifest["config"]  # invariant takes no seed


def test_flag_of_another_experiment_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["adversarial", "--family", "doubling",
              "--out", str(tmp_path / "adv")])
    assert exc.value.code == 2
    assert not (tmp_path / "adv").exists()


def test_unknown_flag_reported_with_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["adversarial", "--family", "doubling"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nonstat-dyn adversarial ")
    assert "--first-gap" in err
    assert "unrecognized arguments: --family doubling" in err


def test_birkhoff_switches_are_int_flags(tmp_path):
    for argv in (["--covariance", "no"], ["--lp", "off"]):
        with pytest.raises(SystemExit) as exc:
            main(["birkhoff", *argv, "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
    assert not (tmp_path / "b").exists()
    out = tmp_path / "off"
    assert main(["birkhoff", "--n", "200", "--points", "5", "--cells", "64",
                 "--covariance", "0", "--lp", "0", "--out", str(out)]) == 0
    assert sorted(artifact_hashes(out)) == ["birkhoff_averages.csv",
                                            "birkhoff_band.json"]
    on = tmp_path / "on"
    assert main(["birkhoff", "--n", "200", "--points", "5", "--cells", "64",
                 "--covariance", "1", "--ensemble", "200", "--j-max", "4",
                 "--lp", "1", "--out", str(on)]) == 0
    assert sorted(artifact_hashes(on)) == [
        "birkhoff_averages.csv", "birkhoff_band.json", "covariance.csv",
        "lln_verdict.json", "lp_estimate.json"]


@pytest.mark.parametrize("entry,named", [
    ("n = 5", "['n']"),              # a flag of other experiments only
    ("cells = many", "cells = 'many'"),
])
def test_bad_config_entry_is_config_error(tmp_path, capsys, entry, named):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[invariant]\n{entry}\n")
    status = main(["invariant", "--config", str(cfg),
                   "--out", str(tmp_path / "bad")])
    assert status == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_config_values_typed_like_flags(tmp_path):
    cfg = tmp_path / "typed.ini"
    cfg.write_text("[invariant]\ncells = 64\n")
    a, b = tmp_path / "ini", tmp_path / "flag"
    assert main(["invariant", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["invariant", "--cells", "64", "--out", str(b)]) == 0
    ma = json.load(open(a / "run_manifest.json"))
    mb = json.load(open(b / "run_manifest.json"))
    assert ma["config"] == mb["config"] == {"experiment": "invariant",
                                           "cells": 64}
    assert ma["run_id"] == mb["run_id"]


def test_misspelt_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[invariant]\nfamily = doubling\ncels = 64\n")
    status = main(["invariant", "--config", str(cfg),
                   "--out", str(tmp_path / "typo")])
    assert status == 2
    assert "cels" in capsys.readouterr().err
    assert not (tmp_path / "typo").exists()


def test_missing_config_file_is_config_error(tmp_path):
    status = main(["invariant", "--config", str(tmp_path / "absent.ini"),
                   "--out", str(tmp_path / "x")])
    assert status == 2


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NONSTAT_DYN_OUT", str(tmp_path))
    assert main(["invariant", "--family", "doubling", "--cells", "32"]) == 0
    assert (tmp_path / "out-invariant" / "run_manifest.json").exists()


def test_cone_subcommand(tmp_path):
    out = tmp_path / "cone"
    assert main(["cone", "--family", "doubling", "--cells", "128",
                 "--samples", "20", "--out", str(out)]) == 0
    rep = json.load(open(out / "cone_report.json"))["data"]
    assert rep["image_check"]["passed"]
    assert rep["contraction"]["q_hat"] < 1.0


def test_cone_images_leaving_cone_exit_numeric_failure(tmp_path, capsys):
    assert main(["cone", "--family", "pm", "--gamma", "0.1", "--cells", "1024",
                 "--samples", "10", "--seed", "3",
                 "--out", str(tmp_path / "cone")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: no finite image distances")
    assert "left the cone" in err
    # a run that fails before its first artifact leaves no directory behind
    assert not (tmp_path / "cone").exists()


def test_ly_fit_subcommand(tmp_path):
    out = tmp_path / "ly"
    assert main(["ly-fit", "--family", "doubling", "--cells", "128",
                 "--alpha", "0.5", "--n-test", "20", "--out", str(out)]) == 0
    rep = json.load(open(out / "ly_fit.json"))["data"]
    assert rep["eta_hat"] < 1.0


def test_network_reads_family_parameters(tmp_path):
    def max_distance(kappa):
        out = tmp_path / f"net-{kappa}"
        assert main(["network", "--family", "pm", "--gamma", "0.1",
                     "--kappa", kappa, "--nodes", "4", "--ensemble", "500",
                     "--n", "20", "--out", str(out)]) == 0
        return json.load(open(out / "network_summary.json"))["data"]["max_distance"]
    assert max_distance("0.3") != max_distance("0.7")


def test_readme_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(l) for l in lines if l.startswith("nonstat-dyn ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_flags_have_scalar_defaults():
    for runner in EXPERIMENTS.values():
        params = inspect.signature(runner).parameters.values()
        for p in params:
            if p.kind is p.KEYWORD_ONLY:
                assert type(p.default) in (int, float, str), (runner, p.name)


def test_random_step_density_properties():
    rng = np.random.default_rng(0)
    for _ in range(10):
        phi = random_step_density(128, rng)
        assert abs(phi.mass - 1.0) < 1e-12
        assert np.all(phi.values > 0)
