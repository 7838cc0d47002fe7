"""Reproducible experiment runner: config parsing, seeding, artifacts, manifests.

An experiment's flags are its runner's keyword parameters, typed by their
defaults; the parser, the INI loader and `--help` all read them from there.
Their ranges are one table, `BOUNDS`, which `run` checks before any work.

Exit codes: 0 ok, 1 numeric failure, 2 config error.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import inspect
import json
import os
import resource
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .birkhoff import (band_pass_check, birkhoff_averages, covariance_decay,
                       lln_summability, lp_distance, observable, orbit_points,
                       quasi_birkhoff_band)
from .cones import (ConeParams, cone_image_check, contraction_and_diameter,
                    sample_cone_density, theta_holder, theta_plus)
from .densities import GridDensity, l1_distance
from .maps import family_by_name, instantiate, pm_family
from .network import NetworkSystem, gen_schedule, simulate_ensemble
from .seeding import substream
from .sequences import (MASS_WINDOW, ParameterSequence, adversarial_demo,
                        doubling_gap_schedule, evolve_density,
                        stability_experiment)
from .transfer import (NonConvergenceError, build_ulam, fit_decay_envelope,
                       fixed_density, lasota_yorke_fit, perturbation_probe)

ENV_OUT_ROOT = "NONSTAT_DYN_OUT"


class ConfigError(ValueError):
    pass


# --- artifact plumbing -----------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


class ArtifactWriter:
    def __init__(self, outdir: str, config: dict):
        self.outdir = outdir
        self.config = config
        blob = json.dumps({"config": config, "version": __version__},
                          sort_keys=True).encode()
        self.run_id = hashlib.sha256(blob).hexdigest()[:16]
        self.checksums: dict = {}
        self.timings: dict = {}

    def _write(self, name: str, text: str) -> None:
        """Write one artifact and record the SHA-256 of the bytes written.
        The directory is made by the first write, so a run that fails
        before writing leaves no directory."""
        data = text.encode()
        os.makedirs(self.outdir, exist_ok=True)
        with open(os.path.join(self.outdir, name), "wb") as fh:
            fh.write(data)
        self.checksums[name] = hashlib.sha256(data).hexdigest()

    def write_csv(self, name: str, columns: dict, meta: dict | None = None):
        """`columns` is {header: values} in column order; each column is
        flattened in C order, so the grids of `np.indices` line up."""
        lines = [f"# manifest {self.run_id}"]
        lines += [f"# {k} = {_fmt(v)}" for k, v in sorted((meta or {}).items())]
        lines.append(",".join(columns))
        cols = [np.ravel(c).tolist() for c in columns.values()]
        lines += [",".join(map(_fmt, row)) for row in zip(*cols)]
        self._write(name, "\n".join(lines) + "\n")

    def write_json(self, name: str, obj):
        payload = {"manifest": self.run_id, "data": obj}
        self._write(name, json.dumps(payload, sort_keys=True, indent=1) + "\n")

    def finish(self) -> None:
        manifest = {
            "run_id": self.run_id,
            "version": __version__,
            "config": self.config,
            "artifacts": self.checksums,
            "timings_ms": self.timings,
            "peak_rss_mb": _peak_rss_mb(),
        }
        # serialized before its own write, so the manifest does not list itself
        self._write("run_manifest.json",
                    json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    return round(peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10), 3)


def _family(name: str, kappa: float, b0: float):
    # kappa and b0 are checked for every family, as `BOUNDS` checks a flag
    # whether or not the run reads it; b0's range is breakpoint_family's
    if not 0.0 < kappa < 1.0:
        raise ConfigError(f"kappa: must lie in (0, 1), got {kappa}")
    if not 0.05 <= b0 <= 0.95:
        raise ConfigError(f"b0: must lie in [0.05, 0.95], got {b0}")
    kwargs = {}
    if name in ("pm", "lsv"):
        kwargs["kappa"] = kappa
    if name == "breakpoint":
        kwargs["b0"] = b0
    return family_by_name(name, **kwargs)


def _phi0(kind: str, cells: int) -> GridDensity:
    if kind == "uniform":
        return GridDensity.uniform(cells)
    if kind == "half":
        return GridDensity.indicator(0.0, 0.5, cells, height=2.0)
    raise ConfigError(f"phi0: unknown initial density {kind!r}")


def _deltas(text: str) -> list:
    return [_check("deltas", float(d), *BOUNDS["delta"])
            for d in text.split(",")]


def _check_balls(family, gamma_hat: float, deltas) -> None:
    """Every ball [gamma_hat - |delta|, gamma_hat + |delta|] lies inside the
    family's parameter range, checked before any step."""
    for delta in deltas:
        try:
            family.check_ball(gamma_hat, delta)
        except ValueError as exc:
            raise ConfigError(f"gamma_hat, delta: {exc}") from None


# flag: (least value, whether the least itself is allowed). Every excluded
# least is 0 ("must be positive"). A flag has one range in every experiment
# taking it, and `run` checks each value an experiment receives before any
# work, whether or not the run reads it.
BOUNDS = {
    "cells": (2, True), "nodes": (2, True), "bins": (2, True),
    "balls": (8, True),
    "n": (0, False), "sequences": (0, False), "seeds": (0, False),
    "checkpoint": (0, False), "points": (0, False), "ensemble": (0, False),
    "samples": (0, False), "n_test": (0, False), "first_gap": (0, False),
    "quadrature": (0, False), "eps": (0, False),
    "delta": (0, True), "band_eps": (0, True), "powers": (0, True),
    "tol": (0, True), "seed": (0, True),
}


def _check(key: str, value, least, allowed: bool):
    if not (value > least or (value == least and allowed)):  # rejects nan
        rule = ("positive" if not allowed else
                "nonnegative" if least == 0 else f"at least {least}")
        raise ConfigError(f"{key}: must be {rule}, got {value}")
    return value


# --- experiment runners ------------------------------------------------------

def run_invariant(writer: ArtifactWriter, *, family="doubling", kappa=0.5,
                  b0=0.4, gamma=0.0, cells=4096, quadrature=32,
                  tol=1e-12) -> int:
    family = _family(family, kappa, b0)
    op = build_ulam(instantiate(family, gamma), cells, quadrature=quadrature)
    phi = fixed_density(op, tol=tol)
    applied = op.apply(phi)
    residual = l1_distance(applied, phi)
    writer.write_csv("invariant_density.csv",
                     {"cell": np.arange(phi.n_cells), "value": phi.values},
                     meta={"family": family.name, "gamma": gamma,
                           "residual": residual})
    writer.write_json("invariant_report.json",
                      {"residual": residual, "mass": phi.mass,
                       "family": family.name, "gamma": gamma, "cells": cells})
    return 0


def run_stability(writer: ArtifactWriter, *, family="doubling", kappa=0.5,
                  b0=0.4, gamma_hat=0.1, deltas="0.02,0.01,0.005", cells=1024,
                  n=2000, sequences=20, seed=0, phi0="uniform",
                  checkpoint=50) -> int:
    family = _family(family, kappa, b0)
    deltas = _deltas(deltas)
    _check_balls(family, gamma_hat, deltas)
    table = stability_experiment(family, gamma_hat, deltas,
                                 _phi0(phi0, cells), n, sequences, seed,
                                 checkpoint_every=checkpoint)
    writer.write_csv("stability.csv", {
        "delta": [r.delta for r in table.rows],
        "worst_post_transient": [r.worst_post_transient for r in table.rows],
        "stationary_distance": [r.stationary_distance for r in table.rows],
        "sequences": [r.n_sequences for r in table.rows],
    }, meta={"family": family.name, "gamma_hat": gamma_hat, "n": n,
             "cells": cells})
    return 0


def run_evolve(writer: ArtifactWriter, *, family="doubling", kappa=0.5,
               b0=0.4, gamma_hat=0.1, delta=0.01, cells=1024, n=1000, seed=0,
               phi0="uniform", checkpoint=50) -> int:
    family = _family(family, kappa, b0)
    _check_balls(family, gamma_hat, [delta])
    phi0 = _phi0(phi0, cells)
    ref = fixed_density(build_ulam(instantiate(family, gamma_hat), cells))
    seq = ParameterSequence.iid(gamma_hat, delta, seed)
    trace = evolve_density(family, seq, phi0, n, checkpoint_every=checkpoint,
                           reference=ref, track_seminorm=True)
    writer.write_csv("evolve_trace.csv", {
        "step": trace.steps, "mass": trace.masses,
        "l1_to_reference": trace.distances, "seminorm": trace.seminorms,
    }, meta={"family": family.name, "gamma_hat": gamma_hat, "delta": delta,
             "n": n})
    return 0


def run_adversarial(writer: ArtifactWriter, *, kappa=0.5, eps=0.1, n=10000,
                    first_gap=64, cells=1024) -> int:
    family = pm_family(kappa=kappa)
    schedule = doubling_gap_schedule(first_gap, n)
    run = adversarial_demo(family, eps, schedule, n_max=n, n_cells=cells)
    stride = max(n // 2000, 1)
    keep = np.arange(0, n, stride)
    writer.write_csv("adversarial_curve.csv", {
        "step": run.steps[keep], "mass_near_zero": run.mass_low[keep],
        "l1_to_plus_density": run.dist_plus[keep],
    }, meta={"kappa": kappa, "eps": eps, "w": MASS_WINDOW})
    writer.write_json("adversarial_report.json", {
        "block_ends": [[int(k), kind] for k, kind in run.block_ends],
        "reached_concentration": run.reached_concentration,
        "reached_return": run.reached_return,
        "schedule": list(schedule),
    })
    return 0


def run_birkhoff(writer: ArtifactWriter, *, family="doubling", kappa=0.5,
                 b0=0.4, gamma_hat=0.1, delta=0.01, cells=1024, n=100000,
                 points=100, seed=0, band_eps=0.05, psi="x", covariance=0,
                 i_max=4, j_max=14, ensemble=10000, lp=0, balls=64) -> int:
    family = _family(family, kappa, b0)
    _check_balls(family, gamma_hat, [delta])
    if not 0 <= i_max <= j_max or j_max < 1:
        raise ConfigError(f"i_max, j_max: must satisfy 0 <= i_max <= j_max "
                          f"and j_max >= 1, got {i_max}, {j_max}")
    psi = observable(psi, cells)
    seq = ParameterSequence.iid(gamma_hat, delta, seed)
    result = birkhoff_averages(family, seq, points, psi, n, seed=seed)
    phi_hat = fixed_density(build_ulam(instantiate(family, gamma_hat), cells))
    band = quasi_birkhoff_band(psi, phi_hat, band_eps)
    check = band_pass_check(result, band)
    writer.write_csv("birkhoff_averages.csv", {
        "point": np.arange(points), "average": result.averages[0],
        "tail_min": result.tail_min[0], "tail_max": result.tail_max[0],
        "inside": check.inside.astype(int),
    }, meta={"psi": psi.name, "band_lo": band.lo, "band_hi": band.hi})
    writer.write_json("birkhoff_band.json", {
        "band": asdict(band),
        "pass_fraction": check.fraction,
        "wilson": list(check.wilson), "n": n, "points": points,
    })
    if covariance:
        cov = covariance_decay(family, seq, psi, (i_max, j_max),
                               ensemble=ensemble, seed=seed)
        lln = lln_summability(cov)
        i, j = np.indices(cov.R.shape)
        writer.write_csv("covariance.csv",
                         {"i": i, "j": j, "R": cov.R, "se": cov.se})
        writer.write_json("lln_verdict.json", {
            "verdict": lln.verdict, "q_fit": cov.q_fit, "c_fit": cov.c_fit,
            "partial_sum": lln.partial_sum, "closed_form": lln.closed_form,
        })
    if lp:
        rng = substream(seed, "lp-orbit-start")
        orbit = orbit_points(family, seq, rng.uniform(0, 1, 1), n, seed=seed)
        report = lp_distance(orbit[:, 0], phi_hat, ball_count=balls)
        writer.write_json("lp_estimate.json", asdict(report))
    return 0


def run_cone(writer: ArtifactWriter, *, family="doubling", kappa=0.5, b0=0.4,
             gamma=0.0, cells=256, a=2.0, nu=0.5, rho0=0.25, lam=0.75, seed=0,
             samples=100) -> int:
    family = _family(family, kappa, b0)
    cone = ConeParams(a=a, nu=nu, rho0=rho0, lam=lam)
    op = build_ulam(instantiate(family, gamma), cells)
    image = cone_image_check(op, cone, samples=samples, seed=seed)
    contraction = contraction_and_diameter([op], cone, pairs=samples, seed=seed)
    rng = substream(seed, "cone-demo")
    phi1 = sample_cone_density(cells, cone, rng)
    phi2 = sample_cone_density(cells, cone, rng)
    writer.write_json("cone_report.json", {
        "cone": asdict(cone),
        "image_check": {"passed": image.passed, "worst_a_min": image.worst_a_min,
                        "target": image.target},
        "contraction": {"q_hat": contraction.q_hat,
                        "diameter_hat": contraction.diameter_hat,
                        "bound_ok": contraction.bound_ok},
        "example_pair": {"theta_plus": theta_plus(phi1, phi2).theta,
                         "theta_holder": theta_holder(phi1, phi2, cone).theta},
    })
    return 0


def run_network(writer: ArtifactWriter, *, family="doubling", kappa=0.5,
                b0=0.4, gamma=0.0, nodes=8, alpha_c=0.01, n=10000,
                ensemble=10000, seed=0, schedule="bursty", p=0.9,
                fail_rate=0.05, period=2, bins=64) -> int:
    family = _family(family, kappa, b0)
    system = NetworkSystem(node_map=instantiate(family, gamma),
                           n_nodes=nodes, alpha_c=alpha_c)
    schedule = gen_schedule(schedule, nodes, n, seed=seed, p=p,
                            fail_rate=fail_rate, period=period)
    summary = simulate_ensemble(system, schedule, ensemble, n, seed=seed,
                                n_bins=bins)
    c, node, b = np.indices(summary.counts.shape)
    writer.write_csv("network_marginals.csv", {
        "step": summary.checkpoints[c], "node": node, "bin": b,
        "count": summary.counts,
    }, meta={"ensemble": ensemble, "bins": summary.n_bins})
    writer.write_json("network_summary.json", {
        "checkpoints": summary.checkpoints.tolist(),
        "max_distance": summary.max_distance.tolist(),
        "noise_floor": summary.noise_floor,
        "mean_failure_run": schedule.mean_failure_run_length(),
        "note": ("marginal-based evidence; the product-system density is "
                 "not simulated directly"),
    })
    return 0


def run_ly_fit(writer: ArtifactWriter, *, family="doubling", kappa=0.5,
               b0=0.4, gamma=0.0, cells=512, alpha=0.5, n_test=100, seed=0,
               powers=10) -> int:
    family = _family(family, kappa, b0)
    rng = substream(seed, "ly-test-set")
    test_set = [random_step_density(cells, rng) for _ in range(n_test)]
    fit = lasota_yorke_fit(family, gamma, alpha, test_set, n_powers=powers)
    writer.write_json("ly_fit.json", {**asdict(fit), "n_test": n_test})
    return 0


def run_perturb_probe(writer: ArtifactWriter, *, family="doubling", kappa=0.5,
                      b0=0.4, gamma_hat=0.0, deltas="0.02,0.01", n=30,
                      cells=512, seeds=10, phi0="half") -> int:
    family = _family(family, kappa, b0)
    deltas = _deltas(deltas)
    _check_balls(family, gamma_hat, deltas)
    phi0 = _phi0(phi0, cells)
    probes = [[perturbation_probe(family, gamma_hat, delta, n, phi0, seq_seed=s)
               for s in range(seeds)] for delta in deltas]
    curves = np.array([[probe.curve for probe in row] for row in probes])
    mean_curve, spread = curves.mean(axis=1), curves.std(axis=1)
    d, k = np.indices(mean_curve.shape)
    writer.write_csv("perturbation_probe.csv", {
        "delta": np.array(deltas)[d], "n": k, "mean_deviation": mean_curve,
        "seed_spread": spread,
    }, meta={"family": family.name, "gamma_hat": gamma_hat})
    norm_alpha = probes[0][0].norm_alpha   # ||phi0||_alpha in every probe
    writer.write_json("perturbation_fit.json", {
        repr(delta): asdict(fit_decay_envelope(m, norm_alpha))
        for delta, m in zip(deltas, mean_curve)})
    return 0


def random_step_density(n_cells: int, rng: np.random.Generator) -> GridDensity:
    """Random positive step density with eight jumps, mass one."""
    edges = np.sort(rng.integers(0, n_cells, 8))
    levels = rng.uniform(0.2, 2.0, 9)
    vals = np.repeat(levels, np.diff(np.concatenate(([0], edges, [n_cells]))))
    return GridDensity(vals / vals.mean())


EXPERIMENTS = {
    "invariant": run_invariant,
    "stability": run_stability,
    "evolve": run_evolve,
    "adversarial": run_adversarial,
    "birkhoff": run_birkhoff,
    "cone": run_cone,
    "network": run_network,
    "ly-fit": run_ly_fit,
    "perturb-probe": run_perturb_probe,
}


def flags(experiment: str) -> dict:
    """{flag name: default} of an experiment: its runner's keyword parameters."""
    params = inspect.signature(EXPERIMENTS[experiment]).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


def load_config(path: str | None, section: str) -> dict:
    """Key-value config: a [common] section plus one section per experiment.

    Keys are flag names (underscored) and values are converted to the flag's
    type. A key in [<section>] must be a flag of that experiment; a key in
    [common] must be a flag of some experiment, and is skipped by the
    experiments that do not take it.
    """
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file {path!r} not found")
    own = flags(section)
    allowed = {"common": set().union(*map(flags, EXPERIMENTS)),
               section: set(own)}
    cfg = {}
    for sect, keys in allowed.items():
        items = dict(parser.items(sect)) if parser.has_section(sect) else {}
        unknown = sorted(set(items) - keys)
        if unknown:
            raise ConfigError(f"config file {path!r}: unknown keys {unknown} "
                              f"in [{sect}]")
        for key, text in items.items():
            if key not in own:
                continue
            typ = type(own[key])
            try:
                cfg[key] = typ(text)
            except ValueError:
                raise ConfigError(f"config file {path!r}: {key} = {text!r} is "
                                  f"not a valid {typ.__name__}") from None
    return cfg


class _SubcommandParser(argparse.ArgumentParser):
    """Reports a flag its experiment does not take with its own usage line;
    argparse would pass it up to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonstat-dyn",
        description="Transfer-operator experiments for nonautonomously "
                    "perturbed expanding maps")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                parser_class=_SubcommandParser)
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        for flag, default in flags(kind).items():
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                           type=type(default), default=argparse.SUPPRESS,
                           help=f"default {default!r}")
    return parser


def run(experiment: str, cfg: dict, outdir: str) -> int:
    for key, value in {**flags(experiment), **cfg}.items():
        if key in BOUNDS:
            _check(key, value, *BOUNDS[key])
    writer = ArtifactWriter(outdir, {"experiment": experiment, **cfg})
    start, cpu_start = time.perf_counter(), time.process_time()
    status = EXPERIMENTS[experiment](writer, **cfg)
    writer.timings["total"] = round(1000.0 * (time.perf_counter() - start), 3)
    writer.timings["cpu"] = round(1000.0 * (time.process_time() - cpu_start), 3)
    writer.finish()
    return status


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    experiment = args.pop("experiment")
    config, out = args.pop("config"), args.pop("out")
    try:
        cfg = {**load_config(config, experiment), **args}
        out_root = os.environ.get(ENV_OUT_ROOT, ".")
        outdir = out or os.path.join(out_root, f"out-{experiment}")
        return run(experiment, cfg, outdir)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
