"""Command-line front end: reproducible runs, sweeps, and evaluations.

Subcommands
-----------
simulate   build one enhanced configuration model and measure reach
sweep      vary the transmission parameter over a grid; write one CSV row
           per grid point with simulated, plug-in, and closed-form fractions
analytic   closed-form conditions, roots, fractions, and the offspring process
evaluate   campaign decision procedure on a pioneer CSV

Every output embeds the full run configuration and seed.  Configuration can
come from a flat key=value file (``--config``); explicit flags override it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
import typing
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .analytic import RootBracketingError, analyze, bernoulli_threshold, mean_offspring
from .diffusion import DEFAULT_FLOOR, DEFAULT_GAMMA, all_reach
from .estimators import DEFAULT_Z, evaluate_campaign, load_sample_csv
from .graph import build, write_edgelist
from .populations import (
    BernoulliTransmission,
    CouponCollector,
    EmpiricalDegree,
    JointDegreeLaw,
    NodePercolation,
    PoissonDegree,
    PowerLawDegree,
)

SCHEMA_VERSION = 1
#: Most points a sweep grid may hold.
MAX_GRID_POINTS = 10_000

__all__ = ["RunConfig", "main"]


@dataclass
class RunConfig:
    """Everything needed to reproduce a run.

    Units: ``lam``/``beta`` parametrize the degree law (dimensionless),
    ``p`` is a probability, ``K`` a message count, ``n`` a node count,
    ``grid`` spans the transmission parameter as (start, stop, step).
    """

    degree: str = "poisson"
    lam: float = 2.0
    beta: float = 2.45
    degree_file: Optional[str] = None
    trans: str = "bernoulli"
    p: float = 0.8
    K: int = 2
    n: int = 1000
    seed: int = 0
    grid: Optional[tuple[float, float, float]] = None
    gamma: float = DEFAULT_GAMMA
    floor: float = DEFAULT_FLOOR
    z: float = DEFAULT_Z
    cost_per_pioneer: Optional[float] = None
    value_per_influenced: Optional[float] = None
    out: str = "."
    dump_graph: bool = False

    def validate(self) -> None:
        """Reject a malformed field, naming it.  The degree-law and
        transmission fields are checked where the law is built
        (:func:`make_degree_law`, :func:`make_transmission`); ``evaluate``
        builds none."""
        if self.n < 1:
            raise ValueError("n: need at least one node")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma: must lie in (0, 1]")
        if not 0.0 <= self.floor < 1.0:
            raise ValueError("floor: must lie in [0, 1)")
        if not (math.isfinite(self.z) and self.z >= 0.0):
            raise ValueError(f"z: must be finite and non-negative, got {self.z}")
        for name in ("cost_per_pioneer", "value_per_influenced"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name}: must be finite, got {value}")

    # -- file round trip ----------------------------------------------------

    def to_file(self, path) -> None:
        with open(path, "w") as fh:
            for f in dataclasses.fields(self):
                value = getattr(self, f.name)
                if value is None:
                    continue
                if f.name == "grid":
                    value = f"{value[0]}:{value[1]}:{value[2]}"
                fh.write(f"{f.name}={value}\n")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        types = _field_types(cls)
        cfg = cls()
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = (s.strip() for s in line.split("=", 1))
                if key == "grid":
                    try:
                        setattr(cfg, key, _parse_grid(value))
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from None
                    continue
                if key not in types:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                typ = types[key]
                if typ is bool:
                    if value.lower() not in _BOOLS:
                        raise ValueError(
                            f"{path}:{lineno}: {key}: expected one of {'/'.join(_BOOLS)}, "
                            f"got {value!r}"
                        )
                    setattr(cfg, key, _BOOLS[value.lower()])
                elif typ is str:
                    setattr(cfg, key, value.strip("'\""))
                else:
                    try:
                        setattr(cfg, key, typ(value))
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
        return cfg

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["grid"] is not None:
            out["grid"] = list(out["grid"])
        return out


#: Accepted spellings of a boolean config value, in any case.
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _field_types(cls) -> dict:
    """Field name -> scalar type of a dataclass, with ``Optional`` unwrapped."""
    hints = typing.get_type_hints(cls)
    types = {}
    for f in dataclasses.fields(cls):
        typ = hints[f.name]
        if typing.get_origin(typ) is typing.Union:
            (typ,) = (a for a in typing.get_args(typ) if a is not type(None))
        types[f.name] = typ
    return types


def _parse_grid(text: str) -> tuple[float, float, float]:
    try:
        start, stop, step = (float(s) for s in text.split(":"))
    except ValueError:  # not three parts, or a part that is not a number
        start = stop = step = math.nan
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0 and stop >= start):
        raise ValueError(f"grid: {text!r}: need finite start:stop:step, start <= stop, step > 0")
    # the count _grid_values builds; an overflowing span is inf
    span = (stop - start) / step
    points = int(round(span)) + 1 if math.isfinite(span) else math.inf
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid: {text!r}: {points} points, more than {MAX_GRID_POINTS}")
    return start, stop, step


def make_degree_law(cfg: RunConfig):
    if cfg.degree == "poisson":
        return PoissonDegree(cfg.lam)
    if cfg.degree == "powerlaw":
        return PowerLawDegree(cfg.beta)
    if cfg.degree != "empirical":
        raise ValueError(f"degree: unknown law {cfg.degree!r}")
    if not cfg.degree_file:
        raise ValueError("degree_file: required for the empirical degree law")
    try:
        with warnings.catch_warnings():
            # an empty file warns here; from_degrees names the problem below
            warnings.simplefilter("ignore", UserWarning)
            degrees = np.loadtxt(cfg.degree_file, dtype=np.int64, ndmin=1)
        return EmpiricalDegree.from_degrees(degrees)
    except (ValueError, OSError) as exc:
        raise ValueError(f"degree_file: {cfg.degree_file}: {exc}") from None


def make_transmission(cfg: RunConfig):
    if cfg.trans == "bernoulli":
        return BernoulliTransmission(cfg.p)
    if cfg.trans == "nodeperc":
        return NodePercolation(cfg.p)
    if cfg.trans == "coupon":
        return CouponCollector(cfg.K)
    raise ValueError(f"trans: unknown transmission model {cfg.trans!r}")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, cfg: RunConfig, header: list[str], rows) -> None:
    """A CSV output: ``# key=value`` comment lines with the config and the
    schema version, then the ``header`` row and the data ``rows``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for key, val in sorted(cfg.to_dict().items()):
            fh.write(f"# {key}={val}\n")
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _node_memory(n: int):
    """Turn a failed allocation into a ``ValueError`` naming ``n``."""
    try:
        yield
    except MemoryError as exc:
        raise ValueError(f"n: {n} nodes do not fit in memory: {exc}") from None


def cmd_simulate(cfg: RunConfig) -> list[Path]:
    law = JointDegreeLaw(make_degree_law(cfg), make_transmission(cfg))
    rng = np.random.default_rng(cfg.seed)
    with _node_memory(cfg.n):
        sample = law.sample(cfg.n, rng)
        g = build(sample, rng)
        del sample
        g.seed = cfg.seed
        outcome = all_reach(g, cfg.gamma, cfg.floor)

    out_dir = Path(cfg.out)
    outcome_path = out_dir / "outcome.json"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        **outcome.to_dict(),
    }
    _write_json(outcome_path, payload)

    hist_path = out_dir / "reach_histogram.csv"
    histogram = [[f"{frac:.10g}", count] for frac, count in payload["histogram"]]
    _write_csv(hist_path, cfg, ["reach_fraction", "count"], histogram)
    written = [outcome_path, hist_path]

    if cfg.dump_graph:
        graph_path = out_dir / "influence_arcs.txt"
        write_edgelist(g, graph_path)
        written.append(graph_path)
    return written


def _grid_values(cfg: RunConfig):
    if cfg.grid is None:
        raise ValueError("grid: required for sweep (use --grid start:stop:step)")
    start, stop, step = cfg.grid
    count = int(round((stop - start) / step)) + 1
    values = [start + i * step for i in range(count) if start + i * step <= stop + 1e-12]
    if cfg.trans == "coupon":
        ints = [int(round(v)) for v in values]
        if any(abs(v - i) > 1e-9 or i < 0 for v, i in zip(values, ints)):
            raise ValueError("grid: coupon sweeps need non-negative integer K values")
        return ints
    if not all(0.0 <= v <= 1.0 for v in values):
        raise ValueError("grid: transmission probabilities must lie in [0, 1]")
    return values


def cmd_sweep(cfg: RunConfig) -> list[Path]:
    # the base law checks every field, the swept p or K included
    base = JointDegreeLaw(make_degree_law(cfg), make_transmission(cfg))
    values = _grid_values(cfg)
    # every point's law and closed form first: a bad point fails before any graph is built
    field = "K" if cfg.trans == "coupon" else "p"
    laws = [replace(base, transmission=make_transmission(replace(cfg, **{field: v}))) for v in values]
    closed_forms = [analyze(law) for law in laws]
    rows = []
    for idx, (value, law, ana) in enumerate(zip(values, laws, closed_forms)):
        rng = np.random.default_rng(cfg.seed ^ idx)
        with _node_memory(cfg.n):
            sample = law.sample(cfg.n, rng)
            g = build(sample, rng)
            outcome = all_reach(g, cfg.gamma, cfg.floor)
        est = analyze(sample)
        rows.append(
            {
                "param": value,
                "alpha_sim": outcome.alpha_hat_sim,
                "alpha_bar_sim": outcome.alpha_bar_hat_sim,
                "alpha_semianalytic": est.alpha,
                "alpha_bar_semianalytic": est.alpha_bar,
                "alpha_analytic": ana.alpha,
                "alpha_bar_analytic": ana.alpha_bar,
            }
        )

    sweep_path = Path(cfg.out) / "sweep.csv"
    _write_csv(sweep_path, cfg, list(rows[0]), [list(row.values()) for row in rows])
    return [sweep_path]


def cmd_analytic(cfg: RunConfig) -> list[Path]:
    law = JointDegreeLaw(make_degree_law(cfg), make_transmission(cfg))
    result = analyze(law)
    mean_off = mean_offspring(law.moments())
    # the offspring process survives iff the law is viral; its extinction
    # probability is the zero of Hbar, and 1 - G_Dt there is alpha_bar
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "result": result.to_dict(),
        "branching": {
            "supercritical": result.viral_condition,
            "mean_offspring": mean_off if math.isfinite(mean_off) else "divergent",
            "p_ext": result.xi_bar if result.viral_condition else 1.0,
            "alpha_bar_bp": result.alpha_bar,
        },
    }
    if cfg.trans in ("bernoulli", "nodeperc"):
        payload["bernoulli_threshold"] = bernoulli_threshold(law.degree)
    path = Path(cfg.out) / "analysis.json"
    _write_json(path, payload)
    return [path]


def cmd_evaluate(csv_path: str, cfg: RunConfig) -> list[Path]:
    sample = load_sample_csv(csv_path)
    report = evaluate_campaign(sample, cfg.z, cfg.cost_per_pioneer, cfg.value_per_influenced)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "input_csv": str(csv_path),
        "report": report.to_dict(),
    }
    path = Path(cfg.out) / "evaluation.json"
    _write_json(path, payload)
    return [path]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("--degree", choices=["poisson", "powerlaw", "empirical"])
    parser.add_argument("--lambda", dest="lam", type=float, help="Poisson mean degree")
    parser.add_argument("--beta", type=float, help="power-law exponent (> 2)")
    parser.add_argument("--degree-file", dest="degree_file", help="one degree per line")
    parser.add_argument("--trans", choices=["bernoulli", "nodeperc", "coupon"])
    parser.add_argument("--p", type=float, help="transmission probability")
    parser.add_argument("--K", type=int, help="coupon-collector message count")
    parser.add_argument("--n", type=int, help="number of nodes / pioneers")
    parser.add_argument("--seed", type=int, help="RNG seed")
    parser.add_argument("--grid", help="sweep grid start:stop:step")
    parser.add_argument("--gamma", type=float, help="good-pioneer cutoff vs max reach")
    parser.add_argument("--floor", type=float, help="good-pioneer cutoff vs population")
    parser.add_argument("--z", type=float, help="confidence multiplier for the tests")
    parser.add_argument("--cost-per-pioneer", dest="cost_per_pioneer", type=float)
    parser.add_argument("--value-per-influenced", dest="value_per_influenced", type=float)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--dump-graph", dest="dump_graph", action="store_true", default=None)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, _parse_grid(value) if f.name == "grid" else value)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viralcm",
        description="Influence diffusion on enhanced configuration models",
    )
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "build a graph and measure per-pioneer reach"),
        ("sweep", "sweep the transmission parameter over a grid"),
        ("analytic", "closed-form conditions, roots, and fractions"),
        ("evaluate", "campaign decision procedure on a pioneer CSV"),
    ]:
        p = sub.add_parser(name, help=help_text, parents=[common])
        if name == "evaluate":
            p.add_argument("csv", help="pioneer data: degree,transmitter_degree")

    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        cfg.validate()
        if args.command == "simulate":
            written = cmd_simulate(cfg)
        elif args.command == "sweep":
            written = cmd_sweep(cfg)
        elif args.command == "analytic":
            written = cmd_analytic(cfg)
        else:
            written = cmd_evaluate(args.csv, cfg)
    except (ValueError, OSError, RootBracketingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
