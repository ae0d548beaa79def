"""Command-line front end: reproducible runs, sweeps, and evaluations (see ``_USAGE``)."""

from __future__ import annotations

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
from .graph import HalfEdgeMemoryError, build, write_edgelist
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
        if self.seed < 0:
            raise ValueError(f"seed: must be non-negative, got {self.seed}")
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
        """Read ``key=value`` lines; a value may be quoted.  Each value goes
        through :func:`_set_field`, the rule for flags too."""
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ValueError(f"{path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        cfg = cls()
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            try:
                _set_field(cfg, key, value.strip("'\""))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cfg

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["grid"] is not None:
            out["grid"] = list(out["grid"])
        return out


#: Accepted spellings of a boolean config value, in any case.
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


#: Field name -> the type its text converts to, ``Optional`` unwrapped; read once, at import.
_FIELD_TYPES = {
    key: typing.get_args(typ)[0] if typing.get_origin(typ) is typing.Union else typ
    for key, typ in typing.get_type_hints(RunConfig).items()
}


def _set_field(cfg: RunConfig, key: str, text: str) -> None:
    """Set ``cfg.<key>`` from ``text``: the one rule for flags and config
    lines.  A bad value raises a ``ValueError`` that starts with ``key:``."""
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown key {key!r}")
    typ = _FIELD_TYPES[key]
    if key == "grid":
        value = _parse_grid(text)
    elif typ is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"{key}: expected one of {'/'.join(_BOOLS)}, got {text!r}")
        value = _BOOLS[text.lower()]
    else:
        try:
            value = typ(text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    setattr(cfg, key, value)


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


#: Transmission model name -> (its class, the ``RunConfig`` field of its parameter).
_TRANSMISSIONS = {
    "bernoulli": (BernoulliTransmission, "p"),
    "nodeperc": (NodePercolation, "p"),
    "coupon": (CouponCollector, "K"),
}


def make_transmission(cfg: RunConfig):
    if cfg.trans not in _TRANSMISSIONS:
        raise ValueError(f"trans: unknown transmission model {cfg.trans!r}")
    cls, field = _TRANSMISSIONS[cfg.trans]
    return cls(getattr(cfg, field))


def _json_value(value, key: str = ""):
    """``value`` as strict JSON holds it: an infinite float becomes
    ``"divergent"``, and a NaN is an error naming its ``key``."""
    if isinstance(value, dict):
        return {k: _json_value(v, k) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v, key) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            raise ValueError(f"{key}: NaN has no JSON spelling")
        return "divergent"
    return value


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    """A JSON output: ``payload`` with the config and the schema version, as
    strict JSON (:func:`_json_value`); nothing is written unless all of it
    serialises."""
    payload = {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(), **payload}
    text = json.dumps(_json_value(payload), indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


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


#: Degree law name -> the ``RunConfig`` field whose law sets the half-edge count.
_DEGREE_FIELDS = {"poisson": "lam", "powerlaw": "beta", "empirical": "degree_file"}


@contextlib.contextmanager
def _graph_memory(cfg: RunConfig):
    """Turn a failed allocation into a ``ValueError`` naming the degree law's
    field when the half-edges do not fit, and ``n`` otherwise."""
    if cfg.n > sys.maxsize // 8:  # numpy refuses such an int64 array without trying
        raise ValueError(f"n: {cfg.n} nodes do not fit in memory: no int64 array is that long")
    try:
        yield
    except HalfEdgeMemoryError as exc:
        raise ValueError(f"{_DEGREE_FIELDS[cfg.degree]}: {exc}") from None
    except MemoryError as exc:
        raise ValueError(f"n: {cfg.n} nodes do not fit in memory: {exc}") from None


def cmd_simulate(cfg: RunConfig) -> list[Path]:
    law = JointDegreeLaw(make_degree_law(cfg), make_transmission(cfg))
    rng = np.random.default_rng(cfg.seed)
    with _graph_memory(cfg):
        g = build(law.sample(cfg.n, rng), rng)  # build holds the only reference and frees it
        outcome = all_reach(g, cfg.gamma, cfg.floor)

    out_dir = Path(cfg.out)
    outcome_path = out_dir / "outcome.json"
    payload = {
        "seed": cfg.seed,
        "n": outcome.reach_sizes.size,
        "alpha_hat_sim": outcome.alpha_hat_sim,
        "alpha_bar_hat_sim": outcome.alpha_bar_hat_sim,
        "good_pioneer_count": outcome.good_pioneers.size,
        "gamma": cfg.gamma,
        "floor": cfg.floor,
        "method": "exact",  # from when large graphs were approximated; kept for readers
        "histogram": outcome.reach_histogram,
    }
    _write_json(outcome_path, cfg, payload)

    hist_path = out_dir / "reach_histogram.csv"
    histogram = [[f"{frac:.10g}", count] for frac, count in payload["histogram"]]
    _write_csv(hist_path, cfg, ["reach_fraction", "count"], histogram)
    written = [outcome_path, hist_path]

    if cfg.dump_graph:
        graph_path = out_dir / "influence_arcs.txt"
        write_edgelist(g, graph_path, cfg.seed)
        written.append(graph_path)
    return written


def _grid_values(cfg: RunConfig):
    if cfg.grid is None:
        raise ValueError("grid: required for sweep (use --grid start:stop:step)")
    start, stop, step = cfg.grid
    count = int(round((stop - start) / step)) + 1
    values = [start + i * step for i in range(count) if start + i * step <= stop + 1e-12]
    if _TRANSMISSIONS[cfg.trans][1] == "K":
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
    field = _TRANSMISSIONS[cfg.trans][1]
    laws = [replace(base, transmission=make_transmission(replace(cfg, **{field: v}))) for v in values]
    closed_forms = [analyze(law) for law in laws]
    rows = []
    for idx, (value, law, ana) in enumerate(zip(values, laws, closed_forms)):
        rng = np.random.default_rng(cfg.seed ^ idx)
        with _graph_memory(cfg):
            sample = [law.sample(cfg.n, rng)]
            est = analyze(sample[0])
            g = build(sample.pop(), rng)  # popped: build holds the only reference and frees it
            outcome = all_reach(g, cfg.gamma, cfg.floor)
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
    # the offspring process survives iff the law is viral; its extinction
    # probability is the zero of Hbar, and 1 - G_Dt there is alpha_bar
    payload = {
        "result": dataclasses.asdict(result),
        "branching": {
            "supercritical": result.viral_condition,
            "mean_offspring": mean_offspring(law.moments()),
            "p_ext": result.xi_bar if result.viral_condition else 1.0,
            "alpha_bar_bp": result.alpha_bar,
        },
    }
    if _TRANSMISSIONS[cfg.trans][1] == "p":  # the probability models have a threshold in p
        payload["bernoulli_threshold"] = bernoulli_threshold(law.degree)
    path = Path(cfg.out) / "analysis.json"
    _write_json(path, cfg, payload)
    return [path]


def cmd_evaluate(csv_path: str, cfg: RunConfig) -> list[Path]:
    sample = load_sample_csv(csv_path)
    report = evaluate_campaign(sample, cfg.z, cfg.cost_per_pioneer, cfg.value_per_influenced)
    payload = {"input_csv": str(csv_path), "report": dataclasses.asdict(report)}
    path = Path(cfg.out) / "evaluation.json"
    _write_json(path, cfg, payload)
    return [path]


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


_COMMANDS = {"simulate": cmd_simulate, "sweep": cmd_sweep, "analytic": cmd_analytic, "evaluate": cmd_evaluate}

_USAGE = """\
usage: viralcm {simulate,sweep,analytic} [--flag VALUE | --flag=VALUE ...]
       viralcm evaluate CSV [--flag VALUE | --flag=VALUE ...]

  simulate   build one enhanced configuration model and measure reach
  sweep      simulated, plug-in and closed-form fractions over a transmission grid
  analytic   closed-form conditions, roots, fractions, and the offspring process
  evaluate   campaign decision procedure on a pioneer CSV (degree,transmitter_degree)

flags, spelled out in full (a repeated flag's last value wins):"""

#: Flag -> (the ``RunConfig`` field it sets, or ``config``; its help text).
#: Each field's flag is ``--<field>`` with ``-`` for ``_``; ``lam``'s is ``--lambda``.
_FLAGS = {
    "--config": ("config", "flat key=value config file; flags override it"),
    "--degree": ("degree", f"degree law: {', '.join(_DEGREE_FIELDS)}"),
    "--lambda": ("lam", "Poisson mean degree"),
    "--beta": ("beta", "power-law exponent (> 2)"),
    "--degree-file": ("degree_file", "one degree per line"),
    "--trans": ("trans", f"transmission model: {', '.join(_TRANSMISSIONS)}"),
    "--p": ("p", "transmission probability"),
    "--K": ("K", "coupon-collector message count"),
    "--n": ("n", "number of nodes / pioneers"),
    "--seed": ("seed", "RNG seed"),
    "--grid": ("grid", "sweep grid start:stop:step"),
    "--gamma": ("gamma", "good-pioneer cutoff vs max reach"),
    "--floor": ("floor", "good-pioneer cutoff vs population"),
    "--z": ("z", "confidence multiplier for the tests"),
    "--cost-per-pioneer": ("cost_per_pioneer", "evaluate: cost of one pioneer"),
    "--value-per-influenced": ("value_per_influenced", "evaluate: value of one influenced member"),
    "--out": ("out", "output directory"),
    "--dump-graph": ("dump_graph", "simulate: write the influence arcs; a switch, or =<bool>"),
}


def _split(argv) -> tuple[str, list[str], RunConfig]:
    """The command, its positional words and its run settings.  A flag takes its
    ``=value`` or else the next word; ``--dump-graph`` alone means true."""
    command = argv[0] if argv else ""
    if command not in _COMMANDS:
        raise ValueError(f"command: expected one of {', '.join(_COMMANDS)}, got {command!r}")
    words, texts, positionals = iter(argv[1:]), {}, []
    for word in words:
        flag, eq, text = word.partition("=")
        if not word.startswith("-"):
            positionals.append(word)
            continue
        if flag not in _FLAGS:
            raise ValueError(f"{flag}: unknown flag")
        if not eq:
            text = "true" if flag == "--dump-graph" else next(words, None)
            if text is None:
                raise ValueError(f"{flag}: expected a value")
        texts[_FLAGS[flag][0]] = text
    config = texts.pop("config", None)
    cfg = RunConfig.from_file(config) if config else RunConfig()
    for key, text in texts.items():
        _set_field(cfg, key, text)
    if len(positionals) != (command == "evaluate"):
        wanted = "one" if command == "evaluate" else "no"
        raise ValueError(f"csv: {command} takes {wanted} pioneer CSV, got {positionals}")
    return command, positionals, cfg


def main(argv=None) -> int:
    """0, or 2 after an ``error: …`` line naming the flag or field at fault; never ``SystemExit``."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_USAGE + "".join(f"\n  {flag:<23} {text}" for flag, (_, text) in _FLAGS.items()))
        return 0
    try:
        command, positionals, cfg = _split(argv)
        cfg.validate()
        written = _COMMANDS[command](*positionals, cfg)
    except (ValueError, OSError, RootBracketingError) as exc:
        # every input file names itself in a ValueError, so an OSError is an output's
        print(f"error: {'out: ' if isinstance(exc, OSError) else ''}{exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
