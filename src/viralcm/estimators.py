"""Campaign evaluation from pioneer data alone.

Given the (degree, transmitter degree) pairs collected from the initially
contacted pioneers, and no further knowledge of the network, decide in
three stages whether the campaign is worth pursuing:

1. fragmentation: is E[D^2 - 2D] sharply positive?  Otherwise the network
   has no linear-size connected component and nothing can go viral.
2. effectiveness: is E[D D(t) - D - D(t)] sharply positive?  This is the
   viral condition for the ongoing campaign.
3. plug-in fractions: zeros of the estimated H and Hbar give the expected
   influenced fraction and the chance that a random pioneer is good.

"Sharply positive" is a one-sided z-test at a configurable confidence
multiplier (default z = 2.33, about 99%).
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import analyze
from .populations import DegreeSample

__all__ = [
    "ConditionTest",
    "EvalConfig",
    "EstimationReport",
    "fragmentation_test",
    "effectiveness_test",
    "evaluate_campaign",
    "load_sample_csv",
    "write_sample_csv",
]

DEFAULT_Z = 2.33

CSV_HEADER = ["degree", "transmitter_degree"]

_BOM = b"\xef\xbb\xbf"
#: The only bytes a data line may hold.  numpy's integer parser also takes
#: spaces, tabs and signs, so a file holding any other byte is not parsed
#: by numpy but checked line by line.
_DATA_BYTES = b"0123456789,\r\n"
_DATA_ROW = re.compile(rb"([0-9]+),([0-9]+)")
_INT64_MAX = np.iinfo(np.int64).max
#: Bytes read at a time by the data-byte check.
_READ_BYTES = 1 << 18
#: Longest first line read as the header.
_HEADER_BYTES = 1 << 10
#: Rows formatted per ``write`` call by ``write_sample_csv``.
_WRITE_ROWS = 1 << 16


@dataclass(frozen=True)
class ConditionTest:
    """One-sided test of a moment being sharply positive."""

    stat: float
    stderr: float
    z: float

    @property
    def passed(self) -> bool:
        return self.stat - self.z * self.stderr > 0.0


def _mean_test(values: np.ndarray, z: float) -> ConditionTest:
    n = values.size
    if n < 2:
        raise ValueError("need at least two pioneers")
    stderr = float(values.std(ddof=1)) / math.sqrt(n)
    return ConditionTest(stat=float(values.mean()), stderr=stderr, z=z)


def fragmentation_test(sample: DegreeSample, z: float = DEFAULT_Z) -> ConditionTest:
    """Estimate E[D^2 - 2D] = E[D(D-2)] from the pioneer degrees."""
    d = sample.degree.astype(np.float64)
    return _mean_test(d * d - 2.0 * d, z)


def effectiveness_test(sample: DegreeSample, z: float = DEFAULT_Z) -> ConditionTest:
    """Estimate E[D D(t) - D - D(t)], the viral-condition margin."""
    d = sample.degree.astype(np.float64)
    t = sample.transmitter_degree.astype(np.float64)
    return _mean_test(d * t - d - t, z)


@dataclass(frozen=True)
class EvalConfig:
    """Knobs for the campaign decision procedure."""

    z: float = DEFAULT_Z
    cost_per_pioneer: Optional[float] = None
    value_per_influenced: Optional[float] = None
    success_horizon: int = 10


@dataclass(frozen=True)
class EstimationReport:
    """Outcome of the staged campaign evaluation.

    ``verdict``: "fragmented" (no giant component), "ineffective" (viral
    condition fails), "viable" (both pass, fractions estimated), or
    "inconclusive" (conditions pass but the plug-in roots were not found,
    e.g. on an undersized sample).
    """

    n_samples: int
    frag_stat: float
    frag_stderr: float
    eff_stat: float
    eff_stderr: float
    z: float
    verdict: str
    xi_hat: Optional[float] = None
    xi_bar_hat: Optional[float] = None
    alpha_hat: float = 0.0
    alpha_bar_hat: float = 0.0
    expected_tries: Optional[float] = None
    success_after: Optional[list[float]] = None
    expected_cost_to_viral: Optional[float] = None
    value_rate_per_member: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "fragmentation": {"stat": self.frag_stat, "stderr": self.frag_stderr},
            "effectiveness": {"stat": self.eff_stat, "stderr": self.eff_stderr},
            "z": self.z,
            "verdict": self.verdict,
            "xi_hat": self.xi_hat,
            "xi_bar_hat": self.xi_bar_hat,
            "alpha_hat": self.alpha_hat,
            "alpha_bar_hat": self.alpha_bar_hat,
            "expected_tries": self.expected_tries,
            "success_after": self.success_after,
            "expected_cost_to_viral": self.expected_cost_to_viral,
            "value_rate_per_member": self.value_rate_per_member,
        }


def evaluate_campaign(sample: DegreeSample, config: EvalConfig = EvalConfig()) -> EstimationReport:
    """Run fragmentation -> effectiveness -> fraction estimation in order.

    Short-circuits to the corresponding verdict when a stage fails.  A
    viable campaign also reports the expected number of uniformly random
    pioneer picks until a good one (1 / alpha_bar) and the geometrically
    growing success probability after k tries, 1 - (1 - alpha_bar)^k.
    """
    frag = fragmentation_test(sample, config.z)
    eff = effectiveness_test(sample, config.z)
    base = dict(
        n_samples=len(sample),
        frag_stat=frag.stat,
        frag_stderr=frag.stderr,
        eff_stat=eff.stat,
        eff_stderr=eff.stderr,
        z=config.z,
    )
    if not frag.passed:
        return EstimationReport(verdict="fragmented", **base)
    if not eff.passed:
        return EstimationReport(verdict="ineffective", **base)
    est = analyze(sample)
    fractions = dict(
        xi_hat=est.xi,
        xi_bar_hat=est.xi_bar,
        alpha_hat=est.alpha,
        alpha_bar_hat=est.alpha_bar,
    )
    if est.xi is None or est.xi_bar is None or est.alpha_bar <= 0.0:
        return EstimationReport(verdict="inconclusive", **fractions, **base)
    tries = 1.0 / est.alpha_bar
    curve = [1.0 - (1.0 - est.alpha_bar) ** k for k in range(1, config.success_horizon + 1)]
    cost = config.cost_per_pioneer * tries if config.cost_per_pioneer is not None else None
    value = (
        config.value_per_influenced * est.alpha
        if config.value_per_influenced is not None
        else None
    )
    return EstimationReport(
        verdict="viable",
        **fractions,
        expected_tries=tries,
        success_after=curve,
        expected_cost_to_viral=cost,
        value_rate_per_member=value,
        **base,
    )


def load_sample_csv(path) -> DegreeSample:
    """Read pioneer rows from a "degree,transmitter_degree" CSV.

    The accepted grammar, in bytes: an optional UTF-8 byte-order mark; a
    header line whose comma-separated names, stripped of spaces, are
    ``degree`` and ``transmitter_degree``; then data lines
    ``[0-9]+,[0-9]+`` whose values fit in int64.  Every line ends in LF or
    CRLF; the last line's end is optional.  Empty lines are skipped.  Any
    other data line (a sign, a space, a quote, a non-ASCII digit, a value
    beyond int64) is rejected, as is a transmitter degree exceeding the
    degree; every rejected line is reported with its 1-based line number.

    A file of digits, commas and line ends only is parsed by ``np.loadtxt``;
    Python reads single lines only to describe the rejected ones.
    """
    with open(path, "rb") as fh:
        header = fh.readline(_HEADER_BYTES).removeprefix(_BOM)
        header = header.removesuffix(b"\n").removesuffix(b"\r")
        if b"\r" in header:
            raise ValueError(f"{path}: lone CR line ends are not supported; use LF or CRLF")
        names = header.decode("utf-8", "replace").split(",")
        if [c.strip() for c in names] != CSV_HEADER:
            got = header[:60].decode("utf-8", "replace")
            raise ValueError(f"{path}: expected header '{','.join(CSV_HEADER)}', got {got!r}")
        start = fh.tell()
        rows = None
        chunks = iter(lambda: fh.read(_READ_BYTES), b"")
        if not any(chunk.translate(None, _DATA_BYTES) for chunk in chunks):
            fh.seek(start)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                try:
                    rows = np.loadtxt(fh, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
                except ValueError:
                    pass
        if rows is not None and not rows.size:
            raise ValueError(f"{path}: no data rows")
        if rows is None or rows.shape[1] != 2 or (rows[:, 1] > rows[:, 0]).any():
            fh.seek(start)
            raise ValueError(f"{path}: rejected rows:\n" + "\n".join(_rejected_rows(fh)))
    return DegreeSample(rows[:, 0], rows[:, 1])


def _rejected_rows(fh) -> list[str]:
    """One message per data line of ``fh`` outside the grammar, the first
    line being line 2."""
    errors = []
    for lineno, line in enumerate(fh, start=2):
        line = line.removesuffix(b"\n").removesuffix(b"\r")
        got = line[:40].decode("utf-8", "replace")
        row = _DATA_ROW.fullmatch(line)
        if row is None:
            if line:
                errors.append(f"line {lineno}: expected two fields of digits 0-9, got {got!r}")
            continue
        # 20 significant digits already exceed int64, and int() refuses
        # strings of more than a few thousand digits
        d, t = (int(f.lstrip(b"0")[:20] or b"0") for f in row.groups())
        if max(d, t) > _INT64_MAX:
            errors.append(f"line {lineno}: value beyond int64 in {got!r}")
        elif t > d:
            errors.append(f"line {lineno}: transmitter_degree {t} exceeds degree {d}")
    return errors


def write_sample_csv(sample: DegreeSample, path) -> None:
    """Write ``sample`` in the loader's grammar, with CRLF line ends."""
    d, t = sample.degree, sample.transmitter_degree
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for lo in range(0, d.size, _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            fh.write("".join(map("{},{}\r\n".format, d[lo:hi].tolist(), t[lo:hi].tolist())))
