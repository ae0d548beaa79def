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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import analyze
from .populations import DegreeSample

__all__ = [
    "ConditionTest",
    "EstimationReport",
    "fragmentation_test",
    "effectiveness_test",
    "evaluate_campaign",
    "load_sample_csv",
    "write_sample_csv",
]

DEFAULT_Z = 2.33
#: Tries k up to which a viable verdict reports the success probability.
SUCCESS_HORIZON = 10

CSV_HEADER = ["degree", "transmitter_degree"]

_BOM = b"\xef\xbb\xbf"
#: The only bytes a data line may hold; a file holding any other byte is
#: checked line by line.
_DATA_BYTES = b"0123456789,\r\n"
_DATA_ROW = re.compile(rb"([0-9]+),([0-9]+)")
_INT64_MAX = np.iinfo(np.int64).max
#: Bytes read at a time by the parser.
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
    # int64 d is cast to float64 inside each ufunc loop, with no float copy held
    d, t = sample.degree, sample.transmitter_degree.astype(np.float64)
    return _mean_test(d * t - d - t, z)


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


def evaluate_campaign(
    sample: DegreeSample,
    z: float = DEFAULT_Z,
    cost_per_pioneer: Optional[float] = None,
    value_per_influenced: Optional[float] = None,
) -> EstimationReport:
    """Run fragmentation -> effectiveness -> fraction estimation in order.

    Short-circuits to the corresponding verdict when a stage fails.  A
    viable campaign also reports the expected number of uniformly random
    pioneer picks until a good one (1 / alpha_bar), the geometrically
    growing success probability after k tries, 1 - (1 - alpha_bar)^k, for
    k up to ``SUCCESS_HORIZON``, and, when given, the expected cost and
    value rate at ``cost_per_pioneer`` and ``value_per_influenced``.
    """
    frag = fragmentation_test(sample, z)
    eff = effectiveness_test(sample, z)
    base = dict(
        n_samples=len(sample),
        frag_stat=frag.stat,
        frag_stderr=frag.stderr,
        eff_stat=eff.stat,
        eff_stderr=eff.stderr,
        z=z,
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
    curve = [1.0 - (1.0 - est.alpha_bar) ** k for k in range(1, SUCCESS_HORIZON + 1)]
    cost = cost_per_pioneer * tries if cost_per_pioneer is not None else None
    value = value_per_influenced * est.alpha if value_per_influenced is not None else None
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

    The data are read once, ``_READ_BYTES`` at a time, each chunk cut at
    its last LF and checked and decoded by numpy (``_parse_chunk``);
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
        parts, buf = [np.empty((0, 2), np.int8)], bytearray()
        # at the end of the file an LF closes a last line that lacks one
        while block := fh.read(_READ_BYTES) or (b"\n" if buf else b""):
            buf += block
            cut = buf.rfind(b"\n", len(buf) - len(block)) + 1
            if cut:
                parts.append(_parse_chunk(buf[:cut]))
                del buf[:cut]
        if any(p is None for p in parts):
            fh.seek(start)
            raise ValueError(f"{path}: rejected rows:\n" + "\n".join(_rejected_rows(fh)))
    rows = np.concatenate(parts, dtype=np.int64)
    if not rows.size:
        raise ValueError(f"{path}: no data rows")
    return DegreeSample(rows[:, 0], rows[:, 1])


def _parse_chunk(chunk: bytearray) -> Optional[np.ndarray]:
    """The rows of ``chunk``, whole data lines ending in LF; None when a
    line is outside the grammar, holds a value beyond int64 or has t > d."""
    if chunk.translate(None, _DATA_BYTES):
        return None
    a = np.frombuffer(chunk, np.uint8)
    sep = np.flatnonzero(a < 48)  # ',' CR LF
    kind = a[sep]
    comma = kind == 44
    gap = np.diff(sep, prepend=-1)  # one more than the digits before each separator
    field = gap > 1
    after_comma = np.roll(comma, 1)  # the last separator, an LF, wraps to the front
    # a digit run ends at each comma and at the separator after it, and
    # nowhere else; no comma follows a comma; a CR is followed by LF
    bad = (field != (comma | after_comma)) | (comma & after_comma)
    if bad.any() or (a[sep[kind == 13] + 1] != 10).any():
        return None
    ends, lens = sep[field], gap[field] - 1
    value = (a[ends - 1] - 48).astype(np.uint64)
    for place in range(1, min(lens.max(initial=1), 19)):
        live = np.flatnonzero(lens > place)
        # widened first: numpy < 2 keeps uint8 * np.uint64(100) in uint8
        value[live] += (a[ends[live] - 1 - place] - 48).astype(np.uint64) * np.uint64(10**place)
    # places 19 and up may hold leading zeros only; 19 digits stay below
    # 2**64, and beyond INT64_MAX the int64 view is negative
    high = np.flatnonzero(lens > 19)
    bounds = np.stack([ends[high] - lens[high], ends[high] - 19], axis=1).ravel()
    rows = value.view(np.int64).reshape(-1, 2)
    beyond = (np.maximum.reduceat(a, bounds)[::2] > 48).any() or (rows < 0).any()
    if beyond or (rows[:, 1] > rows[:, 0]).any():
        return None
    # narrow parts, widened once by the caller (int64 parts: +7-15 MB VmHWM at 1e6 rows)
    return rows.astype(np.min_scalar_type(-rows.max(initial=0) - 1))


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
