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
from .special import _write_rows

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
_DATA_ROW = re.compile(rb"([0-9]+),([0-9]+)")
_INT64_MAX = np.iinfo(np.int64).max
#: Bytes read at a time by the parser.  A chunk's largest temporaries hold
#: 8 bytes per separator, up to 4 bytes per chunk byte on data lines (rows
#: "0,0", CRLF read as LF): 96 KiB here, under glibc malloc's 128 KiB mmap
#: and trim thresholds, so they are reused from the heap; only empty LF
#: lines, a separator each, go past it.  Larger chunks are mapped, unmapped
#: and faulted in afresh every time: at 1e6 rows, 17 000-21 000 minor faults
#: from 40 KiB to 256 KiB, against 1 700 here.
_READ_BYTES = 24 << 10
#: Longest header line, its BOM and line end included.
_HEADER_BYTES = 1 << 10


@dataclass(frozen=True)
class ConditionTest:
    """One-sided test of a moment being sharply positive."""

    stat: float
    stderr: float
    z: float

    @property
    def passed(self) -> bool:
        return self.stat - self.z * self.stderr > 0.0


def _mean_test(values: np.ndarray, counts: np.ndarray, z: float) -> ConditionTest:
    """One-sided test of the mean of ``values`` occurring ``counts`` times,
    both object arrays of ints.  S1 = sum(c v) and S2 = sum(c v^2) are exact,
    so stat = S1 / n and stderr = sqrt(var / n), with the sample variance
    var = (n S2 - S1^2) / (n (n - 1)), are correctly rounded."""
    n = int(counts.sum())
    if n < 2:
        raise ValueError("need at least two pioneers")
    cv = counts * values
    s1, s2 = int(cv.sum()), int((cv * values).sum())
    return ConditionTest(stat=s1 / n, stderr=_sqrt_ratio(n * s2 - s1 * s1, n * n * (n - 1)), z=z)


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded, for ints num >= 0 and den > 0."""
    # the integer root r of num * 4**k / den has at least 55 bits; rounded to
    # odd (its last bit set when inexact), its one rounding to a float,
    # r / 2**k, is the correct rounding of the true root
    k = max(0, den.bit_length() - num.bit_length() + 112) // 2
    num <<= 2 * k
    r = math.isqrt(num // den)
    return (r | (r * r * den != num)) / (1 << k)


def fragmentation_test(sample: DegreeSample, z: float = DEFAULT_Z) -> ConditionTest:
    """Estimate E[D^2 - 2D] = E[D(D-2)] from the pioneer degrees."""
    d, _, counts = (a.astype(object) for a in sample.pairs)
    return _mean_test(d * (d - 2), counts, z)


def effectiveness_test(sample: DegreeSample, z: float = DEFAULT_Z) -> ConditionTest:
    """Estimate E[D D(t) - D - D(t)], the viral-condition margin."""
    d, t, counts = (a.astype(object) for a in sample.pairs)
    return _mean_test(d * t - d - t, counts, z)


@dataclass(frozen=True)
class EstimationReport:
    """Outcome of the staged campaign evaluation.

    ``verdict``: "fragmented" (no giant component), "ineffective" (viral
    condition fails), "viable" (both pass, fractions estimated), or
    "inconclusive" (conditions pass but the plug-in roots were not found,
    e.g. on an undersized sample).
    """

    n_samples: int
    #: {"stat", "stderr"} of each stage's moment test
    fragmentation: dict[str, float]
    effectiveness: dict[str, float]
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
        fragmentation={"stat": frag.stat, "stderr": frag.stderr},
        effectiveness={"stat": eff.stat, "stderr": eff.stderr},
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
    header line of at most ``_HEADER_BYTES`` bytes, its LF included, whose
    comma-separated names, stripped of spaces, are
    ``degree`` and ``transmitter_degree``; then data lines
    ``[0-9]+,[0-9]+`` whose values fit in int64.  Every line ends in LF or
    CRLF; the last line's end is optional.  Empty lines are skipped.  Any
    other data line (a sign, a space, a quote, a non-ASCII digit, a value
    beyond int64) is rejected, as is a transmitter degree exceeding the
    degree; every rejected line is reported with its 1-based line number.
    Grouping the rows into (d, t) pairs by the int64 key d*(T + 1) + t, T
    the largest transmitter degree, needs d*(T + 1) + T < 2**63 at the
    largest degree d; an evaluation past that fails naming the degree.

    The data are read once, ``_READ_BYTES`` at a time, each chunk cut at
    its last LF and checked and decoded by numpy (``_parse_chunk``);
    Python reads single lines only to describe the rejected ones.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    with fh:
        line = fh.readline(_HEADER_BYTES)
        header = line.removeprefix(_BOM).removesuffix(b"\n").removesuffix(b"\r")
        if b"\r" in header:
            raise ValueError(f"{path}: lone CR line ends are not supported; use LF or CRLF")
        if len(line) == _HEADER_BYTES and not line.endswith(b"\n"):
            raise ValueError(f"{path}: header line longer than {_HEADER_BYTES} bytes")
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
    d, t = (np.concatenate([p[:, col] for p in parts], dtype=np.int64) for col in (0, 1))
    if not d.size:
        raise ValueError(f"{path}: no data rows")
    return DegreeSample(d, t)


def _parse_chunk(chunk: bytearray) -> Optional[np.ndarray]:
    """The rows of ``chunk``, whole data lines ending in LF; None when a
    line is outside the grammar, holds a value beyond int64 or has t > d."""
    if b"\r" in chunk:  # memchr; a search for CRLF costs as much as the replace
        chunk = chunk.replace(b"\r\n", b"\n")
    a = np.frombuffer(chunk, np.uint8)
    sep = np.flatnonzero(a - 48 > 9)  # every byte but a digit (below '0' wraps)
    kind = a[sep]
    comma = kind == 44
    lens = np.empty_like(sep)  # the digits before each separator
    lens[0] = sep[0]
    np.subtract(sep[1:], sep[:-1] + 1, out=lens[1:])
    after_comma = np.zeros_like(comma)
    after_comma[1:] = comma[:-1]
    field = lens > 0
    # only commas and LFs (no CR is left); a digit run ends at each comma
    # and at the separator after it, and nowhere else; no comma follows a comma
    bad = (field != (comma | after_comma)) | (comma & after_comma)
    if bad.any() or not (comma | (kind == 10)).all():
        return None
    ends, lens = (sep, lens) if field.all() else (sep[field], lens[field])
    value = (a[ends - 1] - 48).astype(np.uint64)
    top = lens.max(initial=1)
    for place in range(1, min(top, 19)):
        live = np.flatnonzero(lens > place)
        # widened first: numpy < 2 keeps uint8 * np.uint64(100) in uint8
        value[live] += (a[ends[live] - 1 - place] - 48).astype(np.uint64) * np.uint64(10**place)
    rows = value.view(np.int64).reshape(-1, 2)
    # 18 digits stay below 2**63; places 19 and up may hold leading zeros only,
    # 19 digits stay below 2**64, and beyond INT64_MAX the int64 view is negative
    if top >= 19:
        high = np.flatnonzero(lens > 19)
        bounds = np.stack([ends[high] - lens[high], ends[high] - 19], axis=1).ravel()
        if (np.maximum.reduceat(a, bounds)[::2] > 48).any() or (rows < 0).any():
            return None
    if (rows[:, 1] > rows[:, 0]).any():
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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        _write_rows(fh, "{},{}\r\n", sample.degree, sample.transmitter_degree)
