"""Correlate acceptability scores with human judgments.

Judgments arrive as votes against well-formedness on a 0..12 scale
(six subjects, two runs). Each scoring method is correlated with the
votes by Pearson r, tested by t = r * sqrt(df / (1 - r^2)) with
df = n - 2, and bucketed at the usual two-tailed thresholds. The
two-tailed p comes from the regularized incomplete beta function,
implemented here so p-values stay bit-stable across platforms
(continued fraction, tolerance well inside 1e-12).
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    BadJudgment,
    DegenerateVariance,
    DuplicateWordId,
    EmptyDocument,
    JoinEmpty,
    LengthMismatch,
)
from .score import ScoreReport


@dataclass(frozen=True)
class JudgmentRecord:
    word_id: str
    votes_against: int

    def __post_init__(self) -> None:
        if not 0 <= self.votes_against <= 12:
            raise ValueError("votes_against must lie in 0..12")


JUDGMENT_HEADER = ("word_id", "votes_against")


def load_judgments(document: str) -> list[JudgmentRecord]:
    """Parse the judgments CSV: header ``word_id,votes_against``."""
    reader = csv.reader(io.StringIO(document))
    rows = [row for row in reader if row]
    if not rows:
        raise EmptyDocument("judgments document is empty")
    if tuple(f.strip() for f in rows[0]) != JUDGMENT_HEADER:
        raise BadJudgment(f"header must read {','.join(JUDGMENT_HEADER)!r}, got {rows[0]!r}")
    records: list[JudgmentRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise BadJudgment(f"line {lineno}: expected 2 fields, got {len(row)}")
        word_id = row[0].strip()
        try:
            votes = int(row[1])
        except ValueError:
            raise BadJudgment(f"line {lineno}: votes_against must be an integer") from None
        if not 0 <= votes <= 12:
            raise BadJudgment(f"line {lineno}: votes_against {votes} outside 0..12")
        if word_id in seen:
            raise DuplicateWordId(f"line {lineno}: word id {word_id!r} appears twice")
        seen.add(word_id)
        records.append(JudgmentRecord(word_id, votes))
    return records


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation; requires 3+ points and real spread."""
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} xs vs {len(ys)} ys")
    n = len(xs)
    if n < 3:
        raise LengthMismatch(f"need at least 3 points, got {n}")
    # tested on the values: the mean of equal values need not equal them
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise DegenerateVariance("a variable with zero variance cannot be correlated")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    # r is scale-free, so rescale each spread to a largest deviation of 1:
    # squaring tiny or huge deviations then neither underflows nor overflows
    sx = max(abs(d) for d in dx)
    sy = max(abs(d) for d in dy)
    dx = [d / sx for d in dx]
    dy = [d / sy for d in dy]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def t_from_r(r: float, n: int) -> float:
    """t statistic for r at df = n - 2; |r| = 1 maps to signed infinity."""
    if n < 3:
        raise LengthMismatch(f"need at least 3 points, got {n}")
    if abs(r) >= 1.0:
        return math.copysign(math.inf, r)
    return r * math.sqrt((n - 2) / (1.0 - r * r))


_BETA_EPS = 1e-15
_BETA_FPMIN = 1e-300
_BETA_MAX_ITER = 300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def p_two_tailed(t: float, df: int) -> float:
    """Two-tailed p for a t statistic: I_{df/(df+t^2)}(df/2, 1/2)."""
    if df < 1:
        raise ValueError("df must be at least 1")
    if math.isnan(t):
        raise ValueError("t is not a number")
    if math.isinf(t):
        return 0.0
    return _reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))


def significance_bucket(p: float) -> str:
    if p < 0.001:
        return "p < .001"
    if p < 0.01:
        return "p < .01"
    if p < 0.05:
        return "p < .05"
    return "n.s."


@dataclass(frozen=True)
class CorrelationResult:
    """One method's correlation; r, t and p are None when its scores never vary."""

    method: str
    r: float | None
    n: int
    df: int
    t: float | None
    p: float | None
    significant_at: str


# the four scoring methods, in reporting order
METHODS: tuple[tuple[str, Callable[[ScoreReport], float]], ...] = (
    ("p(word)", lambda rep: rep.p_word),
    ("ln p(word)", lambda rep: rep.ln_p_word),
    ("p(worst part)", lambda rep: rep.p_worst),
    ("p(best part)", lambda rep: rep.p_best),
)


def _check_unique(ids: Sequence[str], what: str) -> None:
    seen: set[str] = set()
    for word_id in ids:
        if word_id in seen:
            raise DuplicateWordId(f"{what} word id {word_id!r} appears twice")
        seen.add(word_id)


def evaluate(
    reports: Sequence[tuple[str, ScoreReport]],
    judgments: Sequence[JudgmentRecord],
) -> tuple[list[CorrelationResult], list[tuple[str, float, int]]]:
    """Correlate each scoring method with votes over the id join.

    Returns the four correlation results plus scatter rows
    (word id, ln p(word), votes) in report order. A method whose scores
    never vary is reported as undefined (r, t and p None) and the others
    are kept. Raises JoinEmpty when fewer than three ids join,
    DuplicateWordId on repeats in either input, and DegenerateVariance
    when the votes never vary.
    """
    _check_unique([wid for wid, _ in reports], "report")
    _check_unique([rec.word_id for rec in judgments], "judgment")
    votes_by_id = {rec.word_id: rec.votes_against for rec in judgments}
    joined = [(wid, rep, votes_by_id[wid]) for wid, rep in reports if wid in votes_by_id]
    if len(joined) < 3:
        raise JoinEmpty(f"only {len(joined)} ids joined; need at least 3")
    votes = [float(v) for _, _, v in joined]
    if min(votes) == max(votes):
        raise DegenerateVariance("votes never vary, so no score can be correlated with them")
    n = len(joined)
    results: list[CorrelationResult] = []
    for method, extract in METHODS:
        scores = [extract(rep) for _, rep, _ in joined]
        if min(scores) == max(scores):
            results.append(CorrelationResult(method, None, n, n - 2, None, None, "undefined"))
            continue
        r = pearson_r(scores, votes)
        t = t_from_r(r, n)
        p = p_two_tailed(t, n - 2)
        results.append(CorrelationResult(method, r, n, n - 2, t, p, significance_bucket(p)))
    scatter = [(wid, rep.ln_p_word, v) for wid, rep, v in joined]
    return results, scatter


def synthetic_judgments(
    reports: Sequence[tuple[str, ScoreReport]],
    seed: int,
    noise_sd: float = 1.5,
) -> list[JudgmentRecord]:
    """Seeded stand-in votes: a noisy monotone function of -ln p(word).

    Scores are mapped linearly so the least probable word sits at 12
    votes, then Gaussian noise is added and the result clamped to the
    0..12 scale. Deterministic for a given seed.
    """
    xs = [-rep.ln_p_word for _, rep in reports]
    top = max(xs, default=0.0)
    scale = 12.0 / top if top > 0 else 1.0
    rng = random.Random(seed)
    records: list[JudgmentRecord] = []
    for (word_id, _), x in zip(reports, xs):
        raw = scale * x + rng.gauss(0.0, noise_sd)
        records.append(JudgmentRecord(word_id, max(0, min(12, round(raw)))))
    return records
