from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

from phonotax.errors import (
    BadJudgment,
    DegenerateVariance,
    DuplicateWordId,
    EmptyDocument,
    JoinEmpty,
    LengthMismatch,
)
from phonotax.score import ScoreReport
from phonotax.stats import (
    JudgmentRecord,
    evaluate,
    load_judgments,
    p_two_tailed,
    pearson_r,
    significance_bucket,
    synthetic_judgments,
    t_from_r,
)


def _report(p_word: float) -> ScoreReport:
    # scoring internals are irrelevant here; only the four numbers matter
    return ScoreReport(p_word, math.log(p_word), p_word / 2, p_word * 2, None)


def test_pearson_exact_lines():
    xs = [1.0, 2.0, 3.0, 5.0, 8.0]
    assert pearson_r(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0, abs=1e-15)
    assert pearson_r(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_hand_value():
    # cov = 5.5, var_x = 5, var_y = 8.75, r = 5.5 / sqrt(43.75)
    want = 5.5 / math.sqrt(43.75)
    assert pearson_r((1, 2, 3, 4), (1, 3, 2, 5)) == pytest.approx(want, abs=1e-15)


def test_pearson_vs_scipy():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(3, 40)
        xs = [rng.uniform(-5, 5) for _ in range(n)]
        ys = [rng.uniform(-5, 5) for _ in range(n)]
        assert pearson_r(xs, ys) == pytest.approx(sps.pearsonr(xs, ys).statistic, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(LengthMismatch):
        pearson_r([1, 2, 3], [1, 2])
    with pytest.raises(LengthMismatch):
        pearson_r([1, 2], [1, 2])
    with pytest.raises(DegenerateVariance):
        pearson_r([1, 1, 1], [1, 2, 3])
    with pytest.raises(DegenerateVariance):
        pearson_r([1, 2, 3], [7, 7, 7])


def test_pearson_flat_column_whose_mean_rounds_away():
    # fsum([0.1] * 3) / 3 is not 0.1, so every deviation from the mean is
    # a rounding error; such a column still has zero variance
    with pytest.raises(DegenerateVariance):
        pearson_r([0.1, 0.1, 0.1], [1, 2, 3])
    with pytest.raises(DegenerateVariance):
        pearson_r([1, 2, 3, 4, 5, 6], [0.7] * 6)


@given(
    st.lists(st.floats(-100, 100), min_size=3, max_size=30),
    st.floats(0.1, 50),
    st.floats(-100, 100),
)
def test_pearson_affine_invariance(ys, scale, shift):
    xs = list(range(len(ys)))
    try:
        base = pearson_r(xs, ys)
    except DegenerateVariance:
        return
    scaled = pearson_r([scale * x + shift for x in xs], ys)
    assert scaled == pytest.approx(base, abs=1e-9)
    flipped = pearson_r([-scale * x + shift for x in xs], ys)
    assert flipped == pytest.approx(-base, abs=1e-9)


def test_t_from_r():
    assert t_from_r(0.0, 10) == 0.0
    assert t_from_r(0.5, 27) == pytest.approx(0.5 * math.sqrt(25 / 0.75), abs=1e-15)
    assert t_from_r(1.0, 10) == math.inf
    assert t_from_r(-1.0, 10) == -math.inf
    with pytest.raises(LengthMismatch):
        t_from_r(0.5, 2)


def test_p_two_tailed_fixed_points():
    assert p_two_tailed(0.0, 114) == 1.0
    assert p_two_tailed(50.0, 114) < 1e-6
    assert p_two_tailed(math.inf, 114) == 0.0
    assert p_two_tailed(-3.0, 30) == p_two_tailed(3.0, 30)
    with pytest.raises(ValueError):
        p_two_tailed(1.0, 0)


def test_p_two_tailed_vs_scipy_grid():
    for t in (0.1, 0.5, 1.0, 1.981, 2.5, 3.3, 5.0, 10.0):
        for df in (1, 3, 7, 10, 30, 114, 200):
            want = 2.0 * sps.t.sf(t, df)
            assert p_two_tailed(t, df) == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_p_two_tailed_monotone_in_t():
    prev = 1.0
    for t in [0.1 * k for k in range(1, 80)]:
        cur = p_two_tailed(t, 114)
        assert cur < prev
        prev = cur


def test_critical_value_crossing():
    # two-tailed p hits .05 at the Student-t 97.5% quantile
    lo, hi = 1.5, 2.5
    for _ in range(60):
        mid = (lo + hi) / 2
        if p_two_tailed(mid, 114) > 0.05:
            lo = mid
        else:
            hi = mid
    assert lo == pytest.approx(1.981, abs=1e-3)
    assert lo == pytest.approx(sps.t.ppf(0.975, 114), abs=1e-9)


def test_significance_buckets():
    assert significance_bucket(0.0005) == "p < .001"
    assert significance_bucket(0.005) == "p < .01"
    assert significance_bucket(0.04) == "p < .05"
    assert significance_bucket(0.05) == "n.s."
    assert significance_bucket(0.9) == "n.s."


def test_load_judgments():
    recs = load_judgments("word_id,votes_against\nw1,0\nw2,12\n")
    assert recs == [JudgmentRecord("w1", 0), JudgmentRecord("w2", 12)]
    with pytest.raises(EmptyDocument):
        load_judgments("")
    with pytest.raises(BadJudgment):
        load_judgments("id,votes\nw1,3\n")
    with pytest.raises(BadJudgment):
        load_judgments("word_id,votes_against\nw1,13\n")
    with pytest.raises(BadJudgment):
        load_judgments("word_id,votes_against\nw1,many\n")
    with pytest.raises(DuplicateWordId):
        load_judgments("word_id,votes_against\nw1,3\nw1,4\n")


def test_judgment_record_range():
    with pytest.raises(ValueError):
        JudgmentRecord("w", 13)
    with pytest.raises(ValueError):
        JudgmentRecord("w", -1)


def _fixture_reports():
    ps = [0.2, 0.1, 0.05, 0.01, 0.004, 0.001]
    return [(f"w{i}", _report(p)) for i, p in enumerate(ps)]


def test_evaluate_joins_and_orders():
    reports = _fixture_reports()
    judgments = [JudgmentRecord(f"w{i}", v) for i, v in enumerate((1, 2, 4, 7, 9, 12))]
    results, scatter = evaluate(reports, judgments)
    assert [r.method for r in results] == [
        "p(word)", "ln p(word)", "p(worst part)", "p(best part)",
    ]
    assert all(r.n == 6 and r.df == 4 for r in results)
    assert all(-1 <= r.r <= 1 and 0 <= r.p <= 1 for r in results)
    # probabilities fall as votes rise
    assert results[0].r < 0
    assert [wid for wid, _, _ in scatter] == [wid for wid, _ in reports]
    assert [v for _, _, v in scatter] == [1, 2, 4, 7, 9, 12]


def test_evaluate_join_is_partial():
    reports = _fixture_reports()
    judgments = [JudgmentRecord("w0", 1), JudgmentRecord("w2", 5), JudgmentRecord("w5", 9),
                 JudgmentRecord("zzz", 3)]
    results, scatter = evaluate(reports, judgments)
    assert results[0].n == 3
    assert [wid for wid, _, _ in scatter] == ["w0", "w2", "w5"]


def test_evaluate_errors():
    reports = _fixture_reports()
    with pytest.raises(JoinEmpty):
        evaluate(reports, [JudgmentRecord("other", 3)])
    with pytest.raises(JoinEmpty):
        evaluate(reports[:2], [JudgmentRecord("w0", 1), JudgmentRecord("w1", 2)])
    with pytest.raises(DuplicateWordId):
        evaluate(reports + [reports[0]], [JudgmentRecord("w0", 1)])
    flat = [JudgmentRecord(f"w{i}", 6) for i in range(6)]
    with pytest.raises(DegenerateVariance):
        evaluate(reports, flat)


def test_evaluate_keeps_methods_beside_a_flat_column():
    ps = [0.2, 0.1, 0.05, 0.01, 0.004, 0.001]
    # every word's worst part is the same path: that score column never varies
    reports = [(f"w{i}", ScoreReport(p, math.log(p), 0.1, p * 2, None)) for i, p in enumerate(ps)]
    votes = (1, 2, 4, 7, 9, 12)
    judgments = [JudgmentRecord(f"w{i}", v) for i, v in enumerate(votes)]
    results, scatter = evaluate(reports, judgments)
    assert [r.method for r in results] == [
        "p(word)", "ln p(word)", "p(worst part)", "p(best part)",
    ]
    worst = results[2]
    assert (worst.r, worst.t, worst.p, worst.significant_at) == (None, None, None, "undefined")
    assert (worst.n, worst.df) == (6, 4)
    floats = [float(v) for v in votes]
    assert results[0].r == pearson_r(ps, floats)
    assert results[1].r == pearson_r([math.log(p) for p in ps], floats)
    assert results[3].r == pearson_r([p * 2 for p in ps], floats)
    assert len(scatter) == 6


def test_evaluate_flat_votes_raise_even_when_every_score_is_flat():
    reports = [(f"w{i}", _report(0.1)) for i in range(4)]
    with pytest.raises(DegenerateVariance):
        evaluate(reports, [JudgmentRecord(f"w{i}", 6) for i in range(4)])


def test_evaluate_invariant_under_relabeling():
    reports = _fixture_reports()
    judgments = [JudgmentRecord(f"w{i}", v) for i, v in enumerate((1, 2, 4, 7, 9, 12))]
    renamed_reports = [(f"x-{wid}", rep) for wid, rep in reports]
    renamed_judgments = [JudgmentRecord(f"x-{r.word_id}", r.votes_against) for r in judgments]
    a, _ = evaluate(reports, judgments)
    b, _ = evaluate(renamed_reports, renamed_judgments)
    assert a == b


def test_synthetic_judgments_deterministic():
    reports = _fixture_reports()
    a = synthetic_judgments(reports, seed=11)
    b = synthetic_judgments(reports, seed=11)
    c = synthetic_judgments(reports, seed=12)
    assert a == b
    assert a != c
    assert all(0 <= rec.votes_against <= 12 for rec in a)
    assert [rec.word_id for rec in a] == [wid for wid, _ in reports]


def test_synthetic_judgments_track_log_probability():
    rng = random.Random(8)
    reports = [(f"w{i}", _report(math.exp(-rng.uniform(1, 30)))) for i in range(100)]
    judgments = synthetic_judgments(reports, seed=4)
    r = pearson_r([rep.ln_p_word for _, rep in reports],
                  [float(j.votes_against) for j in judgments])
    assert r < -0.8  # votes rise as log probability falls
