"""Synthetic generation and the sweep harness."""

import numpy as np
import pytest

from streamshare import (
    AggregateRow,
    DESK_K,
    DESK_SEEDS,
    SynthConfig,
    alpha_sweep,
    desk_config,
    gen_synthetic,
    replicate,
    sweep_seeds,
    validate,
    write_aggregates_csv,
    write_rows_csv,
)


def _small():
    return SynthConfig(n_users=50, n_artists=8, artist_count_range=(1, 4), seed=2)


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_users=0, n_artists=5)
    with pytest.raises(ValueError):
        SynthConfig(n_users=5, n_artists=5, artist_count_range=(0, 3))
    with pytest.raises(ValueError):
        SynthConfig(n_users=5, n_artists=5, artist_count_range=(2, 9))
    with pytest.raises(ValueError, match="whole"):
        SynthConfig(n_users=5.5, n_artists=5, artist_count_range=(1, 3))
    with pytest.raises(ValueError, match="whole"):
        SynthConfig(n_users=5, n_artists=5, artist_count_range=(1, 2.5))
    with pytest.raises(ValueError):
        SynthConfig(n_users=5, n_artists=5, artist_count_range=(1, 3), stream_lambda=0.0)


def test_desk_config_shape():
    cfg = desk_config()
    assert (cfg.n_users, cfg.n_artists) == (1000, 100)
    assert cfg.artist_count_range == (1, 10)
    assert DESK_SEEDS == 20 and DESK_K == 10


def test_gen_synthetic_is_valid_and_deterministic():
    inst = gen_synthetic(_small())
    validate(inst)
    assert inst.alpha == 1.0
    assert (inst.n_users, inst.n_artists) == (50, 8)
    again = gen_synthetic(_small())
    assert np.array_equal(inst.weights, again.weights)
    other = gen_synthetic(SynthConfig(50, 8, (1, 4), seed=3))
    assert not np.array_equal(inst.weights, other.weights)


def test_gen_synthetic_respects_follow_range():
    inst = gen_synthetic(_small())
    follows = (inst.weights > 0).sum(axis=1)
    assert follows.max() <= 4
    assert follows.min() >= 1


def test_alpha_sweep_rows_and_linearity():
    inst = gen_synthetic(_small())
    rules = ["userprop", "usereq", "scaledup"]
    rows = alpha_sweep(inst, rules, [0.3, 0.9], k=2, seed=2)
    assert len(rows) == 6
    by_rule = {}
    for row in rows:
        by_rule.setdefault(row.rule, []).append(row)
    # alpha cancels out of the ratio metrics for the alpha-linear rules
    for rule in ("userprop", "usereq"):
        a, b = by_rule[rule]
        assert a.top_mean == b.top_mean and a.bottom_mean == b.bottom_mean
    sc = by_rule["scaledup"]
    assert sc[0].alpha == 0.3 and sc[1].alpha == 0.9


def test_alpha_sweep_rejects_bad_alphas():
    inst = gen_synthetic(_small())
    with pytest.raises(ValueError):
        alpha_sweep(inst, ["userprop"], [0.3, 1.5], k=2)
    with pytest.raises(ValueError):
        alpha_sweep(inst, ["userprop"], [0.0], k=2)


def test_alpha_sweep_rejects_callable_rules():
    # a callable may pay amounts that are not linear in alpha, which the
    # sweep's measure-once shortcut assumes
    with pytest.raises(TypeError, match="rule ids"):
        alpha_sweep(gen_synthetic(_small()), ["userprop", lambda w, a: w.sum(-2)], [0.5], k=2)


def test_scaledup_alpha_one_collapses_to_userprop_metrics():
    inst = gen_synthetic(_small())
    rows = alpha_sweep(inst, ["userprop", "scaledup"], [1.0], k=2, seed=2)
    up, sc = rows
    assert abs(up.top_mean - sc.top_mean) < 1e-9
    assert abs(up.bottom_mean - sc.bottom_mean) < 1e-9


def test_sweep_seeds_covers_the_grid():
    rows = sweep_seeds(_small(), ["userprop", "scaledup"], [0.5], k=2, n_seeds=3)
    assert len(rows) == 6
    assert sorted({r.seed for r in rows}) == [2, 3, 4]
    with pytest.raises(ValueError):
        sweep_seeds(_small(), ["userprop"], [0.5], k=2, n_seeds=0)
    with pytest.raises(ValueError, match="whole"):
        sweep_seeds(_small(), ["userprop"], [0.5], k=2, n_seeds=1.5)


def test_replicate_aggregates():
    aggs = replicate(sweep_seeds(_small(), ["userprop", "scaledup"], [0.4, 0.8], k=2, n_seeds=4))
    assert len(aggs) == 4
    assert all(isinstance(a, AggregateRow) for a in aggs)
    assert all(a.n_seeds == 4 and a.k == 2 for a in aggs)
    keys = {(a.rule, a.alpha) for a in aggs}
    assert keys == {("userprop", 0.4), ("userprop", 0.8), ("scaledup", 0.4), ("scaledup", 0.8)}
    for a in aggs:
        assert a.top_iqr >= 0 and a.bottom_iqr >= 0


def test_csv_round_trip(tmp_path):
    rows = sweep_seeds(_small(), ["userprop"], [0.5], k=2, n_seeds=2)
    out = tmp_path / "rows.csv"
    write_rows_csv(out, rows)
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "rule,alpha,seed,k,top_mean,bottom_mean,max_envy,runtime_ms"
    assert len(lines) == 3
    assert "\r" not in text, "LF line endings only"
    first = lines[1].split(",")
    assert first[0] == "userprop" and first[1] == "0.5"
    # 12 significant digits on floats
    assert abs(float(first[4]) - rows[0].top_mean) < 1e-9

    aggs = replicate(sweep_seeds(_small(), ["userprop"], [0.5], k=2, n_seeds=2))
    agg_out = tmp_path / "aggs.csv"
    write_aggregates_csv(agg_out, aggs)
    head = agg_out.read_text().splitlines()[0]
    assert head == "rule,alpha,k,n_seeds,top_median,top_iqr,bottom_median,bottom_iqr,envy_median,envy_iqr"
