"""Synthetic generation and the sweep harness."""

import hashlib

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
    load_document,
    replicate,
    sweep_seeds,
    validate,
    write_aggregates_csv,
    write_rows_csv,
)
from streamshare import experiments
from streamshare.cli import main


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
    for seed in (-1, 1.5, True):
        with pytest.raises(ValueError, match=f"seed must be >= 0 and be whole, got {seed}"):
            SynthConfig(5, 3, seed=seed)
    with pytest.raises(ValueError, match="n_users must be >= 1 and be whole, got True"):
        SynthConfig(n_users=True, n_artists=1)


def test_desk_config_shape():
    cfg = desk_config()
    assert (cfg.n_users, cfg.n_artists) == (1000, 100)
    assert cfg.artist_count_range == (1, 10)
    assert DESK_SEEDS == 20 and DESK_K == 10


@pytest.mark.parametrize("artists, high", [(20, 10), (3, 3), (10, 10), (150, 10)])
def test_synth_config_default_follow_range_is_gens(tmp_path, artists, high):
    """Without a range, each user follows 1 to min(10, n_artists) artists,
    as in gen without --follow-min/--follow-max: the same catalog."""
    config = SynthConfig(50, artists, seed=4)
    assert config.artist_count_range == (1, high)
    path = tmp_path / "gen.json"
    assert main(["gen", "--users", "50", "--artists", str(artists), "--seed", "4",
                 "--out", str(path)]) == 0
    assert np.array_equal(load_document(path).instance.weights, gen_synthetic(config).weights)


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


def test_alpha_sweep_computes_the_baseline_once_per_alpha(monkeypatch):
    """Four rules at two alphas are five measurements, each of them one pps
    call, and two globalprop baselines, one for each alpha measured at."""
    calls = []
    real = experiments.pps
    monkeypatch.setattr(experiments, "pps",
                        lambda rule, inst: calls.append((rule.value, inst.alpha)) or real(rule, inst))
    alpha_sweep(gen_synthetic(_small()), ["globalprop", "userprop", "usereq", "scaledup"],
                [0.3, 0.9], k=2)
    assert sorted(calls) == sorted(
        [("globalprop", 0.3)] * 2 + [("userprop", 0.3), ("usereq", 0.3), ("scaledup", 0.3),
                                     ("scaledup", 0.9), ("globalprop", 0.9)])


def test_alpha_sweep_rejects_bad_alphas():
    inst = gen_synthetic(_small())
    with pytest.raises(ValueError):
        alpha_sweep(inst, ["userprop"], [0.3, 1.5], k=2)
    with pytest.raises(ValueError):
        alpha_sweep(inst, ["userprop"], [0.0], k=2)


def test_checked_alphas_refuses_an_empty_list():
    with pytest.raises(ValueError, match="alphas"):
        experiments._checked_alphas([])
    for rules in (["userprop"], ["scaledup"]):
        with pytest.raises(ValueError, match="alphas"):
            alpha_sweep(gen_synthetic(_small()), rules, [], k=2)


def test_alpha_sweep_rejects_callable_rules():
    # a callable may pay amounts that are not linear in alpha, which the
    # sweep's measure-once shortcut assumes
    with pytest.raises(TypeError, match="rule ids"):
        alpha_sweep(gen_synthetic(_small()), ["userprop", lambda w, a: w.sum(-2)], [0.5], k=2)


def test_sweep_seeds_rejects_callable_rules_before_drawing(monkeypatch):
    drawn = []
    real = experiments.gen_synthetic
    monkeypatch.setattr(
        experiments, "gen_synthetic", lambda config: drawn.append(config.seed) or real(config)
    )
    with pytest.raises(TypeError, match="rule ids"):
        sweep_seeds(_small(), ["userprop", lambda w, a: w.sum(-2)], [0.5], k=2, n_seeds=3)
    assert drawn == []


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


# The CSV bytes of a sweep with a repeated alpha and two portioning rules
# (util and indmkt), pinned byte for byte.
PINNED_AGGREGATES = """\
rule,alpha,k,n_seeds,top_median,top_iqr,bottom_median,bottom_iqr,envy_median,envy_iqr
avg,0.2,3,8,1.25559333719,0.0359731835894,0.795044760328,0.0326729086716,1.73853051732,0.269333263259
avg,0.9,3,4,1.25559333719,0.0359731835894,0.795044760328,0.0326729086716,1.73853051732,0.269333263259
avg,1,3,4,1.25559333719,0.0359731835894,0.795044760328,0.0326729086716,1.73853051732,0.269333263259
globalprop,0.2,3,8,1,0,1,0,1,2.22044604925e-16
globalprop,0.9,3,4,1,0,1,0,1,2.22044604925e-16
globalprop,1,3,4,1,0,1,0,1,2.22044604925e-16
indmkt,0.2,3,8,1.26467451207,0.164551045499,0.845947636301,0.0558599829379,1.88186813187,0.481351528906
indmkt,0.9,3,4,1.26467451207,0.164551045499,0.845947636301,0.0558599829379,1.88186813187,0.481351528906
indmkt,1,3,4,1.26467451207,0.164551045499,0.845947636301,0.0558599829379,1.88186813187,0.481351528906
scaledup,0.2,3,8,1,0,1,1.11022302463e-16,1,2.22044604925e-16
scaledup,0.9,3,4,1.18370603487,0.067812782967,0.858835042768,0.0194687956761,1.5004626312,0.115762983303
scaledup,1,3,4,1.25559333719,0.0359731835894,0.795044760328,0.0326729086716,1.73853051732,0.269333263259
userprop,0.2,3,8,1.25559333719,0.0359731835894,0.795044760328,0.0326729086716,1.73853051732,0.269333263259
userprop,0.9,3,4,1.25559333719,0.0359731835894,0.795044760328,0.0326729086716,1.73853051732,0.269333263259
userprop,1,3,4,1.25559333719,0.0359731835894,0.795044760328,0.0326729086716,1.73853051732,0.269333263259
util,0.2,3,8,2.04511395607,0.211762934557,0,0,inf,nan
util,0.9,3,4,2.04511395607,0.211762934557,0,0,inf,nan
util,1,3,4,2.04511395607,0.211762934557,0,0,inf,nan
"""
# sha256 of the rows CSV with its runtime_ms column cut off
PINNED_ROWS_SHA256 = "f9404f2484876c2cba5c85e678b12906dbdfbc5e2324641add341fa5f2d5233e"


def test_sweep_csv_bytes_are_pinned(tmp_path):
    config = SynthConfig(n_users=60, n_artists=12, artist_count_range=(1, 4),
                         stream_lambda=2.5, seed=3)
    rules = ["scaledup", "globalprop", "userprop", "avg", "util", "indmkt"]
    rows = sweep_seeds(config, rules, [0.2, 0.9, 0.2, 1], k=3, n_seeds=4)
    write_aggregates_csv(tmp_path / "aggs.csv", replicate(rows))
    write_rows_csv(tmp_path / "rows.csv", rows)
    assert (tmp_path / "aggs.csv").read_bytes() == PINNED_AGGREGATES.encode()
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    assert len(lines) == 1 + 6 * 4 * 4
    cut = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    assert hashlib.sha256(cut.encode()).hexdigest() == PINNED_ROWS_SHA256
