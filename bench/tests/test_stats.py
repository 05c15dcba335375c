"""The statistics the harness reports: percentile rule, mix-median rate, quiet tenth."""

import pytest

from bench.harness import (
    TARGET_BLOCKS,
    mix_blocks,
    mix_median_rate,
    percentile,
    quiet_op_wall_p50,
    quiet_rate,
    supported_tail,
)


def test_percentile_is_nearest_rank_and_never_interpolates():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 95.0) == 5.0
    assert percentile(values, 1.0) == 1.0
    assert percentile(list(range(1, 201)), 95.0) == 190
    with pytest.raises(ValueError):
        percentile([], 50.0)


@pytest.mark.parametrize(
    "samples, tail",
    [(10, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_supported_tail_needs_ten_samples_beyond_it(samples, tail):
    assert supported_tail(samples) == tail


def test_mix_median_rate_ignores_stalled_ops_and_weighs_heavy_ones():
    mix = [0.001, 0.001, 0.001, 0.010]  # every 4th op is ten times heavier
    steady = mix * 50
    assert mix_median_rate(steady, 4) == pytest.approx(4 / 0.013)
    stalled = list(steady)
    for k in range(0, 200, 5):  # a fifth of the ops preempted, at every position
        stalled[k] += 0.5
    assert mix_median_rate(stalled, 4) == pytest.approx(4 / 0.013)
    assert len(stalled) / sum(stalled) < 10.0  # what a mean would have said
    # the wrong period mixes light and heavy ops at one position: the heavy ones vanish
    assert mix_median_rate(steady, 1) == pytest.approx(1000.0)


def test_mix_median_rate_of_a_run_shorter_than_a_period_is_the_mean():
    assert mix_median_rate([0.001, 0.002, 0.003], 44) == pytest.approx(3 / 0.006)
    with pytest.raises(ValueError):
        mix_median_rate([], 4)


def test_mix_blocks_are_equal_runs_of_whole_periods():
    walls = list(range(1000))
    blocks = mix_blocks(walls, 4)  # 250 periods: 8 to a block
    assert {len(b) for b in blocks} == {32} and len(blocks) == 31 >= TARGET_BLOCKS
    assert [w for b in blocks for w in b] == walls[: 31 * 32]  # the tail is left out
    assert [len(b) for b in mix_blocks(walls[:100], 24)] == [24] * 4  # fewer periods than blocks
    assert mix_blocks(walls[:10], 44) == [walls[:10]]  # shorter than a period: one block


def test_quiet_tenth_survives_a_spell_over_most_of_the_run():
    mix = [0.001, 0.001, 0.001, 0.010]
    quiet = mix * 1500  # 6000 ops: 30 blocks of 50 periods
    assert quiet_rate(quiet, 4) == pytest.approx(4 / 0.013)
    assert quiet_op_wall_p50(quiet, 4) == pytest.approx(0.001)
    # a neighbour doubles every op of the last 85 % of the run
    cut = len(quiet) * 15 // 100
    spell = quiet[:cut] + [2.0 * w for w in quiet[cut:]]
    assert quiet_rate(spell, 4) == pytest.approx(4 / 0.013)
    assert quiet_op_wall_p50(spell, 4) == pytest.approx(0.001)
    assert mix_median_rate(spell, 4) == pytest.approx(4 / 0.026)  # what the whole run says
    # a spell over the whole run is the one thing it cannot see past
    assert quiet_rate([2.0 * w for w in quiet], 4) == pytest.approx(4 / 0.026)
