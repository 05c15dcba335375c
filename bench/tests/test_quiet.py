"""The wait for a quiet host: learns the fastest probe, waits out a spell, is bounded."""

import json

from bench import quiet


def scripted(values):
    it = iter(values)
    return lambda: next(it)


def test_first_run_never_waits_and_records_its_probe(tmp_path):
    state = tmp_path / "out" / "quiet.json"
    slept = []
    got = quiet.wait_for_quiet(state, take_probe=scripted([0.002]), sleep=slept.append)
    assert got == {"probe_s": 0.002, "fastest_s": 0.002, "waited_s": 0.0} and not slept
    assert json.loads(state.read_text()) == {"fastest_s": 0.002, "waited_s": 0.0}


def test_waits_out_a_spell_and_learns_a_faster_host(tmp_path):
    state = tmp_path / "quiet.json"
    state.write_text(json.dumps({"fastest_s": 0.001, "waited_s": 10.0}))
    slept = []
    probes = scripted([0.0019, 0.0016, 0.0012])  # 1.9x, 1.6x, then within QUIET_FACTOR
    got = quiet.wait_for_quiet(state, take_probe=probes, sleep=slept.append)
    assert got["probe_s"] == 0.0012 and got["waited_s"] == 2 * quiet.RETRY_S == sum(slept)
    assert json.loads(state.read_text()) == {"fastest_s": 0.001, "waited_s": 10.0 + 2 * quiet.RETRY_S}
    got = quiet.wait_for_quiet(state, take_probe=scripted([0.0008]), sleep=slept.append)
    assert got["fastest_s"] == 0.0008 and got["waited_s"] == 0.0


def test_the_wait_is_bounded_per_run_and_per_checkout(tmp_path):
    state = tmp_path / "quiet.json"
    state.write_text(json.dumps({"fastest_s": 0.001, "waited_s": 0.0}))
    slept = []
    got = quiet.wait_for_quiet(state, take_probe=lambda: 0.003, sleep=slept.append)
    assert got["waited_s"] == sum(slept) == quiet.MAX_WAIT_PER_RUN_S
    state.write_text(json.dumps({"fastest_s": 0.001, "waited_s": quiet.MAX_WAIT_PER_CHECKOUT_S}))
    got = quiet.wait_for_quiet(state, take_probe=lambda: 0.003, sleep=slept.append)
    assert got["waited_s"] == 0.0  # the checkout's allowance is spent: measure as it is


def test_the_probe_is_a_positive_time_well_under_a_second():
    assert 0.0 < quiet.probe() < 0.1
