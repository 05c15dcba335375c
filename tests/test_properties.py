"""Cross-cutting property-based tests on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import StepPolicy
from repro.core.state import StateEntry, StateRepository
from repro.media.images import collaboration_scene
from repro.media.progressive import ProgressiveImage, ReceivedImage


class TestStepPolicyProperties:
    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 32)),
            min_size=1,
            max_size=6,
            unique_by=lambda t: t[0],
        ),
        st.integers(0, 32),
        st.floats(-10, 1010, allow_nan=False),
    )
    def test_piecewise_constant_and_total(self, raw_bps, floor, x):
        # integer bounds keep the right-continuity probe (bound - 1e-9)
        # inside the intended band
        bps = sorted(raw_bps)
        policy = StepPolicy("p", "packets", bps, floor=floor)
        value = policy.decide(x)
        legal = {v for _, v in bps} | {float(floor)}
        assert value in legal
        # right-continuity at the bound: at exactly an upper bound the
        # *next* band applies
        for bound, v in bps:
            assert policy.decide(bound - 1e-9) == v

    @settings(max_examples=30)
    @given(st.floats(0, 200, allow_nan=False), st.floats(0, 50, allow_nan=False))
    def test_default_policies_never_increase_with_load(self, x, dx):
        from repro.core.policies import default_cpu_load_policy

        p = default_cpu_load_policy()
        assert p.decide(x) >= p.decide(x + dx)


class TestLwwConvergenceProperty:
    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 3),                      # version
                st.floats(0, 10, allow_nan=False),      # timestamp
                st.sampled_from(["alice", "bob", "carol"]),
            ),
            min_size=1,
            max_size=8,
            unique=True,  # an author never reuses a (version, timestamp)
        ),
        st.randoms(use_true_random=False),
    )
    def test_replicas_converge_for_any_delivery_order(self, updates, rng):
        """N replicas receiving the same update set in different orders
        end with the same winner — the substrate's eventual-consistency
        contract (given each author's clock ticks between its updates)."""
        entries = [
            StateEntry("obj", f"v{i}", v, t, a)
            for i, (v, t, a) in enumerate(updates)
        ]
        winners = []
        for _ in range(4):
            repo = StateRepository()
            shuffled = entries[:]
            rng.shuffle(shuffled)
            for e in shuffled:
                repo.apply_remote(e)
            winners.append(repo.get("obj").value)
        assert len(set(winners)) == 1


class TestProgressivePartitionProperty:
    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([1, 2, 3, 5, 8, 16, 31]))
    def test_packet_bits_partition_stream(self, n_packets):
        prog = ProgressiveImage(
            collaboration_scene(32, 32), n_packets=n_packets, target_bpp=2.0
        )
        pkts = prog.packets()
        assert len(pkts) == n_packets
        assert sum(p.n_bits for p in pkts) == prog.total_bits
        # indices are 0..n-1 exactly once
        assert sorted(p.index for p in pkts) == list(range(n_packets))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 16), st.integers(0, 16))
    def test_more_packets_never_lower_quality(self, k1, k2):
        prog = ProgressiveImage(
            collaboration_scene(32, 32), n_packets=16, target_bpp=2.0
        )
        lo, hi = sorted((k1, k2))
        rx = ReceivedImage(32, 32, 1, prog.levels, prog.t0_exps, 16)
        for p in prog.packets():
            rx.add_packet(p)
        r_lo = rx.report(prog.image, lo)
        r_hi = rx.report(prog.image, hi)
        assert r_hi.bits_used >= r_lo.bits_used
        if r_lo.psnr_db == r_lo.psnr_db and r_hi.psnr_db == r_hi.psnr_db:
            assert r_hi.psnr_db >= r_lo.psnr_db - 0.75
