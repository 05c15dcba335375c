"""BENCH-MCAST — tree replication vs. flat fan-out on the router fabric.

Asserts the ISSUE 10 acceptance criterion directly: a group send to a
256-member group spread over the two-domain topology costs O(tree edges)
physical packets (measured by ``Network.packets_transmitted``), at least
5× fewer than the flat per-member unicast fan-out — and both modes
deliver to the identical member set.  The per-send packet counts are
deterministic, so every group size's (flat, tree, delivered) triple is
pinned exactly.
"""

import pytest

from conftest import run_once
from repro.experiments.multicast_scale import run_multicast_scale


@pytest.mark.benchmark(group="multicast-fabric")
def test_tree_reduction_at_256(benchmark):
    """M=256 on two domains: >=5x fewer packets per send, same delivery."""
    result = run_once(benchmark, run_multicast_scale)

    by_m = {row["members"]: row for row in result.rows}
    row = by_m[256]
    print(
        f"\nM=256: flat={row['flat_tx_per_send']} tree={row['tree_tx_per_send']} "
        f"({row['reduction']:.2f}x), delivered={row['delivered_each']}/send"
    )
    # the counters are deterministic, so they are pinned exactly:
    # (flat, tree, delivered) packets per send at each group size
    assert {
        m: (r["flat_tx_per_send"], r["tree_tx_per_send"], r["delivered_each"]) for m, r in by_m.items()
    } == {16: (102, 39, 16), 64: (408, 87, 64), 256: (1632, 279, 256)}
    # tree cost is exactly one transmission per tree edge
    assert row["tree_tx_per_send"] == row["tree_edges"]
    # the acceptance criterion: >=5x packet reduction at M=256
    assert row["flat_tx_per_send"] >= 5 * row["tree_tx_per_send"]
    # and the gap widens with group size
    reductions = [by_m[m]["reduction"] for m in sorted(by_m)]
    assert reductions == sorted(reductions)
