#!/usr/bin/env python
"""Chaos drill: a session surviving injected faults, deterministically.

Three workstations collaborate while a seeded fault plan degrades the
deployment — the sender's access link flaps, one client is partitioned
off, another host's SNMP agent crashes, and the LAN suffers burst loss,
payload corruption, a latency spike, and duplication/reordering windows.
The run shows the robustness layer absorbing all of it:

* SNMP retries back off (in virtual time) and the per-agent circuit
  breaker fails fast while an agent is down;
* adaptation falls back to a conservative packet budget when the
  management plane goes dark beyond its stale grace;
* once the faults are over, every peer asks the session for its history
  and gets back what it lost (carol sees the image shared while she was
  partitioned off); then carol leaves, so alice and bob end with all 16
  chat lines and carol with the 15 sent while she was a member;
* the packet-disposition invariant sent == delivered + dropped +
  duplicated holds at the end of the run, and the packet tracer's
  per-flow delivered / dropped counts add up to it;
* re-running with the same seed prints byte-identical telemetry.

Run:  python examples/chaos_drill.py
"""

from repro.experiments.chaos import chaos_telemetry, run_chaos


def main() -> None:
    result = run_chaos(seed=0)
    print(result.format_table())
    print()

    # determinism: the whole drill replays byte-identically under a seed
    first = chaos_telemetry(seed=0)
    second = chaos_telemetry(seed=0)
    print(first)
    print()
    print(
        "replay byte-identical:", first == second
    )


if __name__ == "__main__":
    main()
