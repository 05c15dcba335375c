"""Settings that no caller varies stay module constants.

Each value below was once a keyword argument that no deployment, figure,
example or workload passed.  The parameter lists of the callables that
took them are pinned here, and each constant is pinned to the default the
keyword had.  A test that needs another value patches the constant
(``mock.patch.object(module, NAME, v)``).  The census at the end keeps a
new such keyword from coming in: every defaulted parameter of a public
callable in ``src/repro`` is set by some call in ``src/``, ``bench/`` or
``examples/``, or :data:`KEPT` says why it stays.
"""

import ast
import inspect
import textwrap
from collections import defaultdict
from pathlib import Path

import pytest

from repro.analysis import (
    dataflow,
    hotpath,
    policy_lint,
    repo_lint,
    selector_analysis,
    wirefuzz,
)
from repro.apps.imageviewer import ImageViewer
from repro.core import (
    basestation,
    concurrency,
    inference,
    matching,
    netstate,
    policies,
    session,
    wireless_client,
)
from repro.core.client import WiredClient
from repro.core.framework import CollaborationFramework
from repro.core.handoff import HandoffManager
from repro.experiments import chaos, fig6, fig7, fig8, fig9, fig10, multicast_scale
from repro.hosts import host
from repro.media import describe, ezw, images, metrics, progressive, sketch
from repro.messaging import rtp
from repro.messaging.broker import BatchPublishResult, PublishResult
from repro.network import clock, multicast, trace
from repro.snmp import ber, mib, traps
from repro.wireless import linkquality, powercontrol

ROOT = Path(__file__).resolve().parents[1]

PARAMETERS = [
    (
        WiredClient.__init__,
        "self name network group session profile policies contract snmp_host image_target_bpp",
    ),
    (inference.InferenceEngine.__init__, "self policies contract"),
    (inference._snap_packets, "value"),
    (inference._contract_packets, "contract packets"),
    (policies.PolicyDatabase.__init__, "self"),
    (policy_lint.lint_contract_against, "contract policies"),
    (policy_lint.lint_policy_database, "policies contracts"),
    (progressive.ProgressiveImage.__init__, "self image n_packets target_bpp"),
    (ImageViewer.__init__, "self owner n_packets target_bpp"),
    (ImageViewer.share, "self image_id image"),
    (CollaborationFramework.add_base_station, "self name pathloss noise policies"),
    (CollaborationFramework.add_wireless_client, "self name base_station distance tx_power profile"),
    (HandoffManager.__init__, "self network hysteresis_db"),
    (basestation.BaseStation.__init__, "self name network group session pathloss noise policies"),
    (basestation.BaseStation.couple_channel, "self"),
    (session.SessionArchive.__init__, "self"),
    (concurrency.Arbiter.__init__, "self repository"),
    (trace.PacketTracer.__init__, "self network"),
    (matching.interpret, "selector headers profile"),
    (multicast.MulticastSocket.__init__, "self network host group on_receive"),
    (multicast.MulticastGroup.fan_out, "self data sender"),
    (host.SimulatedHost.__init__, "self name scheduler cpu_workload fault_workload"),
    (wireless_client.WirelessClient.__init__, "self name network bs_address profile distance tx_power"),
    (ezw.ezw_encode, "coeffs levels max_bits"),
    (ezw.ezw_decode, "encoded"),
    # the figures' axes and testbeds
    (fig6.run_fig6, ""),
    (fig7.run_fig7, ""),
    (fig8.run_fig8, ""),
    (fig8.run_fig8_dataflow, ""),
    (fig8.build_two_client_cell, "d_a d_b"),
    (fig9.run_fig9, ""),
    (fig9.run_fig9_scaling, ""),
    (fig10.run_fig10, ""),
    (fig10.solve_join_geometry, "pathloss noise"),
    (multicast_scale.run_multicast_scale, ""),
    (multicast_scale.build_fabric_world, "members"),
    (chaos.run_chaos, "seed"),
    (chaos.chaos_telemetry, "seed"),
    # media, wireless, network, hosts, messaging, SNMP
    (metrics.psnr, "original reconstructed"),
    (metrics.raw_bits, "shape"),
    (metrics.compression_ratio, "bits_used shape"),
    (sketch.Sketch.reduction_factor, "self"),
    (sketch.extract_sketch, "image edge_percentile"),
    (images.to_rgb, "gray"),
    (describe.describe_image, "image"),
    (linkquality.loss_for_sir_db, "sir_db packet_bits coding_gain_db"),
    (powercontrol.utility, "sir_db powers"),
    (clock.SimClock.__init__, "self"),
    (clock.Scheduler.__init__, "self"),
    (rtp.RtpPacketizer.__init__, "self ssrc"),
    (ber.OctetString.text, "self"),
    (mib.MibTree.register_callable, "self oid getter"),
    (netstate.NetworkStateInterface.add_switch_octet_probes, "self element if_index"),
    (netstate.NetworkStateInterface.add_switch_bandwidth_probe, "self element if_index"),
    (CollaborationFramework.add_threshold_trap, "self client parameter threshold"),
    # the analyzer
    (dataflow.compute_return_units, "graph"),
    (dataflow._EscapeAnalyzer.compute, "self"),
    (hotpath.hot_contexts, "graph"),
    (policy_lint.lint_sir_policy, "policy"),
    (wirefuzz.fuzz_pair, "pair seed rounds"),
    (wirefuzz.fuzz_registry, "seed rounds"),
    (selector_analysis.analyze_selector, "selector"),
    (selector_analysis.analyze_selector_set, "selectors"),
    (repo_lint.lint_findings, "source path"),
    (repo_lint.lint_source, "source path ignore"),
]


@pytest.mark.parametrize("func, names", PARAMETERS, ids=[f.__qualname__ for f, _ in PARAMETERS])
def test_parameter_list_is_pinned(func, names):
    assert " ".join(inspect.signature(func).parameters) == names


CONSTANTS = [
    (progressive, "PACKET_COUNTS", (1, 2, 4, 8, 16)),
    (progressive, "FULL_BUDGET", 16),
    (basestation, "RADIO_BANDWIDTH", 1_375_000.0),
    (basestation, "RADIO_LATENCY", 0.002),
    (basestation, "POWER_MARGIN_DB", 3.0),
    (basestation, "MIN_POWER", 0.05),
    (linkquality, "FRAME_BITS", 8000),
    (powercontrol, "RATE_BPS", 10_000.0),
    (powercontrol, "FRAME_LENGTH", 80),
    (powercontrol, "INFO_BITS", 64),
    (session, "ARCHIVE_CAPACITY", 10_000),
    (concurrency, "MAX_CONFLICTS", 4096),
    (trace, "TRACE_CAPACITY", 100_000),
    (policies, "CONSERVATIVE_PACKETS", 1),
    (matching, "MAX_TRANSFORMS", 2),
    (host, "TOTAL_MEMORY_KIB", 262_144),
    (host, "BASE_PROCESSES", 40),
    (wireless_client, "FULL_BATTERY", 100.0),
    (ezw, "MIN_THRESHOLD", 0.5),
    (fig6, "FAULT_LEVELS", (30, 40, 50, 60, 70, 80, 90, 100)),
    (fig6, "IMAGE_SIZE", 64),
    (fig6, "TARGET_BPP", 2.2),
    (fig7, "CPU_LEVELS", (30, 40, 50, 60, 70, 80, 90, 95, 100)),
    (fig7, "IMAGE_SIZE", 64),
    (fig7, "TARGET_BPP", 14.3),
    (fig8, "FAR", 100.0),
    (fig8, "NEAR", 50.0),
    (fig8, "D_B", 80.0),
    (fig8, "POWER", 1.0),
    (fig9, "POWER_STEPS", (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)),
    (fig9, "DISTANCE", 80.0),
    (fig9, "SCALING_FACTOR", 0.5),
    (fig9, "SCALING_DISTANCES", (80.0, 100.0)),
    (fig9, "SCALING_POWER", 2.0),
    (fig10, "D_A", 60.0),
    (fig10, "POWER", 1.0),
    (fig10, "DROP2", 0.90),
    (fig10, "DROP3", 0.23),
    (multicast_scale, "MEMBER_COUNTS", (16, 64, 256)),
    (multicast_scale, "SENDS", 4),
    (chaos, "DURATION", 24.0),
    (metrics, "BITS_PER_SAMPLE", 8),
    (sketch, "SKETCH_SIDE", 32),
    (images, "TINT", (1.0, 0.85, 0.6)),
    (describe, "MAX_REGIONS", 4),
    (linkquality, "LOSS_CAP", 0.98),
    (host, "TICK_INTERVAL", 1.0),
    (rtp, "DEFAULT_MTU", 1400),
    (traps, "CHECK_INTERVAL", 0.5),
    (wirefuzz, "FLIPS_PER_ROUND", 16),
    (selector_analysis, "MAX_CLAUSES", 256),
    (selector_analysis, "MAX_PAIRS", 400),
]


def _constant_id(module, name):
    """The constant's name, led by its module's where two modules share it."""
    shared = sum(n == name for _, n, _ in CONSTANTS) > 1
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}" if shared else name


@pytest.mark.parametrize(
    "module, name, value", CONSTANTS, ids=[_constant_id(m, n) for m, n, _ in CONSTANTS]
)
def test_constant_keeps_the_old_default(module, name, value):
    assert getattr(module, name) == value


def test_one_ladder():
    assert inference._PACKET_STEPS == (0, *progressive.PACKET_COUNTS)
    assert policy_lint.PACKET_STEPS == frozenset(inference._PACKET_STEPS)


def test_radio_links_use_the_one_radio():
    fw = CollaborationFramework("settings")
    bs = fw.add_base_station("bs")
    fw.add_wireless_client("m", bs)
    link = fw.network.link("m", "bs")
    assert (link.bandwidth, link.latency, link.loss) == (
        basestation.RADIO_BANDWIDTH,
        basestation.RADIO_LATENCY,
        0.0,
    )


@pytest.mark.parametrize("cls", [PublishResult, BatchPublishResult])
def test_publish_results_are_not_ints(cls):
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    written = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not {"__int__", "__index__", "__bool__"} & written
    if cls is PublishResult:
        assert not written  # a plain frozen dataclass
    result = PublishResult(1, 0, 2, 3, True)
    assert result != 1 and result == PublishResult(1, 0, 2, 3, True)


# ----------------------------------------------------------------------
# the census: a defaulted parameter some caller sets, or a kept one
# ----------------------------------------------------------------------
#: defaulted parameters that no call in src/, bench/ or examples/ sets,
#: by the reason each group stays a parameter
KEPT = {
    "deployment settings: a deployment provisions its SNMP credentials and"
    " ports, its session group, and the policies and link of each station": (
        "core.framework.CollaborationFramework.__init__(group_address)",
        "core.framework.CollaborationFramework.__init__(group_port)",
        "core.framework.CollaborationFramework.add_wired_client(policies)",
        "core.framework.CollaborationFramework.add_wired_client(link_kwargs)",
        "core.framework.CollaborationFramework.add_base_station(policies)",
        "core.netstate.NetworkStateInterface.__init__(community)",
        "hosts.snmp_binding.attach_extension_agent(read_community)",
        "snmp.agent.SnmpAgent.__init__(port)",
        "snmp.manager.SnmpManager.breaker_state(port)",
        "snmp.manager.SnmpManager.get_scalar(port)",
        "snmp.switch_binding.attach_switch_agent(read_community)",
        "snmp.traps.TrapSender.__init__(community)",
        "snmp.traps.TrapListener.__init__(community)",
    ),
    "safety bounds: a runaway simulation and a hostile BER nesting stop here": (
        "network.clock.Scheduler.run_for(max_events)",
        "snmp.ber.decode(_depth)",
    ),
    "input data, wire fields and codec arguments: what a call is about, not"
    " how the program is tuned": (
        "core.basestation.BaseStation.update_attachment(tx_power)",
        "core.basestation.BaseStation.update_attachment(battery)",
        "core.client.WiredClient.request_history(since)",
        "core.client.WiredClient.request_history(kinds)",
        "core.framework.CollaborationFramework.add_wireless_client(profile)",
        "core.profiles.ClientProfile.__init__(transforms)",
        "media.progressive.ReceivedImage.report(max_packets)",
        "snmp.ber.decode(offset)",
        "snmp.traps.TrapSender.send(uptime_ticks)",
        "wireless.channel.PathLossModel.gain(rng)",
    ),
    "the broker pool's size, which retires with the pool (ROADMAP item 3)": (
        "messaging.sharded.ShardedSemanticBus.__init__(workers)",
    ),
    "the packet tracer's query, which the telemetry spine keeps or deletes"
    " (ROADMAP item 4)": ("network.trace.PacketTracer.top_talkers(n)",),
}


def _defaulted_parameters():
    """``{"module.qualname(param)": (callable name, positional index)}``
    for every defaulted parameter of a public function or method in
    ``src/repro`` (index None: keyword-only).  Calls name a method by its
    own name and a constructor by its class's."""
    out = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src" / "repro").with_suffix("").parts)
        scopes = [(ast.parse(path.read_text()), None)]
        while scopes:
            scope, cls = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((node, node.name))
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name.startswith("_") and not node.name.startswith("__"):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                positional = node.args.posonlyargs + node.args.args
                if cls is not None and not static:
                    positional = positional[1:]
                called = cls if node.name == "__init__" else node.name
                qualname = f"{module}.{cls}.{node.name}" if cls else f"{module}.{node.name}"
                for i, arg in enumerate(positional[len(positional) - len(node.args.defaults):]):
                    index = len(positional) - len(node.args.defaults) + i
                    out[f"{qualname}({arg.arg})"] = (called, index)
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        out[f"{qualname}({arg.arg})"] = (called, None)
    return out


def _calls():
    """Callable name -> ``(positional count, keywords, unpacks)`` of each
    call in src/, bench/ and examples/ (a ``*`` or ``**`` unpack may set
    anything)."""
    out = defaultdict(list)
    for top in ("src", "bench", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords
                )
                out[name].append((len(node.args), {k.arg for k in node.keywords}, unpacks))
    return out


def test_every_default_is_set_by_a_caller_or_kept():
    """A defaulted parameter that no call sets is a setting no one varies:
    make it a module constant, or name it in :data:`KEPT` with a reason.
    The scan matches calls by name only, so it can miss such a knob but
    never flags one a caller sets."""
    calls = _calls()
    unset = set()
    for key, (called, index) in _defaulted_parameters().items():
        param = key[key.index("(") + 1 : -1]
        if not any(
            unpacks or param in keywords or (index is not None and npos > index)
            for npos, keywords, unpacks in calls[called]
        ):
            unset.add(key)
    kept = {key for keys in KEPT.values() for key in keys}
    assert sorted(unset - kept) == [], "a new setting no caller varies"
    assert sorted(kept - unset) == [], "KEPT names a parameter a caller now sets, or one that is gone"
