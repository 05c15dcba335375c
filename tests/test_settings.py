"""Settings that no caller varies stay module constants.

Each value below was once a keyword argument that no deployment, figure,
example or workload passed.  The parameter lists of the callables that
took them are pinned here, so such a knob cannot quietly return, and each
constant is pinned to the default the keyword had.  A test that needs
another value patches the constant (``mock.patch.object(module, NAME, v)``).
"""

import ast
import inspect
import textwrap

import pytest

from repro.analysis import policy_lint
from repro.apps.imageviewer import ImageViewer
from repro.core import basestation, concurrency, inference, matching, policies, session, wireless_client
from repro.core.client import WiredClient
from repro.core.framework import CollaborationFramework
from repro.core.handoff import HandoffManager
from repro.hosts import host
from repro.media import ezw, progressive
from repro.messaging.broker import BatchPublishResult, PublishResult
from repro.network import multicast, trace
from repro.wireless import linkquality

PARAMETERS = [
    (
        WiredClient.__init__,
        "self name network group session profile policies contract snmp_host image_target_bpp",
    ),
    (inference.InferenceEngine.__init__, "self policies contract"),
    (inference._snap_packets, "value"),
    (inference._contract_packets, "contract packets"),
    (policies.PolicyDatabase.__init__, "self"),
    (policies.PolicyDatabase.lint, "self contracts"),
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
    (host.SimulatedHost.__init__, "self name scheduler cpu_workload fault_workload interval"),
    (wireless_client.WirelessClient.__init__, "self name network bs_address profile distance tx_power"),
    (ezw.ezw_encode, "coeffs levels max_bits"),
    (ezw.ezw_decode, "encoded"),
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
    (session, "ARCHIVE_CAPACITY", 10_000),
    (concurrency, "MAX_CONFLICTS", 4096),
    (trace, "TRACE_CAPACITY", 100_000),
    (policies, "CONSERVATIVE_PACKETS", 1),
    (matching, "MAX_TRANSFORMS", 2),
    (host, "TOTAL_MEMORY_KIB", 262_144),
    (host, "BASE_PROCESSES", 40),
    (wireless_client, "FULL_BATTERY", 100.0),
    (ezw, "MIN_THRESHOLD", 0.5),
]


@pytest.mark.parametrize("module, name, value", CONSTANTS, ids=[n for _, n, _ in CONSTANTS])
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
