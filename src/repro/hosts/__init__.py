"""Simulated host substrate: workstation dynamics, workloads, SNMP binding."""

from .host import HostSample, SimulatedHost
from .workload import Constant, Trace, Workload
from .snmp_binding import attach_extension_agent, build_host_mib

__all__ = [
    "HostSample",
    "SimulatedHost",
    "Constant",
    "Trace",
    "Workload",
    "attach_extension_agent",
    "build_host_mib",
]
