"""External-simulator harness: structured outcomes, log parsing, backends."""

from tbforge.sim.outcomes import (
    CaseLine,
    CompileError,
    CoverageReport,
    Report,
    RuntimeAbort,
    SimOutcome,
)
from tbforge.sim.logparse import parse_coverage, parse_sim_log
from tbforge.sim.config import SimulatorConfig
from tbforge.sim.backends import CommandSimulator, MockSimulator, SimulatorBackend

__all__ = [
    "CaseLine",
    "CompileError",
    "CoverageReport",
    "Report",
    "RuntimeAbort",
    "SimOutcome",
    "parse_coverage",
    "parse_sim_log",
    "SimulatorConfig",
    "CommandSimulator",
    "MockSimulator",
    "SimulatorBackend",
]
