"""Shared test infrastructure, importable by suites and harnesses alike.

The soak harness (``repro.soak``) needs the exact same machinery as the
pytest tree — two engines fed identically, canonical state comparison,
fault injection — so it lives here rather than under ``tests/``.
"""

from repro.backend.compare import assert_states_match, visible_state
from repro.testing.dual import DualSystem
from repro.testing.faults import InjectedFault, RandomFaultInjector, one_shot, parse_fault_spec
from repro.testing.nested import NestedEmissionBackend

__all__ = [
    "DualSystem",
    "InjectedFault",
    "NestedEmissionBackend",
    "RandomFaultInjector",
    "assert_states_match",
    "one_shot",
    "parse_fault_spec",
    "visible_state",
]
