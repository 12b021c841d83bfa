"""Shared test infrastructure: two engines fed identically, canonical
state comparison, the nested emission and fault injection.

The soak harness (``benchmarks/soak``) imports the comparison and the
fault injectors from here too.
"""

from tests.testing.compare import assert_states_match, visible_state
from tests.testing.dual import DualSystem
from tests.testing.faults import InjectedFault, RandomFaultInjector, one_shot, parse_fault_spec
from tests.testing.nested import NestedEmissionBackend

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
