"""Workload scenarios: TasKy and Wikimedia (the paper's, Section 8), and
the orders scenario the end-to-end benchmark and the soak drive."""

from repro.workloads.orders import OrdersScenario, assign_version_pins, build_orders
from repro.workloads.tasky import TaskyScenario, build_tasky
from repro.workloads.wikimedia import WikimediaScenario, build_wikimedia

__all__ = [
    "TaskyScenario",
    "build_tasky",
    "OrdersScenario",
    "assign_version_pins",
    "build_orders",
    "WikimediaScenario",
    "build_wikimedia",
]
