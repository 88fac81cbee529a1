"""wfasim: budget-constrained autoscaling simulator for DAG workflows.

A discrete-event simulator for cloud resources billed in fixed intervals,
three autoscaling policies that decide how many resources of each type a
user's budget should buy each interval, elasticity and slowdown metrics,
and a small integer-programming baseline for desk-size instances.
"""

from .dagops import WorkflowGraph, ideal_makespan, validate_workflow
from .engine import RunResult, poisson_arrivals, run, validate_inputs
from .metrics import ElasticityReport, IntervalSnapshot, elasticity, slowdown, summarize
from .model import (
    BudgetTooSmall,
    BudgetViolation,
    CapacityExceeded,
    ModelError,
    Resource,
    ResourceState,
    ResourceType,
    SystemConfig,
    TaskSpec,
    UserConfig,
    WorkflowSpec,
    WorkloadInvalid,
    ZeroIdealMakespan,
    load_workload,
    save_workload,
)
from .policies import (
    Decision,
    PfaConfig,
    PfaPolicy,
    PlfPolicy,
    Policy,
    PolicyView,
    ScfPolicy,
)
from .state import SystemState

__version__ = "0.1.0"

__all__ = [
    "BudgetTooSmall",
    "BudgetViolation",
    "CapacityExceeded",
    "Decision",
    "ElasticityReport",
    "IntervalSnapshot",
    "ModelError",
    "PfaConfig",
    "PfaPolicy",
    "PlfPolicy",
    "Policy",
    "PolicyView",
    "Resource",
    "ResourceState",
    "ResourceType",
    "RunResult",
    "ScfPolicy",
    "SystemConfig",
    "SystemState",
    "TaskSpec",
    "UserConfig",
    "WorkflowGraph",
    "WorkflowSpec",
    "WorkloadInvalid",
    "ZeroIdealMakespan",
    "elasticity",
    "ideal_makespan",
    "load_workload",
    "poisson_arrivals",
    "run",
    "save_workload",
    "slowdown",
    "summarize",
    "validate_inputs",
    "validate_workflow",
]
