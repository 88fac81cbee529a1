"""Autoscaling policies: profiled feedback, per-workflow budgeting, scaled supply."""

from .base import Decision, ExecutionPlan, PlanEntry, Policy, PolicyView
from .pfa import PfaConfig, PfaPolicy
from .plan import PlfPolicy, ScfPolicy, build_plan

__all__ = [
    "Decision",
    "ExecutionPlan",
    "PfaConfig",
    "PfaPolicy",
    "PlanEntry",
    "PlfPolicy",
    "Policy",
    "PolicyView",
    "ScfPolicy",
    "build_plan",
]
