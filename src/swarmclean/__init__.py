"""Deterministic headless simulator for cue-driven swarm cleanup experiments."""

from .engine import ConfigError, SimConfig, run_simulation
from .harness import ExperimentPlan, cmd_analyze, cmd_run, cmd_sweep
from .metrics import MetricsSeries

__version__ = "0.1.0"
