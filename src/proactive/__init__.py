"""Proactive policy enforcement toolkit.

Encodes API correctness policies as edit automata, deploys them as
proactive modules inside a policy enforcer, and heals executions of
simulated faulty apps by suppressing and inserting API calls.
"""

from .automata import (
    ActionSymbol,
    ArgSource,
    BindingContext,
    Diagnostic,
    EditAutomaton,
    EffectSets,
    Event,
    Guard,
    Kind,
    Origin,
    OutputItem,
    Trace,
    Transition,
    is_valid,
    run,
    step,
    validate,
    violations,
)
from .dsl import PolicyDoc, PolicyParseError, parse, serialize
from .enforcer import (
    InterferenceError,
    InterventionRecord,
    PolicyEnforcer,
    ProactiveModule,
)
from .interference import InterferenceReport, check_pair, check_set
from .pack import PolicyPack, load_bundled_pack, load_pack
from .sim import (
    ActivityState,
    Expectation,
    LeakReport,
    ScenarioScript,
    SimWorld,
    run_scenario,
)

__all__ = [
    "ActionSymbol", "ActivityState", "ArgSource", "BindingContext",
    "Diagnostic", "EditAutomaton", "EffectSets", "Event", "Expectation",
    "Guard", "InterferenceError", "InterferenceReport", "InterventionRecord",
    "Kind", "LeakReport", "Origin", "OutputItem", "PolicyDoc",
    "PolicyEnforcer", "PolicyPack", "PolicyParseError", "ProactiveModule",
    "ScenarioScript", "SimWorld", "Trace", "Transition", "check_pair",
    "check_set", "is_valid", "load_bundled_pack", "load_pack",
    "parse", "run", "run_scenario", "serialize", "step", "validate",
    "violations",
]
