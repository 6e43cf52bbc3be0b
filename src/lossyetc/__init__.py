"""Event-triggered control over lossy ACK-free links: simulation and bounds.

The package simulates linear plants under model-based or zero-order-hold
event-triggered feedback with a bounded-loss network between sensor and
controller, and computes the matching analytical guarantees: the error
amplification factor, a strictly positive minimum inter-event time, and an
exponential stability envelope.

The top level holds the quick-start surface used by the README and the
command line; `lossyetc.<module>` holds the full API.
"""

from .bounds import BoundsError, analyze_scenario, analyze_scenario_zoh, verify_ec_bound
from .numerics import NumericsError
from .scenarios import (
    ScenarioFormatError,
    load_scenario,
    load_trace,
    save_scenario,
    save_trace,
    vehicle_preset,
)
from .simulator import Scenario, SimulationError, simulate, summarize
from .system_model import EstimatorKind, ModelError
from .trigger_channel import ChannelError, ChannelMode, ChannelPolicy

__version__ = "0.1.0"

__all__ = [
    "BoundsError",
    "ChannelError",
    "ChannelMode",
    "ChannelPolicy",
    "EstimatorKind",
    "ModelError",
    "NumericsError",
    "Scenario",
    "ScenarioFormatError",
    "SimulationError",
    "analyze_scenario",
    "analyze_scenario_zoh",
    "load_scenario",
    "load_trace",
    "save_scenario",
    "save_trace",
    "simulate",
    "summarize",
    "vehicle_preset",
    "verify_ec_bound",
]
