"""Plant, nominal model, feedback gain, and the flow generators of (x, x_c).

The closed loop runs the true plant x beside two model copies: the sensor
side x_s, whose deviation from x drives the event trigger, and the controller
side x_c, which supplies u = K x_c.  Between deliveries (x, x_c) flows
linearly under a constant generator; the simulator adds the discrepancy
x_s - x_c and applies the trigger and delivery jumps itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .numerics import Matrix


class ModelError(ValueError):
    """Malformed plant, model, gain or scenario data.

    `field` names the constructor argument at fault.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field

    def __reduce__(self):
        # Keeps field and message across pickling, e.g. out of a sweep worker.
        return type(self), (self.field, self.args[0])


def _frozen_array(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ModelError(name, f"{name} has non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _square_pair(a, b, a_name: str, b_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate a square dynamics matrix and its input matrix; frozen copies."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelError(a_name, f"{a_name} must be square, got shape {a.shape}")
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise ModelError(b_name, f"{b_name} must be {a.shape[0]} x m, got shape {b.shape}")
    return _frozen_array(a, a_name), _frozen_array(b, b_name)


@dataclass(frozen=True)
class Plant:
    """True continuous-time dynamics dx/dt = A x + B u."""

    A: Matrix
    B: Matrix

    def __post_init__(self):
        a, b = _square_pair(self.A, self.B, "A", "B")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class NominalModel:
    """Model copy of the dynamics run at both ends of the link."""

    A_hat: Matrix
    B_hat: Matrix

    def __post_init__(self):
        a, b = _square_pair(self.A_hat, self.B_hat, "A_hat", "B_hat")
        object.__setattr__(self, "A_hat", a)
        object.__setattr__(self, "B_hat", b)

    @property
    def n(self) -> int:
        return self.A_hat.shape[0]


@dataclass(frozen=True)
class Gain:
    """State feedback u = K x_c."""

    K: Matrix

    def __post_init__(self):
        k = np.atleast_2d(np.asarray(self.K, dtype=float))
        object.__setattr__(self, "K", _frozen_array(k, "K"))


class EstimatorKind(enum.Enum):
    """How the two model copies evolve between events."""

    MODEL_BASED = "mb"
    ZERO_ORDER_HOLD = "zoh"


def closed_loop(model: NominalModel, gain: Gain) -> Matrix:
    """A_hat + B_hat K, the dynamics both model copies run under MB."""
    return model.A_hat + model.B_hat @ gain.K


def gamma_matrix(plant: Plant, model: NominalModel, gain: Gain) -> Matrix:
    """Generator of (x, x_c) with no deliveries: [[A, BK], [0, A_hat+B_hat K]]."""
    n = plant.n
    top = np.hstack([plant.A, plant.B @ gain.K])
    bottom = np.hstack([np.zeros((n, n)), closed_loop(model, gain)])
    return np.vstack([top, bottom])


def gamma_zoh(plant: Plant, gain: Gain) -> Matrix:
    """Generator of (x, x_c) with a held input: [[A, BK], [0, 0]]."""
    n = plant.n
    top = np.hstack([plant.A, plant.B @ gain.K])
    bottom = np.zeros((n, 2 * n))
    return np.vstack([top, bottom])
