"""Event trigger law and the lossy, acknowledgement-free channel.

The sensor fires an event the moment ||x_s - x|| exceeds the decaying
threshold beta * exp(-alpha * t); strictly exceeds, so sitting exactly on the
threshold does not fire. Every event produces one packet offer. The channel
may drop offers, but never M in a row: the M-th consecutive offer after M-1
drops is delivered unconditionally (the protocol guarantee the bounds lean
on), without any acknowledgement flowing back.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

# Doubles per cached block of a Bernoulli channel's Philox stream.
_BLOCK = 256


class ChannelError(ValueError):
    """Malformed trigger or channel configuration, or an exhausted script.

    `field` names the argument at fault.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field

    def __reduce__(self):
        # Keeps field and message across pickling, e.g. out of a sweep worker.
        return type(self), (self.field, self.args[0])


@dataclass(frozen=True)
class TriggerConfig:
    """Threshold parameters: radius beta > 0, decay rate alpha > 0."""

    beta: float
    alpha: float

    def __post_init__(self):
        _check_real("beta", self.beta)
        _check_real("alpha", self.alpha)
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ChannelError(
                "beta", f"beta must be positive and finite, got {self.beta!r}"
            )
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ChannelError(
                "alpha", f"alpha must be positive and finite, got {self.alpha!r}"
            )


def _check_real(field: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ChannelError(field, f"{field} must be a real number, got {value!r}")


def threshold_value(t: float, cfg: TriggerConfig) -> float:
    """beta * exp(-alpha * t).  Accepts scalar or ndarray t (vectorized)."""
    return cfg.beta * np.exp(-cfg.alpha * t)


class ChannelMode(enum.Enum):
    ALWAYS_DELIVER = "always_deliver"
    WORST_CASE = "worst_case"
    BERNOULLI = "bernoulli"
    SCRIPTED = "scripted"


class Outcome(enum.Enum):
    DELIVERED = "delivered"
    DROPPED = "dropped"


@dataclass(frozen=True)
class ChannelPolicy:
    """Dropout policy plus the hard cap M on consecutive losses.

    WorstCase drops every offer the cap allows. Bernoulli drops offer k when
    double k of the Philox(seed) stream is below p (seed 0 when unset; offers
    the cap forces through use up their double too, so streams stay aligned
    across policies); only Bernoulli takes a seed.
    Scripted replays an explicit outcome list and is rejected up front if it
    ever schedules M drops in a row.
    """

    M: int
    mode: ChannelMode
    p: float | None = None
    seed: int | None = None
    script: tuple[bool, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.M, int) or self.M < 2:
            raise ChannelError("M", f"M must be an integer > 1, got {self.M!r}")
        if not isinstance(self.mode, ChannelMode):
            raise ChannelError("mode", f"mode must be a ChannelMode, got {self.mode!r}")
        if self.mode is ChannelMode.BERNOULLI:
            if self.p is not None:
                _check_real("p", self.p)
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ChannelError("p", f"bernoulli mode needs p in [0, 1], got {self.p!r}")
        elif self.p is not None:
            raise ChannelError("p", f"p is only valid for bernoulli mode, got {self.p!r}")
        if self.seed is not None:
            if self.mode is not ChannelMode.BERNOULLI:
                raise ChannelError(
                    "seed", f"seed is only valid for bernoulli mode, got {self.seed!r}"
                )
            if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
                raise ChannelError(
                    "seed", f"seed must be a non-negative integer, got {self.seed!r}"
                )
        if self.mode is ChannelMode.SCRIPTED:
            if self.script is None:
                raise ChannelError("script", "scripted mode needs a script")
            if not all(isinstance(v, int) and v in (0, 1) for v in self.script):
                raise ChannelError(
                    "script", f"script entries must be bools or 0/1, got {self.script!r}"
                )
            script = tuple(bool(v) for v in self.script)
            object.__setattr__(self, "script", script)
            run = 0
            for dropped in script:
                run = run + 1 if dropped else 0
                if run >= self.M:
                    raise ChannelError(
                        "script",
                        f"script contains {self.M} consecutive drops, cap is {self.M - 1}"
                    )
        elif self.script is not None:
            raise ChannelError("script", "script is only valid for scripted mode")


@dataclass(frozen=True)
class ChannelState:
    """Channel progress as a plain value: the current drop run and the offers made.

    Offer k of a Bernoulli policy reads double k of its seed's Philox stream,
    so these two counts fix every later outcome and equal states compare equal.
    """

    consecutive_drops: int = 0
    offers_made: int = 0


@functools.lru_cache(maxsize=32)
def _uniform_block(seed: int, block: int) -> tuple[float, ...]:
    """Doubles [256 * block, 256 * (block + 1)) of the Philox(seed) stream."""
    bits = np.random.Philox(seed)
    # One Philox counter step yields four doubles.
    bits.advance(_BLOCK // 4 * block)
    return tuple(np.random.Generator(bits).random(_BLOCK).tolist())


def random_drop_script(
    m: int, drop_prob: float, length: int, seed: int
) -> tuple[bool, ...]:
    """The first `length` drops of a Bernoulli(drop_prob) channel with cap m.

    A Scripted policy built from it replays that channel's drops, cut short
    or edited as a test needs.
    """
    if length < 1:
        raise ChannelError("length", f"length must be positive, got {length!r}")
    policy = ChannelPolicy(M=m, mode=ChannelMode.BERNOULLI, p=drop_prob, seed=seed)
    state = ChannelState()
    out = []
    for _ in range(length):
        outcome, state = channel_offer(policy, state)
        out.append(outcome is Outcome.DROPPED)
    return tuple(out)


def channel_offer(policy: ChannelPolicy, state: ChannelState) -> tuple[Outcome, ChannelState]:
    """Present one packet to the channel; returns (outcome, next state).

    The cap override runs last: whatever the policy wanted, the offer is
    delivered when consecutive_drops has reached M - 1.
    """
    k = state.offers_made
    if policy.mode is ChannelMode.ALWAYS_DELIVER:
        wants_drop = False
    elif policy.mode is ChannelMode.WORST_CASE:
        wants_drop = True
    elif policy.mode is ChannelMode.BERNOULLI:
        seed = 0 if policy.seed is None else policy.seed
        wants_drop = _uniform_block(seed, k // _BLOCK)[k % _BLOCK] < policy.p
    else:
        if k >= len(policy.script):
            raise ChannelError(
                "script", f"script exhausted after {len(policy.script)} offers"
            )
        wants_drop = policy.script[k]
    if wants_drop and state.consecutive_drops < policy.M - 1:
        return Outcome.DROPPED, ChannelState(state.consecutive_drops + 1, k + 1)
    return Outcome.DELIVERED, ChannelState(0, k + 1)
