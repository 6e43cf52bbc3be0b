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
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

# Seeds the throwaway generator channel_offer loads each Bernoulli state into;
# its own state is overwritten at once, and a fixed seed sequence spares the
# OS entropy draw that Philox() makes.
_RESTORE_SEED = np.random.SeedSequence(0)


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
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ChannelError(
                "beta", f"beta must be positive and finite, got {self.beta!r}"
            )
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ChannelError(
                "alpha", f"alpha must be positive and finite, got {self.alpha!r}"
            )


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

    WorstCase drops every offer the cap allows. Bernoulli draws Dropped with
    probability p from a seeded Philox stream (one draw per offer, including
    offers the cap forces through, so streams stay aligned across policies).
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
        if self.mode is ChannelMode.BERNOULLI:
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ChannelError("p", f"bernoulli mode needs p in [0, 1], got {self.p!r}")
        elif self.p is not None:
            raise ChannelError("p", f"p is only valid for bernoulli mode, got {self.p!r}")
        if self.mode is ChannelMode.SCRIPTED:
            if self.script is None:
                raise ChannelError("script", "scripted mode needs a script")
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
    """Value-semantics channel progress: drop run length, offer count, RNG."""

    consecutive_drops: int = 0
    offers_made: int = 0
    rng_state: Any = None


def initial_channel_state(policy: ChannelPolicy) -> ChannelState:
    rng_state = None
    if policy.mode is ChannelMode.BERNOULLI:
        seed = 0 if policy.seed is None else policy.seed
        rng_state = np.random.Generator(np.random.Philox(seed)).bit_generator.state
    return ChannelState(consecutive_drops=0, offers_made=0, rng_state=rng_state)


def random_drop_script(
    m: int, drop_prob: float, length: int, seed: int
) -> tuple[bool, ...]:
    """Seeded Bernoulli drop sequence with runs capped at m - 1.

    Suitable for Scripted policies and for paired experiments that must see
    identical channel behavior under different estimators.
    """
    if not isinstance(m, int) or m < 2:
        raise ChannelError("m", f"M must be an integer > 1, got {m!r}")
    if not (0.0 <= drop_prob <= 1.0):
        raise ChannelError("drop_prob", f"drop_prob must lie in [0, 1], got {drop_prob!r}")
    if length < 1:
        raise ChannelError("length", f"length must be positive, got {length!r}")
    # One block draw yields the same Philox doubles as `length` scalar draws.
    uniforms = np.random.Generator(np.random.Philox(seed)).random(length).tolist()
    p = float(drop_prob)
    out = []
    run = 0
    for u in uniforms:
        dropped = u < p and run < m - 1
        run = run + 1 if dropped else 0
        out.append(dropped)
    return tuple(out)


def channel_offer(policy: ChannelPolicy, state: ChannelState) -> tuple[Outcome, ChannelState]:
    """Present one packet to the channel; returns (outcome, next state).

    The cap override runs last: whatever the policy wanted, the offer is
    delivered when consecutive_drops has reached M - 1.
    """
    rng_state = state.rng_state
    if policy.mode is ChannelMode.ALWAYS_DELIVER:
        wants_drop = False
    elif policy.mode is ChannelMode.WORST_CASE:
        wants_drop = True
    elif policy.mode is ChannelMode.BERNOULLI:
        gen = np.random.Generator(np.random.Philox(_RESTORE_SEED))
        gen.bit_generator.state = rng_state
        wants_drop = float(gen.random()) < policy.p
        rng_state = gen.bit_generator.state
    else:
        if state.offers_made >= len(policy.script):
            raise ChannelError(
                "script", f"script exhausted after {len(policy.script)} offers"
            )
        wants_drop = policy.script[state.offers_made]
    forced = state.consecutive_drops >= policy.M - 1
    if wants_drop and not forced:
        outcome = Outcome.DROPPED
        next_state = replace(
            state,
            consecutive_drops=state.consecutive_drops + 1,
            offers_made=state.offers_made + 1,
            rng_state=rng_state,
        )
    else:
        outcome = Outcome.DELIVERED
        next_state = ChannelState(
            consecutive_drops=0,
            offers_made=state.offers_made + 1,
            rng_state=rng_state,
        )
    return outcome, next_state
