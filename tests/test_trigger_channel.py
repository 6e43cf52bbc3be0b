import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossyetc.trigger_channel import (
    ChannelError,
    ChannelMode,
    ChannelPolicy,
    ChannelState,
    Outcome,
    TriggerConfig,
    channel_offer,
    random_drop_script,
    threshold_value,
)

CFG = TriggerConfig(beta=0.5, alpha=0.25)


def _drain(policy, count, state=None):
    state = ChannelState() if state is None else state
    outcomes = []
    for _ in range(count):
        outcome, state = channel_offer(policy, state)
        outcomes.append(outcome)
    return outcomes, state


def test_threshold_values():
    assert threshold_value(0.0, CFG) == 0.5
    assert math.isclose(threshold_value(4.0, CFG), 0.5 * math.exp(-1.0), rel_tol=1e-15)
    ts = np.linspace(0.0, 10.0, 50)
    vals = threshold_value(ts, CFG)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


def test_trigger_config_validation():
    for beta, alpha in [(-1.0, 0.25), (0.0, 0.25), (0.5, 0.0), (0.5, -2.0),
                        (math.inf, 0.25), (0.5, math.nan)]:
        with pytest.raises(ValueError) as err:
            TriggerConfig(beta=beta, alpha=alpha)
        assert err.value.field == ("beta" if beta != 0.5 else "alpha")


def test_policy_validation():
    for kwargs, field in [
        (dict(M=1, mode=ChannelMode.WORST_CASE), "M"),
        (dict(M=5, mode=ChannelMode.BERNOULLI), "p"),  # p missing
        (dict(M=5, mode=ChannelMode.BERNOULLI, p=1.5), "p"),
        (dict(M=5, mode=ChannelMode.WORST_CASE, p=0.3), "p"),
        (dict(M=5, mode=ChannelMode.SCRIPTED), "script"),  # script missing
        (dict(M=5, mode=ChannelMode.WORST_CASE, script=(True,)), "script"),
        (dict(M=5, mode=ChannelMode.WORST_CASE, seed=3), "seed"),
        (dict(M=5, mode=ChannelMode.SCRIPTED, script=(True,), seed=3), "seed"),
    ]:
        with pytest.raises(ChannelError) as err:
            ChannelPolicy(**kwargs)
        assert err.value.field == field
        assert isinstance(err.value, ValueError)
    with pytest.raises(ChannelError) as err:
        ChannelPolicy(M=3, mode=ChannelMode.SCRIPTED,
                      script=(False, True, True, True, False))
    assert "3 consecutive drops" in str(err.value)
    assert err.value.field == "script"
    # a run of exactly M - 1 is fine
    ChannelPolicy(M=3, mode=ChannelMode.SCRIPTED, script=(True, True, False))


@pytest.mark.parametrize("make, field", [
    # a string mode used to fall through to the scripted branch of channel_offer
    (lambda: ChannelPolicy(M=5, mode="worst_case"), "mode"),
    (lambda: ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p="0.5"), "p"),
    (lambda: ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p=True), "p"),
    (lambda: TriggerConfig(beta="1", alpha=0.2), "beta"),
    (lambda: TriggerConfig(beta=True, alpha=0.2), "beta"),
    (lambda: TriggerConfig(beta=1.0, alpha="0.2"), "alpha"),
    (lambda: TriggerConfig(beta=1.0, alpha=False), "alpha"),
], ids=["mode-str", "p-str", "p-bool", "beta-str", "beta-bool", "alpha-str", "alpha-bool"])
def test_constructor_type_errors_name_their_field(make, field):
    with pytest.raises(ChannelError) as err:
        make()
    assert err.value.field == field


def test_numpy_reals_are_accepted():
    assert TriggerConfig(beta=np.float64(0.5), alpha=np.int64(1)).alpha == 1
    assert ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p=np.float64(0.5)).p == 0.5


def test_script_entries_checked():
    for script in [("0", "0", 0.5, None), (True, 2), (1.0,)]:
        with pytest.raises(ChannelError, match="script entries") as err:
            ChannelPolicy(M=5, mode=ChannelMode.SCRIPTED, script=script)
        assert err.value.field == "script"
    policy = ChannelPolicy(M=5, mode=ChannelMode.SCRIPTED, script=(0, 1, True, False))
    assert policy.script == (False, True, True, False)


@pytest.mark.parametrize("seed", [-1, "7", 2.0, True])
def test_seed_must_be_a_non_negative_int(seed):
    for make in (
        lambda: ChannelPolicy(M=5, mode=ChannelMode.BERNOULLI, p=0.5, seed=seed),
        lambda: random_drop_script(5, 0.5, 10, seed=seed),
    ):
        with pytest.raises(ChannelError, match="seed must be a non-negative integer") as err:
            make()
        assert err.value.field == "seed"


def test_worst_case_period():
    policy = ChannelPolicy(M=5, mode=ChannelMode.WORST_CASE)
    outcomes, _ = _drain(policy, 15)
    expected = ([Outcome.DROPPED] * 4 + [Outcome.DELIVERED]) * 3
    assert outcomes == expected


def test_always_deliver():
    policy = ChannelPolicy(M=2, mode=ChannelMode.ALWAYS_DELIVER)
    outcomes, state = _drain(policy, 10)
    assert all(o is Outcome.DELIVERED for o in outcomes)
    assert state.consecutive_drops == 0 and state.offers_made == 10


def test_bernoulli_edge_probabilities():
    sure = ChannelPolicy(M=4, mode=ChannelMode.BERNOULLI, p=0.0, seed=3)
    outcomes, _ = _drain(sure, 20)
    assert all(o is Outcome.DELIVERED for o in outcomes)

    never = ChannelPolicy(M=4, mode=ChannelMode.BERNOULLI, p=1.0, seed=3)
    worst = ChannelPolicy(M=4, mode=ChannelMode.WORST_CASE)
    assert _drain(never, 25)[0] == _drain(worst, 25)[0]


def test_bernoulli_seed_reproducible():
    policy = ChannelPolicy(M=3, mode=ChannelMode.BERNOULLI, p=0.4, seed=11)
    first, s1 = _drain(policy, 200)
    second, s2 = _drain(policy, 200)
    assert first == second
    assert s1 == s2
    other = ChannelPolicy(M=3, mode=ChannelMode.BERNOULLI, p=0.4, seed=12)
    assert _drain(other, 200)[0] != first


def test_bernoulli_consumes_one_draw_per_offer():
    # Replay the Philox stream by hand: outcome k depends on draw k alone,
    # even when the cap forces a delivery.
    policy = ChannelPolicy(M=3, mode=ChannelMode.BERNOULLI, p=0.95, seed=5)
    outcomes, _ = _drain(policy, 50)
    gen = np.random.Generator(np.random.Philox(5))
    run = 0
    for outcome in outcomes:
        wants_drop = float(gen.random()) < 0.95
        forced = run >= 2
        if wants_drop and not forced:
            assert outcome is Outcome.DROPPED
            run += 1
        else:
            assert outcome is Outcome.DELIVERED
            run = 0


def test_scripted_replay_and_exhaustion():
    script = (True, False, True, True, False, False)
    policy = ChannelPolicy(M=3, mode=ChannelMode.SCRIPTED, script=script)
    outcomes, state = _drain(policy, 6)
    assert [o is Outcome.DROPPED for o in outcomes] == list(script)
    with pytest.raises(ChannelError, match="exhausted"):
        channel_offer(policy, state)


def test_channel_error_pickles():
    # A sweep worker sends its errors back pickled.
    err = pickle.loads(pickle.dumps(ChannelError("script", "script exhausted after 5 offers")))
    assert type(err) is ChannelError
    assert (err.field, str(err)) == ("script", "script exhausted after 5 offers")


def test_random_drop_script_properties():
    script = random_drop_script(4, 0.8, 500, seed=9)
    assert len(script) == 500
    run = 0
    for dropped in script:
        run = run + 1 if dropped else 0
        assert run <= 3
    assert script == random_drop_script(4, 0.8, 500, seed=9)
    assert script != random_drop_script(4, 0.8, 500, seed=10)
    assert not any(random_drop_script(4, 0.0, 100, seed=1))
    # p = 1 saturates at the cap everywhere
    sat = random_drop_script(3, 1.0, 12, seed=1)
    assert sat == (True, True, False) * 4
    with pytest.raises(ChannelError):
        random_drop_script(1, 0.5, 10, seed=0)
    with pytest.raises(ChannelError):
        random_drop_script(3, 1.5, 10, seed=0)
    with pytest.raises(ChannelError):
        random_drop_script(3, 0.5, 0, seed=0)


def _scalar_draw_script(m, drop_prob, length, seed):
    """Reference: one scalar Philox draw per offer."""
    gen = np.random.Generator(np.random.Philox(seed))
    out, run = [], 0
    for _ in range(length):
        dropped = bool(float(gen.random()) < drop_prob) and run < m - 1
        run = run + 1 if dropped else 0
        out.append(dropped)
    return tuple(out)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.9, 1.0])
def test_random_drop_script_matches_scalar_draws(m, p):
    for seed in (0, 5, 7919):
        script = random_drop_script(m, p, 2000, seed=seed)
        assert script == _scalar_draw_script(m, p, 2000, seed)
        assert all(type(v) is bool for v in script)


@pytest.mark.parametrize("seed", [0, 5, 7919])
def test_bernoulli_offers_follow_philox_stream(seed):
    m, p, count = 4, 0.5, 2000
    uniforms = np.random.Generator(np.random.Philox(seed)).random(count + 8)
    expected, run = [], 0
    for u in uniforms:
        dropped = bool(u < p) and run < m - 1
        run = run + 1 if dropped else 0
        expected.append(Outcome.DROPPED if dropped else Outcome.DELIVERED)
    policy = ChannelPolicy(M=m, mode=ChannelMode.BERNOULLI, p=p, seed=seed)
    outcomes, state = _drain(policy, count)
    assert outcomes == expected[:count]
    # the state left behind continues the same stream
    assert _drain(policy, 8, state)[0] == expected[count:]
    # offer k reads draw k, across block boundaries as well
    for k in (255, 256, 1000):
        outcome, _ = channel_offer(policy, ChannelState(0, k))
        assert (outcome is Outcome.DROPPED) == (uniforms[k] < p)


def test_forced_delivery_resets_run():
    policy = ChannelPolicy(M=2, mode=ChannelMode.WORST_CASE)
    state = ChannelState()
    outcome, state = channel_offer(policy, state)
    assert outcome is Outcome.DROPPED and state.consecutive_drops == 1
    outcome, state = channel_offer(policy, state)
    assert outcome is Outcome.DELIVERED and state.consecutive_drops == 0


def test_channel_state_is_value_like():
    policy = ChannelPolicy(M=3, mode=ChannelMode.BERNOULLI, p=0.5, seed=2)
    state = ChannelState()
    channel_offer(policy, state)
    again, _ = channel_offer(policy, state)
    # reusing the same state replays the same draw
    assert channel_offer(policy, state)[0] is again


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=6),
    mode=st.sampled_from([ChannelMode.WORST_CASE, ChannelMode.BERNOULLI]),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
    count=st.integers(min_value=1, max_value=120),
)
def test_consecutive_drops_never_reach_cap(m, mode, p, seed, count):
    if mode is ChannelMode.BERNOULLI:
        policy = ChannelPolicy(M=m, mode=mode, p=p, seed=seed)
    else:
        policy = ChannelPolicy(M=m, mode=mode)
    state = ChannelState()
    run = 0
    for _ in range(count):
        outcome, state = channel_offer(policy, state)
        run = run + 1 if outcome is Outcome.DROPPED else 0
        assert run <= m - 1
        assert state.consecutive_drops == run


def test_channel_state_defaults():
    st0 = ChannelState()
    assert st0.consecutive_drops == 0 and st0.offers_made == 0
