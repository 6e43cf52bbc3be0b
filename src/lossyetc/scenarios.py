"""Scenario files, the lane-following vehicle preset, and serialization.

Scenarios travel as JSON documents with one top-level section per subsystem;
traces travel as CSV with 17-significant-digit numbers so a written trace
parses back bit-for-bit.  Loading collects every schema and invariant
violation it can find, naming the offending key and, where possible, the
line it appears on.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
from typing import Any

import numpy as np

from .pool import fork_map, would_fork
from .simulator import Scenario, Trace
from .system_model import EstimatorKind, Gain, ModelError, NominalModel, Plant
from .trigger_channel import ChannelError, ChannelMode, ChannelPolicy, TriggerConfig


class ScenarioFormatError(ValueError):
    """Carries the full list of problems found in a scenario document."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

    def __reduce__(self):
        # Unpickling would otherwise pass the joined message back as `problems`.
        return type(self), (self.problems,)


# Nominal lateral/yaw parameters of the lane-following vehicle scenario.
_NOM_A = ((-1.6579, 10.45), (0.4886, -2.718))
_NOM_B = (-12.1053, 13.1429)
_LOOKAHEAD = 40.0
_CROSS_COUPLING = -12.0
_A_JITTER = 0.1
_B_JITTER = 0.05


def _vehicle_matrices(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    full_a = np.array(
        [
            [a[0, 0], a[0, 1], 0.0, 0.0],
            [a[1, 0], a[1, 1], 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, _CROSS_COUPLING, 0.0],
        ]
    )
    full_b = np.array([[b[0], 0.0], [0.0, b[1]], [0.0, 0.0], [0.0, 0.0]])
    return full_a, full_b


def vehicle_preset(perturbation_seed: int | None = None) -> Scenario:
    """Lane-following vehicle scenario.

    The model matrices carry the nominal parameter values; the true plant
    adds independent uniform perturbations (within +/-0.1 on the four
    dynamics entries, +/-0.05 on the two input gains) drawn from the given
    seed.  No seed means zero perturbation: the plant equals the model.  The
    steering gain uses a unit loop gain scaling the -1 and 1/lookahead
    entries, applied identically on both actuation channels.
    """
    a_nom = np.array(_NOM_A)
    b_nom = np.array(_NOM_B)
    if perturbation_seed is None:
        a_true, b_true = a_nom, b_nom
    else:
        rng = np.random.default_rng(perturbation_seed)
        a_true = a_nom + rng.uniform(-_A_JITTER, _A_JITTER, size=(2, 2))
        b_true = b_nom + rng.uniform(-_B_JITTER, _B_JITTER, size=2)
    a_hat, b_hat = _vehicle_matrices(a_nom, b_nom)
    a_full, b_full = _vehicle_matrices(a_true, b_true)
    gain_row = [0.0, 0.0, -1.0, 1.0 / _LOOKAHEAD]
    return Scenario(
        plant=Plant(A=a_full, B=b_full),
        model=NominalModel(A_hat=a_hat, B_hat=b_hat),
        gain=Gain(K=np.array([gain_row, gain_row])),
        estimator=EstimatorKind.MODEL_BASED,
        trigger=TriggerConfig(beta=0.5, alpha=0.25),
        channel=ChannelPolicy(M=5, mode=ChannelMode.WORST_CASE),
        x0=np.array([0.0, 0.0, 0.2, 1.0]),
        t_max=60.0,
        sample_dt=1e-3,
        event_tol=1e-9,
    )


# --- scenario JSON ------------------------------------------------------------

def scenario_to_dict(scn: Scenario) -> dict[str, Any]:
    channel: dict[str, Any] = {"M": scn.channel.M, "mode": scn.channel.mode.value}
    if scn.channel.p is not None:
        channel["p"] = scn.channel.p
    if scn.channel.seed is not None:
        channel["seed"] = scn.channel.seed
    if scn.channel.script is not None:
        channel["script"] = [int(v) for v in scn.channel.script]
    return {
        "plant": {"A": scn.plant.A.tolist(), "B": scn.plant.B.tolist()},
        "model": {
            "A_hat": scn.model.A_hat.tolist(),
            "B_hat": scn.model.B_hat.tolist(),
        },
        "gain": {"K": scn.gain.K.tolist()},
        "estimator": scn.estimator.value,
        "trigger": {"beta": scn.trigger.beta, "alpha": scn.trigger.alpha},
        "channel": channel,
        "sim": {
            "x0": scn.x0.tolist(),
            "t_max": scn.t_max,
            "sample_dt": scn.sample_dt,
            "event_tol": scn.event_tol,
        },
    }


def save_scenario(scn: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scn), fh, indent=2)
        fh.write("\n")


def _matrix(value: Any, key: str, problems: list[str]) -> np.ndarray | None:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        problems.append(f"{key}: not a numeric matrix")
        return None
    if arr.ndim not in (1, 2) or not np.all(np.isfinite(arr)):
        problems.append(f"{key}: must be a finite 1- or 2-d numeric array")
        return None
    return arr


def _number(value: Any, key: str, problems: list[str]) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{key}: must be a number, got {value!r}")
        return None
    if not math.isfinite(float(value)):
        problems.append(f"{key}: must be finite")
        return None
    return float(value)


def _section(doc: dict, key: str, problems: list[str]) -> dict:
    sec = doc.get(key)
    if not isinstance(sec, dict):
        problems.append(f"{key}: missing or not an object")
        return {}
    return sec


# Document key of each constructor argument.  The argument names are unique
# across Plant, NominalModel, Gain, TriggerConfig, ChannelPolicy and Scenario.
_FIELD_KEYS = {
    "A": "plant.A",
    "B": "plant.B",
    "A_hat": "model.A_hat",
    "B_hat": "model.B_hat",
    "K": "gain.K",
    "beta": "trigger.beta",
    "alpha": "trigger.alpha",
    "M": "channel.M",
    "p": "channel.p",
    "script": "channel.script",
    "seed": "channel.seed",
    "model": "model",
    "gain": "gain.K",
    "estimator": "estimator",
    "x0": "sim.x0",
    "t_max": "sim.t_max",
    "sample_dt": "sim.sample_dt",
    "event_tol": "sim.event_tol",
}


def _build(cls, problems: list[str], **kwargs):
    """cls(**kwargs), or None with the complaint filed under its document key."""
    try:
        return cls(**kwargs)
    except (ModelError, ChannelError) as exc:
        problems.append(f"{_FIELD_KEYS[exc.field]}: {exc}")
        return None


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    """Build a Scenario, collecting every violation before failing."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioFormatError(["document: top level must be an object"])

    plant_sec = _section(doc, "plant", problems)
    model_sec = _section(doc, "model", problems)
    gain_sec = _section(doc, "gain", problems)
    trig_sec = _section(doc, "trigger", problems)
    chan_sec = _section(doc, "channel", problems)
    sim_sec = _section(doc, "sim", problems)

    a = _matrix(plant_sec.get("A"), "plant.A", problems)
    b = _matrix(plant_sec.get("B"), "plant.B", problems)
    plant = None
    if a is not None and b is not None:
        plant = _build(Plant, problems, A=a, B=b)

    a_hat = _matrix(model_sec.get("A_hat"), "model.A_hat", problems)
    b_hat = _matrix(model_sec.get("B_hat"), "model.B_hat", problems)
    model = None
    if a_hat is not None and b_hat is not None:
        model = _build(NominalModel, problems, A_hat=a_hat, B_hat=b_hat)

    k = _matrix(gain_sec.get("K"), "gain.K", problems)
    gain = None if k is None else _build(Gain, problems, K=k)

    estimator = None
    est_raw = doc.get("estimator")
    try:
        estimator = EstimatorKind(est_raw)
    except ValueError:
        problems.append(f"estimator: must be 'mb' or 'zoh', got {est_raw!r}")

    trigger = None
    beta = _number(trig_sec.get("beta"), "trigger.beta", problems)
    alpha = _number(trig_sec.get("alpha"), "trigger.alpha", problems)
    if beta is not None and alpha is not None:
        trigger = _build(TriggerConfig, problems, beta=beta, alpha=alpha)

    channel = None
    m_raw = chan_sec.get("M")
    mode_raw = chan_sec.get("mode")
    if not isinstance(m_raw, int) or isinstance(m_raw, bool):
        problems.append(f"channel.M: must be an integer, got {m_raw!r}")
    else:
        try:
            mode = ChannelMode(mode_raw)
        except ValueError:
            problems.append(
                f"channel.mode: must be one of "
                f"{[m.value for m in ChannelMode]}, got {mode_raw!r}"
            )
        else:
            script_raw = chan_sec.get("script")
            script = None
            script_ok = script_raw is None or (
                isinstance(script_raw, list)
                and all(type(v) is int and v in (0, 1) for v in script_raw)
            )
            if not script_ok:
                problems.append("channel.script: must be a list of 0/1 flags")
            elif script_raw is not None:
                script = tuple(bool(v) for v in script_raw)
            p_raw = chan_sec.get("p")
            p_ok = p_raw is None or _number(p_raw, "channel.p", problems) is not None
            if p_ok and script_ok:
                channel = _build(
                    ChannelPolicy, problems,
                    M=m_raw, mode=mode, p=p_raw, seed=chan_sec.get("seed"), script=script,
                )

    x0 = _matrix(sim_sec.get("x0"), "sim.x0", problems)
    if x0 is not None and x0.ndim != 1:
        problems.append(f"sim.x0: must be a 1-d numeric array, got shape {x0.shape}")
    t_max = _number(sim_sec.get("t_max"), "sim.t_max", problems)
    sample_dt = _number(sim_sec.get("sample_dt"), "sim.sample_dt", problems)
    event_tol = _number(sim_sec.get("event_tol"), "sim.event_tol", problems)

    if problems:
        raise ScenarioFormatError(problems)
    scn = _build(
        Scenario, problems,
        plant=plant, model=model, gain=gain, estimator=estimator,
        trigger=trigger, channel=channel, x0=x0,
        t_max=t_max, sample_dt=sample_dt, event_tol=event_tol,
    )
    if scn is None:
        raise ScenarioFormatError(problems)
    return scn


def _line_of(text: str, dotted_key: str) -> int | None:
    """Best-effort line number of a dotted key inside the raw document."""
    parts = dotted_key.split(".")
    pos = 0
    for part in parts:
        found = text.find(f'"{part}"', pos)
        if found < 0:
            return None
        pos = found
    return 1 + text.count("\n", 0, pos)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario document, reporting all problems."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError([f"line {exc.lineno}: malformed JSON: {exc.msg}"])
    try:
        return scenario_from_dict(doc)
    except ScenarioFormatError as exc:
        annotated = []
        for problem in exc.problems:
            key = problem.split(":", 1)[0].strip()
            line = _line_of(text, key)
            annotated.append(f"line {line}: {problem}" if line else problem)
        raise ScenarioFormatError(annotated) from None


# --- trace CSV ----------------------------------------------------------------

# Rows per save_trace task; bounds the size of the formatted text in memory.
_BLOCK_ROWS = 2048
# Body bytes per load_trace task, cut at a line end.
_SPAN_BYTES = 1 << 20


def _trace_header(n: int) -> list[str]:
    """Column names of the trace CSV for an n-dimensional state."""
    return (
        ["t"]
        + [f"x_{i}" for i in range(n)]
        + [f"xs_{i}" for i in range(n)]
        + [f"xc_{i}" for i in range(n)]
        + ["es_norm", "ec_norm", "threshold", "triggered", "delivered"]
    )


def save_trace(tr: Trace, path: str) -> None:
    """Write the trace as CSV with exact (17-significant-digit) numbers.

    Floats are written with ``%.17g``, the two flags as ``0``/``1``, and every
    line ends in CRLF. Blocks of rows are formatted on the usable CPUs. The
    file is written beside `path` and renamed onto it once complete, so a
    save that fails leaves no file at `path` that load_trace would take for a
    shorter trace.
    """
    n = tr.x.shape[1]
    table = np.column_stack(
        (tr.t, tr.x, tr.x_s, tr.x_c, tr.e_s_norm, tr.e_c_norm, tr.threshold,
         tr.triggered, tr.delivered)
    )
    row = ",".join(["%.17g"] * (3 * n + 4)) + ",%d,%d\r\n"
    blocks = [table[i : i + _BLOCK_ROWS] for i in range(0, len(table), _BLOCK_ROWS)]
    part = f"{path}.{os.getpid()}.part"
    try:
        with open(part, "wb") as fh:
            fh.write((",".join(_trace_header(n)) + "\r\n").encode())
            fh.writelines(fork_map(functools.partial(_format_block, row), blocks))
        os.replace(part, path)
    except OSError as exc:
        # The temporary name means nothing to the caller: name the target.
        if exc.filename != part:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)


def _format_block(row: str, block: np.ndarray) -> bytes:
    return ((row * len(block)) % tuple(block.ravel().tolist())).encode()


def load_trace(path: str) -> Trace:
    """Parse a trace CSV back into arrays; exact round-trip of save_trace.

    The trace has the column-major layout that simulate gives it.  Raises
    ValueError on a header that is not save_trace's, a non-numeric field, or
    a row whose column count differs from the header's.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        n = (len(header) - 6) // 3
        if header != _trace_header(n):
            raise ValueError(f"unexpected trace header {header!r}")
        data = _load_spans(path, header)
        if data is None:
            # loadtxt warns on input without rows, so a bodiless file skips it
            first = next((line for line in fh if not line.isspace()), "")
            if first:
                data = np.loadtxt(
                    itertools.chain([first], fh), delimiter=",", comments=None, ndmin=2
                ).T
            else:
                data = np.empty((len(header), 0))
    if data.shape[0] != len(header):
        raise ValueError(
            f"trace rows have {data.shape[0]} columns, header has {len(header)}"
        )
    data = np.ascontiguousarray(data)
    return Trace.from_table(data[:-2], data[-2] != 0.0, data[-1] != 0.0)


def _load_spans(path: str, header: list[str]) -> np.ndarray | None:
    """The body parsed span by span on the usable CPUs, column-major, or None.

    None means no pool to parse on, a body of one span, a span that raised
    ValueError, or a span that does not hold one row of the header's width
    per line. The caller then parses the body in one piece, which gives an
    error message its row number counted from the top of the body.
    """
    if not would_fork(2):
        return None  # cutting spans would reread the whole file for nothing
    spans = _body_spans(path, ",".join(header).encode())
    if len(spans) < 2:
        return None
    width = len(header)
    data = np.empty((width, sum(rows for _, _, rows in spans)))
    # the pool's workers keep the working directory of its start
    parts = fork_map(functools.partial(_parse_span, os.path.abspath(path)), spans)
    done = 0
    try:
        for (_, _, rows), part in zip(spans, parts):
            if part.shape != (rows, width):
                return None
            data[:, done : done + rows] = part.T
            done += rows
    except ValueError:
        return None
    return data


def _body_spans(path: str, header: bytes) -> list[tuple[int, int, int]]:
    """(start, stop, lines) byte spans of about _SPAN_BYTES covering the body.

    Each span but the last ends just after a newline, so it holds whole lines
    under the universal-newline reading of load_trace. `lines` counts its
    newlines, plus one for an unterminated last line. Returns [] where the
    spans could differ from that reading: a header line not ended by CRLF or
    LF, a line longer than a span, or a span of empty lines only (loadtxt
    warns on it; the one-piece parse skips it).
    """
    spans = []
    with open(path, "rb") as fh:
        if fh.readline() not in (header + b"\r\n", header + b"\n"):
            return []
        start = fh.tell()
        while chunk := fh.read(_SPAN_BYTES):
            stop = len(chunk)
            if stop == _SPAN_BYTES:
                stop = chunk.rfind(b"\n") + 1
                if stop == 0:
                    return []
                fh.seek(start + stop)
            if len(chunk) - len(chunk.lstrip(b"\r\n")) >= stop:
                return []
            # numpy counts about 3x as fast as bytes.count
            newlines = np.count_nonzero(np.frombuffer(chunk, np.uint8, stop) == ord("\n"))
            lines = int(newlines) + (chunk[stop - 1] != ord("\n"))
            spans.append((start, start + stop, lines))
            start += stop
    return spans


def _parse_span(path: str, span: tuple[int, int, int]) -> np.ndarray:
    start, stop, _ = span
    with open(path, "rb") as fh:
        fh.seek(start)
        lines = io.TextIOWrapper(io.BytesIO(fh.read(stop - start)))
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


# --- trace JSON ---------------------------------------------------------------

def trace_to_dict(tr: Trace) -> dict[str, Any]:
    return {
        "t": tr.t.tolist(),
        "x": tr.x.tolist(),
        "x_s": tr.x_s.tolist(),
        "x_c": tr.x_c.tolist(),
        "es_norm": tr.e_s_norm.tolist(),
        "ec_norm": tr.e_c_norm.tolist(),
        "threshold": tr.threshold.tolist(),
        "triggered": tr.triggered.astype(int).tolist(),
        "delivered": tr.delivered.astype(int).tolist(),
    }

