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
import itertools
import json
import math
import os
from typing import Any

import numpy as np

from .pool import fork_map, usable_cpus, would_fork
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
# Most body bytes per load_trace task, cut at a line end.
_SPAN_BYTES = 1 << 20
# Body bytes per pass of the vectorized reader, cut at a line end: about
# 6,900 fields of 19 bytes.  On a 2-CPU VM the 20 s preset-7 trace parsed in
# 57-60 ms with 32 KiB blocks, 46 ms with 64 KiB and 39-42 ms with 128 or
# 256 KiB ones (min of 9 in one process).
_PARSE_BLOCK = 1 << 17
# Zero bytes after a block: a field's 24 bytes and the 8-byte words of the
# block's bit map of non-digits read up to 64 bytes past its last line.
_PARSE_PAD = 64


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

    Every float is written as ``'%.17g' % v`` would write it, the two flags
    as ``0``/``1``, and every line ends in CRLF. Blocks of rows are formatted
    on the usable CPUs, each by an exact vectorized conversion that hands the
    entries it cannot certify to ``'%.17g' % v`` (see `_format_rows`); the
    bytes do not depend on the worker count or the block boundaries. The
    file is written beside `path` and renamed onto it once complete, so a
    save that fails leaves no file at `path` that load_trace would take for a
    shorter trace.
    """
    n = tr.x.shape[1]
    table = np.column_stack(
        (tr.t, tr.x, tr.x_s, tr.x_c, tr.e_s_norm, tr.e_c_norm, tr.threshold,
         tr.triggered, tr.delivered)
    )
    blocks = [table[i : i + _BLOCK_ROWS] for i in range(0, len(table), _BLOCK_ROWS)]
    part = f"{path}.{os.getpid()}.part"
    try:
        with open(part, "wb") as fh:
            fh.write((",".join(_trace_header(n)) + "\r\n").encode())
            fh.writelines(fork_map(_format_block, blocks))
        os.replace(part, path)
    except OSError as exc:
        # The temporary name means nothing to the caller: name the target.
        if exc.filename != part:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)


def _format_block(block: np.ndarray) -> bytes:
    """CSV lines of table rows: the floats as ``%.17g``, the last two columns
    (0 or 1) as ``%d``, each line ended by CRLF."""
    step = max(1, _G17_CHUNK // block.shape[1])
    return b"".join(_format_rows(block[i : i + step]) for i in range(0, len(block), step))


def load_trace(path: str) -> Trace:
    """Parse a trace CSV back into arrays; exact round-trip of save_trace.

    The trace has the column-major layout that simulate gives it.  Spans of
    the body (see `_body_spans`) are parsed on the usable CPUs by an exact
    vectorized reader of save_trace's dialect: CRLF lines of the header's
    width, numbers as ``'%.17g' % v`` writes them (see `_parse_block`).  If
    any span leaves that dialect or holds a field that reader cannot certify,
    ``np.loadtxt`` parses the whole body once, so the arrays, the error
    messages and their row numbers do not depend on which parser ran.
    Raises ValueError on a header that is not save_trace's, a non-numeric
    field, or a row whose column count differs from the header's.
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
    """The body parsed span by span on the usable CPUs, column-major, or None
    where the header line is not save_trace's or any span's parse gives None."""
    spans = _body_spans(path, (",".join(header) + "\r\n").encode())
    # the pool's workers keep the working directory of its start
    parse = functools.partial(_parse_span, os.path.abspath(path), len(header))
    parts = None if spans is None else list(fork_map(parse, spans))
    if parts is None or any(part is None for part in parts):
        return None
    data = np.empty((len(header), sum(map(len, parts))))
    done = 0
    for part in parts:
        data[:, done : done + len(part)] = part.T
        done += len(part)
    return data


def _body_spans(path: str, header: bytes) -> list[tuple[int, int]] | None:
    """(start, stop) byte spans of whole lines covering the body, or None
    where the file's first line is not `header`.

    One span where no pool can fork or the body fits in _SPAN_BYTES; else
    about equal spans, as many as the fewest multiple of the usable CPUs that
    keeps them near _SPAN_BYTES, so each worker parses the same share.  Each
    ends at the first newline at or after its cut, found by seeking there.
    """
    with open(path, "rb") as fh:
        if fh.readline() != header:
            return None
        body = start = fh.tell()
        end = os.fstat(fh.fileno()).st_size
        count = 1
        if end - body > _SPAN_BYTES and would_fork(2):
            cpus = usable_cpus()
            count = cpus * -(-(end - body) // (cpus * _SPAN_BYTES))
        spans = []
        for i in range(1, count + 1):
            cut = body + (end - body) * i // count
            if cut <= start:
                continue  # the last line of the previous span ran past this cut
            fh.seek(cut - 1)
            fh.readline()
            spans.append((start, fh.tell()))
            start = fh.tell()
    return spans


def _parse_span(path: str, width: int, span: tuple[int, int]) -> np.ndarray | None:
    start, stop = span
    with open(path, "rb") as fh:
        fh.seek(start)
        return _parse_rows(fh.read(stop - start), width)


def _parse_rows(text: bytes, width: int) -> np.ndarray | None:
    """The (rows, width) table of whole CRLF lines of save_trace's numbers,
    or None where any of the text leaves that dialect or any field is not
    certified (see `_parse_block`).

    The text is parsed in blocks of whole lines of about _PARSE_BLOCK bytes.
    """
    if not text:
        return np.empty((0, width))
    if not text.endswith(b"\r\n"):
        return None
    blocks = []
    start = 0
    while start < len(text):
        stop = text.find(b"\n", start + _PARSE_BLOCK - 1) + 1 or len(text)
        # zeros past the end, which the words read at the last fields reach
        block = np.empty(stop - start + _PARSE_PAD, np.uint8)
        block[: stop - start] = np.frombuffer(text, np.uint8, stop - start, start)
        block[stop - start :] = 0
        values = _parse_block(block, stop - start, width)
        if values is None:
            return None
        blocks.append(values)
        start = stop
    return np.concatenate(blocks).reshape(-1, width)


# --- exact %.17g, both directions ---------------------------------------------
#
# One table of powers of ten serves both directions: _powers_of_ten holds
# 10**(16 - k) for k in [_K_MIN, _K_MAX] as hi + lo, built from Python
# integers, with hi split in halves by Veltkamp's constant, and _times_ten
# multiplies a double by an entry exactly through Dekker's two-product
# (Numer. Math. 18, 1971).
#
# _format_rows writes '%.17g' % v for whole arrays of doubles.  For |v| in
# about [1e-250, 1e250] it takes the decimal exponent k from log10 and the 17
# significant digits D = round(|v| * 10**(16 - k)) from the double-double
# product; its error is below 2**-47 in units of D's last digit.  An entry
# whose fraction lies within _TIE_MARGIN of one half (a tie, or a product too
# close to one to trust), and every zero, non-finite or out-of-range value,
# goes to Python's own '%.17g' % v instead.  Each field is then laid out in a
# 32-byte frame of four little-endian words, with 0 bytes where the field is
# shorter, and one bytes.translate per pass drops them.
#
# _parse_block reads the fields back: it finds their bounds in a block of
# whole lines, reads each field's first 24 bytes as three little-endian words
# and takes its significand D < 10**17 and exponent E (value D * 10**E) by
# SWAR arithmetic and tables indexed by the mantissa's length; the product
# D * 10**E is then rounded to the nearest double, unless it lies too close to
# a tie to tell (Clinger, PLDI 1990).  A block with a field it cannot certify
# gives None, and load_trace hands the whole body to np.loadtxt.  The
# tables are built at the first call that needs them, so a process that
# neither writes nor reads a trace CSV never holds them.

# Values per pass.  Temporaries stay at 32 KB, below glibc's 128 KB mmap
# threshold: with whole 2,048-row blocks they were mapped afresh at every
# allocation, and on a 2-CPU VM the page faults (21,000 per 20,019-row trace)
# cost more than the arithmetic.
_G17_CHUNK = 4096
# Decimal exponents covered by the tables.
_K_MIN, _K_MAX = -252, 252
# A fraction closer than this to one half is left to Python.
_TIE_MARGIN = 2.0**-40
# 2**27 + 1: Veltkamp's constant, splits a double into two 26-bit halves.
_SPLIT = 134217729.0
_LE64 = np.dtype("<u8")


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**(16 - k) for k in [_K_MIN, _K_MAX] as hi + lo doubles, with hi
    split into two halves of 26 bits.

    hi is the double nearest to 10**(16 - k) and lo the double nearest to
    the remainder, both from exact integer arithmetic.
    """
    hi, lo = [], []
    for p in range(16 - _K_MIN, 15 - _K_MAX, -1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den  # int / int rounds correctly
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi_arr = np.array(hi)
    c = hi_arr * _SPLIT
    hi_head = c - (c - hi_arr)
    return hi_head, hi_arr - hi_head, np.array(lo)


@functools.cache
def _field_words() -> tuple[np.ndarray, ...]:
    """Tables that lay out a field in four words, the layout of each exponent.

    Bytes of a 32-byte field: 0 the sign, 1..5 the prefix ``0.`` and zeros of
    the fixed notation below 1, 7..23 the 17 digits.  The point goes in at
    byte 7 + pp, pp digits from the first, and the digits from there on move
    up one byte; the suffix ``e±XX`` and the comma take bytes 25..30.  A
    layout is e notation (0), fixed below 1 (1), or fixed with 1 + j digits
    before the point (2 + j).  Returns, by k - _K_MIN, the layout and the
    constant words 0 and 3 (prefix, suffix); and by layout * 18 + nsig, for
    nsig significant digits left after trailing zeros, the (4, entries)
    masks of the digit bytes that stay and that move, and the point.
    """
    k = np.arange(_K_MIN, _K_MAX + 1)
    layout = np.where((k >= 0) & (k < 17), k + 2, np.where((k >= -4) & (k < 0), 1, 0))
    ends = np.frombuffer(
        b"".join(
            b"\0" + (b"0." + b"0" * (-exp - 1) if -4 <= exp < 0 else b"").ljust(24, b"\0")
            + (b"," if -4 <= exp < 17 else b"e%+03d," % exp).ljust(7, b"\0")
            for exp in k.tolist()
        ),
        _LE64,
    ).reshape(len(k), 4)
    # digits before the point, and those that stripping trailing zeros keeps
    pp = np.array([1, 17, *range(1, 18)])[:, None, None]
    whole = np.array([1, 0, *range(1, 18)])[:, None, None]
    nsig = np.arange(18)[:, None]
    byte = np.arange(32)
    kept = np.maximum(nsig, whole)
    stay = (byte >= 8) & (byte < 7 + pp) & (byte - 7 < kept)
    moved = (byte > 7 + pp) & (byte - 8 < kept)
    dot = (byte == 7 + pp) & (nsig > pp)

    def words(mask, value):
        field = (mask.view(np.uint8) * np.uint8(value)).view(_LE64).reshape(-1, 4)
        return np.ascontiguousarray(field.T)  # each word a contiguous row, for take

    return (
        layout, np.ascontiguousarray(ends[:, 0]), np.ascontiguousarray(ends[:, 3]),
        words(stay, 0xFF), words(moved, 0xFF), words(dot, ord(".")),
    )


@functools.cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """ASCII of 0000..9999 as little-endian words, and their trailing zeros."""
    # int16 keeps the transient memory of the build small
    n = np.arange(10000, dtype=np.int16)
    place = np.array([1000, 100, 10, 1], np.int16)
    digits = (n[:, None] // place % 10 + ord("0")).astype(np.uint8)
    zeros = sum((n % 10**i == 0).astype(np.int8) for i in range(1, 5))
    return digits.view("<u4").ravel().astype(_LE64), zeros


def _times_ten(
    a: np.ndarray, i: np.ndarray, a_low: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(a + a_low) * 10**(16 - k) for k = i + _K_MIN, as p + t.

    p = a * hi rounded, and p + e = a * hi exactly (Dekker's two-product);
    t adds e, a * lo and a_low * hi.  Indices out of the table are clipped:
    the caller discards what they give.
    """
    head, tail, low = _powers_of_ten()
    h1, h2, lo = (table.take(i, mode="clip") for table in (head, tail, low))
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    hi = h1 + h2
    p = a * hi
    t = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * lo
    if a_low is not None:
        t += a_low * hi
    return p, t


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a * 10**(16 - k)) as int64, and the fraction it leaves.

    p + t is the product with the table's hi + lo (see _times_ten).  |t| <
    20, so rounding it costs under 2**-49; a * lo, under 2**-50; lo's own
    rounding, under 2**-49 for products below 2**57.
    """
    p, t = _times_ten(a, k - _K_MIN)
    whole = np.floor(t)
    # p >= 2**53 is an integer; a smaller p is off by one exponent and redone
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def _python_g17(values: list[float]) -> list[str]:
    """``'%.17g' % v`` of each value: the entries _format_rows cannot certify."""
    return ["%.17g" % v for v in values]


def _format_rows(block: np.ndarray) -> bytes:
    """_format_block's bytes for up to _G17_CHUNK values."""
    layout, prefix, suffix, stay, moved, point = _field_words()
    quad_ascii, quad_zeros = _quads()
    rows, nf = len(block), block.shape[1] - 2
    v = block[:, :nf].ravel()
    a = np.abs(v)
    certified = (a >= 1e-250) & (a <= 1e250)
    a[~certified] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    d, frac = _scaled(a, k)
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if len(off):
        # log10 missed the exponent by one
        k[off] += np.where(d[off] < 10**16, -1, 1)
        d[off], frac[off] = _scaled(a[off], k[off])
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    k[carry] += 1
    certified &= (np.abs(frac - 0.5) >= _TIE_MARGIN) & (d >= 10**16) & (d < 10**17)
    # any valid table entry: Python's text replaces these fields below
    d[~certified] = 10**16
    k[~certified] = 0
    # d = g0 g1 g2 g3 g4: one digit, then four groups of four (// and a
    # product take half the time of np.divmod)
    upper = d // 10**8
    lower = d - upper * 10**8
    g0 = upper // 10**8
    g1 = (upper - g0 * 10**8) // 10**4
    g2 = upper - g0 * 10**8 - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4
    z4, z3, z2, z1 = (quad_zeros.take(g) for g in (g4, g3, g2, g1))
    nsig = 17 - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)))
    kx = k - _K_MIN
    idx = layout.take(kx) * 18 + nsig
    w0 = (
        prefix.take(kx)
        | ((g0.astype(_LE64) + ord("0")) << 56)
        | np.signbit(v).astype(_LE64) * ord("-")
    )
    w1 = quad_ascii.take(g1) | (quad_ascii.take(g2) << 32)
    w2 = quad_ascii.take(g3) | (quad_ascii.take(g4) << 32)
    frame = np.empty((rows, 4 * nf + 1), _LE64)
    fields = frame[:, : 4 * nf].reshape(rows, nf, 4)
    fields[..., 0] = w0.reshape(rows, nf)
    fields[..., 1] = (
        (w1 & stay[1].take(idx)) | (((w1 << 8) | (w0 >> 56)) & moved[1].take(idx))
        | point[1].take(idx)
    ).reshape(rows, nf)
    fields[..., 2] = (
        (w2 & stay[2].take(idx)) | (((w2 << 8) | (w1 >> 56)) & moved[2].take(idx))
        | point[2].take(idx)
    ).reshape(rows, nf)
    fields[..., 3] = (
        ((w2 >> 56) & moved[3].take(idx)) | point[3].take(idx) | suffix.take(kx)
    ).reshape(rows, nf)
    # the flags, comma, CR and LF in the row's last word
    flags = block[:, nf:].astype(_LE64)
    frame[:, -1] = 0x0A0D302C30 + flags[:, 0] + (flags[:, 1] << 16)
    rest = np.flatnonzero(~certified)
    if len(rest):
        text = np.array(_python_g17(v[rest].tolist()), dtype="S31")
        field_bytes = frame.view(np.uint8)[:, : 32 * nf].reshape(rows, nf, 32)
        r, c = np.divmod(rest, nf)
        field_bytes[r, c, :31] = text.view(np.uint8).reshape(-1, 31)
        field_bytes[r, c, 31] = ord(",")
    return frame.tobytes().translate(None, b"\0")


@functools.cache
def _mantissa_tables() -> tuple[np.ndarray, ...]:
    """Tables of _parse_block, indexed by a length q in [0, 25].

    By the integer part's length q: the bytes below q of the three words.
    By the digit count q of the shifted mantissa (a zero, then its digits;
    see _parse_block): the low nibbles of its digit bytes in the three
    words, the shift that moves word 2's digits to its top bytes, and, with
    hi16 the value of its first 16 digits, the factor 10**(q - 16) of hi16 in
    D, the exponent -max(16 - q, 0) of D where q < 16 leaves trailing zeros
    in hi16, and the bound on hi16 that keeps D below 10**17.
    """
    q = np.arange(26)
    below = (np.arange(24) < q[:, None]).astype(np.uint8)
    digits = np.ascontiguousarray(
        (below * (np.arange(24) >= 1) * np.uint8(0x0F)).view(_LE64)
    )
    below = np.ascontiguousarray((below * np.uint8(0xFF)).view(_LE64))
    word2_up = np.clip(8 * (24 - q), 0, 64).astype(np.uint64)
    hi16_factor = 10 ** np.clip(q - 16, 0, 9)
    exponent = -np.clip(16 - q, 0, 16)
    hi16_bound = np.where(q > 16, 10 ** np.clip(33 - q, 0, 18), 10**17)
    return below, digits, word2_up, hi16_factor, exponent, hi16_bound


def _unaligned(buf: np.ndarray, dtype: str) -> np.ndarray:
    """View of buf whose element j is the item of the dtype at byte j."""
    item = np.dtype(dtype).itemsize
    return np.ndarray((len(buf) - item + 1,), dtype, buf, 0, (1,))


def _trailing_zeros(m: np.ndarray) -> np.ndarray:
    """Trailing zero bits of each word: the index of its lowest set bit, or
    -1 for a zero word."""
    # m & -m, the lowest set bit alone, is a power of two that a double holds
    # exactly; frexp gives its exponent plus one, and 0 for zero
    return np.frexp((m & (np.uint64(0) - m)).astype(np.float64))[1] - 1


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The number whose 8 decimal digits are the bytes of each little-endian
    word, first digit in the low byte (SWAR: pairs, then fours, then eights)."""
    w = (w * np.uint64(10 * 256 + 1)) >> np.uint64(8)
    w = ((w & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(100 * 2**16 + 1)) >> np.uint64(16)
    w = ((w & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(10000 * 2**32 + 1)) >> np.uint64(32)
    return w.view(np.int64)


def _parse_block(buf: np.ndarray, size: int, width: int) -> np.ndarray | None:
    """The fields of buf[:size], whole CRLF lines of `width` fields each, as
    one flat float array, or None where the block leaves that dialect.

    buf holds _PARSE_PAD zero bytes past `size`.  A field is certified here
    when it reads [-]digits[.digits][e(+|-)dd[d]] in at most 24 bytes past
    its sign, with at most 23 digits, at most 17 of them significant, a
    value D * 10**E whose E lies in the power table (so the value is
    normal), and a product not within the tie margin of a rounding
    boundary.  Values are returned only when every field is certified: any
    other field, like text outside the dialect, gives None.
    """
    text = buf[:size]
    ends = np.flatnonzero((text == ord(",")) | (text == ord("\r")))
    rows = len(ends) // width
    line_ends = ends[width - 1 :: width]
    if not (
        len(ends) == rows * width
        and (buf.take(line_ends) == ord("\r")).all()
        and np.count_nonzero(buf.take(ends) == ord("\r")) == rows
        and (buf.take(line_ends + 1) == ord("\n")).all()
    ):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    starts[width::width] += 1  # past the LF
    below, digits, word2_up, hi16_factor, exponent, hi16_bound = _mantissa_tables()
    # bit j of m: byte j of the field, past its sign, is not a digit;
    # bit 24 stands for the end of the 24 bytes read
    nondigit = np.packbits((buf - np.uint8(ord("0"))) > 9, bitorder="little")
    neg = buf.take(starts) == ord("-")
    s = starts + neg
    length = ends - s
    m = (_unaligned(nondigit, "V8")[s >> 3].view(_LE64) >> (s & 7).astype(np.uint64))
    m = (m & np.uint64(0xFFFFFF)) | np.uint64(1 << 24)
    point = _trailing_zeros(m)
    has_point = (point < 24) & (buf.take(s + point) == ord("."))
    m = np.where(has_point, m & (m - np.uint64(1)), m)
    mantissa = _trailing_zeros(m)
    has_e = buf.take(s + mantissa) == ord("e")
    nd = mantissa - has_point + 1
    # nd = 25: 24 digits with no point, of which only 23 fit the words read
    ok = ((mantissa == length) | has_e) & (nd >= 2) & (nd <= 24)
    # The point removed: the integer part moves up one byte onto it, so the
    # digits are bytes [1, nd) after a zero at byte 0.  Word 0 holds an
    # integer part of up to 7 digits; a longer one also moves across words.
    w = _unaligned(buf, "V24")[s].view(_LE64).reshape(-1, 3)
    longer = np.flatnonzero(point > 7)
    if len(longer):
        head = w[longer] & below.take(point[longer], axis=0)
        moved = head << np.uint64(8)
        moved[:, 1:] |= head[:, :-1] >> np.uint64(56)
        moved |= w[longer] & ~below.take(point[longer] + 1, axis=0)
    w0 = w[:, 0]
    w[:, 0] = ((w0 & below[:, 0].take(point)) << np.uint64(8)) | (
        w0 & ~below[1:, 0].take(point)
    )
    if len(longer):
        w[longer] = moved
    w &= digits.take(nd, axis=0)
    w[:, 2] <<= word2_up.take(nd)
    w = _eight_digits(w)
    hi16 = w[:, 0] * 10**8 + w[:, 1]
    ok &= hi16 < hi16_bound.take(nd)
    # a wrapped product would warn when cast to a double and back
    d = np.where(ok, hi16 * hi16_factor.take(nd) + w[:, 2], 0)
    e10 = point - mantissa + has_point + exponent.take(nd)
    ei = np.flatnonzero(has_e)
    if len(ei):
        # 'e', the sign, two or three digits and the terminator, as one word
        at = (s + mantissa)[ei]
        count = ends[ei] - at - 2
        x = _unaligned(buf, "V8")[at].view(_LE64)
        sign = ((x >> np.uint64(8)) & np.uint64(0xFF)).view(np.int64)
        # the digits moved to the top bytes, their low nibbles kept
        x = (x >> np.uint64(16)) << (np.uint64(8) * (8 - count).astype(np.uint64))
        x = _eight_digits(x & np.uint64(0x0F0F0F0F0F0F0F0F))
        e10[ei] += (ord(",") - sign) * x  # ',' lies between '+' and '-'
        # the exponent's digits run up to the next non-digit; a tail of zero
        # (no terminator within the bytes read) counts -1 and fails
        tail = m[ei] >> (mantissa[ei] + 2).astype(np.uint64)
        ok[ei] &= (
            (np.abs(ord(",") - sign) == 1)
            & ((count == 2) | (count == 3))
            & (_trailing_zeros(tail) == count)
        )
    i = (16 - _K_MIN) - e10
    ok &= (i >= 0) & (i <= _K_MAX - _K_MIN)
    # D = dh + dl exactly: D < 2**57, so |dl| <= 8.  Against the exact
    # D * 10**E, p + t is off by under 2**-100 p: the two-product is exact,
    # t is below 2**-51 p and its roundings cost under 2**-101 p, and
    # the dropped terms (dh and dl times lo's rounding, dl * lo) under
    # 2**-105 p.  An ulp of the result is at least 2**-53 p, so the error is
    # below 2**-47 ulp, and tol, 2**-93 p, lies in [2**-41, 2**-40) ulp.
    # Rounding is monotone, so when both ends of p + t -/+ tol round to the
    # same double, so does the exact product; a tie, or a product within tol
    # of one, is not certified.
    dh = d.astype(np.float64)
    p, t = _times_ten(dh, i, (d - dh.astype(np.int64)).astype(np.float64))
    tol = p * (_TIE_MARGIN * 2.0**-53)
    r = p + (t - tol)
    ok &= r == p + (t + tol)
    return np.where(neg, -r, r) if ok.all() else None


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

