"""Enhancer backends behind a single length-preserving contract.

The curation math subtracts the enhanced signal from the input, so every
backend must return a buffer of exactly the input's length and rate. A
mismatch is a contract violation and is raised, never padded over.

Backends:
  identity       pass-through (the documented degenerate case: zero residual)
  spectral_gate  STFT noise gate, the built-in baseline
  oracle         returns a stored clean reference (test fixture for exact SNR)
  external       file-exchange adapter so any offline model can plug in
"""

from __future__ import annotations

import logging
import math
import shlex
import string
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .audio_io import AudioBuffer, read_wav, write_wav
from .dsp import _BLOCK_FRAMES, StftConfig, istft, stft
from .schema import ConfigError, canonical_json, check_fields, check_kind, encode

logger = logging.getLogger(__name__)

# Parameters of an external enhancer or VAD: the keyword arguments of
# run_exchange_command. The command needs {input} and {output} placeholders.
EXTERNAL_PARAMS = {"command": str, "exchange_dir": str, "timeout_s": float}


def check_external(params: dict[str, Any], names: tuple[str, str], what: str) -> None:
    """Reject, with a ConfigError naming the field, an external command's
    parameters: a timeout_s outside (0, MAX_TIMEOUT_S] or a template it
    cannot fill.

    The template is split as shlex.split splits it, and each token is read
    by the parser str.format runs. The placeholders must be exactly
    ``{name}`` for each of names; a literal brace is written ``{{`` or ``}}``.
    """
    command = params.get("command", "")
    if not 0 < params.get("timeout_s", DEFAULT_TIMEOUT_S) <= MAX_TIMEOUT_S:
        raise ConfigError(f"external {what} timeout_s must be in (0, {MAX_TIMEOUT_S}] s, "
                          f"got {params['timeout_s']}")
    try:
        fields = _placeholders(command)
    except ValueError as exc:  # an unclosed quote or brace, or a lone }
        raise ConfigError(f"external {what} command {command!r}: {exc}") from exc
    a, b = names
    if not {a, b} <= fields:
        raise ConfigError(f"external {what} command must contain {{{a}}} and {{{b}}}")
    unknown = sorted(fields - {a, b})
    if unknown:
        raise ConfigError(f"external {what} command has unknown placeholder(s) {unknown}; "
                          "write a literal brace as {{ or }}")


def _placeholders(command: str) -> set[str]:
    """The field names of a command template's tokens; ValueError for a
    template str.format cannot parse or a field that is not a plain name."""
    fields = set()
    for tok in shlex.split(command):
        for _, name, spec, conversion in string.Formatter().parse(tok):
            if spec or conversion:
                raise ValueError(f"placeholder {{{name}}} takes no format spec or conversion")
            if name is not None:
                fields.add(name)
    return fields


# Every enhancer kind with the name and type of each parameter it takes.
ENHANCER_PARAMS: dict[str, dict[str, type]] = {
    "identity": {},
    "spectral_gate": {"gate_threshold_db": float, "attenuation_db": float},
    "oracle": {"reference_dir": str},  # clean files looked up by basename
    "external": EXTERNAL_PARAMS,
}

DEFAULT_TIMEOUT_S = 600.0
MAX_TIMEOUT_S = (2**31 - 1) / 1000  # subprocess waits in whole ms held in a C int

# Bins whose floor spectral_gate_enhance takes at once, small next to the spectrum.
_GATE_BINS = 32


class EnhancerError(Exception):
    """Backend failure or contract violation during enhancement."""


@dataclass(frozen=True)
class EnhancerSpec:
    """Which backend to run and its parameters, typed by ENHANCER_PARAMS."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(type(self), vars(self))
        check_kind(self.kind, self.params, ENHANCER_PARAMS, "enhancer")
        if self.kind == "spectral_gate":
            if self.params.get("attenuation_db", 0.0) < 0:
                raise ValueError(f"attenuation_db must be >= 0, got {self.params['attenuation_db']}")
            # the amplitude ratio spectral_gate_enhance gates by, as a float, whose
            # power raises where a numpy float's gives inf
            try:
                10.0 ** (float(self.params.get("gate_threshold_db", 0.0)) / 20.0)
            except OverflowError as exc:
                raise ValueError(f"gate_threshold_db {self.params['gate_threshold_db']} dB "
                                 "overflows as an amplitude ratio") from exc
        elif self.kind == "oracle":
            if "reference_dir" not in self.params:
                raise ValueError("oracle enhancer requires a reference_dir parameter")
        elif self.kind == "external":
            check_external(self.params, ("input", "output"), "enhancer")

    def identifier(self) -> str:
        """Canonical serialized form, stable enough to re-run from a manifest."""
        return canonical_json(encode(self))


def spectral_gate_enhance(
    buf: AudioBuffer,
    cfg: StftConfig,
    gate_threshold_db: float = 20.0,
    attenuation_db: float = 40.0,
) -> AudioBuffer:
    """Attenuate time-frequency cells close to the per-bin noise floor.

    The floor per bin is the 10th percentile of magnitude over time; cells
    below floor + gate_threshold_db are scaled down by attenuation_db.

    The signal is zero-padded by P = hop * ceil((w - hop) / hop) samples at
    the start, and by P plus what makes the last frame end on the padded
    signal's last sample at the end. Every input sample is then covered by
    as many frames as an interior one, so the weighted overlap-add
    normalisation (Griffin & Lim 1984) is the same at the edges as inside,
    and the output is the slice [P, P + n) of the inverse transform. The
    floor is taken over the frames of the unpadded signal only, so it is
    the floor of the signal itself; every frame is gated.

    Two passes over the one (steps, bins) spectrum stft returns:

    1. Floor, _GATE_BINS bins at a time: the block's magnitudes go into one
       reused C-ordered (_GATE_BINS, steps) buffer, written through its
       transpose in the spectrum's memory order, and _floor_10th takes
       the floor from it with a single-kth partition, bit for bit what
       np.percentile returns. One limit (floor times threshold) per bin.
    2. Gate, in place, in the _BLOCK_FRAMES-row blocks that istft inverts.

    Working set: the spectrum, one output signal, one magnitude buffer of
    _GATE_BINS bins and one block's magnitudes and mask; no full-size
    magnitude or mask exists. The padded copy of the input is freed once
    the spectrum exists, and the output is a view of the inverse
    transform's signal, not a second copy of it.
    """
    n = len(buf)
    w, hop = cfg.window_len, cfg.hop
    if n < w:
        logger.warning(
            "buffer of %d samples is shorter than one window (%d); returning unchanged", n, w,
        )
        return AudioBuffer(buf.samples.copy(), buf.sample_rate, source=buf.source)

    lead = hop * -(-(w - hop) // hop)
    padded = np.zeros(lead + n + lead + (w - n) % hop)
    padded[lead : lead + n] = buf.samples
    values = stft(padded, cfg)
    del padded  # the spectrum holds the signal from here on
    scored = slice(lead // hop, lead // hop + (n - w) // hop + 1)  # the unpadded signal's frames
    _gate(values, scored, 10.0 ** (gate_threshold_db / 20.0), 10.0 ** (-attenuation_db / 20.0))
    y = istft(values, cfg)
    return AudioBuffer(y[lead : lead + n], buf.sample_rate, source=buf.source)


def _gate(values: np.ndarray, scored: slice, threshold: float, gain: float) -> None:
    """Scale by ``gain``, in place, the cells of ``values`` (steps, bins)
    whose magnitude is below ``threshold`` times their bin's floor, the
    floor taken over the rows ``scored``. A function of its own, so no view
    of the spectrum outlives the gate."""
    steps, bins = values.shape
    floor_rows = values[scored]
    limit = np.empty(bins)
    mag = np.empty((_GATE_BINS, floor_rows.shape[0]))
    for b in range(0, bins, _GATE_BINS):
        rows = mag[: min(_GATE_BINS, bins - b)]
        np.abs(floor_rows[:, b : b + _GATE_BINS], out=rows.T)
        with np.errstate(over="ignore"):  # an infinite limit gates every cell of the bin
            np.multiply(_floor_10th(rows), threshold, out=limit[b : b + _GATE_BINS])
    for t in range(0, steps, _BLOCK_FRAMES):
        block = values[t : t + _BLOCK_FRAMES]
        np.multiply(block, gain, out=block, where=np.abs(block) < limit)


def _floor_10th(mag: np.ndarray) -> np.ndarray:
    """``np.percentile(mag, 10, axis=1)`` bit for bit, for a 2-D float64
    ``mag`` that it reorders in place along axis 1.

    np.percentile partitions a copy on four kth values; one kth and the
    minimum above it give the same two order statistics, and numpy's
    'linear' rule then combines them with the same operations: virtual
    index (n - 1) * 0.1, lo + (hi - lo) * g, or hi - (hi - lo) * (1 - g)
    when g >= 0.5.
    """
    n = mag.shape[1]
    virtual = (n - 1) * 0.1
    k = math.floor(virtual)
    g = virtual - k
    if n == 1:  # numpy takes the one value at both ends
        lo = hi = mag[:, 0]
    else:
        mag.partition(k, axis=1)
        lo = mag[:, k]
        hi = mag[:, k + 1 :].min(axis=1)
    diff = hi - lo
    if g >= 0.5:
        return hi - diff * (1 - g)
    return lo + diff * g


def _oracle_enhance(buf: AudioBuffer, reference_dir: str) -> AudioBuffer:
    if buf.source is None:
        raise EnhancerError("oracle enhancer needs a buffer with a source path to look up")
    ref_path = Path(reference_dir) / Path(buf.source).name
    if not ref_path.is_file():
        raise EnhancerError(f"oracle reference not found: {ref_path}")
    return read_wav(ref_path)


def run_exchange_command(
    command: str,
    inputs: dict[str, AudioBuffer],
    exchange_dir: str | None = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    what: str = "enhancer",
) -> tuple[str, AudioBuffer | None]:
    """Run an external command on buffers exchanged as float-32 WAVs.

    Each call runs in a temporary directory of its own, under
    ``exchange_dir`` (made if missing) or the system temporary directory,
    removed with all it holds on return. Each input is written there as
    ``{name}.wav`` and substituted for its ``{name}`` placeholder, per token
    of the command template. Exit code 0 is required. Returns the command's
    stdout and, when the template has an ``{output}`` placeholder, the
    buffer it wrote there; otherwise None. Every failure, an exchange
    directory that cannot be made or a program that cannot start included,
    is an EnhancerError.
    """
    try:
        if exchange_dir:
            Path(exchange_dir).mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=exchange_dir or None, ignore_cleanup_errors=True) as tmp:
            paths = {name: Path(tmp, f"{name}.wav") for name in [*inputs, "output"]}
            argv = [tok.format(**paths) for tok in shlex.split(command)]
            for name, buf in inputs.items():
                write_wav(paths[name], buf)
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout_s)
            if proc.returncode != 0:
                raise EnhancerError(
                    f"external {what} exited {proc.returncode}: {argv} "
                    f"stdout={proc.stdout.strip()!r} stderr={proc.stderr.strip()!r}"
                )
            if "output" not in _placeholders(command):
                return proc.stdout, None
            if not paths["output"].is_file():
                raise EnhancerError(f"external {what} produced no output file: {argv}")
            return proc.stdout, read_wav(paths["output"])
    except OSError as exc:  # no exchange directory, no such program, or not executable
        raise EnhancerError(f"external {what} could not start: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise EnhancerError(f"external {what} timed out after {timeout_s} s: {exc.cmd}") from exc


def check_returned(out: AudioBuffer, buf: AudioBuffer, what: str) -> AudioBuffer:
    """``out``, which answers ``buf``, relabelled with ``buf``'s source; an
    EnhancerError naming both values and ``out``'s source if a length or rate differs."""
    if len(out) != len(buf):
        raise EnhancerError(f"{what} broke the length contract: expected {len(buf)} samples, "
                            f"got {len(out)} from {out.source}")
    if out.sample_rate != buf.sample_rate:
        raise EnhancerError(f"{what} broke the rate contract: expected {buf.sample_rate} Hz, "
                            f"got {out.sample_rate} from {out.source}")
    out.source = buf.source
    return out


def enhance(buf: AudioBuffer, spec: EnhancerSpec, stft_cfg: StftConfig) -> AudioBuffer:
    """Run the configured backend and enforce the shape-alignment contract.
    ``stft_cfg`` is the analysis the spectral gate uses; other backends ignore it."""
    if spec.kind == "identity":
        out = AudioBuffer(buf.samples.copy(), buf.sample_rate)
    elif spec.kind == "spectral_gate":
        out = spectral_gate_enhance(buf, stft_cfg, **spec.params)
    elif spec.kind == "oracle":
        out = _oracle_enhance(buf, **spec.params)
    else:
        out = run_exchange_command(inputs={"input": buf}, **spec.params)[1]
    return check_returned(out, buf, f"enhancer {spec.kind!r}")
