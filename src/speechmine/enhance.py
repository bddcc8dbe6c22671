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

import hashlib
import json
import logging
import shlex
import subprocess
import tempfile
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .audio_io import AudioBuffer, read_wav, write_wav
from .dsp import StftConfig, istft, stft

logger = logging.getLogger(__name__)

ENHANCER_KINDS = ("identity", "spectral_gate", "oracle", "external")

DEFAULT_GATE_THRESHOLD_DB = 20.0
DEFAULT_ATTENUATION_DB = 40.0
DEFAULT_TIMEOUT_S = 600.0


class EnhancerError(Exception):
    """Backend failure or contract violation during enhancement."""


@dataclass(frozen=True)
class EnhancerSpec:
    """Which backend to run and its parameters.

    Parameters by kind:
      spectral_gate: gate_threshold_db, attenuation_db
      oracle:        reference_dir (clean files looked up by basename)
      external:      command with {input}/{output} placeholders,
                     optional exchange_dir and timeout_s
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ENHANCER_KINDS:
            raise ValueError(f"unknown enhancer kind {self.kind!r}; expected one of {ENHANCER_KINDS}")
        if self.kind == "spectral_gate":
            att = self.params.get("attenuation_db", DEFAULT_ATTENUATION_DB)
            if att < 0:
                raise ValueError(f"attenuation_db must be >= 0, got {att}")
        elif self.kind == "oracle":
            if "reference_dir" not in self.params:
                raise ValueError("oracle enhancer requires a reference_dir parameter")
        elif self.kind == "external":
            cmd = self.params.get("command", "")
            if "{input}" not in cmd or "{output}" not in cmd:
                raise ValueError("external enhancer command must contain {input} and {output}")

    def identifier(self) -> str:
        """Canonical serialized form, stable enough to re-run from a manifest."""
        return json.dumps({"kind": self.kind, **self.params}, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_identifier(cls, text: str) -> "EnhancerSpec":
        obj = json.loads(text)
        kind = obj.pop("kind")
        return cls(kind=kind, params=obj)


def spectral_gate_enhance(
    buf: AudioBuffer,
    gate_threshold_db: float = DEFAULT_GATE_THRESHOLD_DB,
    attenuation_db: float = DEFAULT_ATTENUATION_DB,
    cfg: StftConfig | None = None,
) -> AudioBuffer:
    """Attenuate time-frequency cells close to the per-bin noise floor.

    The floor per bin is the 10th percentile of magnitude over time; cells
    below floor + gate_threshold_db are scaled down by attenuation_db, in
    place in the spectrogram (no gated copy), and the magnitudes are freed
    before the inverse transform. The output is trimmed/zero-padded back to
    the input length (the overlap-add never covers the final partial hop).
    """
    cfg = cfg or StftConfig()
    if len(buf) < cfg.window_len:
        logger.warning(
            "buffer of %d samples is shorter than one window (%d); returning unchanged",
            len(buf), cfg.window_len,
        )
        return AudioBuffer(buf.samples.copy(), buf.sample_rate, source=buf.source)

    spec = stft(buf, cfg)
    mag = np.abs(spec.values)
    floor = np.percentile(mag, 10, axis=1, keepdims=True)
    gate = mag < floor * 10.0 ** (gate_threshold_db / 20.0)
    del mag
    gain = 10.0 ** (-attenuation_db / 20.0)
    np.multiply(spec.values, gain, out=spec.values, where=gate)

    y = istft(spec, cfg).samples
    out = np.zeros(len(buf))
    n = min(len(buf), y.size)
    out[:n] = y[:n]
    return AudioBuffer(out, buf.sample_rate, source=buf.source)


def _oracle_enhance(buf: AudioBuffer, reference_dir: str) -> AudioBuffer:
    if buf.source is None:
        raise EnhancerError("oracle enhancer needs a buffer with a source path to look up")
    ref_path = Path(reference_dir) / Path(buf.source).name
    if not ref_path.is_file():
        raise EnhancerError(f"oracle reference not found: {ref_path}")
    ref = read_wav(ref_path)
    if ref.sample_rate != buf.sample_rate:
        raise EnhancerError(
            f"oracle reference {ref_path} rate {ref.sample_rate} != input rate {buf.sample_rate}"
        )
    return AudioBuffer(ref.samples, buf.sample_rate, source=buf.source)


def run_exchange_command(
    buf: AudioBuffer,
    command: str,
    exchange_dir: str | None = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    what: str = "enhancer",
) -> AudioBuffer:
    """Round-trip a buffer through an external command via float-32 WAVs.

    The command template's {input}/{output} placeholders are substituted
    per token. Exchange filenames embed a content hash plus a unique
    suffix so concurrent invocations never collide. Exit code 0 and an
    output of identical length and rate are required.
    """
    exdir = Path(exchange_dir) if exchange_dir else Path(tempfile.gettempdir())
    exdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(buf.samples.astype("<f8").tobytes()).hexdigest()[:12]
    tag = f"{digest}_{uuid.uuid4().hex[:8]}"
    in_path = exdir / f"{tag}_in.wav"
    out_path = exdir / f"{tag}_out.wav"
    write_wav(in_path, buf, "float32")
    argv = [tok.format(input=str(in_path), output=str(out_path)) for tok in shlex.split(command)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout_s)
        if proc.returncode != 0:
            raise EnhancerError(
                f"external {what} exited {proc.returncode}: {argv} "
                f"stdout={proc.stdout.strip()!r} stderr={proc.stderr.strip()!r}"
            )
        if not out_path.is_file():
            raise EnhancerError(f"external {what} produced no output file {out_path}")
        result = read_wav(out_path)
    except subprocess.TimeoutExpired as exc:
        raise EnhancerError(f"external {what} timed out after {timeout_s} s: {argv}") from exc
    finally:
        in_path.unlink(missing_ok=True)
        out_path.unlink(missing_ok=True)
    if len(result) != len(buf):
        raise EnhancerError(
            f"external {what} length contract violated: expected {len(buf)} samples, "
            f"got {len(result)}"
        )
    if result.sample_rate != buf.sample_rate:
        raise EnhancerError(
            f"external {what} rate contract violated: expected {buf.sample_rate} Hz, "
            f"got {result.sample_rate}"
        )
    return AudioBuffer(result.samples, buf.sample_rate, source=buf.source)


def external_enhance(buf: AudioBuffer, spec: EnhancerSpec) -> AudioBuffer:
    return run_exchange_command(
        buf,
        spec.params["command"],
        exchange_dir=spec.params.get("exchange_dir"),
        timeout_s=float(spec.params.get("timeout_s", DEFAULT_TIMEOUT_S)),
    )


def enhance(buf: AudioBuffer, spec: EnhancerSpec, stft_cfg: StftConfig | None = None) -> AudioBuffer:
    """Run the configured backend and enforce the shape-alignment contract."""
    if spec.kind == "identity":
        out = AudioBuffer(buf.samples.copy(), buf.sample_rate, source=buf.source)
    elif spec.kind == "spectral_gate":
        out = spectral_gate_enhance(
            buf,
            gate_threshold_db=float(spec.params.get("gate_threshold_db", DEFAULT_GATE_THRESHOLD_DB)),
            attenuation_db=float(spec.params.get("attenuation_db", DEFAULT_ATTENUATION_DB)),
            cfg=stft_cfg,
        )
    elif spec.kind == "oracle":
        out = _oracle_enhance(buf, spec.params["reference_dir"])
    else:
        out = external_enhance(buf, spec)
    if len(out) != len(buf):
        raise EnhancerError(
            f"enhancer {spec.kind!r} length contract violated: "
            f"expected {len(buf)} samples, got {len(out)}"
        )
    return out
