"""Seeded synthetic corpora for the benchmark workloads.

Everything here is generated by the benchmark's own code (numpy only), so
a change to the program under test never changes its inputs. A fixture is
a directory holding the files the CLI reads plus ``truth.json`` (what a
correct run must produce) and ``fixture.json`` (SHA-256 of every file).
Fixtures are cached per workload and seed; a cached fixture is reused only
when every hash still matches.

The amount of work is the same for every seed: file counts, durations,
SNR schedules and noise kinds are fixed, and the seed draws the speech and
noise signals. Timings and quality metrics therefore compare across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import struct
from pathlib import Path

import numpy as np

SAMPLE_RATE = 48000
FRAME_LEN = SAMPLE_RATE  # 1-s frames, as in the workload configs
SNR_THRESHOLD_DB = 20.0
RAYLEIGH_SIGMA_DB = 15.0
FIXTURE_VERSION = 8  # bump when generation changes, so old caches are not reused
LAYOUT_SEED = 3  # draws the fixed corpus layouts below

# curate_long: two 3-minute files; the speech level changes every 5 s
LONG_FILES = 2
LONG_SECONDS = 180
LONG_BLOCK_SECONDS = 5

# curate_oracle_many: 40 files of 10-20 s, three in four of them a
# fractional number of frames long, plus one corrupt file and one without a reference
MANY_FILES = 40
MANY_NOISE_KINDS = ("white", "pink", "babble")

# review: four 30-s sources, a three-round manifest of REVIEW_RECORDS
# records, REVIEW_SELECTED of which clear the export-ab --min-rho bound
REVIEW_SOURCES = 4
REVIEW_SOURCE_SECONDS = 30
REVIEW_RECORDS = 20_000
REVIEW_ROUNDS = 3
REVIEW_SELECTED = 16
REVIEW_MIN_RHO = 50.0
SEGMENT_FRAMES = 12  # length of the review manifest's records

# Both curate workloads tile 4-s segments. With 12-s segments one frame
# rejected near the threshold voids a whole 15-s block or short file, and
# recall then moves by a tenth from seed to seed.
CURATE_SEGMENT_SECONDS = 4.0

MANIFEST_FIELDS = (
    "source_uri", "round_id", "start_sample", "end_sample", "sample_rate",
    "frame_rho", "frame_fc", "config_hash", "enhancer_id",
)


# ---------------------------------------------------------------- signals


def speech_proxy(n: int, rng: np.random.Generator) -> np.ndarray:
    """Speech-like full-band signal: voiced runs of 1.2-2.2 s (glottal
    pulse train with a wandering pitch plus aspiration noise) separated by
    0.25-0.45 s of silence."""
    x = np.zeros(n)
    start = 0
    while start < n:
        end = min(n, start + int(rng.uniform(1.2, 2.2) * SAMPLE_RATE))
        length = end - start
        t = np.arange(length) / SAMPLE_RATE
        f0 = rng.uniform(110.0, 220.0) * np.exp(
            0.15 * np.sin(2 * np.pi * rng.uniform(0.3, 1.2) * t + rng.uniform(0, 2 * np.pi))
        )
        cycles = np.floor(np.cumsum(f0) / SAMPLE_RATE + rng.uniform(0.2, 0.6))
        pulses = np.flatnonzero(np.diff(cycles, prepend=cycles[0]) > 0)
        run = np.zeros(length)
        run[pulses] = rng.uniform(0.8, 1.2, pulses.size)
        run += 0.02 * np.diff(rng.standard_normal(length + 1))  # aspiration, high-pass
        x[start:end] = run
        start = end + int(rng.uniform(0.25, 0.45) * SAMPLE_RATE)
    return np.convolve(x, [1.0, 0.4, -0.25])[:n]


def noise(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-RMS white, pink (1/f power) or babble-like noise."""
    white = rng.standard_normal(n)
    if kind != "white":
        spec = np.fft.rfft(white)
        f = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
        f[0] = f[1]
        if kind == "pink":
            spec /= np.sqrt(f)
        elif kind == "babble":
            spec *= (f / (f + 150.0)) / (1.0 + (f / 2500.0) ** 2)
        else:
            raise ValueError(f"unknown noise kind {kind!r}")
        white = np.fft.irfft(spec, n=n)
        if kind == "babble":
            t = np.arange(n) / SAMPLE_RATE
            white *= 1.0 + 0.5 * np.sin(2 * np.pi * 3.7 * t + rng.uniform(0, 2 * np.pi))
    return white / np.sqrt(np.mean(np.square(white)))


def rayleigh_quantiles(count: int, sigma: float = RAYLEIGH_SIGMA_DB) -> np.ndarray:
    """SNRs in dB at the mid-quantiles of a Rayleigh(sigma) distribution:
    the same Rayleigh-shaped set for every seed."""
    p = (np.arange(count) + 0.5) / count
    return sigma * np.sqrt(-2.0 * np.log1p(-p))


def mix(clean: np.ndarray, unit_noise: np.ndarray, snr_db, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Scale the speech block by block so each block has the given SNR
    against the stationary noise; return (clean, noisy) scaled together
    to a -6 dBFS peak of the mix."""
    clean = clean.copy()
    for i, snr in enumerate(snr_db):
        sl = slice(i * block, (i + 1) * block)
        clean[sl] *= 10.0 ** (snr / 20.0) / np.sqrt(np.mean(np.square(clean[sl])))
    noisy = clean + unit_noise
    gain = 0.5 / np.max(np.abs(noisy))
    return clean * gain, noisy * gain


def frame_snr_db(clean: np.ndarray, noisy: np.ndarray) -> list[float]:
    """True SNR of each whole 1-s frame: clean level minus noise level,
    with the same -200 dB floor the program applies to silence."""
    count = clean.size // FRAME_LEN
    c = clean[: count * FRAME_LEN].reshape(count, FRAME_LEN)
    d = (noisy - clean)[: count * FRAME_LEN].reshape(count, FRAME_LEN)

    def level(m: np.ndarray) -> np.ndarray:
        return 20.0 * np.log10(np.maximum(np.sqrt(np.mean(np.square(m), axis=1)), 1e-10))

    return (level(c) - level(d)).tolist()


# ------------------------------------------------------------------ files


def write_wav(path: Path, samples: np.ndarray) -> np.ndarray:
    """Write mono IEEE float-32 and return the samples as stored."""
    data = np.clip(samples, -1.0, 1.0).astype("<f4")
    payload = data.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE" + b"fmt " + struct.pack(
        "<IHHIIHH", 16, 3, 1, SAMPLE_RATE, SAMPLE_RATE * 4, 4, 32
    ) + b"data" + struct.pack("<I", len(payload))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + payload)
    return data.astype(np.float64)


def wav_sample_count(path: Path) -> int:
    """Sample count of a mono float-32 WAV as written by the program, read
    from the data chunk's header."""
    with path.open("rb") as fh:
        raw = fh.read(4096)
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        if cid == b"data":
            return size // 4
        pos += 8 + size + (size & 1)
    raise ValueError(f"{path}: no data chunk")


def config(enhancer: dict, segment_seconds: float = CURATE_SEGMENT_SECONDS) -> dict:
    return {
        "sample_rate": SAMPLE_RATE,
        "segment_seconds": float(segment_seconds),
        "frame_seconds": 1.0,
        "snr_threshold_db": SNR_THRESHOLD_DB,
        "min_bandwidth_hz": 20000.0,
        "rho_max_db": 100.0,
        "round_id": 0,
        "enhancer": enhancer,
    }


def _write_json(path: Path, obj: object) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ------------------------------------------------------------- workloads

# The layout of a corpus (file durations, SNR schedule, noise kinds) is the
# same for every seed: which durations meet which SNRs decides how many
# whole segments exist, so a seeded layout would move recall and run time
# with the seed. The seed draws the speech and noise signals.
def _layout(table: int) -> np.random.Generator:
    return np.random.default_rng([LAYOUT_SEED, table])


def _build_long(root: Path, rng: np.random.Generator) -> dict:
    blocks = LONG_SECONDS // LONG_BLOCK_SECONDS
    snrs = _layout(0).permutation(rayleigh_quantiles(LONG_FILES * blocks)).reshape(LONG_FILES, blocks)
    kinds = ["white", "pink"] * (LONG_FILES // 2) + ["white"] * (LONG_FILES % 2)
    files = {}
    for i in range(LONG_FILES):
        n = LONG_SECONDS * SAMPLE_RATE
        clean, noisy = mix(speech_proxy(n, rng), noise(kinds[i], n, rng), snrs[i],
                           LONG_BLOCK_SECONDS * SAMPLE_RATE)
        name = f"corpus/long_{i:02d}.wav"
        stored = write_wav(root / name, noisy)
        files[name] = {"seconds": n / SAMPLE_RATE, "frame_snr_db": frame_snr_db(clean, stored)}
    _write_json(root / "config.json", config({"kind": "spectral_gate"}))
    return {"files": files, "expected_failures": []}


def _build_many(root: Path, rng: np.random.Generator) -> dict:
    # 10.0, 10.25, ... 19.75 s
    durations = _layout(1).permutation(10.0 + 0.25 * np.arange(MANY_FILES))
    snrs = _layout(2).permutation(rayleigh_quantiles(MANY_FILES))
    kinds = [MANY_NOISE_KINDS[i % 3] for i in range(MANY_FILES)]
    files = {}
    for i in range(MANY_FILES):
        n = int(durations[i] * SAMPLE_RATE)
        clean, noisy = mix(speech_proxy(n, rng), noise(kinds[i], n, rng), [snrs[i]], n)
        name = f"corpus/utt_{i:03d}.wav"
        stored_noisy = write_wav(root / name, noisy)
        stored_clean = write_wav(root / "clean" / Path(name).name, clean)
        files[name] = {"seconds": n / SAMPLE_RATE, "frame_snr_db": frame_snr_db(stored_clean, stored_noisy)}
    # planted bad inputs, sorted among the others: an unreadable file and
    # a readable one whose oracle reference does not exist
    corrupt = "corpus/utt_013_corrupt.wav"
    (root / corrupt).write_bytes(rng.integers(0, 256, 4096, dtype=np.uint8).tobytes())
    orphan = "corpus/utt_027_noref.wav"
    write_wav(root / orphan, noise("white", 12 * SAMPLE_RATE, rng) * 0.01)
    _write_json(root / "config.json", config({"kind": "oracle", "reference_dir": "clean"}))
    return {"files": files, "expected_failures": sorted([corrupt, orphan])}


def _build_review(root: Path, rng: np.random.Generator) -> dict:
    sources = []
    for i in range(REVIEW_SOURCES):
        n = REVIEW_SOURCE_SECONDS * SAMPLE_RATE
        _, noisy = mix(speech_proxy(n, rng), noise("white", n, rng), [35.0], n)
        name = f"audio/src_{i}.wav"
        write_wav(root / name, noisy)
        sources.append(name)
    cfg = config({"kind": "spectral_gate"}, SEGMENT_FRAMES)
    _write_json(root / "config.json", cfg)
    config_hash = _config_hash(cfg)
    starts = REVIEW_SOURCE_SECONDS - SEGMENT_FRAMES + 1
    # the selected segments are spread evenly over the sources, so export-ab
    # re-enhances the same amount of audio for every seed
    selected, others = [], []
    for s in sources:
        keys = [(s, r, f) for r in range(REVIEW_ROUNDS) for f in range(starts)]
        order = rng.permutation(len(keys))
        cut = REVIEW_SELECTED // REVIEW_SOURCES
        selected += [keys[k] for k in order[:cut]]
        others += [keys[k] for k in order[cut:]]

    def record(key, lo, hi) -> dict:
        src, rnd, frame = key
        return {
            "source_uri": src,
            "round_id": rnd,
            "start_sample": frame * FRAME_LEN,
            "end_sample": (frame + SEGMENT_FRAMES) * FRAME_LEN,
            "sample_rate": SAMPLE_RATE,
            "frame_rho": rng.uniform(lo, hi, SEGMENT_FRAMES).tolist(),
            "frame_fc": rng.uniform(20000.0, 24000.0, SEGMENT_FRAMES).tolist(),
            "config_hash": config_hash,
            "enhancer_id": '{"kind":"spectral_gate"}',
        }

    records = [record(k, REVIEW_MIN_RHO, 80.0) for k in selected]
    records += [
        record(others[k], SNR_THRESHOLD_DB + 0.5, REVIEW_MIN_RHO - 0.5)
        for k in rng.integers(0, len(others), REVIEW_RECORDS - REVIEW_SELECTED)
    ]
    records = [records[k] for k in rng.permutation(len(records))]
    records.sort(key=lambda r: r["round_id"])  # rounds were appended one after another
    with (root / "review.jsonl").open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({f: rec[f] for f in MANIFEST_FIELDS}) + "\n")
    seconds: dict[str, float] = {}
    frames: dict[str, int] = {}
    for rec in records:
        rid = str(rec["round_id"])
        seconds[rid] = seconds.get(rid, 0.0) + (rec["end_sample"] - rec["start_sample"]) / SAMPLE_RATE
        frames[rid] = frames.get(rid, 0) + SEGMENT_FRAMES
    return {
        "sources": {s: REVIEW_SOURCE_SECONDS for s in sources},
        "records": len(records),
        "round_seconds": seconds,
        "round_frames": frames,
        "selected": sorted([list(k) for k in selected]),
        "expected_failures": [],
    }


def _config_hash(cfg: dict) -> str:
    text = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


BUILDERS = {
    "curate_long": _build_long,
    "curate_oracle_many": _build_many,
    "review": _build_review,
}


# ------------------------------------------------------------------ cache


def _hash_files(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "fixture.json":
            out[p.relative_to(root).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def _cache_dir(cache_root: Path, workload: str, seed: int) -> Path:
    return cache_root / f"{workload}-v{FIXTURE_VERSION}-seed{seed}"


def fixture(cache_root: Path, workload: str, seed: int) -> tuple[Path, dict]:
    """Return (directory, truth) of the fixture for this workload and seed,
    building it unless a cached copy passes its hash check. Other seeds of
    the same workload are evicted, so the cache holds one corpus each."""
    root = _cache_dir(cache_root, workload, seed)
    meta_path = root / "fixture.json"
    if meta_path.is_file():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("files") == _hash_files(root):
            return root, json.loads((root / "truth.json").read_text(encoding="utf-8"))
    for old in cache_root.glob(f"{workload}-*"):
        shutil.rmtree(old)
    tmp = cache_root / f".tmp-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    rng = np.random.default_rng([FIXTURE_VERSION, seed, sum(map(ord, workload))])
    truth = BUILDERS[workload](tmp, rng)
    truth["workload"] = workload
    truth["seed"] = seed
    _write_json(tmp / "truth.json", truth)
    _write_json(tmp / "fixture.json", {"files": _hash_files(tmp)})
    tmp.rename(root)
    return root, truth


def input_seconds(truth: dict) -> float:
    """Seconds of valid input audio the workload's CLI calls process."""
    if "files" in truth:
        return math.fsum(f["seconds"] for f in truth["files"].values())
    used = {src for src, _, _ in truth["selected"]}
    return math.fsum(truth["sources"][s] for s in used)
