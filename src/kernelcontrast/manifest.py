"""Provenance records for CLI runs.

Every run that writes an output also writes a RunManifest JSON next to
it: tool version, the subcommand and its flags, a hash of the flags,
sha256 digests of the inputs (a kc manifest given as input is hashed
without its timestamps), the seed, a metric map, and one record per
optimizer run (stop reason, iterations, evaluations, final gradient norm;
empty for commands that train nothing). The CLI passes as flags the
resolved value of every option of the subcommand (null where the run's
method does not read it) and, for training commands, the resolved
optimizer settings under "optimizer", so the digest covers everything
that decides the outputs and the flags alone replay the run. Timestamps live in their own field so that everything else
in the file is reproducible byte for byte; diffing two manifests after
dropping "timestamps" answers "same run?" directly.

The digests are SHA-256 from CPython's built-in module (``_sha2`` on 3.12
and later, ``_sha256`` before), as the standard library's ``random`` takes
``_sha512``: importing ``hashlib`` loads OpenSSL, about 3.5 MB of a verify
run's peak memory, for digests that are the same either way. ``hashlib``
serves only an interpreter built without the module.
"""

from __future__ import annotations

import dataclasses
import json
import time

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = [
    "RunManifest",
    "sha256_file",
    "config_hash",
    "make_manifest",
    "write_manifest",
    "load_manifest",
]


def sha256_file(path: str) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_digest(path: str) -> str:
    """sha256 of an input file. A kc manifest is hashed as its canonical JSON
    without ``timestamps``, so two identical runs record the same digest."""
    with open(path, "rb") as fh:
        is_json = fh.read(1) == b"{"
    try:
        obj = load_manifest(path) if is_json else None
    except ValueError:
        obj = None
    if not (obj and obj.get("tool") == "kc" and "timestamps" in obj):
        return sha256_file(path)
    del obj["timestamps"]
    canon = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return sha256(canon.encode()).hexdigest()


def config_hash(settings: dict) -> str:
    """Hash the effective key=value configuration, order-independent."""
    canon = "\n".join(f"{k}={settings[k]}" for k in sorted(settings))
    return sha256(canon.encode()).hexdigest()


@dataclasses.dataclass
class RunManifest:
    tool: str
    version: str
    subcommand: str
    flags: dict
    config_digest: str
    inputs: dict
    seed: int
    metrics: dict
    timestamps: dict
    optimizer: list

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"


def make_manifest(
    subcommand: str,
    flags: dict,
    input_paths: list,
    seed: int,
    metrics: dict,
    started: float,
    version: str,
    optimizer: list | tuple = (),
) -> RunManifest:
    finished = time.time()
    return RunManifest(
        tool="kc",
        version=version,
        subcommand=subcommand,
        flags={k: _jsonable(v) for k, v in sorted(flags.items())},
        config_digest=config_hash({k: v for k, v in flags.items() if v is not None}),
        inputs={p: _input_digest(p) for p in sorted(set(input_paths))},
        seed=int(seed),
        metrics={k: _jsonable(v) for k, v in metrics.items()},
        timestamps={"started": started, "finished": finished},
        optimizer=list(optimizer),
    )


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def write_manifest(path: str, manifest: RunManifest) -> None:
    with open(path, "w") as fh:
        fh.write(manifest.to_json())


def load_manifest(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
