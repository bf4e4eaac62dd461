"""Immutable, versioned model state — the estimator's persistence unit.

The paper's estimator lives inside a DBMS process: the optimizer consults
it on every query while feedback-driven maintenance (Section 4, Section
5.4) mutates it concurrently, and it must survive restarts alongside the
catalog.  :class:`ModelState` is the state half of that state/engine
split: everything that *defines* a model — sample rows, per-dimension
bandwidth and kernel spec, epochs, RMSprop tuner accumulators, Karma and
reservoir counters, and the serialized RNG bit-generator state — packed
into one immutable, versioned container that every estimator family can
``snapshot()`` into and ``restore()`` from.

On-disk format (one file, written atomically via tmp-file + rename)::

    MAGIC | header length (8 bytes LE) | JSON header | npz payload

The JSON header carries the format version, the model kind, every scalar
field, and the SHA-256 checksum + byte length of the npz payload (which
holds all arrays).  :meth:`ModelState.load` verifies the magic, rejects
future format versions, and checks the payload length and checksum, so
truncated or corrupted checkpoints fail loudly with
:class:`CheckpointError` instead of silently restoring garbage.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

__all__ = [
    "CheckpointError",
    "FORMAT_VERSION",
    "ModelState",
    "generator_from_state",
    "generator_state",
]

#: On-disk format version written by :meth:`ModelState.save`.  Loads
#: reject files whose header claims a *newer* version (forward
#: compatibility is explicitly not promised); older versions are
#: accepted as long as the fields parse.
FORMAT_VERSION = 1

#: File magic; doubles as a human-greppable marker in hexdumps.
MAGIC = b"REPRO-MODELSTATE\n"

_LENGTH_STRUCT = struct.Struct("<Q")

#: Model kinds the estimator families stamp into their snapshots.
KNOWN_KINDS = ("kde", "self_tuning", "device")


class CheckpointError(RuntimeError):
    """A model-state file is corrupt, truncated, or from the future."""


# ----------------------------------------------------------------------
# RNG state round-tripping
# ----------------------------------------------------------------------
def generator_state(rng: np.random.Generator) -> dict:
    """JSON-serialisable snapshot of a generator's bit-generator state."""
    return _plain(rng.bit_generator.state)


def generator_from_state(state: dict) -> np.random.Generator:
    """Rebuild a :class:`numpy.random.Generator` from a state snapshot.

    The bit-generator class is resolved by the name recorded in the
    state dict (``PCG64`` for :func:`numpy.random.default_rng`), so the
    restored generator replays the exact stream the snapshotted one
    would have produced.
    """
    state = _revive(state)
    name = state.get("bit_generator")
    bit_generator_cls = getattr(np.random, str(name), None)
    if bit_generator_cls is None:
        raise CheckpointError(f"unknown bit generator {name!r} in RNG state")
    bit_generator = bit_generator_cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _plain(value):
    """Recursively convert numpy scalars/arrays to JSON-safe values."""
    if isinstance(value, dict):
        return {str(key): _plain(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(entry) for entry in value]
    if isinstance(value, np.ndarray):
        return {"__ndarray__": str(value.dtype), "data": value.tolist()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _revive(value):
    """Inverse of :func:`_plain` (rebuilds tagged ndarray entries)."""
    if isinstance(value, dict):
        if "__ndarray__" in value and set(value) == {"__ndarray__", "data"}:
            return np.asarray(value["data"], dtype=value["__ndarray__"])
        return {key: _revive(entry) for key, entry in value.items()}
    if isinstance(value, list):
        return [_revive(entry) for entry in value]
    return value


def _frozen_copy(array: np.ndarray, dtype=None) -> np.ndarray:
    copy = np.array(array, dtype=dtype, copy=True)
    copy.flags.writeable = False
    return copy


def _split_section(section: Optional[dict]) -> Tuple[dict, dict]:
    """Split a state section into (npz arrays, JSON scalars)."""
    if section is None:
        return {}, {}
    arrays: Dict[str, np.ndarray] = {}
    scalars: Dict[str, object] = {}
    for key, value in section.items():
        if isinstance(value, np.ndarray):
            arrays[key] = value
        else:
            scalars[key] = _plain(value)
    return arrays, scalars


@dataclass(frozen=True)
class ModelState:
    """Everything that defines one KDE model, immutably.

    Instances are value objects: every array is stored as a read-only
    copy, so a snapshot can never be mutated through the estimator that
    produced it (the property read-copy-update serving relies on).

    Parameters
    ----------
    kind:
        Estimator family (``"kde"`` / ``"self_tuning"`` / ``"device"``).
    sample:
        ``(s, d)`` sample rows, in the producing family's storage dtype
        (``float64`` host-side, the device precision for ``"device"``).
    bandwidth:
        ``(d,)`` per-dimension bandwidth vector (always ``float64``).
    kernels:
        Per-dimension kernel registry names.
    bandwidth_epoch / sample_epoch:
        The producing model's epoch counters at snapshot time.
    config:
        Family configuration as a plain dict (``SelfTuningConfig``
        fields, device precision/loss, ...); ``None`` for the static KDE.
    tuner / karma / reservoir:
        Component state dicts (see the components' ``get_state``).
    rng_state:
        Serialized bit-generator state of the model's replacement RNG.
    counters:
        Model-level counters (``points_replaced``, ``feedback_count``).
    """

    kind: str
    sample: np.ndarray
    bandwidth: np.ndarray
    kernels: Tuple[str, ...]
    bandwidth_epoch: int = 0
    sample_epoch: int = 0
    config: Optional[dict] = None
    tuner: Optional[dict] = None
    karma: Optional[dict] = None
    reservoir: Optional[dict] = None
    rng_state: Optional[dict] = None
    counters: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown model-state kind {self.kind!r}; "
                f"known kinds: {', '.join(KNOWN_KINDS)}"
            )
        # Row-major whatever the producer's layout, so checkpoint bytes
        # do not depend on how an estimator stores its sample.
        sample = np.array(self.sample, copy=True, order="C")
        if sample.ndim != 2 or sample.shape[0] == 0:
            raise ValueError("state sample must be a non-empty (s, d) array")
        bandwidth = np.array(self.bandwidth, dtype=np.float64, copy=True)
        if bandwidth.shape != (sample.shape[1],):
            raise ValueError(
                f"state bandwidth must have shape ({sample.shape[1]},), "
                f"got {bandwidth.shape}"
            )
        if np.any(~np.isfinite(bandwidth)) or np.any(bandwidth <= 0.0):
            raise ValueError("state bandwidth entries must be positive")
        kernels = tuple(str(name) for name in self.kernels)
        if len(kernels) != sample.shape[1]:
            raise ValueError("state needs one kernel name per dimension")
        sample.flags.writeable = False
        bandwidth.flags.writeable = False
        object.__setattr__(self, "sample", sample)
        object.__setattr__(self, "bandwidth", bandwidth)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "bandwidth_epoch", int(self.bandwidth_epoch))
        object.__setattr__(self, "sample_epoch", int(self.sample_epoch))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sample_size(self) -> int:
        return self.sample.shape[0]

    @property
    def dimensions(self) -> int:
        return self.sample.shape[1]

    @property
    def epochs(self) -> Tuple[int, int]:
        """``(bandwidth_epoch, sample_epoch)`` — the state's identity for
        read-copy-update publication."""
        return (self.bandwidth_epoch, self.sample_epoch)

    def equals(self, other: "ModelState") -> bool:
        """Exact (bitwise on arrays) equality between two states."""
        if not isinstance(other, ModelState):
            return False
        if (
            self.kind != other.kind
            or self.kernels != other.kernels
            or self.epochs != other.epochs
            or self.sample.dtype != other.sample.dtype
            or self.sample.shape != other.sample.shape
        ):
            return False
        if not (
            np.array_equal(self.sample, other.sample)
            and np.array_equal(self.bandwidth, other.bandwidth)
        ):
            return False
        for mine, theirs in (
            (self.config, other.config),
            (self.tuner, other.tuner),
            (self.karma, other.karma),
            (self.reservoir, other.reservoir),
            (self.rng_state, other.rng_state),
            (self.counters, other.counters),
        ):
            if not _section_equal(mine, theirs):
                return False
        return True

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise to the on-disk container format (see module doc)."""
        arrays: Dict[str, np.ndarray] = {
            "sample": np.asarray(self.sample),
            "bandwidth": np.asarray(self.bandwidth),
        }
        sections: Dict[str, Optional[dict]] = {}
        for name in ("config", "tuner", "karma", "reservoir"):
            section = getattr(self, name)
            section_arrays, section_scalars = _split_section(section)
            for key, value in section_arrays.items():
                arrays[f"{name}.{key}"] = value
            sections[name] = None if section is None else section_scalars

        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        payload = buffer.getvalue()

        header = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "kernels": list(self.kernels),
            "bandwidth_epoch": self.bandwidth_epoch,
            "sample_epoch": self.sample_epoch,
            "sample_dtype": str(self.sample.dtype),
            "sections": sections,
            "rng_state": _plain(self.rng_state)
            if self.rng_state is not None
            else None,
            "counters": _plain(dict(self.counters)),
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        return b"".join(
            [MAGIC, _LENGTH_STRUCT.pack(len(header_bytes)), header_bytes,
             payload]
        )

    def save(self, path: Union[str, os.PathLike]) -> str:
        """Write the state to ``path`` atomically (tmp file + rename).

        The temporary file lives in the destination directory so the
        final :func:`os.replace` is a same-filesystem atomic rename: a
        crash mid-write leaves either the previous checkpoint or a
        stray ``*.tmp-*`` file, never a truncated checkpoint under the
        final name.
        """
        path = os.fspath(path)
        blob = self.to_bytes()
        directory = os.path.dirname(path) or "."
        tmp_path = os.path.join(
            directory,
            f".{os.path.basename(path)}.tmp-{os.getpid()}",
        )
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):  # pragma: no cover - crash path
                os.unlink(tmp_path)
        return path

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ModelState":
        """Parse the container format, verifying integrity end to end."""
        if len(blob) < len(MAGIC) + _LENGTH_STRUCT.size:
            raise CheckpointError("model-state file is truncated")
        if blob[: len(MAGIC)] != MAGIC:
            raise CheckpointError("not a repro model-state file (bad magic)")
        offset = len(MAGIC)
        (header_length,) = _LENGTH_STRUCT.unpack_from(blob, offset)
        offset += _LENGTH_STRUCT.size
        if len(blob) < offset + header_length:
            raise CheckpointError("model-state header is truncated")
        try:
            header = json.loads(blob[offset : offset + header_length])
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"model-state header is corrupt: {error}"
            ) from error
        offset += header_length

        version = header.get("format_version")
        if not isinstance(version, int) or version < 1:
            raise CheckpointError(
                f"model-state header has invalid format version {version!r}"
            )
        if version > FORMAT_VERSION:
            raise CheckpointError(
                f"model-state format version {version} is newer than the "
                f"supported version {FORMAT_VERSION}; upgrade the library "
                "to load this checkpoint"
            )

        payload = blob[offset:]
        expected_bytes = header.get("payload_bytes")
        if len(payload) != expected_bytes:
            raise CheckpointError(
                f"model-state payload is truncated: expected "
                f"{expected_bytes} bytes, found {len(payload)}"
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("payload_sha256"):
            raise CheckpointError(
                "model-state payload checksum mismatch (corrupt file)"
            )

        try:
            with np.load(io.BytesIO(payload)) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except Exception as error:  # zipfile/numpy raise a zoo of types
            raise CheckpointError(
                f"model-state payload failed to decode: {error}"
            ) from error

        try:
            sections: Dict[str, Optional[dict]] = {}
            for name in ("config", "tuner", "karma", "reservoir"):
                scalars = header["sections"].get(name)
                if scalars is None and not any(
                    key.startswith(f"{name}.") for key in arrays
                ):
                    sections[name] = None
                    continue
                section = dict(_revive(scalars) if scalars else {})
                prefix = f"{name}."
                for key, value in arrays.items():
                    if key.startswith(prefix):
                        section[key[len(prefix):]] = value
                sections[name] = section
            rng_state = header.get("rng_state")
            return cls(
                kind=header["kind"],
                sample=arrays["sample"],
                bandwidth=arrays["bandwidth"],
                kernels=tuple(header["kernels"]),
                bandwidth_epoch=header["bandwidth_epoch"],
                sample_epoch=header["sample_epoch"],
                config=sections["config"],
                tuner=sections["tuner"],
                karma=sections["karma"],
                reservoir=sections["reservoir"],
                rng_state=_revive(rng_state) if rng_state is not None else None,
                counters=dict(header.get("counters") or {}),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"model-state fields are invalid: {error}"
            ) from error

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "ModelState":
        """Read and verify a state file written by :meth:`save`."""
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as error:
            raise CheckpointError(
                f"cannot read model-state file {os.fspath(path)!r}: {error}"
            ) from error
        return cls.from_bytes(blob)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelState(kind={self.kind!r}, s={self.sample_size}, "
            f"d={self.dimensions}, epochs={self.epochs})"
        )


def _section_equal(mine, theirs) -> bool:
    """Deep equality that treats numpy arrays bitwise."""
    if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
        return (
            isinstance(mine, np.ndarray)
            and isinstance(theirs, np.ndarray)
            and mine.dtype == theirs.dtype
            and mine.shape == theirs.shape
            and np.array_equal(mine, theirs)
        )
    if isinstance(mine, dict) and isinstance(theirs, dict):
        if set(mine) != set(theirs):
            return False
        return all(_section_equal(mine[key], theirs[key]) for key in mine)
    if isinstance(mine, (list, tuple)) and isinstance(theirs, (list, tuple)):
        if len(mine) != len(theirs):
            return False
        return all(
            _section_equal(m, t) for m, t in zip(mine, theirs)
        )
    return mine == theirs
