"""Small shared helpers: seeded generator derivation, the `threads` check, atomic IO."""

from __future__ import annotations

import json
import os
import tempfile
import zlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    return zlib.crc32(str(tag).encode("utf-8"))


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Derive an independent numpy Generator from a base seed and a tag path.

    The same (seed, tags) always yields the same stream, independent of any
    other stream derived from the same seed. Used for auxiliary sampling
    (bootstrap resamples, random stop maps, smoothing draws); particle noise
    goes through the counter-based generator in `rng.py` instead.
    """
    entropy = (int(seed) & _MASK64, *(_tag_to_int(t) for t in tags))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def check_threads(threads) -> None:
    """Refuse every `threads` but 1: the field is kept only so old configs load."""
    if threads != 1 or type(threads) is not int:
        raise ValueError("threads must be 1: the thread pools were removed")


def dump_text_atomic(path: str, text: str) -> None:
    """Write text to `path` atomically (temp file + rename), UTF-8, LF."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def config_digest(config: dict) -> str:
    """sha256 of the canonical (sorted, compact) JSON encoding of a config."""
    import hashlib

    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
