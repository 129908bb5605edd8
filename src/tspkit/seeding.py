"""Deterministic RNG derivation shared by the whole package.

Every random draw in the library comes from ``rng_for(...)`` with an explicit
key, so identical inputs give bit-identical outputs on any platform. String
parts are folded in via sha256 rather than ``hash()`` (which is salted per
process).

A keyed stream is read in order: a synthetic video's frame noise is one
``rng_for(frame_seed, "frame-noise")`` stream, and frame ``i``'s noise is row
``i`` of its ``standard_normal((n, frame_dim))`` draw. A ``standard_normal``
draw fills rows in order, so a k-row draw equals the first k rows of any
longer one; a reader of frames up to ``i`` draws ``i + 1`` rows.
"""

from __future__ import annotations

import hashlib

import numpy as np

_STRING_KEYS: dict[str, int] = {}


def _string_key(s: str) -> int:
    key = _STRING_KEYS.get(s)
    if key is None:
        key = int.from_bytes(hashlib.sha256(s.encode("utf-8")).digest()[:8], "big")
        _STRING_KEYS[s] = key
    return key


def _as_ints(parts) -> list[int]:
    out = []
    for p in parts:
        if isinstance(p, (int, np.integer)):
            out.append(int(p) & 0xFFFFFFFFFFFFFFFF)
        elif isinstance(p, str):
            out.append(_string_key(p))
        else:
            raise TypeError(f"rng key parts must be int or str, got {type(p)!r}")
    return out


def rng_for(*parts) -> np.random.Generator:
    """A PCG64 generator keyed by the given ints/strings."""
    return np.random.default_rng(np.random.SeedSequence(_as_ints(parts)))
