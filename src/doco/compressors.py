"""Contractive compressors, the recursive residual-compression loop, and bit costs.

A compressor C is delta-contractive when E||C(x) - x||^2 <= (1 - delta) ||x||^2
for some delta in (0, 1]; delta = 1 is lossless.  Repeatedly compressing the
residual for L rounds (``fcc``) drives the squared error down to
(1 - delta)^L ||x||^2 at the price of L messages.

Bit costs are a declared model, not a wire measurement: reals cost 64 bits,
transmitted coordinate indices cost ceil(log2 d) bits, a sign costs one bit,
and a failed probabilistic transmission costs a single flag bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .domains import ConfigError

__all__ = [
    "Identity",
    "RandK",
    "ScaledSign",
    "RandomGossip",
    "CompressorSpec",
    "CompressedMessage",
    "nominal_delta",
    "compress",
    "fcc",
    "contraction_stat",
    "parse_compressor",
    "compressor_label",
    "entity_stream",
    "derive_seed",
]


@dataclass(frozen=True)
class Identity:
    """Lossless pass-through; delta = 1."""


@dataclass(frozen=True)
class RandK:
    """Keep k uniformly chosen coordinates (no rescaling); delta = k/d."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("compressor", f"randk requires k >= 1, got {self.k}")


@dataclass(frozen=True)
class ScaledSign:
    """(||x||_1 / d) * sign(x) with sign(0) = +1; delta = 1/d."""


@dataclass(frozen=True)
class RandomGossip:
    """Transmit x intact with probability p, else nothing; delta = p."""

    p: float

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ConfigError("compressor", f"gossip requires p in (0, 1], got {self.p}")


CompressorSpec = Union[Identity, RandK, ScaledSign, RandomGossip]


@dataclass(frozen=True)
class CompressedMessage:
    payload: np.ndarray
    bits: int


def nominal_delta(spec: CompressorSpec, d: int) -> float:
    """Contraction factor of the compressor in ambient dimension d."""
    if d < 1:
        raise ConfigError("d", f"must be >= 1, got {d}")
    if isinstance(spec, Identity):
        return 1.0
    if isinstance(spec, RandK):
        if spec.k > d:
            raise ConfigError("compressor", f"randk k={spec.k} exceeds dimension d={d}")
        return spec.k / d
    if isinstance(spec, ScaledSign):
        return 1.0 / d
    if isinstance(spec, RandomGossip):
        return spec.p
    raise ConfigError("compressor", f"unknown compressor {spec!r}")


def _index_bits(d: int) -> int:
    return math.ceil(math.log2(d)) if d > 1 else 0


def _apply(spec: CompressorSpec, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Compress once; returns (dense payload, modeled bit cost)."""
    d = x.shape[0]
    if isinstance(spec, Identity):
        return x.copy(), 64 * d
    if isinstance(spec, RandK):
        if spec.k > d:
            raise ConfigError("compressor", f"randk k={spec.k} exceeds dimension d={d}")
        out = np.zeros(d)
        if spec.k == d:
            out[:] = x
        else:
            # The k smallest of d i.i.d. uniforms index a uniform k-subset.
            keep = np.argpartition(rng.random(d), spec.k)[: spec.k]
            out[keep] = x[keep]
        return out, spec.k * (64 + _index_bits(d))
    if isinstance(spec, ScaledSign):
        scale = float(np.abs(x).sum()) / d
        return np.where(x >= 0.0, scale, -scale), d + 64
    if isinstance(spec, RandomGossip):
        if rng.random() < spec.p:
            return x.copy(), 64 * d
        return np.zeros(d), 1
    raise ConfigError("compressor", f"unknown compressor {spec!r}")


def compress(spec: CompressorSpec, x, rng: np.random.Generator) -> CompressedMessage:
    """Apply the compressor once to a finite vector x."""
    v = np.asarray(x, dtype=np.float64)
    payload, bits = _apply(spec, v, rng)
    return CompressedMessage(payload, bits)


_CHUNK = 256  # compressor calls whose randomness a sender bank draws at once


class _SenderBank:
    """The senders of one side (learners or server), one stream each.

    ``shape`` lays the senders out as payload rows: ``(n,)`` for the n senders
    of one replication, ``(R, n)`` for R replications advanced in lockstep, with
    ``rngs`` listed replication by replication (default: one row per stream).
    ``send(X, rounds)`` compresses the row of X, shape ``shape + (d,)``, of each
    sender with that sender's stream.  Compressor randomness never depends on
    the data, so the bank draws it for ``_CHUNK`` calls at a time with one block
    draw per stream: ``random((C, d))`` for randk and ``random(C)`` for gossip
    return the same numbers as C per-call draws.  Payloads and bits therefore
    equal those of :func:`_apply` (one round) and of :func:`fcc` (L rounds) on
    each row with its stream, call after call.
    """

    def __init__(self, spec: CompressorSpec, d: int, rngs: list[np.random.Generator], shape: tuple | None = None):
        nominal_delta(spec, d)  # validates spec vs dimension
        self.spec, self.d, self.rngs = spec, d, rngs
        self._shape = (len(rngs),) if shape is None else shape
        self._gossip, self._sign = isinstance(spec, RandomGossip), isinstance(spec, ScaledSign)
        if isinstance(spec, RandK):
            self._msg_bits = spec.k * (64 + _index_bits(d))
        elif self._sign:
            self._msg_bits = d + 64
        else:  # identity, or a delivered gossip message
            self._msg_bits = 64 * d
        self._call_bits = self._shape[-1] * self._msg_bits  # one round of one replication's senders
        self._draws = self._gossip or (isinstance(spec, RandK) and spec.k < d)
        self._keep: np.ndarray | None = None  # drawn on first use, never at construction
        self._uniforms: np.ndarray | None = None  # randk: the chunk's uniforms, (stream, call, coordinate)
        self._saved = None  # gossip: bits the failed messages of each call save, per replication
        self._used = _CHUNK  # calls served from the current chunk

    def _next_call(self) -> int:
        """Index of the next call's draws in the current chunk, drawing a chunk when one is used up."""
        if self._used == _CHUNK:
            self._draw_chunk()
            self._used = 0
        self._used += 1
        return self._used - 1

    def _draw_chunk(self) -> None:
        """Per-call keep-masks for the next chunk, indexed (call, *shape, coordinate)."""
        spec, lead = self.spec, (_CHUNK,) + self._shape
        if self._gossip:
            U = np.stack([rng.random(_CHUNK) for rng in self.rngs], axis=1)
            keep = (U < spec.p).reshape(lead)
            # A failed message costs one flag bit, not a full one.
            saved = (self._shape[-1] - np.count_nonzero(keep, axis=-1)) * (self._msg_bits - 1)
            self._saved = saved.tolist() if len(self._shape) == 1 else saved
            self._keep = keep[..., None]
            return
        # The k smallest of d i.i.d. uniforms index a uniform k-subset.  The
        # uniforms go to one buffer, stream by stream: a fresh stack per chunk
        # made glibc hand its heap pages back and fault them in again.
        if self._uniforms is None:
            self._uniforms = np.empty((len(self.rngs), _CHUNK, self.d))
        for rng, block in zip(self.rngs, self._uniforms):
            rng.random(out=block)
        keep = np.argpartition(self._uniforms, spec.k, axis=-1)[..., : spec.k]
        mask = np.zeros(self._uniforms.shape, dtype=bool)
        np.put_along_axis(mask, keep, True, axis=-1)
        self._keep = mask.transpose(1, 0, 2).reshape(lead + (self.d,))

    def send(self, X: np.ndarray, rounds: int = 1):
        """Row-wise ``rounds``-round residual compression: round 1 compresses X,
        each later round compresses X - R and adds it to R.  Returns (R, bits),
        bits being what one replication's senders spent in total: an int, or for
        gossip in lockstep an int array with one entry per replication, since
        their failed messages differ."""
        R, Y, bits = None, X, rounds * self._call_bits
        while True:
            if self._draws:
                i = self._next_call()
                P = np.where(self._keep[i], Y, 0.0)
                if self._gossip:
                    bits -= self._saved[i]
            elif self._sign:
                scale = np.abs(Y).sum(axis=-1, keepdims=True) / self.d
                P = np.where(Y >= 0.0, scale, -scale)
            else:
                P = Y.copy()
            R = P if R is None else R + P
            if rounds <= 1:
                return R, bits
            rounds -= 1
            Y = X - R


def fcc(
    x,
    spec: CompressorSpec,
    L: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[CompressedMessage]]:
    """Recursively compress the residual for L rounds.

    Starting from r = 0, each round sends C(x - r) and accumulates it into r.
    Returns the final residual sum (the receiver's reconstruction) and the L
    messages.  L = 1 is a single standard compression.
    """
    if L < 1:
        raise ConfigError("L", f"must be >= 1, got {L}")
    v = np.asarray(x, dtype=np.float64)
    r = np.zeros(v.shape[0])
    messages = []
    for _ in range(L):
        msg = compress(spec, v - r, rng)
        r = r + msg.payload
        messages.append(msg)
    return r, messages


def contraction_stat(
    spec: CompressorSpec,
    L: int,
    d: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of E ||r - x||^2 / ||x||^2 for the L-round loop.

    Inputs are standard normal vectors normalized to unit norm, so the ratio
    is just the squared residual error.  Returns (mean, standard error).
    """
    if trials < 1:
        raise ConfigError("trials", f"must be >= 1, got {trials}")
    ratios = np.empty(trials)
    for i in range(trials):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        r, _ = fcc(x, spec, L, rng)
        ratios[i] = float(((r - x) ** 2).sum())
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def parse_compressor(text: str) -> CompressorSpec:
    """Parse ``identity``, ``randk:K``, ``sign``, or ``gossip:P``."""
    name, _, arg = text.strip().partition(":")
    name = name.lower()
    try:
        if name == "identity" and not arg:
            return Identity()
        if name == "randk":
            return RandK(int(arg))
        if name == "sign" and not arg:
            return ScaledSign()
        if name == "gossip":
            return RandomGossip(float(arg))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("compressor", f"bad argument in {text!r}") from exc
    raise ConfigError(
        "compressor",
        f"unknown compressor {text!r} (expected identity, randk:k, sign, or gossip:p)",
    )


def compressor_label(spec: CompressorSpec) -> str:
    """Inverse of :func:`parse_compressor`."""
    if isinstance(spec, Identity):
        return "identity"
    if isinstance(spec, RandK):
        return f"randk:{spec.k}"
    if isinstance(spec, ScaledSign):
        return "sign"
    if isinstance(spec, RandomGossip):
        return f"gossip:{spec.p!r}"
    raise ConfigError("compressor", f"unknown compressor {spec!r}")


def derive_seed(seed: int, *ids: int) -> int:
    """Stable 64-bit seed hashed from a global seed and integer tags."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(i) for i in ids))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def entity_stream(seed: int, *ids: int) -> np.random.Generator:
    """Named random stream for one entity (learner, server, environment, ...).

    Streams are hash-derived from (seed, *ids), so identical seeds reproduce
    identical payloads and traces, and distinct entities never share a stream.
    Engines draw each stream's compressor randomness in fixed chunks of calls
    ahead of use, which yields the same numbers as drawing per call; the
    public :func:`compress` and :func:`fcc` draw per call from the stream they
    are given.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(i) for i in ids))
    return np.random.default_rng(ss)
