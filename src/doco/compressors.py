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


class _Spec:
    """A compressor spec answers ``delta(d)`` (which checks the spec against d),
    ``message_bits(d)`` of one delivered message, ``label()`` (its
    :func:`parse_compressor` text) and ``at_delta(delta, d)``: its family's spec
    at that contraction factor."""

    def message_bits(self, d: int) -> int:
        return 64 * d  # d reals

    def at_delta(self, delta: float, d: int) -> CompressorSpec:
        raise ConfigError("compressor", "sweeping delta needs a randk or gossip compressor")


@dataclass(frozen=True)
class Identity(_Spec):
    """Lossless pass-through; delta = 1."""

    def delta(self, d: int) -> float:
        return 1.0

    def label(self) -> str:
        return "identity"


@dataclass(frozen=True)
class RandK(_Spec):
    """Keep k uniformly chosen coordinates (no rescaling); delta = k/d."""

    k: int

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ConfigError("compressor", f"randk requires an integer k, got {self.k!r}")
        if self.k < 1:
            raise ConfigError("compressor", f"randk requires k >= 1, got {self.k}")

    def delta(self, d: int) -> float:
        if self.k > d:
            raise ConfigError("compressor", f"randk k={self.k} exceeds dimension d={d}")
        return self.k / d

    def message_bits(self, d: int) -> int:
        index_bits = math.ceil(math.log2(d)) if d > 1 else 0
        return self.k * (64 + index_bits)  # k reals and their indices

    def label(self) -> str:
        return f"randk:{self.k}"

    def at_delta(self, delta: float, d: int) -> RandK:
        if not 0.0 < delta <= 1.0:  # also nan and inf, which round() cannot take
            raise ConfigError("delta_grid", f"delta={delta} is not in (0, 1]")
        k = round(delta * d)
        if k < 1:
            raise ConfigError("delta_grid", f"delta={delta} gives k={k} outside [1, {d}]")
        if abs(k / d - delta) > 1e-9:
            raise ConfigError("delta_grid", f"delta={delta} is not representable as k/d with d={d}")
        return RandK(k)


@dataclass(frozen=True)
class ScaledSign(_Spec):
    """(||x||_1 / d) * sign(x) with sign(0) = +1; delta = 1/d."""

    def delta(self, d: int) -> float:
        return 1.0 / d

    def message_bits(self, d: int) -> int:
        return d + 64  # d signs and the scale

    def label(self) -> str:
        return "sign"


@dataclass(frozen=True)
class RandomGossip(_Spec):
    """Transmit x intact with probability p, else nothing; delta = p."""

    p: float

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ConfigError("compressor", f"gossip requires p in (0, 1], got {self.p}")

    def delta(self, d: int) -> float:
        return self.p

    def label(self) -> str:
        return f"gossip:{self.p!r}"

    def at_delta(self, delta: float, d: int) -> RandomGossip:
        return RandomGossip(delta)


CompressorSpec = Union[Identity, RandK, ScaledSign, RandomGossip]


@dataclass(frozen=True)
class CompressedMessage:
    payload: np.ndarray
    bits: int


def nominal_delta(spec: CompressorSpec, d: int) -> float:
    """Contraction factor of the compressor in ambient dimension d."""
    if d < 1:
        raise ConfigError("d", f"must be >= 1, got {d}")
    if not isinstance(spec, CompressorSpec):
        raise ConfigError("compressor", f"unknown compressor {spec!r}")
    return spec.delta(d)


_CHUNK = 256  # compressor calls whose randomness an engine's sender bank draws at once


class _SenderBank:
    """The senders of one side (learners or server), one stream each.

    ``shape`` lays the senders out as payload rows: ``(n,)`` for the n senders
    of one replication, ``(R, n)`` for R replications advanced in lockstep, with
    ``rngs`` listed replication by replication (default: one row per stream).
    ``send(X, rounds)`` compresses the row of X, shape ``shape + (d,)``, of each
    sender with that sender's stream.  Compressor randomness never depends on
    the data, so the bank draws it for ``chunk`` calls at a time with one block
    draw per stream: ``random((C, d))`` for randk and ``random(C)`` for gossip
    return the same numbers as C per-call draws.  Engines draw ``_CHUNK`` calls
    at a time, and :func:`fcc` (L rounds; :func:`compress` is one) runs a bank
    of one sender whose chunk is its L calls, so payloads and bits equal those
    of :func:`compress` and :func:`fcc` on each row with its stream, call after
    call.
    """

    def __init__(
        self, spec: CompressorSpec, d: int, rngs: list[np.random.Generator], shape: tuple | None = None, chunk: int = _CHUNK
    ):
        nominal_delta(spec, d)  # validates spec vs dimension
        self.spec, self.d, self.rngs, self._chunk = spec, d, rngs, chunk
        self._shape = (len(rngs),) if shape is None else shape
        self._gossip, self._sign = isinstance(spec, RandomGossip), isinstance(spec, ScaledSign)
        self._msg_bits = spec.message_bits(d)  # gossip: a delivered message's
        self._call_bits = self._shape[-1] * self._msg_bits  # one round of one replication's senders
        self._draws = self._gossip or (isinstance(spec, RandK) and spec.k < d)
        self._keep: np.ndarray | None = None  # drawn on first use, never at construction
        self._uniforms: np.ndarray | None = None  # randk: the chunk's uniforms, (stream, call, coordinate)
        self._saved = None  # gossip: bits the failed messages of each call save, per replication
        self._used = chunk  # calls served from the current chunk

    def _next_call(self) -> int:
        """Index of the next call's draws in the current chunk, drawing a chunk when one is used up."""
        if self._used == self._chunk:
            self._draw_chunk()
            self._used = 0
        self._used += 1
        return self._used - 1

    def _draw_chunk(self) -> None:
        """Per-call keep-masks for the next chunk, indexed (call, *shape, coordinate)."""
        spec, lead = self.spec, (self._chunk,) + self._shape
        if self._gossip:
            U = np.stack([rng.random(self._chunk) for rng in self.rngs], axis=1)
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
            self._uniforms = np.empty((len(self.rngs), self._chunk, self.d))
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


def compress(spec: CompressorSpec, x, rng: np.random.Generator) -> CompressedMessage:
    """Apply the compressor once to a finite vector x."""
    return fcc(x, spec, 1, rng)[1][0]


def fcc(
    x,
    spec: CompressorSpec,
    L: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[CompressedMessage]]:
    """Recursively compress the residual for L rounds.

    Starting from r = 0, each round sends C(x - r) and accumulates it into r.
    Returns the final residual sum (the receiver's reconstruction) and the L
    messages.  L = 1 is a single standard compression.  The rounds are L
    calls of a one-sender bank that draws the randomness of all L, and no
    more, at once: an (L, d) block, as large as the messages returned.
    """
    if L < 1:
        raise ConfigError("L", f"must be >= 1, got {L}")
    v = np.asarray(x, dtype=np.float64)
    bank = _SenderBank(spec, v.shape[0], [rng], chunk=L)
    r = np.zeros(v.shape[0])
    messages = []
    for _ in range(L):
        payload, bits = bank.send((v - r)[None])
        r = r + payload[0]
        messages.append(CompressedMessage(payload[0], bits))
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
    return spec.label()


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
    public :func:`compress` and :func:`fcc` draw the calls they make from the
    stream they are given, through the same sender bank.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(i) for i in ids))
    return np.random.default_rng(ss)
