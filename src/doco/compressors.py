"""Contractive compressors, the recursive residual-compression loop, and bit costs.

A compressor C is delta-contractive when E||C(x) - x||^2 <= (1 - delta) ||x||^2
for some delta in (0, 1]; delta = 1 is lossless.  Repeatedly compressing the
residual for L rounds (``fcc``) drives the squared error down to
(1 - delta)^L ||x||^2 at the price of L messages.  For a masking compressor
(randk, gossip) the loop has a closed form: the receiver ends up holding
exactly the coordinates that any of the L calls kept, ``where(m_1 | ... | m_L,
x, 0.0) + 0.0`` for L >= 2 (the ``+ 0.0`` is the loop's: its later rounds turn
a kept ``-0.0`` into ``+0.0``).  The engines' sender banks and
:func:`contraction_stat` send that way; it equals the loop bit for bit on
finite inputs, and :func:`fcc` keeps the loop, since it returns the L messages.

Bit costs are a declared model, not a wire measurement: reals cost 64 bits,
transmitted coordinate indices cost ceil(log2 d) bits, a sign costs one bit,
and a failed probabilistic transmission costs a single flag bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .domains import ConfigError, _require_positive_int, as_decision

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
    _require_positive_int("d", d)
    if not isinstance(spec, CompressorSpec):
        raise ConfigError("compressor", f"unknown compressor {spec!r}")
    return spec.delta(d)


_CHUNK = 256  # compressor calls whose randomness an engine's sender bank draws at once, in whole transfers


def _k_smallest(U: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k smallest entries along the last axis of U, 0 < k < d.

    A row keeps what is at most its k-th smallest entry.  That is k entries,
    the k that ``argpartition(U, k)[..., :k]`` picks, unless a tie at the k-th
    smallest keeps more: then every row takes that pick."""
    mask = U <= np.partition(U, k - 1, axis=-1)[..., k - 1 : k]
    if np.count_nonzero(mask) != mask.size // U.shape[-1] * k:
        mask = np.zeros(U.shape, dtype=bool)
        np.put_along_axis(mask, np.argpartition(U, k, axis=-1)[..., :k], True, axis=-1)
    return mask


class _SenderBank:
    """The senders of one side (learners or server), one stream each.

    ``shape`` lays the senders out as payload rows: ``(n,)`` for the n senders
    of one replication, ``(R, n)`` for R replications advanced in lockstep, with
    ``rngs`` listed replication by replication (default: one row per stream).
    A transfer is the ``rounds``-round residual compression of one row per
    sender with that sender's stream, ``rounds`` compressor calls per sender.
    ``take(k)`` serves the next k transfers, their keep-masks and bits, and is
    the one way the bank serves: ``send(X)`` makes one transfer of X, shape
    ``shape + (d,)``, with ``take(1)``.

    Every compressor is served from a chunk of ``max(1, chunk // rounds)``
    transfers, held as two arrays: each transfer's keep-mask and its bits after
    j calls.  Compressor randomness never depends on the data, so randk with
    k < d and gossip redraw their chunk with one block draw per stream:
    ``random((C, d))`` for randk and ``random(C)`` for gossip return the same
    numbers as C per-call draws.  The rest never change, so they are
    broadcasts built once: identity's and full randk's all-true mask, and the
    bits of a transfer whose messages are all delivered (every spec's but
    gossip's).  The scaled sign has no mask.  Engines draw about ``_CHUNK``
    calls at a time.  :func:`fcc` (L one-call transfers; :func:`compress` is
    one) runs a bank of one sender whose chunk is its L calls, and
    :func:`contraction_stat` one whose chunk is one L-call transfer, so
    payloads and bits equal those of the residual loop on each row with its
    stream, call after call.

    A masking compressor (randk, gossip) needs no residual loop.  Each call
    keeps the residual's coordinates in its mask, and a kept coordinate's
    residual is zero from then on, so after L rounds the receiver holds
    exactly the coordinates any of the L calls kept: ``where(m_1 | ... | m_L,
    X, 0.0) + 0.0`` for L >= 2, the ``+ 0.0`` because the loop's later rounds
    turn a kept ``-0.0`` into ``+0.0``.  Identity keeps every coordinate: its
    mask is all true.  The bank ORs each transfer's masks once per chunk and
    sends with one select.  This equals the loop bit for bit for finite
    inputs: a kept inf turns nan in the loop's later rounds (inf - inf), and
    stays inf in the closed form.  The scaled sign is not a mask, and keeps
    the residual loop.
    """

    def __init__(
        self,
        spec: CompressorSpec,
        d: int,
        rngs: list[np.random.Generator],
        shape: tuple | None = None,
        rounds: int = 1,
        chunk: int = _CHUNK,
    ):
        nominal_delta(spec, d)  # validates spec vs dimension
        self.spec, self.d, self.rngs, self.rounds = spec, d, rngs, rounds
        self._shape = (len(rngs),) if shape is None else shape
        self._gossip = isinstance(spec, RandomGossip)
        self._draws = self._gossip or (isinstance(spec, RandK) and spec.k < d)
        self._msg_bits = spec.message_bits(d)  # gossip: a delivered message's
        self._per_chunk = max(1, chunk // rounds)  # transfers whose randomness one draw takes
        self._uniforms: np.ndarray | None = None  # randk: the chunk's uniforms, (stream, call, coordinate)
        # The chunk: keep-masks (transfer, *shape, d or 1), None for the sign,
        # and bits after j calls (transfer, j, *lead).  Randk and gossip draw
        # theirs on first use, never at construction.
        calls = np.arange(rounds + 1, dtype=np.int64).reshape((-1,) + (1,) * (len(self._shape) - 1))
        self._bits = np.broadcast_to(calls * self._shape[-1] * self._msg_bits, (self._per_chunk, rounds + 1) + self._shape[:-1])
        self._keep = None if isinstance(spec, ScaledSign) else np.broadcast_to(True, (self._per_chunk,) + self._shape + (d,))
        self._used = self._per_chunk  # transfers served from the current chunk

    def _draw_chunk(self) -> None:
        """Each transfer's union keep-mask for the next chunk, and for gossip
        its bits after j calls."""
        spec, calls = self.spec, self._per_chunk * self.rounds
        by_call = (self._per_chunk, self.rounds) + self._shape
        if self._gossip:
            U = np.stack([rng.random(calls) for rng in self.rngs], axis=1)
            keep = (U < spec.p).reshape(by_call)
            # A delivered message costs its bits, a failed one one flag bit.
            call_bits = np.add.reduce(keep, -1) * (self._msg_bits - 1) + self._shape[-1]
            self._bits = np.zeros((self._per_chunk, self.rounds + 1) + self._shape[:-1], dtype=np.int64)
            np.cumsum(call_bits, axis=1, out=self._bits[:, 1:])
            self._keep = (np.logical_or.reduce(keep, axis=1) if self.rounds > 1 else keep[:, 0])[..., None]
            return
        # The k smallest of d i.i.d. uniforms index a uniform k-subset.  The
        # uniforms go to one buffer, stream by stream: a fresh stack per chunk
        # made glibc hand its heap pages back and fault them in again.
        if self._uniforms is None:
            self._uniforms = np.empty((len(self.rngs), calls, self.d))
        for rng, block in zip(self.rngs, self._uniforms):
            rng.random(out=block)
        mask = _k_smallest(self._uniforms, spec.k)
        if self.rounds > 1:  # a transfer keeps what any of its calls keeps
            mask = np.logical_or.reduce(mask.reshape(len(self.rngs), self._per_chunk, self.rounds, self.d), axis=2)
        self._keep = mask.transpose(1, 0, 2).reshape((self._per_chunk,) + self._shape + (self.d,))

    def take(self, k: int):
        """The next k >= 1 transfers: their keep-masks, (k, *shape, d) (gossip:
        (k, *shape, 1); None for the scaled sign), and their int64 bits after
        j = 0..rounds calls, (k, rounds + 1, *lead) with ``lead = shape[:-1]``:
        what one replication's senders spent, which differs between
        replications only for gossip.  Both are views of the bank's own arrays,
        not to be written, but where the k transfers span two chunks."""
        i = self._used
        if i + k <= self._per_chunk:  # the current chunk holds them
            self._used += k
            return (None if self._keep is None else self._keep[i : i + k]), self._bits[i : i + k]
        keep, bits = [], []
        while k:
            if self._used == self._per_chunk:
                if self._draws:
                    self._draw_chunk()
                self._used = 0
            i = self._used
            m = min(k, self._per_chunk - i)
            keep.append(None if self._keep is None else self._keep[i : i + m])
            bits.append(self._bits[i : i + m])
            self._used += m
            k -= m
        if len(bits) == 1:
            return keep[0], bits[0]
        return (None if keep[0] is None else np.concatenate(keep)), np.concatenate(bits)

    def scaled_sign(self, Y: np.ndarray) -> np.ndarray:
        """The scaled sign of each row of Y."""
        scale = np.abs(Y).sum(axis=-1, keepdims=True) / self.d
        return np.where(Y >= 0.0, scale, -scale)

    def send(self, X: np.ndarray):
        """One transfer of X.  Returns (R, bits): R the receivers'
        reconstructions, and ``bits[j]`` what one replication's senders spent
        on the transfer's first j calls, j = 0..rounds, so ``bits[-1]`` is the
        transfer's total: a list of ints for one replication, in lockstep an
        int array with one entry per replication."""
        keep, bits = self.take(1)
        if keep is None:
            R = self.scaled_sign(X)
            for _ in range(self.rounds - 1):
                R = R + self.scaled_sign(X - R)
        else:
            R = np.where(keep[0], X, 0.0)
            if self.rounds > 1:
                R += 0.0
        return R, bits[0] if len(self._shape) > 1 else bits[0].tolist()


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
    one-call transfers of a one-sender bank that draws the randomness of all
    L, and no more, at once: an (L, d) block, as large as the messages
    returned.  This loop is the reference the engines' L-round transfers are
    tested against.
    """
    _require_positive_int("L", L)
    v = as_decision(x, field="x")
    bank = _SenderBank(spec, v.shape[0], [rng], chunk=L)
    r = np.zeros(v.shape[0])
    messages = []
    for _ in range(L):
        payload, bits = bank.send((v - r)[None])
        r = r + payload[0]
        messages.append(CompressedMessage(payload[0], bits[-1]))
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
    is just the squared residual error.  Returns (mean, standard error).  Each
    trial is one L-round transfer of a one-sender bank whose chunk is that
    transfer: the draws and reconstruction of :func:`fcc` on x with ``rng``.
    """
    bank = _SenderBank(spec, d, [rng], rounds=_require_positive_int("L", L), chunk=L)
    ratios = np.empty(_require_positive_int("trials", trials))
    for i in range(trials):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        r, _ = bank.send(x[None])
        ratios[i] = float(((r[0] - x) ** 2).sum())
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
