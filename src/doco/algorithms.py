"""Engines for compressed-communication online learning over a star topology.

Three single-threaded state machines, advanced by the harness a span of
rounds at a time (``advance``) or, through the public API, round by round
(``round``; O2b: update by update, ``step``):

* :class:`Dftcl` - each round, every learner compresses its error-corrected
  gradient, the server averages, re-compresses with its own error memory, and
  all learners take a regularized-leader step on the cumulative broadcasts.
  With a lossless compressor this is exactly uncompressed FTRL.
* :class:`Dftfcl` - the blocked variant: the decision is frozen for L rounds
  while block gradients accumulate, and each transfer is spread over the L
  rounds of the following block as a recursive residual compression.  Updates
  therefore lag two blocks behind the gradients they consume.  A transfer's
  content is fixed at the block boundary, so it is sent there, whole, and a
  span's bit counters are a slice of its bits after each call.
* :class:`O2b` - anytime online-to-batch driver for stochastic problems:
  queries subgradients at the running weighted average of the online decisions
  and feeds weighted surrogate losses to the online update; each update's
  transfer is an L-round residual compression (L communication rounds).

All three are one error-feedback hop inside FTRL, held by a private base:
the base owns the memories, the counters and the sender banks and takes the
leader step (``_lead``).  Each engine sends its own hop, because Dftcl's
``e += g - v`` and O2b's ``e = (e + alpha g) - v`` are both sound but round
differently, and the traces pin those bits.

The messages and both memories are built from gradients alone, and the
decision is a projection of the broadcast sum.  So given a span's gradient
rows up front, Dftcl scans the span's error feedback (``_feedback``: the
learners over the k rows, then the server over the k learner means, each
memory one in-place recurrence) and takes the span's decisions as one
cumulative sum and one row-wise projection, and Dftfcl sums each block's
rows at once and steps once per block.  O2b's oracle reads the iterate, so
it sends update by update: the learner leg, then the server leg, through
the banks' ``send``.

Learner loops run in a fixed index order; the updates are order-independent,
so this matches a parallel execution exactly.  Given a tuple of seeds, an
engine advances one replication per seed in lockstep (see ``_Engine``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .compressors import (
    CompressorSpec,
    Identity,
    _SenderBank,
    entity_stream,
)
from .domains import ConfigError, FeasibleSet, _require_positive_int

__all__ = ["Dftcl", "Dftfcl", "O2b", "RoundInfo", "UpdateInfo"]

_LEARNER, _SERVER = 1, 2


class RoundInfo(NamedTuple):
    """The decision played and the messages sent, which the engine keeps no
    reference to (Dftfcl's: the transfers completed at a block's end, else None)."""

    w_played: np.ndarray
    v: np.ndarray | None
    s: np.ndarray | None


class UpdateInfo(NamedTuple):
    """One online-to-batch update: the iterate queried, the decision played,
    and the mean of the learners' (unscaled) stochastic subgradients."""

    x: np.ndarray
    w_played: np.ndarray
    gbar: np.ndarray


class _Engine:
    """What the three engines share: the validated step parameters, the
    decision, the learner memories ``e`` (one row per learner), the server
    memory ``e_hat``, the broadcast sum ``s_sum``, the anchor sum of the
    strongly convex step, the counters, both sides' sender banks, and the
    leader step.  Each engine sends its own hop: Dftcl a span of rounds at
    once, Dftfcl a block's transfers at its boundary, O2b an update's two
    legs through the banks' ``send``.

    An int ``seed`` makes one replication: ``decision`` has shape (d,), ``e``
    (n, d), and the bit counters are ints.  A tuple of seeds advances one
    replication per seed in lockstep: every state array gains a leading
    replication axis, so ``decision`` is (R, d) and ``e`` (R, n, d), the bit
    counters hold one int per replication, and replication r computes exactly
    what a single engine at seed r computes.  The step code is written over
    that leading axis (learner means over axis -2, row-wise projection), so
    both layouts run the same lines.
    """

    def __init__(self, feasible, n, spec, server_spec, L, eta, mu, seed):
        if (eta is None) == (mu is None):
            raise ConfigError("eta", "exactly one of eta (convex) or mu (strongly convex) is required")
        if eta is not None and not 0.0 < eta < math.inf:
            raise ConfigError("eta", f"must be positive and finite, got {eta}")
        if mu is not None and not 0.0 < mu < math.inf:
            raise ConfigError("mu", f"must be positive and finite, got {mu}")
        self.n, self.L = _require_positive_int("n", n), _require_positive_int("L", L)
        self.feasible, self.d = feasible, feasible.d
        self.spec, self.server_spec = spec, server_spec
        self.eta, self.mu = eta, mu
        seeds, lead = (seed, (len(seed),)) if isinstance(seed, tuple) else ((seed,), ())
        self.t = 0
        self.decision = feasible.project(np.zeros(lead + (self.d,)))
        self.e = np.zeros(lead + (n, self.d))
        self.e_hat = np.zeros(lead + (self.d,))
        self.s_sum = np.zeros(lead + (self.d,))
        self.anchor_sum = np.zeros(lead + (self.d,))
        self.bits_up = np.zeros(lead, dtype=np.int64) if lead else 0
        self.bits_down = np.zeros(lead, dtype=np.int64) if lead else 0
        self.msgs_up = self.msgs_down = 0  # per replication: every replication sends the same messages
        up = [entity_stream(s, _LEARNER, i) for s in seeds for i in range(n)]
        self._up = _SenderBank(spec, self.d, up, lead + (n,), rounds=L)
        down = [entity_stream(s, _SERVER, 0) for s in seeds]
        self._down = _SenderBank(server_spec, self.d, down, lead + (1,), rounds=L)

    def _lead(self, mu: float | None, weight_total: float) -> None:
        """Leader step on s_sum: the learning-rate step when mu is None, else
        the strongly convex step with anchor curvature mu.  The arithmetic of
        :func:`ftrl_linear_step` and :func:`ftrl_strongly_convex_step`, without
        their per-call input checks: the harness checks finiteness per chunk of rounds."""
        if mu is None:
            self.decision = self.feasible.project(-(self.eta / 2.0) * self.s_sum)
        else:
            self.decision = self.feasible.project((mu * self.anchor_sum - self.s_sum) / (mu * weight_total))

    def _check(self, grads, span: bool = False):
        """``grads`` if it is a round's (*lead, n, d) rows (a span's k of them), else ConfigError."""
        if grads.shape[span:] != self.e.shape:
            raise ConfigError("grads", f"must be {'k rows of ' * span}shape {self.e.shape}, got {grads.shape}")
        return grads

    def _learner_mean(self, v: np.ndarray) -> np.ndarray:
        """Mean over the learner axis; ``v.mean(axis=-2)`` gives the same bits
        through numpy's slower Python wrapper, and so does a keyword axis."""
        return np.add.reduce(v, -2) / self.n

    def _span_out(self, k: int, out):
        """``out``, else new arrays for a span of k rounds: the decisions played,
        (k, *lead, d), and the bit counters after each round, (k, *lead)."""
        if out is not None:
            return out
        lead = self.decision.shape[:-1]
        return np.empty((k,) + self.decision.shape), *(np.empty((k,) + lead, dtype=np.int64) for _ in range(2))


class Dftcl(_Engine):
    """Bidirectionally compressed follow-the-leader with error feedback.

    Per round: learner i sends v_i = C(e_i + g_i) and sets e_i += g_i - v_i;
    the server averages to v, broadcasts s = C(e_hat + v) and sets
    e_hat += v - s; the decision becomes the leader step on sum_k s^k (with
    learning rate eta in the convex mode, or with every past decision as a
    unit-weight quadratic anchor in the strongly convex mode).

    ``unidirectional=True`` forces the server side to the lossless compressor,
    so s = v and the server memory stays zero.
    """

    def __init__(
        self,
        feasible: FeasibleSet,
        n: int,
        spec: CompressorSpec,
        *,
        eta: float | None = None,
        mu: float | None = None,
        unidirectional: bool = False,
        seed: int | tuple[int, ...] = 0,
    ):
        super().__init__(feasible, n, spec, Identity() if unidirectional else spec, 1, eta, mu, seed)
        self._span = None  # the hop's buffers, see _buffers

    def round(self, grads: np.ndarray) -> RoundInfo:
        """Advance one round given the (n, d) per-learner gradients at the
        played decision: a span of one row."""
        w_played, (S, bits_up, bits_down) = self.decision, self._span_out(1, None)
        v, s = self._scan(self._check(grads)[None], S, bits_up, bits_down)[0].copy(), S[0].copy()
        self._play(S)
        return RoundInfo(w_played, v, s)

    def advance(self, rows: np.ndarray, out=None):
        """Advance len(rows) rounds, row j the (*lead, n, d) gradients of round
        j, and return (decisions played, bits_up, bits_down after each round),
        written into ``out`` if given.

        The rows must not depend on the decisions of the span, which the caller
        cannot know yet: the rows of a loss whose gradient ignores the
        decision, or one row.  The span hops first, parking each broadcast in
        the decision rows, and then plays them (see ``_play``)."""
        W, bits_up, bits_down = self._span_out(len(self._check(rows, span=True)), out)
        if len(rows):
            self._scan(rows, W, bits_up, bits_down)
            self._play(W)
        return W, bits_up, bits_down

    def _scan(self, rows: np.ndarray, S: np.ndarray, bits_up: np.ndarray, bits_down: np.ndarray) -> np.ndarray:
        """The error-feedback hop of the k rounds of ``rows``: write the
        broadcasts into S, (k, *lead, d), and the bit counters after each round
        into ``bits_up`` and ``bits_down``, and return the learners' messages,
        (k, *lead, n, d), in a buffer the next span overwrites.

        The messages and memories depend on the gradients alone, so the
        learners run all k rounds (``_feedback``), then the server runs them on
        the k learner means, and each counter is one cumulative sum of the
        bank's per-transfer bits."""
        k = len(rows)
        V, vbar, x, y = self._buffers(k)
        keep, spent_up = self._up.take(k)
        _feedback(self.e, rows, V, keep, x, self._up)
        np.add.reduce(V, -2, out=vbar)
        vbar /= self.n
        keep, spent_down = self._down.take(k)
        _feedback(self.e_hat, vbar, S, None if keep is None else keep[..., 0, :], y, self._down)
        self.t += k
        self.msgs_up += self.n * k
        self.msgs_down += k
        self.bits_up = _tally(self.bits_up, spent_up[:, -1], bits_up)
        self.bits_down = _tally(self.bits_down, spent_down[:, -1], bits_down)
        return V

    def _buffers(self, k: int):
        """The hop's buffers for a span of k rounds: the learners' messages,
        their means, and a scratch row each of e's and e_hat's shape.
        Allocated once, and again only for a longer span."""
        if self._span is None or len(self._span[0]) < k:
            self._span = (np.empty((k,) + self.e.shape), np.empty((k,) + self.e_hat.shape),
                          np.empty_like(self.e), np.empty_like(self.e_hat))  # fmt: skip
        V, vbar, *rows = self._span
        return V[:k], vbar[:k], *rows

    def _play(self, W: np.ndarray) -> None:
        """Turn the span's broadcasts, parked in W, into the decisions played.

        In the learning-rate mode one cumulative sum carried from s_sum gives
        the s_sum rows, and one row-wise projection the decisions: the bits of
        ``s_sum += s`` and a leader step round after round.  The strongly
        convex step anchors each decision at the one before, so that mode
        steps round after round."""
        if self.mu is not None:
            t = self.t - len(W)
            for j, s in enumerate(W):
                self.s_sum += s
                self.anchor_sum += self.decision
                s[...] = self.decision
                self._lead(self.mu, float(t + j + 1))
            return
        W[0] += self.s_sum
        np.add.accumulate(W, 0, out=W)
        self.s_sum[...] = W[-1]
        P = self.feasible.project(-(self.eta / 2.0) * W)
        W[0] = self.decision
        W[1:] = P[:-1]
        self.decision = P[-1].copy()


def _feedback(e, rows, sent, keep, x, bank) -> None:
    """Error feedback over ``rows`` in turn, in place: ``sent[j]`` is the
    compression of ``e + rows[j]`` (``keep[j]`` its keep-mask, or the scaled
    sign of ``bank`` when keep is None), and ``e += rows[j] - sent[j]``, with
    the bits of that line.  x, of e's shape, is scratch for both sums."""
    if keep is not None:
        sent.fill(0.0)
    for j in range(len(rows)):  # indexing beats zip over arrays on short spans
        g, v = rows[j], sent[j]
        np.add(e, g, out=x)
        if keep is None:
            v[...] = bank.scaled_sign(x)
        else:
            np.copyto(v, x, where=keep[j])
        np.subtract(g, v, out=x)
        np.add(e, x, out=e)


def _tally(total, spent: np.ndarray, out: np.ndarray):
    """Write ``total`` plus the running sum of ``spent``, each transfer's bits,
    (k, *lead), into ``out``, and return the new total: an int, or in
    lockstep an array of one per replication."""
    np.add(np.add.accumulate(spent, 0), total, out=out)
    return out[-1].copy() if out.ndim > 1 else int(out[-1])


class Dftfcl(_Engine):
    """Blocked variant: L-round residual compression amortized over each block.

    Rounds are grouped into blocks of length L during which the decision is
    frozen.  While block b plays, the learners stream the L residual-
    compression messages for block b-1's error-corrected gradient sum, and the
    server streams the messages for the broadcast of block b-2.  At the end of
    block b >= 3 the learners hold exactly the broadcasts of blocks 1..b-2 and
    take the leader step on their sum (strongly convex mode anchors every past
    block decision with weight mu*L).  Blocks 1 and 2 are warm-up: the initial
    decision is replayed and, in block 1, nothing is transmitted.

    Round t+1 is round ``t % L + 1`` of block ``t // L + 1``.  A block's two
    transfers are fixed when it starts, so each is sent whole then and
    delivered at the block's end; each round counts its own calls.
    """

    def __init__(
        self,
        feasible: FeasibleSet,
        n: int,
        spec: CompressorSpec,
        L: int,
        *,
        eta: float | None = None,
        mu: float | None = None,
        seed: int | tuple[int, ...] = 0,
    ):
        super().__init__(feasible, n, spec, spec, L, eta, mu, seed)
        self._z_acc = np.zeros(self.e.shape)
        self._rows = None  # advance's buffer of rows laid on their blocks' rounds
        # The transfers being streamed: payload, what arrives, bits after j
        # calls.  Until a side first sends, it streams one that costs nothing.
        self._up_payload = self._up_sent = None  # e^{b-1} + z^{b-1}
        self._down_payload = self._down_sent = None  # v^{b-2} + e_hat^{b-2}
        self._up_bits = self._down_bits = [0 * self.bits_up] * (self.L + 1)

    @property
    def block(self) -> int:
        """The block the next round plays in, counted from 1."""
        return self.t // self.L + 1

    def round(self, grads: np.ndarray) -> RoundInfo:
        """Advance one round; pipeline completions happen on block boundaries."""
        w_played = self.decision
        self._z_acc += self._check(grads)
        return RoundInfo(w_played, *self._count(1))

    def advance(self, rows: np.ndarray, out=None):
        """Advance len(rows) rounds, row j the (*lead, n, d) gradients of round
        j, and return (decisions played, bits_up, bits_down after each round),
        written into ``out`` if given.

        The decision is frozen within a block, so rows up to the block's end
        may be taken at the decision in play; rows past it must not depend on
        the decision.  Each block's rows are summed at once (see
        ``_block_sums``), and the block is finished as ``round`` finishes it."""
        W, bits_up, bits_down = self._span_out(len(self._check(rows, span=True)), out)
        i = 0
        for z in self._block_sums(rows):
            m = min(self.L - self.t % self.L, len(rows) - i)
            W[i : i + m] = self.decision
            self._z_acc[...] = z
            self._count(m, bits_up[i : i + m], bits_down[i : i + m])
            i += m
        return W, bits_up, bits_down

    def _block_sums(self, rows: np.ndarray) -> np.ndarray:
        """_z_acc at the end of each block the span ``rows`` reaches, the last
        one cut at the span's end.

        The rows are laid on their blocks' rounds in a buffer kept across
        spans, zero outside the span, with _z_acc added to the first, and
        summed from +0.0 in round order, one add per round of a block for all
        blocks at once: the bits of ``_z_acc += g`` round by round.  A sum
        that starts from +0.0 is never -0.0, so the zeros outside the span
        change no sum.  (``np.add.reduce`` over the rounds would sum pairwise
        when a round has one coordinate, and ``np.add.accumulate`` along them
        takes ten times as long.)"""
        k0, L, k = self.t % self.L, self.L, len(rows)
        nb = -(-(k0 + k) // L) if k else 0
        if self._rows is None or len(self._rows) < nb * L:
            self._rows = np.empty((k + 2 * L,) + rows.shape[1:])
        Z = self._rows[: nb * L]
        Z[:k0] = 0.0
        Z[k0 : k0 + k] = rows
        Z[k0 + k :] = 0.0
        Z[k0] += self._z_acc
        Z = Z.reshape((nb, L) + rows.shape[1:])
        sums = Z[:, 0] + 0.0
        for j in range(1, L):
            sums += Z[:, j]
        return sums

    def _count(self, m: int, bits_up=None, bits_down=None):
        """Play rounds k+1..k+m of the block, k = t % L: add calls k+1..k+m of
        each transfer in flight to the counters, writing the bit counters
        after each round into ``bits_up`` and ``bits_down`` if given, and
        finish the block at its end.  Returns the transfers that completed,
        else (None, None).  Messages count from round L+1 up, 2L+1 down."""
        k, up, down = self.t % self.L, self._up_bits, self._down_bits
        if bits_up is not None:
            bits_up[...], bits_down[...] = up[k + 1 : k + m + 1], down[k + 1 : k + m + 1]
            bits_up += self.bits_up - up[k]
            bits_down += self.bits_down - down[k]
        self.bits_up += up[k + m] - up[k]
        self.bits_down += down[k + m] - down[k]
        self.t += m
        self.msgs_up = self.n * (self.t - self.L if self.t > self.L else 0)
        self.msgs_down = self.t - 2 * self.L if self.t > 2 * self.L else 0
        return self._finish_block() if self.t % self.L == 0 else (None, None)

    def _finish_block(self):
        """End block b: the server leg, then the learner leg and its relay down
        (neither reads what the other writes), then the next uplink."""
        b = self.t // self.L
        self.anchor_sum += self.decision
        v_done = s_done = None
        if b >= 3:  # the broadcast of block b-2 arrives
            s_done = self._down_sent
            self.e_hat = self._down_payload - s_done
            self.s_sum += s_done
            self._lead(None if self.mu is None else self.mu * self.L, float(b))
        if b >= 2:  # the learners' messages for block b-1 arrive
            v_done = self._up_sent
            self.e = self._up_payload - v_done
            self._down_payload = self._learner_mean(v_done) + self.e_hat
            s, self._down_bits = self._down.send(self._down_payload[..., None, :])
            self._down_sent = s[..., 0, :]
        self._up_payload = self.e + self._z_acc
        self._up_sent, self._up_bits = self._up.send(self._up_payload)
        self._z_acc[...] = 0.0
        return v_done, s_done


class O2b(_Engine):
    """Anytime online-to-batch conversion with L-round compressed transfers.

    Each update t computes the weighted average iterate x^t of all online
    decisions so far, queries stochastic subgradients there, scales them by
    the weight alpha_t, and pushes them through the same learner/server error
    feedback as :class:`Dftcl` - except that every transfer is an L-round
    residual compression, costing L communication rounds per update.  Uniform
    weights pair with the learning-rate step; linear weights (alpha_t = t)
    pair with the strongly convex step anchored at the iterates x^k.
    """

    def __init__(
        self,
        feasible: FeasibleSet,
        n: int,
        spec: CompressorSpec,
        L: int,
        *,
        weights: str = "uniform",
        eta: float | None = None,
        mu: float | None = None,
        seed: int | tuple[int, ...] = 0,
    ):
        if weights not in ("uniform", "linear"):
            raise ConfigError("weights", f"must be 'uniform' or 'linear', got {weights!r}")
        if weights == "uniform" and eta is None:
            raise ConfigError("eta", "uniform weights take the learning-rate step; eta is required")
        if weights == "linear" and mu is None:
            raise ConfigError("mu", "linear weights take the strongly convex step; mu is required")
        super().__init__(feasible, n, spec, spec, L, eta, mu, seed)
        self.weights = weights
        self._x_weighted = np.zeros(self.decision.shape)
        self._alpha_total = 0.0

    def step(self, problem, rng: np.random.Generator) -> UpdateInfo:
        """One update: form x^t, query ``problem.stochastic_grads(x^t, rng)``, communicate, step.

        In lockstep, ``problem.stochastic_grads`` receives the (R, d) iterates
        with ``rng`` and returns (R, n, d) subgradients.  The run driver takes
        the same update through ``_step``, with its oracle reading a table of
        picked samples.  Subgradients of the wrong shape raise ConfigError
        before the update sends or steps."""
        return self._step(lambda x: self._check(problem.stochastic_grads(x, rng)))

    def _step(self, oracle) -> UpdateInfo:
        """One update with the subgradients ``oracle(x^t)``."""
        self.t += 1
        alpha = float(self.t) if self.weights == "linear" else 1.0
        w_played = self.decision
        self._x_weighted += alpha * w_played
        self._alpha_total += alpha
        x = self._x_weighted / self._alpha_total
        grads = oracle(x)
        scaled = self.e + alpha * grads
        v, bits = self._up.send(scaled)
        self.e = scaled - v
        self.bits_up += bits[-1]
        self.msgs_up += self.n * self.L
        vbar = self._learner_mean(v)
        s, bits = self._down.send((self.e_hat + vbar)[..., None, :])
        s = s[..., 0, :]
        self.e_hat += vbar - s
        self.bits_down += bits[-1]
        self.msgs_down += self.L
        self.s_sum += s
        if self.mu is not None:  # linear weights: anchor at the iterates x^k
            self.anchor_sum += alpha * x
        self._lead(self.mu, self._alpha_total)
        return UpdateInfo(x, w_played, self._learner_mean(grads))
