"""Engines for compressed-communication online learning over a star topology.

Three single-threaded state machines, advanced round by round (or update by
update) by the harness:

* :class:`Dftcl` - each round, every learner compresses its error-corrected
  gradient, the server averages, re-compresses with its own error memory, and
  all learners take a regularized-leader step on the cumulative broadcasts.
  With a lossless compressor this is exactly uncompressed FTRL.
* :class:`Dftfcl` - the blocked variant: the decision is frozen for L rounds
  while block gradients accumulate, and each transfer is spread over the L
  rounds of the following block as a recursive residual compression.  Updates
  therefore lag two blocks behind the gradients they consume.
* :class:`O2b` - anytime online-to-batch driver for stochastic problems:
  queries subgradients at the running weighted average of the online decisions
  and feeds weighted surrogate losses to the online update; each update's
  transfer is an L-round residual compression (L communication rounds).

Learner loops run in a fixed index order; the updates are order-independent,
so this matches a parallel execution exactly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .compressors import (
    CompressorSpec,
    Identity,
    _SenderBank,
    entity_stream,
)
from .domains import ConfigError, FeasibleSet, ftrl_linear_step, ftrl_strongly_convex_step

__all__ = ["Dftcl", "Dftfcl", "O2b", "RoundInfo", "UpdateInfo"]

_LEARNER, _SERVER = 1, 2


class RoundInfo(NamedTuple):
    """One round's outcome; message payloads are filled only when collected."""

    w_played: np.ndarray
    v: np.ndarray | None = None
    s: np.ndarray | None = None


class UpdateInfo(NamedTuple):
    """One online-to-batch update: the iterate queried, the decision played,
    and the mean of the learners' (unscaled) stochastic subgradients."""

    x: np.ndarray
    w_played: np.ndarray
    gbar: np.ndarray


def _banks(spec, server_spec, d, n, seed):
    """Sender banks of the n learners and of the server, on their entity streams."""
    up = _SenderBank(spec, d, [entity_stream(seed, _LEARNER, i) for i in range(n)])
    return up, _SenderBank(server_spec, d, [entity_stream(seed, _SERVER, 0)])


def _check_step_params(eta, mu):
    if (eta is None) == (mu is None):
        raise ConfigError("eta", "exactly one of eta (convex) or mu (strongly convex) is required")
    if eta is not None and not eta > 0:
        raise ConfigError("eta", f"must be positive, got {eta}")
    if mu is not None and not mu > 0:
        raise ConfigError("mu", f"must be positive, got {mu}")


class Dftcl:
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
        seed: int = 0,
    ):
        _check_step_params(eta, mu)
        if n < 1:
            raise ConfigError("n", f"must be >= 1, got {n}")
        self.feasible, self.n, self.d = feasible, n, feasible.d
        self.spec = spec
        self.server_spec: CompressorSpec = Identity() if unidirectional else spec
        self.eta, self.mu = eta, mu
        self.t = 0
        self.decision = feasible.project(np.zeros(self.d))
        self.e = np.zeros((n, self.d))
        self.e_hat = np.zeros(self.d)
        self.s_sum = np.zeros(self.d)
        self.anchor_sum = np.zeros(self.d)
        self.bits_up = 0
        self.bits_down = 0
        self.msgs_up = 0
        self.msgs_down = 0
        self._up, self._down = _banks(spec, self.server_spec, self.d, n, seed)

    def round(self, grads: np.ndarray, collect: bool = False) -> RoundInfo:
        """Advance one round given the (n, d) per-learner gradients at the played decision."""
        self.t += 1
        w_played = self.decision
        v, bits = self._up.apply(self.e + grads)
        self.e += grads - v
        self.bits_up += bits
        self.msgs_up += self.n
        vbar = v.mean(axis=0)
        s, bits = self._down.apply((self.e_hat + vbar)[None])
        s = s[0]
        self.e_hat += vbar - s
        self.bits_down += bits
        self.msgs_down += 1
        self.s_sum += s
        if self.mu is None:
            self.decision = ftrl_linear_step(self.feasible, self.s_sum, self.eta)
        else:
            self.anchor_sum += w_played
            self.decision = ftrl_strongly_convex_step(
                self.feasible, self.s_sum, self.anchor_sum, self.mu, float(self.t)
            )
        return RoundInfo(w_played, v if collect else None, s.copy() if collect else None)


class Dftfcl:
    """Blocked variant: L-round residual compression amortized over each block.

    Rounds are grouped into blocks of length L during which the decision is
    frozen.  While block b plays, the learners stream the L residual-
    compression messages for block b-1's error-corrected gradient sum, and the
    server streams the messages for the broadcast of block b-2.  At the end of
    block b >= 3 the learners hold exactly the broadcasts of blocks 1..b-2 and
    take the leader step on their sum (strongly convex mode anchors every past
    block decision with weight mu*L).  Blocks 1 and 2 are warm-up: the initial
    decision is replayed and, in block 1, nothing is transmitted.
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
        seed: int = 0,
    ):
        _check_step_params(eta, mu)
        if n < 1:
            raise ConfigError("n", f"must be >= 1, got {n}")
        if L < 1:
            raise ConfigError("L", f"must be >= 1, got {L}")
        self.feasible, self.n, self.d, self.L = feasible, n, feasible.d, L
        self.spec = spec
        self.eta, self.mu = eta, mu
        self.t = 0
        self.block = 1
        self._k = 0  # rounds completed within the current block
        self.decision = feasible.project(np.zeros(self.d))
        self.e = np.zeros((n, self.d))
        self.e_hat = np.zeros(self.d)
        self.s_sum = np.zeros(self.d)
        self.anchor_sum = np.zeros(self.d)
        self._z_acc = np.zeros((n, self.d))
        self._up_payload = np.zeros((n, self.d))  # e^{b-1} + z^{b-1} being streamed
        self._up_r = np.zeros((n, self.d))
        self._down_payload = np.zeros(self.d)  # v^{b-2} + e_hat^{b-2} being streamed
        self._down_r = np.zeros(self.d)
        self.bits_up = 0
        self.bits_down = 0
        self.msgs_up = 0
        self.msgs_down = 0
        self._up, self._down = _banks(spec, spec, self.d, n, seed)

    def round(self, grads: np.ndarray, collect: bool = False) -> RoundInfo:
        """Advance one round; pipeline completions happen on block boundaries."""
        self.t += 1
        self._k += 1
        w_played = self.decision
        self._z_acc += grads
        if self.block >= 2:
            payloads, bits = self._up.apply(self._up_payload - self._up_r)
            self._up_r += payloads
            self.bits_up += bits
            self.msgs_up += self.n
        if self.block >= 3:
            payload, bits = self._down.apply((self._down_payload - self._down_r)[None])
            self._down_r += payload[0]
            self.bits_down += bits
            self.msgs_down += 1
        v_done = s_done = None
        if self._k == self.L:
            v_done, s_done = self._finish_block()
        if not collect:
            v_done = s_done = None
        return RoundInfo(w_played, v_done, s_done)

    def _finish_block(self):
        b = self.block
        self.anchor_sum += self.decision
        v_done = s_done = None
        if b >= 2:
            v_done = self._up_r.copy()
            self.e = self._up_payload - self._up_r
            vbar = v_done.mean(axis=0)
        if b >= 3:
            s_done = self._down_r.copy()
            self.e_hat = self._down_payload - self._down_r
            self.s_sum += s_done
            if self.mu is None:
                self.decision = ftrl_linear_step(self.feasible, self.s_sum, self.eta)
            else:
                self.decision = ftrl_strongly_convex_step(
                    self.feasible, self.s_sum, self.anchor_sum, self.mu * self.L, float(b)
                )
        if b >= 2:
            self._down_payload = vbar + self.e_hat
            self._down_r = np.zeros(self.d)
        self._up_payload = self.e + self._z_acc
        self._up_r = np.zeros((self.n, self.d))
        self._z_acc = np.zeros((self.n, self.d))
        self.block += 1
        self._k = 0
        return v_done, s_done

    def run_block(self, grads_block: np.ndarray) -> np.ndarray:
        """Convenience: advance a full block given (L, n, d) gradients; returns the played decision."""
        if grads_block.shape[0] != self.L:
            raise ConfigError("grads_block", f"expected {self.L} rounds, got {grads_block.shape[0]}")
        w = self.decision
        for k in range(self.L):
            self.round(grads_block[k])
        return w


class O2b:
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
        seed: int = 0,
    ):
        if weights not in ("uniform", "linear"):
            raise ConfigError("weights", f"must be 'uniform' or 'linear', got {weights!r}")
        if weights == "uniform" and eta is None:
            raise ConfigError("eta", "uniform weights take the learning-rate step; eta is required")
        if weights == "linear" and mu is None:
            raise ConfigError("mu", "linear weights take the strongly convex step; mu is required")
        _check_step_params(eta, mu)
        if n < 1:
            raise ConfigError("n", f"must be >= 1, got {n}")
        if L < 1:
            raise ConfigError("L", f"must be >= 1, got {L}")
        self.feasible, self.n, self.d, self.L = feasible, n, feasible.d, L
        self.spec = spec
        self.weights = weights
        self.eta, self.mu = eta, mu
        self.t = 0
        self.decision = feasible.project(np.zeros(self.d))
        self.e = np.zeros((n, self.d))
        self.e_hat = np.zeros(self.d)
        self.s_sum = np.zeros(self.d)
        self._x_weighted = np.zeros(self.d)
        self._anchor_weighted = np.zeros(self.d)
        self._alpha_total = 0.0
        self.bits_up = 0
        self.bits_down = 0
        self.msgs_up = 0
        self.msgs_down = 0
        self._up, self._down = _banks(spec, spec, self.d, n, seed)

    def _alpha(self, t: int) -> float:
        return float(t) if self.weights == "linear" else 1.0

    def step(self, problem, rng: np.random.Generator) -> UpdateInfo:
        """One update: form x^t, query the problem's stochastic subgradients, communicate, step."""
        self.t += 1
        alpha = self._alpha(self.t)
        w_played = self.decision
        self._x_weighted += alpha * w_played
        self._alpha_total += alpha
        x = self._x_weighted / self._alpha_total
        grads = problem.stochastic_grads(x, rng)
        scaled = self.e + alpha * grads
        v, bits = self._up.fcc(scaled, self.L)
        self.e = scaled - v
        self.bits_up += bits
        self.msgs_up += self.n * self.L
        vbar = v.mean(axis=0)
        s, bits = self._down.fcc((self.e_hat + vbar)[None], self.L)
        s = s[0]
        self.e_hat += vbar - s
        self.bits_down += bits
        self.msgs_down += self.L
        self.s_sum += s
        if self.weights == "uniform":
            self.decision = ftrl_linear_step(self.feasible, self.s_sum, self.eta)
        else:
            self._anchor_weighted += alpha * x
            self.decision = ftrl_strongly_convex_step(
                self.feasible, self.s_sum, self._anchor_weighted, self.mu, self._alpha_total
            )
        return UpdateInfo(x, w_played, grads.mean(axis=0))
