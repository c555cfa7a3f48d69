import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from doco.compressors import (
    CompressedMessage,
    Identity,
    RandK,
    RandomGossip,
    ScaledSign,
    _CHUNK,
    _SenderBank,
    _k_smallest,
    compress,
    contraction_stat,
    derive_seed,
    entity_stream,
    fcc,
    nominal_delta,
    parse_compressor,
)
from doco.domains import ConfigError
from oracles import randk_keep_by_argpartition


def rng(seed=0):
    return np.random.default_rng(seed)


def _apply(spec, x, rng):
    """Reference compressor, one call at a time: (dense payload, modeled bits).

    An independent oracle for the sender bank, which serves both the engines
    and the public ``compress`` and ``fcc``."""
    d = x.shape[0]
    if isinstance(spec, Identity):
        return x.copy(), 64 * d
    if isinstance(spec, RandK):
        out = np.zeros(d)
        if spec.k == d:
            out[:] = x
        else:
            # The k smallest of d i.i.d. uniforms index a uniform k-subset.
            keep = np.argpartition(rng.random(d), spec.k)[: spec.k]
            out[keep] = x[keep]
        return out, spec.k * (64 + (math.ceil(math.log2(d)) if d > 1 else 0))
    if isinstance(spec, ScaledSign):
        scale = float(np.abs(x).sum()) / d
        return np.where(x >= 0.0, scale, -scale), d + 64
    if isinstance(spec, RandomGossip):
        if rng.random() < spec.p:
            return x.copy(), 64 * d
        return np.zeros(d), 1
    raise AssertionError(f"no reference for {spec!r}")


# ---------------------------------------------------------------------------
# Specs and deltas
# ---------------------------------------------------------------------------


def test_nominal_deltas():
    assert nominal_delta(Identity(), 10) == 1.0
    assert nominal_delta(RandK(3), 12) == 0.25
    assert nominal_delta(ScaledSign(), 8) == 0.125
    assert nominal_delta(RandomGossip(0.3), 99) == 0.3


def test_spec_validation():
    with pytest.raises(ConfigError):
        RandK(0)
    with pytest.raises(ConfigError):
        RandomGossip(0.0)
    with pytest.raises(ConfigError):
        RandomGossip(1.5)
    with pytest.raises(ConfigError, match="exceeds dimension"):
        nominal_delta(RandK(5), 4)
    for k in (2.5, True, "3"):
        with pytest.raises(ConfigError, match="^compressor: randk requires an integer k"):
            RandK(k)


@pytest.mark.parametrize("spec", [42, object(), None, "randk:2"])
def test_nominal_delta_rejects_what_is_not_a_spec(spec):
    with pytest.raises(ConfigError, match="^compressor: unknown compressor"):
        nominal_delta(spec, 4)


@pytest.mark.parametrize("x", [np.ones((2, 3)), [1.0, np.nan, 2.0], [np.inf, 0.0], [[1.0]]], ids=["2d", "nan", "inf", "1x1"])
@pytest.mark.parametrize("spec", [Identity(), RandK(1), ScaledSign(), RandomGossip(0.5)])
def test_compress_and_fcc_reject_what_is_not_a_finite_vector(spec, x):
    with pytest.raises(ConfigError, match="^x: "):
        compress(spec, x, rng())
    with pytest.raises(ConfigError, match="^x: "):
        fcc(x, spec, 3, rng())


def test_compress_takes_a_scalar_as_a_one_dimensional_vector():
    msg = compress(Identity(), 2.5, rng())
    assert msg.payload.tolist() == [2.5] and msg.bits == 64


def test_parse_and_label_round_trip():
    for text in ["identity", "randk:8", "sign", "gossip:0.25"]:
        spec = parse_compressor(text)
        assert parse_compressor(spec.label()) == spec
    with pytest.raises(ConfigError, match="compressor"):
        parse_compressor("topk:3")
    with pytest.raises(ConfigError, match="compressor"):
        parse_compressor("randk:x")


# ---------------------------------------------------------------------------
# Single-shot compression
# ---------------------------------------------------------------------------


def test_randk_full_selection_is_identity():
    x = rng().normal(size=6)
    msg = compress(RandK(6), x, rng(1))
    np.testing.assert_array_equal(msg.payload, x)


def test_scaled_sign_example():
    # x = (3, -1): scale = ||x||_1 / d = 2, payload (2, -2); squared error 2
    # is within the deterministic (1 - 1/d) ||x||^2 = 5 budget.
    msg = compress(ScaledSign(), [3.0, -1.0], rng())
    np.testing.assert_allclose(msg.payload, [2.0, -2.0])
    err = float(((msg.payload - np.array([3.0, -1.0])) ** 2).sum())
    assert err == pytest.approx(2.0)
    assert err <= (1 - 0.5) * 10.0


def test_zero_input_gives_zero_payload():
    for spec in [Identity(), RandK(2), ScaledSign(), RandomGossip(0.5)]:
        msg = compress(spec, np.zeros(4), rng(3))
        np.testing.assert_array_equal(msg.payload, np.zeros(4))


def test_sign_of_zero_is_positive():
    msg = compress(ScaledSign(), [0.0, -2.0], rng())
    # scale = 1; the zero coordinate takes the + branch.
    np.testing.assert_allclose(msg.payload, [1.0, -1.0])


def test_bit_model_exact():
    d = 16
    x = rng().normal(size=d)
    assert compress(Identity(), x, rng()).bits == 64 * d
    assert compress(RandK(4), x, rng()).bits == 4 * (64 + 4)
    assert compress(ScaledSign(), x, rng()).bits == d + 64
    # d = 1 has no index bits.
    assert compress(RandK(1), np.ones(1), rng()).bits == 64
    # Gossip: 64d on success, 1 on failure.
    seen = {compress(RandomGossip(0.5), x, rng(i)).bits for i in range(50)}
    assert seen == {64 * d, 1}


class _QueueRng:
    """Deterministic stand-in for a Generator: pops scripted uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(size)])


def test_gossip_outcomes_follow_the_uniform_draw():
    x = np.arange(1.0, 4.0)
    ok = compress(RandomGossip(0.5), x, _QueueRng([0.49]))
    fail = compress(RandomGossip(0.5), x, _QueueRng([0.51]))
    np.testing.assert_array_equal(ok.payload, x)
    assert ok.bits == 64 * 3
    np.testing.assert_array_equal(fail.payload, np.zeros(3))
    assert fail.bits == 1


@pytest.mark.parametrize(
    "spec,d",
    [(Identity(), 8), (RandK(2), 8), (ScaledSign(), 8), (RandomGossip(0.25), 8)],
)
def test_single_shot_contraction(spec, d):
    g = rng(11)
    trials = 10_000
    delta = nominal_delta(spec, d)
    ratios = np.empty(trials)
    for i in range(trials):
        x = g.standard_normal(d)
        msg = compress(spec, x, g)
        ratios[i] = ((msg.payload - x) ** 2).sum() / (x**2).sum()
    stderr = ratios.std(ddof=1) / math.sqrt(trials)
    assert ratios.mean() <= (1 - delta) + 3 * stderr


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=12).map(np.array)
)
def test_scaled_sign_contracts_every_sample(x):
    d = x.shape[0]
    msg = compress(ScaledSign(), x, rng())
    lhs = float(((msg.payload - x) ** 2).sum())
    rhs = (1 - 1.0 / d) * float((x**2).sum())
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


# ---------------------------------------------------------------------------
# Recursive residual compression
# ---------------------------------------------------------------------------


def test_fcc_identity_converges_in_one_round():
    x = rng().normal(size=5)
    r, msgs = fcc(x, Identity(), 4, rng())
    np.testing.assert_array_equal(r, x)
    np.testing.assert_array_equal(msgs[0].payload, x)
    for m in msgs[1:]:
        np.testing.assert_array_equal(m.payload, np.zeros(5))


def test_fcc_gossip_p1_behaves_as_identity():
    x = rng().normal(size=5)
    r, msgs = fcc(x, RandomGossip(1.0), 3, rng(2))
    np.testing.assert_array_equal(r, x)
    np.testing.assert_array_equal(msgs[1].payload, np.zeros(5))


def test_fcc_scaled_sign_1d_is_exact():
    # In one dimension (||x||_1 / 1) sign(x) = x, so the first residual is exact.
    r, _ = fcc(np.array([-2.5]), ScaledSign(), 1, rng())
    np.testing.assert_allclose(r, [-2.5])


def test_fcc_requires_at_least_one_round():
    with pytest.raises(ConfigError, match="L"):
        fcc(np.ones(3), Identity(), 0, rng())


def test_fcc_message_count_and_bit_sum():
    x = rng(5).normal(size=16)
    for spec, per_msg in [(Identity(), 64 * 16), (RandK(4), 4 * (64 + 4)), (ScaledSign(), 16 + 64)]:
        r, msgs = fcc(x, spec, 5, rng(6))
        assert len(msgs) == 5
        assert sum(m.bits for m in msgs) == 5 * per_msg
    # Gossip is failure-aware: each message is either full cost or one bit.
    _, msgs = fcc(x, RandomGossip(0.5), 8, rng(7))
    assert all(m.bits in (64 * 16, 1) for m in msgs)


@pytest.mark.parametrize("spec", [RandK(2), RandomGossip(0.25)])
def test_fcc_contraction_decay(spec):
    d, trials = 8, 4000
    delta = nominal_delta(spec, d)
    g = rng(13)
    for L in (1, 2, 4, 8, 16):
        mean, stderr = contraction_stat(spec, L, d, trials, g)
        assert mean <= (1 - delta) ** L + 3 * stderr, f"L={L}: {mean}"


def test_contraction_stat_exact_zero_cases():
    mean, stderr = contraction_stat(Identity(), 3, 6, 50, rng())
    assert mean == 0.0
    mean, _ = contraction_stat(RandK(6), 2, 6, 50, rng())
    assert mean == 0.0


def test_contraction_stat_rejects_zero_trials():
    with pytest.raises(ConfigError, match="trials"):
        contraction_stat(Identity(), 1, 4, 0, rng())


# ---------------------------------------------------------------------------
# Determinism and stream plumbing
# ---------------------------------------------------------------------------


def test_same_seed_same_payloads_and_bits():
    for spec in [RandK(3), RandomGossip(0.4)]:
        out = []
        for _ in range(2):
            g = entity_stream(123, 1, 0)
            xs = np.random.default_rng(9).normal(size=(20, 8))
            msgs = [compress(spec, x, g) for x in xs]
            out.append(([m.payload for m in msgs], [m.bits for m in msgs]))
        for a, b in zip(out[0][0], out[1][0]):
            np.testing.assert_array_equal(a, b)
        assert out[0][1] == out[1][1]


def test_entity_streams_are_distinct():
    a = entity_stream(0, 1, 0).random(4)
    b = entity_stream(0, 1, 1).random(4)
    c = entity_stream(0, 2, 0).random(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_derive_seed_stable_and_collision_free():
    assert derive_seed(7, 4, 0) == derive_seed(7, 4, 0)
    seeds = {derive_seed(0, 4, r) for r in range(1000)}
    assert len(seeds) == 1000


BANK_SPECS = [Identity(), RandK(3), ScaledSign(), RandomGossip(0.4), RandK(8)]


@pytest.mark.parametrize("spec", BANK_SPECS)
def test_bank_compression_matches_per_call(spec):
    # More consecutive calls than two chunks: the bank's pre-drawn randomness
    # must line up with per-call draws across every refill.
    n, d = 5, 8
    calls = 2 * _CHUNK + 3
    Xs = np.random.default_rng(0).standard_normal((calls, n, d))
    rngs = [entity_stream(9, 1, i) for i in range(n)]
    bank = _SenderBank(spec, d, [entity_stream(9, 1, i) for i in range(n)])
    for X in Xs:
        singles = [_apply(spec, X[i], rngs[i]) for i in range(n)]
        bank_payloads, (_, bank_bits) = bank.send(X)
        np.testing.assert_array_equal(np.stack([p for p, _ in singles]), bank_payloads)
        assert sum(b for _, b in singles) == bank_bits


@pytest.mark.parametrize("spec", BANK_SPECS)
def test_bank_fcc_matches_public_fcc(spec):
    n, d, L = 3, 8, 5
    updates = _CHUNK // L + 7  # the L-round loop crosses a chunk boundary
    Xs = np.random.default_rng(1).standard_normal((updates, n, d))
    rngs = [entity_stream(4, 2, i) for i in range(n)]
    bank = _SenderBank(spec, d, [entity_stream(4, 2, i) for i in range(n)], rounds=L)
    for X in Xs:
        R, spent = bank.send(X)
        bits = [b - a for a, b in zip(spent, spent[1:])]  # per call
        for i in range(n):
            r, msgs = fcc(X[i], spec, L, rngs[i])
            np.testing.assert_array_equal(R[i], r)
            bits = [b - m.bits for b, m in zip(bits, msgs)]
        assert bits == [0] * L


TAKE_SPECS = [Identity(), ScaledSign(), RandK(3), RandK(8), RandomGossip(0.4)]  # d = 8: k < d and k = d


@pytest.mark.parametrize("spec", TAKE_SPECS, ids=lambda s: s.label())
@pytest.mark.parametrize("shape", [(3,), (2, 3)], ids=["one", "lockstep"])
@pytest.mark.parametrize("rounds", [1, 3])
def test_take_equals_transfers_taken_one_at_a_time(spec, shape, rounds):
    # Sizes straddle chunk boundaries, and two exceed a whole chunk.
    d, chunk = 8, 12
    p = max(1, chunk // rounds)
    rows = list(np.ndindex(shape))
    bank, single = (_SenderBank(spec, d, [entity_stream(5, *row) for row in rows], shape, rounds, chunk) for _ in range(2))
    for k in (1, p - 1 or 1, 2, p + 1, 3, 2 * p + 3, 1, p):
        keep, bits = bank.take(k)
        ones = [single.take(1) for _ in range(k)]
        assert bits.dtype == np.int64 and bits.shape == (k, rounds + 1) + shape[:-1]
        assert not bits[:, 0].any()
        assert np.ascontiguousarray(bits).tobytes() == np.concatenate([b for _, b in ones]).tobytes()
        if isinstance(spec, ScaledSign):
            assert keep is None and all(m is None for m, _ in ones)
        else:
            width = 1 if isinstance(spec, RandomGossip) else d  # gossip keeps or drops a whole row
            assert keep.dtype == bool and keep.shape == (k,) + shape + (width,)
            assert np.ascontiguousarray(keep).tobytes() == np.concatenate([m for m, _ in ones]).tobytes()


@st.composite
def _transfer_case(draw):
    """A spec, a transfer length, a chunk, a sender layout, and the inputs of
    more transfers than three chunks hold, with exact 0.0 and -0.0 entries."""
    spec, d = draw(_spec_and_dim())
    L = draw(st.integers(1, 8))
    chunk = draw(st.integers(1, 24))  # calls per draw: small, so refills are cheap to reach
    shape = draw(st.sampled_from([(1,), (3,), (1, 2), (2, 1), (3, 2)]))
    transfers = 3 * max(1, chunk // L) + draw(st.integers(1, 2))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = data.standard_normal((transfers,) + shape + (d,))
    u = data.random(X.shape)
    X[u < 0.2] = 0.0
    X[u > 0.8] = -0.0
    return spec, L, chunk, shape, X


@settings(max_examples=150, deadline=None)
@given(case=_transfer_case(), seed=st.integers(0, 2**32 - 1))
def test_bank_transfer_is_per_row_fcc_bit_for_bit(case, seed):
    # The bank's closed-form transfer against the public residual loop, one
    # row at a time with the row's stream.  fcc's reconstruction starts from a
    # zero vector, so at L = 1 it is its message plus 0.0, while a one-call
    # transfer is the message itself.
    spec, L, chunk, shape, Xs = case
    rows = list(np.ndindex(shape))
    bank = _SenderBank(spec, Xs.shape[-1], [entity_stream(seed, *row) for row in rows], shape, L, chunk)
    twins = {row: entity_stream(seed, *row) for row in rows}
    for X in Xs:
        R, bits = bank.send(X)
        spent = np.zeros((L,) + shape[:-1], dtype=np.int64)  # fcc's bits per call, per replication
        for row in rows:
            r, msgs = fcc(X[row], spec, L, twins[row])
            ref = r if L > 1 else msgs[0].payload
            np.testing.assert_array_equal(R[row].view(np.uint64), ref.view(np.uint64))
            for j, m in enumerate(msgs):
                spent[(j,) + row[:-1]] += m.bits
        assert len(bits) == L + 1 and np.all(np.asarray(bits[0]) == 0)
        calls = np.diff(np.asarray(bits), axis=0)  # the bank's bits per call
        for j in range(L):
            np.testing.assert_array_equal(np.broadcast_to(calls[j], shape[:-1]), spent[j])


@st.composite
def _spec_and_dim(draw):
    d = draw(st.integers(1, 33))
    kind = draw(st.sampled_from(["identity", "randk", "sign", "gossip"]))
    if kind == "randk":
        return RandK(draw(st.integers(1, d))), d  # k = d included: no draw
    if kind == "gossip":
        return RandomGossip(draw(st.floats(0.0, 1.0, exclude_min=True))), d
    return (Identity() if kind == "identity" else ScaledSign()), d


@settings(max_examples=150, deadline=None)
@given(case=_spec_and_dim(), seed=st.integers(0, 2**32 - 1), calls=st.integers(1, 12), L=st.integers(1, 4))
def test_public_compress_and_fcc_match_the_reference(case, seed, calls, L):
    spec, d = case
    xs = np.random.default_rng(seed).standard_normal((calls, d))
    public, oracle = entity_stream(seed, 7), entity_stream(seed, 7)
    for x in xs:
        msg = compress(spec, x, public)
        payload, bits = _apply(spec, x, oracle)
        np.testing.assert_array_equal(msg.payload, payload)
        assert msg.bits == bits
        r, msgs = fcc(x, spec, L, public)
        ref = np.zeros(d)
        for m in msgs:
            payload, bits = _apply(spec, x - ref, oracle)
            np.testing.assert_array_equal(m.payload, payload)
            assert m.bits == bits
            ref = ref + payload
        np.testing.assert_array_equal(r, ref)
    # Both streams gave the same number of draws, so their next draws agree.
    assert public.random() == oracle.random()


@st.composite
def _uniforms_with_ties(draw):
    """Uniforms of shape (*rows, d), a k in [1, d), and the rows whose (k+1)-th
    smallest is set to their k-th: a tie at the k-th smallest."""
    shape = draw(st.sampled_from([(1,), (5,), (3, 4), (2, 3, 2)]))
    d = draw(st.integers(2, 12))
    k = draw(st.integers(1, d - 1))
    U = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape + (d,))
    for row in draw(st.lists(st.sampled_from(list(np.ndindex(shape))), max_size=3)):
        order = np.argsort(U[row])
        U[row + (order[k],)] = U[row + (order[k - 1],)]
    return U, k


_TIED = np.array([[0.5, 0.1, 0.3, 0.3, 0.9], [0.2, 0.8, 0.4, 0.6, 0.1]])  # row 0: the 2nd and 3rd smallest tie


@settings(max_examples=80, deadline=None)
@given(case=_uniforms_with_ties())
@example(case=(_TIED, 2)).via("a tie: the argpartition fallback")
@example(case=(_TIED, 3)).via("no tie at the k-th: the partition threshold")
def test_randk_keep_mask_equals_argpartition_also_at_ties(case):
    # The keep-mask is what is at most the k-th smallest uniform; a tie there
    # would keep more than k coordinates, so the draw falls back to
    # argpartition.
    U, k = case
    ref = randk_keep_by_argpartition(U, k)
    assert _k_smallest(U, k).tobytes() == ref.tobytes()
    assert np.all(ref.sum(axis=-1) == k)


def test_the_tied_example_reaches_the_fallback():
    assert np.count_nonzero(_TIED <= np.partition(_TIED, 1, axis=-1)[..., 1:2]) == 5  # not 2 * 2
    assert np.count_nonzero(_TIED <= np.partition(_TIED, 2, axis=-1)[..., 2:3]) == 6  # 2 * 3
