"""Golden traces: sha256 of the CSV bytes of a small configuration matrix.

The hashes pin the trace bytes of ``run`` and ``monte_carlo`` so a change to
how randomness is drawn, or to any arithmetic on the trace path, shows up as
a failure here.  A change that alters trace bytes on purpose must say why and
re-record these hashes in the same change.

T is long enough that every compressor stream of every engine serves more
than 512 compressor calls, so randomness drawn ahead in chunks of up to 256
calls is refilled at least twice; this includes the blocked engine's server,
which starts sending only in block 3, and o2b, which makes L calls per update.
"""

import hashlib

import pytest

from doco import RunConfig, monte_carlo, run

T = 600
N, D = 3, 4

ONLINE = [
    (algo, env, comp)
    for algo in ("dftcl", "dftfcl")
    for env in ("linear", "convex_lower")
    for comp in ("identity", "randk:2", "sign", "gossip:0.25")
]
O2B = [(comp, weights) for comp in ("randk:2", "gossip:0.5") for weights in ("uniform", "linear")]


def _config(label: str) -> RunConfig:
    algo, env, comp, *rest = label.split("/")
    if algo == "o2b":
        weights = rest[0]
        mu = 0.5 if weights == "linear" else None
        return RunConfig(algo, env, T, N, D, comp, weights=weights, mu=mu, samples=16, seed=11)
    return RunConfig(algo, env, T, N, D, comp, seed=11)


CONFIGS = [f"{a}/{e}/{c}" for a, e, c in ONLINE] + [f"o2b/lad/{c}/{w}" for c, w in O2B]

# Replicated runs cost a pool start-up each, so they cover a subset that
# still touches every algorithm and every compressor.
REPLICATED = [
    "dftcl/linear/randk:2",
    "dftcl/convex_lower/sign",
    "dftfcl/linear/identity",
    "dftfcl/convex_lower/gossip:0.25",
    "o2b/lad/randk:2/linear",
    "o2b/lad/gossip:0.5/uniform",
]

RUN_SHA256 = {
    "dftcl/linear/identity": "d20ff9c85247fc502418a442358082f64ac314c8fe8060a8c97eab44d932bb1d",
    "dftcl/linear/randk:2": "fa4067b1cb8a21b48e13e87311e073bd1ea23abea0be61935eaf5555ba57196f",
    "dftcl/linear/sign": "5c1eb99f35918eb09657623894870ed274d2d9567c70ff8070fbd703261403d0",
    "dftcl/linear/gossip:0.25": "1d8f067e45dff9e6c6a8aced156ffaf418d23c06dd0c76a6925b4a9b2c2e2238",
    "dftcl/convex_lower/identity": "14083136fd690478604e36b0e44deab5e41b40d86efdf3286cd65cb088c98d1c",
    "dftcl/convex_lower/randk:2": "cb6555f1e9ee5518914e4d96eb0e93dffaa50e95bfe603543da12b187c581054",
    "dftcl/convex_lower/sign": "49d2743d2cd5a51255859beb32abca16b9a8de06d3cfe0c2edfcbdf074af1555",
    "dftcl/convex_lower/gossip:0.25": "b807e8d2d9e3d8e6e4fadc63f471a93366dd40034721509e2393631e2573c786",
    "dftfcl/linear/identity": "bad5bb25319963475c12c4c1980b5bdfef2df0512d3d9f5a778822cb1acc71a5",
    "dftfcl/linear/randk:2": "e7c06fb5985083142e994b77a93dd0d8afbeb00a36cacac2a2ac808cd5913d3f",
    "dftfcl/linear/sign": "4abbecd72339b4092dea40c8242a98b49eced5d3be3bc353b58781e8d455aa01",
    "dftfcl/linear/gossip:0.25": "e8c6e77962fd51ba3b49ae32f26d4ab70d38d934770c1cbe6acd77156a70e8ac",
    "dftfcl/convex_lower/identity": "e0da9589bad426cc71d4f9cb60011601a77207ca8b9e1952723e97fe2125b938",
    "dftfcl/convex_lower/randk:2": "7885712a69bd8ff2e11b4247edcee4724b1a3234cd83ff00194c29fce6c57a1f",
    "dftfcl/convex_lower/sign": "a7204dde5703210bfc157d0f3c82a2f5e019ff67e093a4a398fcd51f56533d53",
    "dftfcl/convex_lower/gossip:0.25": "54762f272479cbbcecc3724c32bd7c4d7c90286448ecd0b7a5f7848963fea09f",
    "o2b/lad/randk:2/uniform": "132fb18354bf5a5bebd356111e5906e302d54dbf73140bdb531d1f0e7b677677",
    "o2b/lad/randk:2/linear": "346e9c3bbb4dfbe97f949c54e35aa4ccafbeed5426f0d4a50a776110f30ea767",
    "o2b/lad/gossip:0.5/uniform": "e43d2387db530b13a1a0f89e0519784cdd308257ed28c291350ed1e0e0f0b45d",
    "o2b/lad/gossip:0.5/linear": "c21ce7a3d8f991a89ab25653ef1c4d6ed0ef8d19909ad15002ac611087c15f65",
}

MC_SHA256 = {
    "dftcl/linear/randk:2": "7b9b92065a87747055c4b69fb45514fef353f495706aaf9214011cf3db2dc863",
    "dftcl/convex_lower/sign": "426fe43449422ca2fb69765d2457d6072762add0df2896926197f97c5103e55a",
    "dftfcl/linear/identity": "32244d8d0c60a13aefd8624b0a85359a2be5511cb3508f7d03a7ed17475dcbe1",
    "dftfcl/convex_lower/gossip:0.25": "05c1f47f4ebc0019dd264c474ba1b0eb5db0839041d1d279240c206182553777",
    "o2b/lad/randk:2/linear": "3d840f7f9ce0bdb6bab41802020da1ea1126db39a61f62aeb3354146e67feb25",
    "o2b/lad/gossip:0.5/uniform": "cac36fb1f2e97fd9e2b11494ecdf0c6fdd7378c1b8bc5b0c367cf86988905337",
}


def _sha(trace, tmp_path) -> str:
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("label", CONFIGS)
def test_run_trace_bytes(label, tmp_path):
    assert _sha(run(_config(label)), tmp_path) == RUN_SHA256[label]


@pytest.mark.parametrize("label", REPLICATED)
def test_monte_carlo_trace_bytes_any_worker_count(label, tmp_path):
    cfg = _config(label)
    serial = _sha(monte_carlo(cfg, reps=3, workers=1), tmp_path)
    pooled = _sha(monte_carlo(cfg, reps=3, workers=2), tmp_path)
    assert serial == pooled
    assert serial == MC_SHA256[label]
