"""Golden traces: sha256 of the CSV bytes of a small configuration matrix.

The hashes pin the trace bytes of ``run`` and ``monte_carlo``, the CSV of
``doco sweep``, and the rows of the error-energy checks, so a change to how randomness is drawn, or to any
arithmetic on the trace or check path, shows up as a failure here.  A change
that alters trace bytes on purpose must say why and re-record these hashes in
the same change.

T is long enough that every compressor stream of every engine serves more
than 512 compressor calls, so randomness drawn ahead in chunks of up to 256
calls is refilled at least twice; this includes the blocked engine's server,
which starts sending only in block 3, and o2b, which makes L calls per update.

At N=3, D=4 and G=1 every learner-side value above is dyadic, so two orders
of the same error-feedback arithmetic round alike and hash alike.  The
``NON_DYADIC`` configs (d=5, curved environments, the unidirectional mode,
o2b on a regularized problem) carry values that are not, so a reordering of
that arithmetic changes their bytes.
"""

import hashlib

import pytest

from doco import RunConfig, harness, monte_carlo, run
from doco.cli import main
from doco.compressors import parse_compressor

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
    "o2b/lad/randk:2/linear": "fb77a21bf5da9db5c232d45617ba63709378d85f701cc42a878e24dfb5775dc7",
    "o2b/lad/gossip:0.5/uniform": "e43d2387db530b13a1a0f89e0519784cdd308257ed28c291350ed1e0e0f0b45d",
    "o2b/lad/gossip:0.5/linear": "c517413231623aebdec6dcfbc692cc3f80b95e42cd9564d9e6bea80a8ed7f359",
}

NON_DYADIC = {
    "dftcl/linear/randk:2/d5": RunConfig("dftcl", "linear", T, N, 5, "randk:2", seed=11),
    "dftcl/linear/gossip:0.25/d5": RunConfig("dftcl", "linear", T, N, 5, "gossip:0.25", seed=11),
    "dftfcl/linear/randk:2/d5": RunConfig("dftfcl", "linear", T, N, 5, "randk:2", seed=11),
    "dftfcl/linear/gossip:0.25/d5": RunConfig("dftfcl", "linear", T, N, 5, "gossip:0.25", seed=11),
    "dftcl/sc_quadratic/randk:2": RunConfig("dftcl", "sc_quadratic", T, N, D, "randk:2", mu=0.5, seed=11),
    "dftcl/sc_quadratic/sign/eta": RunConfig("dftcl", "sc_quadratic", T, N, D, "sign", eta=0.3, mu=0.5, seed=11),
    "dftfcl/sc_quadratic/gossip:0.25": RunConfig("dftfcl", "sc_quadratic", T, N, D, "gossip:0.25", mu=0.5, seed=11),
    "dftcl/sc_lower/gossip:0.25": RunConfig("dftcl", "sc_lower", T, N, D, "gossip:0.25", mu=0.5, seed=11),
    "dftfcl/sc_lower/randk:2": RunConfig("dftfcl", "sc_lower", T, N, D, "randk:2", mu=0.5, seed=11),
    "dftcl/linear/randk:2/d5/unidirectional": RunConfig(
        "dftcl", "linear", T, N, 5, "randk:2", unidirectional=True, seed=11
    ),
    "dftcl/convex_lower/gossip:0.25/unidirectional": RunConfig(
        "dftcl", "convex_lower", T, N, D, "gossip:0.25", unidirectional=True, seed=11
    ),
    "o2b/lad/randk:2/uniform/mu+eta": RunConfig(
        "o2b", "lad", T, N, D, "randk:2", eta=0.2, mu=0.3, samples=16, seed=11
    ),
    "o2b/lad/gossip:0.5/uniform/mu+eta/d5": RunConfig(
        "o2b", "lad", T, N, 5, "gossip:0.5", eta=0.2, mu=0.3, samples=16, seed=11
    ),
    "o2b/lad/sign/linear/d5": RunConfig(
        "o2b", "lad", T, N, 5, "sign", weights="linear", mu=0.5, samples=16, seed=11
    ),
}

NON_DYADIC_SHA256 = {
    "dftcl/linear/randk:2/d5": "cf494752e099442b9d775f7475c984764e802382f26e78d391eca06883f26131",
    "dftcl/linear/gossip:0.25/d5": "ffabdb0fb24379cff7ae53fc43c02a505396324a5a6f7ee3c2f558ad6ae3049e",
    "dftfcl/linear/randk:2/d5": "0054eb0821afe2c380dbeff602b777575c193378911082f0ba094a6cd4e1bca4",
    "dftfcl/linear/gossip:0.25/d5": "9559877a2582ca7a3cf13ba456733c3dbe4683ccb7034e389208a6baf3ceaf8e",
    "dftcl/sc_quadratic/randk:2": "14afe3e0a770aa484bd35a9e5193ec07600096e89ac24b58d395fd8fe37f6381",
    "dftcl/sc_quadratic/sign/eta": "4e46fb33b997b4e972e0f5c94221ff1ad6c0a6a963bd749d93663285159a420f",
    "dftfcl/sc_quadratic/gossip:0.25": "38e0f88c36be4611effda082f5a563c2c7e086dacb3e0611963e6c1f5b8331b7",
    "dftcl/sc_lower/gossip:0.25": "0c8dd36cb658d8409312750c88560a0e68896940858da563e1998e7dbf4d3cb5",
    "dftfcl/sc_lower/randk:2": "31bd00beb55d6b57f3387164e2ca4f0afa83ca7ced999fff227d78032acf3f8f",
    "dftcl/linear/randk:2/d5/unidirectional": "a61b77943183c700b2ad614f0bf5a295abca9494a6ecd63ac336f9aa58a6f107",
    "dftcl/convex_lower/gossip:0.25/unidirectional": "52d14814831fc2d6a6192a5fdd2d97fc5750c29f39c755239a87ad3f1e6a5534",
    "o2b/lad/randk:2/uniform/mu+eta": "647e4382551766a0d4785618614636b87c236f4c4ac3ca4d5ba64cefeca58e61",
    "o2b/lad/gossip:0.5/uniform/mu+eta/d5": "c94b4c129eb329b1198017fa11c9a626a48a4496d99d1f28928d2377cd2bccbc",
    "o2b/lad/sign/linear/d5": "57d223954ffe1ae7b4a154c0a36304a56b71b63688004b36164c09c4324100bc",
}

# Transfers whose length L does not divide the 256 compressor calls a sender
# bank draws at once.  L = 3 is also the default for randk:2 at d = 5, so the
# first row hashes like its NON_DYADIC twin.
ODD_L = {
    "dftfcl/linear/randk:2/d5/L3": RunConfig("dftfcl", "linear", T, N, 5, "randk:2", L=3, seed=11),
    "dftfcl/linear/randk:2/d5/L5": RunConfig("dftfcl", "linear", T, N, 5, "randk:2", L=5, seed=11),
    "o2b/lad/randk:2/uniform/L3": RunConfig("o2b", "lad", T, N, D, "randk:2", L=3, samples=16, seed=11),
    "o2b/lad/randk:2/linear/L3": RunConfig(
        "o2b", "lad", T, N, D, "randk:2", L=3, weights="linear", mu=0.5, samples=16, seed=11
    ),
    "o2b/lad/gossip:0.5/uniform/L3": RunConfig("o2b", "lad", T, N, D, "gossip:0.5", L=3, samples=16, seed=11),
    "o2b/lad/gossip:0.5/linear/L3": RunConfig(
        "o2b", "lad", T, N, D, "gossip:0.5", L=3, weights="linear", mu=0.5, samples=16, seed=11
    ),
}

ODD_L_SHA256 = {
    "dftfcl/linear/randk:2/d5/L3": "0054eb0821afe2c380dbeff602b777575c193378911082f0ba094a6cd4e1bca4",
    "dftfcl/linear/randk:2/d5/L5": "ddd71148420c83d43de70d4b8cfc4edbe75babe1246c47e0c1c70090782a0486",
    "o2b/lad/randk:2/uniform/L3": "68904134ac937cf6c56910b07db76e1702dff060605fb752c6a6788730b7191c",
    "o2b/lad/randk:2/linear/L3": "87be61c939eab932517bb3d2dc030d71daa6968ab74418ecf1e9f39afb85ae1d",
    "o2b/lad/gossip:0.5/uniform/L3": "3c3125d676e03aadf613151576d8bf16fc94f355019f20871331681c3db3a56c",
    "o2b/lad/gossip:0.5/linear/L3": "e993b50c9f803fe8c9a05221accfed57b805c73e2ec709d6adba0c6e18590200",
}

ODD_L_MC = "o2b/lad/gossip:0.5/linear/L3"
ODD_L_MC_SHA256 = "6bcf6a29f87d4839dbc9f3484b05a4f2b624f9fa156cceb00ea8a8fe2fd91446"

MC_SHA256 = {
    "dftcl/linear/randk:2": "7b9b92065a87747055c4b69fb45514fef353f495706aaf9214011cf3db2dc863",
    "dftcl/convex_lower/sign": "426fe43449422ca2fb69765d2457d6072762add0df2896926197f97c5103e55a",
    "dftfcl/linear/identity": "32244d8d0c60a13aefd8624b0a85359a2be5511cb3508f7d03a7ed17475dcbe1",
    "dftfcl/convex_lower/gossip:0.25": "05c1f47f4ebc0019dd264c474ba1b0eb5db0839041d1d279240c206182553777",
    "o2b/lad/randk:2/linear": "c0c37f133e31044db1239c30ee1ebf1fe4fb007b3f4f8418dfedf1ba25f917fa",
    "o2b/lad/gossip:0.5/uniform": "cac36fb1f2e97fd9e2b11494ecdf0c6fdd7378c1b8bc5b0c367cf86988905337",
}


def _sha(trace, tmp_path) -> str:
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("label", CONFIGS)
def test_run_trace_bytes(label, tmp_path):
    assert _sha(run(_config(label)), tmp_path) == RUN_SHA256[label]


@pytest.mark.parametrize("label", NON_DYADIC)
def test_non_dyadic_run_trace_bytes(label, tmp_path):
    assert _sha(run(NON_DYADIC[label]), tmp_path) == NON_DYADIC_SHA256[label]


@pytest.mark.parametrize("label", REPLICATED)
def test_monte_carlo_trace_bytes_any_worker_count(label, tmp_path):
    cfg = _config(label)
    serial = _sha(monte_carlo(cfg, reps=3, workers=1), tmp_path)
    pooled = _sha(monte_carlo(cfg, reps=3, workers=2), tmp_path)
    assert serial == pooled
    assert serial == MC_SHA256[label]


@pytest.mark.parametrize("label", ODD_L)
def test_odd_L_run_trace_bytes(label, tmp_path):
    assert _sha(run(ODD_L[label]), tmp_path) == ODD_L_SHA256[label]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_odd_L_monte_carlo_trace_bytes(workers, tmp_path):
    assert _sha(monte_carlo(ODD_L[ODD_L_MC], reps=3, workers=workers), tmp_path) == ODD_L_MC_SHA256


# sha256 of ``repr`` of each check's report.  17 seeds make two lockstep
# batches (9 + 8); randk:3 at d=16 gives L = 6, so T = 2000 ends inside a block.
# The fcc_contraction rows go through a one-sender bank's L-round transfer: the
# default check as ``doco verify`` runs it, and each other compressor kind.
# ``fcc`` itself stays pinned by test_bank_transfer_is_per_row_fcc_bit_for_bit
# and test_public_compress_and_fcc_match_the_reference.
VERIFY = {
    "fcc_contraction/randk:8/5000": lambda: harness.verify_fcc_contraction(),
    "fcc_contraction/randk:3/300": lambda: harness.verify_fcc_contraction(trials=300, spec=parse_compressor("randk:3")),
    "fcc_contraction/gossip:0.5/300": lambda: harness.verify_fcc_contraction(
        trials=300, spec=parse_compressor("gossip:0.5")
    ),
    "fcc_contraction/sign/300": lambda: harness.verify_fcc_contraction(trials=300, spec=parse_compressor("sign")),
    "dftcl_errors/randk:4/17": lambda: harness.verify_errors("dftcl_errors", seeds=17),
    "dftfcl_errors/randk:3/17": lambda: harness.verify_errors("dftfcl_errors", seeds=17, spec=parse_compressor("randk:3")),
    "dftcl_errors/gossip:0.5/2": lambda: harness.verify_errors("dftcl_errors", seeds=2, spec=parse_compressor("gossip:0.5")),
    "dftfcl_errors/sign/2": lambda: harness.verify_errors("dftfcl_errors", seeds=2, spec=parse_compressor("sign")),
    "o2b_errors/randk:2/17": lambda: harness.verify_errors("o2b_errors", seeds=17),
}

VERIFY_SHA256 = {
    "fcc_contraction/randk:8/5000": "1fe26c469abca3b0e454ad01ffb68dbd003a1fe0f5954f02ec9b86212c1a945c",
    "fcc_contraction/randk:3/300": "935eceb851198e312e46adde955bf2e92a13ba80e3dae4eb5fea1d86a9c3ec2f",
    "fcc_contraction/gossip:0.5/300": "3978bfd408fe2f66a1db99f60ac29fe036ae2f1d1e5554a5e297fb1e10c44414",
    "fcc_contraction/sign/300": "baa8867fb95be6c5ba805676273bb748e715f2c2f1cc4cd54a178a99e665b606",
    "dftcl_errors/randk:4/17": "59a5a5242f11fa6979fced13c2d1a9b9ffa4bb10439c9d98f3d30a8a690c2bf3",
    "dftfcl_errors/randk:3/17": "7b8571d63a23dc17f0a2c1b7928f2c6345bea20e8353650409fd0013d3e325a6",
    "dftcl_errors/gossip:0.5/2": "1cb3b8843180d06dd408b8bc91fa7c73d6bd247995398c148e4419dae1e9c688",
    "dftfcl_errors/sign/2": "7bff7a7e286927c5160915de24acf85d7d0c12a8def5805826a88c3b620a6693",
    "o2b_errors/randk:2/17": "7a1d82808d3a983aeb9306158c6bdf77f79c2722f9c15a768a04975aaf153082",
}


@pytest.mark.parametrize("label", VERIFY)
def test_verify_rows(label):
    report = VERIFY[label]()
    assert hashlib.sha256(repr(report).encode()).hexdigest() == VERIFY_SHA256[label]


# ``doco sweep`` argv without --workers and --out.  The 3 x 3 gossip grid is
# the benchmark's sweep at small T with fewer replications than 3 workers; the
# randk delta grid has 6 points and 5 replications, more of both than
# workers; the one-point o2b grid splits its replications over the workers.
SWEEP = {
    "dftcl/convex_lower/gossip/3x3/reps2": [
        "--algo", "dftcl", "--env", "convex_lower", "--n", "8", "--d", "16", "--compressor", "gossip:0.25",
        "--delta-grid", "0.25,0.125,0.0625", "--T-grid", "64,128,256", "--reps", "2", "--seed", "3",
    ],
    "dftfcl/linear/randk/2x3/reps5": [
        "--algo", "dftfcl", "--env", "linear", "--n", "3", "--d", "8", "--compressor", "randk:2",
        "--delta-grid", "1.0,0.5,0.25", "--T-grid", "96,160", "--reps", "5", "--seed", "8",
    ],
    "o2b/lad/randk/1x1/reps5": [
        "--algo", "o2b", "--env", "lad", "--n", "3", "--d", "4", "--samples", "16", "--compressor", "randk:2",
        "--T-grid", "400", "--reps", "5", "--seed", "2",
    ],
}  # fmt: skip

SWEEP_SHA256 = {
    "dftcl/convex_lower/gossip/3x3/reps2": "15206c18ebd1ad596851a523f84c7179f63c1f9c78e5bd3cb119350f24df591c",
    "dftfcl/linear/randk/2x3/reps5": "6dc12e476bb6da82d602860a79958c5814d193c3c72e192f13233ed65230b5e0",
    "o2b/lad/randk/1x1/reps5": "c2f2d24226d8ccbe6f359bd54e95dfc50863abad5536ae18c28f3731fad2034a",
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("label", SWEEP)
def test_sweep_csv_bytes_any_worker_count(label, workers, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *SWEEP[label], "--workers", str(workers), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256[label]
