"""SHA-256 digests of whole float-suite reports.

The digests pin every float of the lemma and weak reports, witnesses
included, so a speed-up of the float layer must reproduce each report bit
for bit.  The weak sample counts straddle the 16,384-sample evaluation
block (one less, one more) and the 200,000-sample chunk (200,003 samples
are two chunks, the second a partial one), and one weak run holds
exactly one block.  Three more set the leaves of the summation tree that
each chunk is streamed through: 32,769 samples split into 16,384 and
16,385, the second halved again; 250,001 end on a partial 50,001-sample
chunk; 1,000,000 are five full chunks.  They were captured before the
chunks were streamed by leaf.  Two configs set ``fd.h`` or ``quadrature.half_width``
explicitly, away from or at their defaults.
"""

import hashlib
import json

import pytest

from affinv.report import run_suite_from_config

TIGHT_FD = {"tau_sys": 1e-12, "tau_res": 1e-13, "tau_comb": 1e-14, "tau_lemma": 1e-13}

LEMMA_DIGESTS = {
    (2, 0): "a0388431e54bb42279f2a466dae5221d57dea5e6f16945e841f0bee8367eeb3b",
    (2, 1): "a4f15421ea27f0aa707452d3c62508a199a38a859a8a4eaa876142dfd563dd3b",
    (2, 2): "959b629fad53b84a5c6defd778e82ffcfcd06b41291c55d7d3fdacc7488fbb83",
    (2, 3): "df5dbe2840db443ce7394e66c28f0a1e75b261fdbb1246faa085c00b78c6e1b8",
    (3, 0): "590c728258b7e4737ea3860bf4e2749e8cbee81c9913331c103e74ba91ad6d91",
    (3, 1): "46ab328e202031da894f3ffd3d2ec04c214a46d7182f8b6cf1030c898cd6a8a7",
    (3, 2): "327f6f193c7537c1ea226c85a07badc737101b01896d50c4ab38179654603309",
    (3, 3): "a28b081cea080c76674ef3e9c9bca662aa32df7c1122b6588a14d7e0633722a8",
    (4, 0): "6873122e74fb4fbd99828673940a8d3a38487d287d6fca379fb06f719f598a49",
    (4, 1): "2f88310d51c832dea29d29a8ed0d8d738a5e19aa6919d8919bce6328870f7928",
    (4, 2): "16a78f7b259aa6ac6ab26f010e747a6aa084d898d26a727caed523f02b41bae7",
    (4, 3): "5fd043bf6a4862742fa1fda9a27c150879ef672cbc4cc3e7b7289b4252bff132",
    (5, 0): "62a7d7b63b647945cf6ed626d8527f6c50a53e491fc9b32701ffd8455d06b910",
    (5, 1): "52093e77e342a918fd61867f485b1b87c6365fe9e3cf20e9695588e81adf7b0d",
    (5, 2): "878631a56560fcb0577ebba8e5bd0e350e6994d55c703e8b4fa2b0d7c509c0f4",
    (5, 3): "49141c30be846bf8cd7c32c53a2a3c49697f1d301f72f25fd44c03d06cfa61a5",
}

# (samples, seed): digest
WEAK_DIGESTS = {
    (1, 0): "8322731dea450323fa6b780efffeb7b80b649090064eb815a6bfe09a4764378d",
    (16_383, 1): "0572bcab5d8620c054814aeb178f9a9c1073a1834e4a0ae6bd2c8c382135e33a",
    (16_384, 6): "bd8ae0679e46dbac66ee125f496db29041ff80c14df2c52fbe16816fb1629e34",
    (16_385, 2): "1e8710baa30def2ad4f26ed5b2618314bb120673ebfbf52b1b017c7434e1293c",
    (50_000, 3): "b22b585b02d6790d8e06c6cb2d704e50853fd9a51a28b4d229e46cc71695d81a",
    (200_003, 4): "54f9908735a563c2e191b274539649807364cb6d840020ddb2bfc3ad6d3c4e05",
    (32_769, 7): "6234b76a89e403d8422ecc9f031c8722e3316104c5f49e981178c8af7c806fb7",
    (250_001, 8): "b4b28207492bbc248e6ebee78c33204584c7d63bbc16460860b20976835f8047",
    (1_000_000, 9): "d0135728ca26eb68c98e5acefe888531623c32c86757cdf5660af91958e8b6fb",
}


def _digest(config: dict) -> str:
    report = run_suite_from_config(config)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("n, seed", sorted(LEMMA_DIGESTS))
def test_lemma_report_digest(n, seed):
    config = {"suite": "lemma", "n": n, "samples": 2, "seed": seed}
    assert _digest(config) == LEMMA_DIGESTS[n, seed]


def test_tight_lemma_report_digest():
    # the config of the tight-tolerance golden: four properties fail
    config = {"suite": "lemma", "n": 3, "samples": 2, "seed": 5, "fd": TIGHT_FD}
    assert _digest(config) == "3004fc940d617f982e5c8b56893460397dd81b322f056d48e57df5fa57c36eb2"


@pytest.mark.parametrize("samples, seed", sorted(WEAK_DIGESTS))
def test_weak_report_digest(samples, seed):
    config = {"suite": "weak", "samples": samples, "seed": seed}
    assert _digest(config) == WEAK_DIGESTS[samples, seed]


def test_weak_report_digest_with_explicit_step_and_half_width():
    config = {
        "suite": "weak",
        "samples": 20_000,
        "seed": 5,
        "fd": {"h": 1e-4},
        "quadrature": {"half_width": 1.5},
    }
    assert _digest(config) == "dbbf8fd29a363e7faa1848aa4210622e020169968f7d1da0eea27311f561b8c1"


def test_lemma_report_digest_with_explicit_step():
    config = {"suite": "lemma", "n": 3, "samples": 4, "seed": 7, "fd": {"h": 1e-5}}
    assert _digest(config) == "a1292a783389461311420139c26ca4eab5ef8092ef1826d5d0d68639418f9a44"
