"""Sizes and pinned references of the four workloads.

The workload names and the metric names, units, directions and bounds
are recorded once, in ``BENCHMARK.json`` at the repository root;
:func:`benchmark` reads that file.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# Sizes per profile.  "full" is what the benchmark measures; "tiny" runs
# the same code paths in about a second, for the benchmark's own tests.
# A full sample takes well under a second, so a run repeats every unit
# of work dozens of times: on a shared host only a unit's fastest repeat
# is steady from run to run, and it needs many repeats to find one.
# Each check's object count is pinned from the package as it stood when
# the benchmark was added, so a check that silently does less work counts
# as failed.
PROFILES = {
    "full": {
        "verify": {
            "n_max_a": 7,
            "n_max_b": 5,
            "objects": {
                "andre-implies-simsun": 5913,
                "arnold-families": 2420,
                "cd-preservation": 358,
                "chuang-factorization": 358,
                "conjugation-diagram": 1228,
                "entringer-families": 1431,
                "omega-bijection": 358,
                "omega-signed-bijection": 614,
                "phi-bijection": 358,
                "phi-signed-bijection": 73,
                "psi-bijection": 358,
                "psi-equality": 358,
                "psi-signed-bijection": 614,
                "valley-equivalence": 5913,
            },
        },
        "conjecture": {"n_max": 7},
        "maps": {"n": 40, "objects": 50},
        "cli": [
            # (argv, sha256 of the output, pinned the same way)
            (
                ["triangle", "entringer", "--n", "200", "--format", "csv", "--force"],
                "9f3721e31739cd8b4442f375d972b5a19ef7c81175f36ec4ad21c2ac129b6693",
            ),
            (
                ["triangle", "arnold", "--n", "100", "--format", "json", "--force"],
                "a6709c98cc0fb75cb7b1ae8151edc3a29caf69c2ea3ba7a63b097260cddbc99b",
            ),
            (
                ["enumerate", "andre", "--n", "8"],
                "6e65df299904712c95e27425378418382f2a030f09202a910149142a9659477a",
            ),
            (
                ["enumerate", "snake", "--n", "6"],
                "39bb54f339eb18331a73eb71ac9780d2b2b75a280251b4c1656cdf6b48a4497e",
            ),
            (
                ["enumerate", "tree", "--n", "7", "--format", "json"],
                "4c91e5e35f15e2da31660bf92fad6f99e7981e0e5217d24274b004f6afa30b9e",
            ),
            (
                ["enumerate", "andre-h", "--n", "5", "--k", "5"],
                "4738277e88f64af134286a00a263f3225aadbe541132215201a96ec32c6cc1e8",
            ),
        ],
    },
    "tiny": {
        "verify": {
            "n_max_a": 4,
            "n_max_b": 3,
            "objects": {
                "andre-implies-simsun": 33,
                "arnold-families": 90,
                "cd-preservation": 9,
                "chuang-factorization": 9,
                "conjugation-diagram": 44,
                "entringer-families": 35,
                "omega-bijection": 9,
                "omega-signed-bijection": 22,
                "phi-bijection": 9,
                "phi-signed-bijection": 5,
                "psi-bijection": 9,
                "psi-equality": 9,
                "psi-signed-bijection": 22,
                "valley-equivalence": 33,
            },
        },
        "conjecture": {"n_max": 4},
        "maps": {"n": 9, "objects": 8},
        "cli": [
            (
                ["triangle", "entringer", "--n", "20", "--format", "csv", "--force"],
                "f9a0e104f614bca86fa1abaf79aff059840a54cea0e7942593bfd657a34601e0",
            ),
            (
                ["triangle", "arnold", "--n", "10", "--format", "json", "--force"],
                "3adc659b9fc4b9d311e658c46fc6913dd52348665804849d49b1dff9e2c1e2ef",
            ),
            (
                ["enumerate", "andre", "--n", "5"],
                "cbde9fcc0b3e6f8656d1b418f151be322832c8a2160103a100749043bf39fa13",
            ),
            (
                ["enumerate", "snake", "--n", "4"],
                "bd9cf0e137c3b877fcc15fd0f384e8deba37878c9249235b796ac6ffa5c3177e",
            ),
            (
                ["enumerate", "tree", "--n", "5", "--format", "json"],
                "3687749d690a7147e0f664ddf4239ddf71cbc0c5ab508e19041ae733ccecec11",
            ),
            (
                ["enumerate", "andre-h", "--n", "4", "--k", "4"],
                "496c5446f23e28bc15ab039290f87f8a95354c5cae0ce4c3241966fc6839d5e0",
            ),
        ],
    },
}

VERIFY_CHECKS = tuple(sorted(PROFILES["full"]["verify"]["objects"]))
