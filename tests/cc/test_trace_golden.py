"""Cross-commit golden: traced ``simulate`` runs are byte-stable.

Each digest pins the sha256 of the trace file that

    repro simulate <ADT> --policy <policy> --seed 3 --trace <file>

writes, for every builtin ADT under both table-driven policies.  The
trace carries every decision the scheduler takes, including each
``DependencyRecorded`` event's table entry, condition and evidence
source, so a refactor of the certification path that moves any verdict,
its provenance or the order of its events moves a digest.  The runs are
in-process and independent of the hash seed.  A change that moves a
trace on purpose must update its digest and explain the moved events.
"""

import hashlib

import pytest

from repro.__main__ import main

TRACE_SHA256 = {
    ("Account", "optimistic"): (
        "0bb3b904981f6fb782a5afebb1ef462c"
        "6cf9d3babc8c1f2101507cb400756171"
    ),
    ("Account", "blocking"): (
        "397e26e471aae45d37322328e228acee"
        "1ad299d4e52068309de79ede0783c4a5"
    ),
    ("Bank", "optimistic"): (
        "dd3cab07eb6b4362773ca6784fb2a408"
        "f2af58ea5330f2b7788676e5e35a7395"
    ),
    ("Bank", "blocking"): (
        "6a33751b96f6f8ee2f7b25cbbe86bc57"
        "d5289ade89a4b8860cb0a8e4cdb9218c"
    ),
    ("Directory", "optimistic"): (
        "fb0148fbe418770cee1e32b243cf8950"
        "974f781f3b4c473156f75f76830ab40b"
    ),
    ("Directory", "blocking"): (
        "0243126dd2421f6d0ad3b4cfb1a84667"
        "653cc427f683a9a1c19a387ac809be6f"
    ),
    ("FifoQueue", "optimistic"): (
        "929c7ea1787754e87c6663838b597345"
        "f300d32e2d3505b5dd5d37ea40ceaccc"
    ),
    ("FifoQueue", "blocking"): (
        "47c0bba9cbc5932756faf0071d154fae"
        "be2b823133ce9aa31314fbc8f71aabf9"
    ),
    ("PriorityQueue", "optimistic"): (
        "b21fabd97c453512aae4847d88b29855"
        "1ca07729cde52590c4fb6efe55d8f46b"
    ),
    ("PriorityQueue", "blocking"): (
        "521c6fc3b493bd71f82b3543e62853e3"
        "395144681a37cde60b97787b62eb6091"
    ),
    ("QStack", "optimistic"): (
        "460ccb97ee01862fed87828ae4db8809"
        "2af376f349e36bfb9fbcba1c40646c42"
    ),
    ("QStack", "blocking"): (
        "eb4dea396dc3769a3d5a55b06ef39cd9"
        "88f99b74cf76720348c2253e05ae03c5"
    ),
    ("Set", "optimistic"): (
        "7095226c9364f9a55e1c1fdeec97b63e"
        "b6a51bec08faadd5a643c4f1377738a8"
    ),
    ("Set", "blocking"): (
        "bdfa67df5bc60d06d55a66040d91bc4e"
        "7671145433ebd2f3e6dc97a89ce3c627"
    ),
    ("Stack", "optimistic"): (
        "72adea00881eb11298d5c2f2d4343f7a"
        "119a9b93d892a106c263be01bc3833ea"
    ),
    ("Stack", "blocking"): (
        "dfe70dcb607a083ef0582f5788a7e4ac"
        "889be3f19b2bfce7d78299fab0742325"
    ),
}


@pytest.mark.parametrize("adt, policy", sorted(TRACE_SHA256))
def test_simulate_trace_digest_is_pinned(adt, policy, tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    argv = ["simulate", adt, "--policy", policy, "--seed", "3"]
    assert main(argv + ["--trace", str(path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "".join(TRACE_SHA256[adt, policy])
