"""Cross-commit golden: traced sharded ``simulate`` runs are byte-stable.

Each digest pins the sha256 of the trace file that

    repro simulate <ADT> --shards 2 --policy <policy> --fault-plan 3
        --seed 3 --trace <file>

writes, for every builtin ADT under both table-driven policies.  The run
goes through :meth:`~repro.dist.cluster.Cluster.run` under a message-level
fault storm, so the trace carries the round-robin turn loop's every turn:
the per-round boundary work, the per-turn crash draw, each fault point,
each 2PC message and each node's scheduler decisions.  A refactor of the
cluster driver that moves any turn moves a digest.  The runs are
in-process and independent of the hash seed.  A change that moves a
trace on purpose must update its digest and explain the moved events.
"""

import hashlib

import pytest

from repro.__main__ import main

TRACE_SHA256 = {
    ("Account", "optimistic"): (
        "6230eafefd983f532da76b66c741dd10"
        "1e83db1cbf0a7fe83d9cfe5acb0202e3"
    ),
    ("Account", "blocking"): (
        "06a7c336fded8302683eb6d767098af4"
        "e96cb162671a831ada7c16dcadd5c32f"
    ),
    ("Bank", "optimistic"): (
        "91343fcdabe8df2c0a95819f6870d031"
        "48be59875ddba766af146d4e2188b4b6"
    ),
    ("Bank", "blocking"): (
        "a40e2c0f591eac45888596d18839cf42"
        "4b64b46dd543434ddfd76ddb7026bc73"
    ),
    ("Directory", "optimistic"): (
        "5e1bfd8f86dd8bf6eede976fdceb8530"
        "7f4fde5ede6b427a74281e1faedc94d9"
    ),
    ("Directory", "blocking"): (
        "aa772e7b4c61f8303c73199eecf19e96"
        "263ad057bd1fd8d3648d472d3af8afb2"
    ),
    ("FifoQueue", "optimistic"): (
        "517e0e08b0cb3510dbb4b57a1287f05c"
        "36ee20e1f7fc4c346877dca21a102f39"
    ),
    ("FifoQueue", "blocking"): (
        "e93065a89f9d9f30a1b4e2de912bea27"
        "36616226af4af36918d4d853bb3fb0ee"
    ),
    ("PriorityQueue", "optimistic"): (
        "0689e1fcafa82b40b5dfc38f459f0c8e"
        "50833dbf20d203a7c447b11ba7179107"
    ),
    ("PriorityQueue", "blocking"): (
        "44f9d6774ab4c6c0b4be12e6fc0966c0"
        "885d0e01b4e013bd2f732d35aee49287"
    ),
    ("QStack", "optimistic"): (
        "7ca8356fdaad3f444874195051947b3d"
        "9870d179fb3ff15bbc66db31ce33cfd0"
    ),
    ("QStack", "blocking"): (
        "db43531cbb4581611d82f62a0f1e7f88"
        "3c4a5cb90fb77c4a5f6d4d02e493cc01"
    ),
    ("Set", "optimistic"): (
        "5865eacef3599ab1635f9b8f0082bf9b"
        "40a87739dbab69efb32c174da63f8664"
    ),
    ("Set", "blocking"): (
        "ef9606631dc49f45e71b3b13fde8d973"
        "03b23519d199fb863ae0bb122dcbfbbd"
    ),
    ("Stack", "optimistic"): (
        "2c0c599ef3567886c332a1864166363d"
        "fa3bbdd93bcd6cc2d92807570370f735"
    ),
    ("Stack", "blocking"): (
        "b593e977d1c5742614af14f552d85d66"
        "c364bd58167fe40c924871789a5f9ff0"
    ),
}


@pytest.mark.parametrize("adt, policy", sorted(TRACE_SHA256))
def test_sharded_simulate_trace_digest_is_pinned(
    adt, policy, tmp_path, capsys
):
    path = tmp_path / "run.jsonl"
    argv = [
        "simulate", adt, "--shards", "2", "--policy", policy,
        "--fault-plan", "3", "--seed", "3",
    ]
    assert main(argv + ["--trace", str(path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "".join(TRACE_SHA256[adt, policy])
