"""The campaign kernel: one matrix loop and one verdict fold for every
chaos campaign, and the byte-stable reports built on them."""

import hashlib
import importlib

import pytest

from repro.__main__ import main
from repro.adts.registry import make_adt
from repro.core.methodology import derive
from repro.robust import FaultSpec, render_report, run_chaos
from repro.robust.chaos import sweep_matrix


@pytest.fixture(scope="module")
def adts():
    return {
        name: (adt, derive(adt).final_table)
        for name in ("Account", "QStack")
        for adt in [make_adt(name)]
    }


class TestSweepMatrix:
    ADTS = {"beta": ("B", "tb"), "alpha": ("A", "ta")}
    AXES = {"x": (1, 2), "y": ("p", "q")}

    def test_cells_follow_sorted_adts_times_axis_product(self):
        def cell(adt, table, x, y):
            return {"seen": (adt, table, x, y)}, True

        cells, passed = sweep_matrix(self.ADTS, self.AXES, cell)
        assert passed is True
        assert [(c["adt"], c["x"], c["y"]) for c in cells] == [
            ("alpha", 1, "p"), ("alpha", 1, "q"),
            ("alpha", 2, "p"), ("alpha", 2, "q"),
            ("beta", 1, "p"), ("beta", 1, "q"),
            ("beta", 2, "p"), ("beta", 2, "q"),
        ]
        assert cells[0] == {
            "adt": "alpha", "x": 1, "y": "p", "seen": ("A", "ta", 1, "p"),
        }
        assert cells[-1]["seen"] == ("B", "tb", 2, "q")

    def test_one_failing_cell_fails_the_matrix(self):
        def cell(adt, table, x, y):
            return {}, (adt, x, y) != ("B", 1, "q")

        cells, passed = sweep_matrix(self.ADTS, self.AXES, cell)
        assert passed is False
        assert len(cells) == 8  # the failing cell does not stop the sweep


def fail_one_cell(real_sweep):
    """A ``sweep_matrix`` whose first cell reports a failed verdict."""

    def sweep(adts, axes, cell):
        calls = []

        def failing_first(*args, **point):
            fields, passed = cell(*args, **point)
            calls.append(point)
            return fields, passed and len(calls) > 1

        return real_sweep(adts, axes, failing_first)

    return sweep


class TestEmbeddedVerdicts:
    """A failed cell inside an embedded campaign fails ``run_chaos`` and
    the ``chaos`` exit code, through the kernel's fold alone."""

    @pytest.mark.parametrize(
        "module, section, flag",
        [
            ("repro.dist.chaos", "distributed", "--dist"),
            ("repro.serve.chaos", "serving", "--serve"),
            ("repro.dist.chaos", "replication", "--replication"),
        ],
    )
    def test_failed_embedded_cell_fails_the_campaign(
        self, monkeypatch, capsys, adts, module, section, flag
    ):
        monkeypatch.setattr(
            importlib.import_module(module),
            "sweep_matrix",
            fail_one_cell(sweep_matrix),
        )
        account = {"Account": adts["Account"]}
        report = run_chaos(
            account,
            policies=("optimistic",),
            seeds=(3,),
            transactions=2,
            operations=1,
            crash_sweep_enabled=False,
            shard_counts=(2,),
            **{section: True},
        )
        assert all(c["fault_storm"]["serializable"] for c in report["cells"])
        assert report[section]["passed"] is False
        assert report["passed"] is False

        assert main([
            "chaos", "Account", "--policies", "optimistic", "--seeds", "3",
            "--transactions", "2", "--operations", "1", "--no-crash-sweep",
            "--shards", "2", flag,
        ]) == 1
        assert "passed=False" in capsys.readouterr().out


class TestServingIntensity:
    def test_zero_storm_serves_without_faults(self, adts):
        report = run_chaos(
            {"Account": adts["Account"]},
            policies=("optimistic",),
            seeds=(3,),
            transactions=2,
            operations=1,
            spec=FaultSpec.storm(0.0),
            crash_sweep_enabled=False,
            shard_counts=(1,),
            serving=True,
        )
        serving = report["serving"]
        assert serving["matrix"]["intensity"] == 0.0
        for group in serving["groups"]:
            faults = group["cells"]["overload_faults"]["faults"]
            assert faults["faults_injected"] == 0


class TestGoldenReport:
    """Cross-commit byte stability: each section of a small all-campaign
    report hashes to a pinned digest.  A change that moves a campaign
    report must update the digest and explain the moved cells."""

    DIGESTS = {
        "cells":
            "8092770a09cbd471235fb446456fed5f3f6947cf64e5b15b79a9630705c071b7",
        "distributed":
            "e2c61a95203932445ec973cd5c8e7e3472de41413eb1d72ff67ffb2f73bf4928",
        "serving":
            "1c12bd5725a176c4c6d895f4bfe39df2caf870bffadcc34b52ea065307c70e1c",
        "replication":
            "921eadb0d4432f0e7ec9e0c43baef9be583dfd94d68b3ec73d54de3481e37521",
    }
    WHOLE = "e1443ca9fc103dfc4f6285a212525a5bfcafb8ff1457c577f56386404d036418"

    @pytest.fixture(scope="class")
    def report(self, adts):
        return run_chaos(
            adts,
            seeds=(7,),
            transactions=4,
            operations=2,
            shard_counts=(1, 2),
            distributed=True,
            serving=True,
            replication=True,
        )

    @staticmethod
    def sha256(payload) -> str:
        return hashlib.sha256(render_report(payload).encode()).hexdigest()

    @pytest.mark.parametrize("section", sorted(DIGESTS))
    def test_section_digest_is_pinned(self, report, section):
        assert self.sha256(report[section]) == self.DIGESTS[section]

    def test_whole_report_digest_is_pinned(self, report):
        assert report["passed"] is True
        assert self.sha256(report) == self.WHOLE
