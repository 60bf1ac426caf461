"""The metric catalog in docs/OBSERVABILITY.md matches what the code exports.

Two checks keep the catalog honest:

* every metric that four representative exports publish, and every trace
  event type, has exactly one catalog row with the right kind and label
  set, and no row names anything else;
* every field of the runtime counter dataclasses has an increment site
  somewhere in ``src/`` — a counter that nothing counts is dead weight in
  every export and every transcript.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.cc.scheduler import SchedulerStats
from repro.cc.validation import ValidationStats
from repro.dist.stats import DistStats
from repro.obs.events import event_type_names
from repro.robust.faults import RobustStats

ROOT = Path(__file__).resolve().parents[2]
CATALOG = ROOT / "docs" / "OBSERVABILITY.md"

#: The exports whose union the catalog lists.
EXPORTS = (
    ("derive", "Account", "--metrics-format", "json"),
    ("simulate", "QStack", "--seed", "3", "--fault-plan", "1",
     "--metrics-format", "json"),
    ("simulate", "Account", "--seed", "3", "--metrics-format", "json"),
    ("simulate", "Account", "--seed", "3", "--shards", "2",
     "--fault-plan", "3", "--metrics-format", "json"),
)

KINDS = {"counters": "counter", "gauges": "gauge", "histograms": "histogram"}


def exported_metrics(capsys) -> dict[str, tuple[str, frozenset]]:
    """``name -> (kind, label names)`` over the registries of every export."""
    metrics: dict[str, tuple[str, frozenset]] = {}
    for argv in EXPORTS:
        assert main(list(argv)) == 0, argv
        out = capsys.readouterr().out
        document = json.loads(out[out.index("\n{\n") + 1:])
        for section, kind in KINDS.items():
            for key in document[section]:
                name, _, labels = key.partition("{")
                entry = (kind, frozenset(re.findall(r'(\w+)="', labels)))
                assert metrics.setdefault(name, entry) == entry, name
    return metrics


def catalog_rows(events: bool) -> dict[str, tuple[str, frozenset]]:
    """``name -> (kind, label names)`` of the catalog's metric rows, or
    of its event rows (a name may be both: ``restarts_exhausted``)."""
    text = CATALOG.read_text()
    section = text[text.index("\n## Metric catalog\n"):]
    rows: dict[str, tuple[str, frozenset]] = {}
    for line in section.splitlines():
        match = re.match(r"\| `([\w.]+)` \| (\w+) \|([^|]*)\|", line)
        if match is None or (match.group(2) == "event") != events:
            continue
        name, kind, labels = match.groups()
        assert name not in rows, f"{name} has two catalog rows"
        rows[name] = (kind, frozenset(re.findall(r"`(\w+)`", labels)))
    return rows


class TestCatalog:
    def test_metric_rows_match_the_exports(self, capsys):
        assert catalog_rows(events=False) == exported_metrics(capsys)

    def test_event_rows_match_the_event_types(self):
        assert set(catalog_rows(events=True)) == set(event_type_names())


def incremented_attributes() -> set[str]:
    """Attribute names that some statement in ``src/`` increments.

    ``x.name += ...`` counts, and so does an assignment or increment of
    an item of ``x.name`` (a per-key counter dict).
    """
    names: set[str] = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            else:
                continue
            for target in targets:
                if isinstance(node, ast.AugAssign) and isinstance(
                    target, ast.Attribute
                ):
                    names.add(target.attr)
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Attribute
                ):
                    names.add(target.value.attr)
    return names


@pytest.mark.parametrize(
    "stats", [SchedulerStats, DistStats, RobustStats, ValidationStats],
    ids=lambda stats: stats.__name__,
)
def test_every_counter_field_has_an_increment_site(stats):
    counted = incremented_attributes()
    dead = [spec.name for spec in fields(stats) if spec.name not in counted]
    assert dead == [], f"{stats.__name__} fields nothing increments: {dead}"
