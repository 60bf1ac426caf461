"""Global serializability audit of a distributed run.

Each node's scheduler checks its own shard; nobody on the cluster ever
sees the *global* history.  This module stitches it back together and
re-checks it with the existing single-node machinery, unchanged:

* :func:`stitch_edges` unions the per-node dependency graphs, mapped
  from local txn ids to gtxns, keeping the strongest label when two
  nodes recorded the same pair (AD beats CD, the
  :meth:`~repro.core.dependency.Dependency.stronger` rule).
* :class:`StitchedRun` adapts the cluster to the scheduler surface
  :func:`repro.cc.serializability.find_serialization` consumes —
  ``transaction(i)`` over driver-side global transactions (operation
  records carry global execution stamps, commit stamps follow the
  coordinator's decision order), ``object(name)`` proxied to the owning
  node's live shard object — so the *serial replay over actual final
  shard states* is the same code path experiment X5 trusts.
* :func:`audit_global` bundles the verdicts: no transaction left in
  doubt, a serialization witness exists, and the cross-node AD/CD
  contract held end-to-end (no committed transaction has an aborted AD
  predecessor; every committed dependency pair committed in dependency
  order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cc.serializability import find_serialization
from repro.cc.transaction import Transaction, TransactionStatus

__all__ = ["GlobalAudit", "StitchedRun", "audit_global", "stitch_edges"]


def stitch_edges(cluster) -> dict:
    """The union of all nodes' dependency edges, in gtxn space.

    Edges touching a local transaction that never attached to a global
    one (crash orphans) are dropped; a pair recorded on several nodes
    keeps its strongest label.
    """
    stitched: dict[tuple[int, int], object] = {}
    for node in cluster.nodes:
        mapping = node.gtxn_of
        for (later, earlier), dependency in (
            node.sched.dependency_graph().edges().items()
        ):
            if later not in mapping or earlier not in mapping:
                continue
            pair = (mapping[later], mapping[earlier])
            seen = stitched.get(pair)
            if seen is None or dependency > seen:
                stitched[pair] = dependency
    return stitched


class _EdgeView:
    """The minimal ``dependency_graph()`` surface: just ``edges()``."""

    def __init__(self, edges: dict) -> None:
        self._edges = edges

    def edges(self) -> dict:
        return dict(self._edges)


class StitchedRun:
    """A cluster viewed through the single-scheduler audit surface."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self._edges = stitch_edges(cluster)
        self._txns: dict[int, Transaction] = {}
        for gtxn in range(cluster.admitted):
            status = cluster.gstatus.get(gtxn, "ABORTED")
            self._txns[gtxn] = Transaction(
                txn_id=gtxn,
                status=TransactionStatus[status],
                records=list(cluster.grecords.get(gtxn, ())),
                commit_sequence=cluster.gstamps.get(gtxn),
            )

    def transaction(self, gtxn: int) -> Transaction:
        return self._txns[gtxn]  # KeyError past the end, by design

    def object(self, name: str):
        return self.cluster._shard_object(name)

    def dependency_graph(self) -> _EdgeView:
        return _EdgeView(self._edges)


@dataclass(frozen=True)
class GlobalAudit:
    """The verdict of one global audit."""

    serializable: bool
    ad_cd_ok: bool
    #: Gtxns some participant still holds prepared-but-undecided.
    in_doubt: tuple = ()
    #: Human-readable contract violations (empty when ``passed``).
    violations: tuple = ()
    witness: tuple = field(default=(), compare=False)

    @property
    def passed(self) -> bool:
        return self.serializable and self.ad_cd_ok and not self.in_doubt

    def to_dict(self) -> dict:
        """The JSON-ready verdict (the witness is left out)."""
        return {
            "passed": self.passed,
            "serializable": self.serializable,
            "ad_cd_ok": self.ad_cd_ok,
            "in_doubt": list(self.in_doubt),
            "violations": list(self.violations),
        }


def audit_global(cluster, brute_force_limit: int = 6) -> GlobalAudit:
    """Stitch ``cluster``'s finished run and re-check it end to end."""
    violations: list[str] = []

    in_doubt: list[int] = []
    for node in cluster.nodes:
        for gtxn in node.in_doubt():
            in_doubt.append(gtxn)
            violations.append(
                f"gtxn {gtxn} still in doubt on {node.name} after recovery"
            )

    stitched = StitchedRun(cluster)
    witness = find_serialization(stitched, brute_force_limit)
    if witness is None:
        violations.append("no serial order explains the committed history")

    ad_cd_ok = True
    committed = {
        gtxn
        for gtxn in range(cluster.admitted)
        if cluster.gstatus.get(gtxn) == "COMMITTED"
    }
    for (later, earlier), dependency in stitched._edges.items():
        if later not in committed:
            continue
        if earlier not in committed:
            # A CD predecessor may resolve either way; only an *abort*
            # dependency on an aborted predecessor must cascade.
            if dependency.name == "AD":
                ad_cd_ok = False
                violations.append(
                    f"committed gtxn {later} carries an AD dependency on "
                    f"aborted gtxn {earlier} (missed cascade)"
                )
            continue
        later_stamp = cluster.gstamps.get(later)
        earlier_stamp = cluster.gstamps.get(earlier)
        if (
            later_stamp is not None
            and earlier_stamp is not None
            and later_stamp < earlier_stamp
        ):
            ad_cd_ok = False
            violations.append(
                f"gtxn {later} committed before its {dependency.name} "
                f"predecessor {earlier} (stamps {later_stamp} < "
                f"{earlier_stamp})"
            )

    return GlobalAudit(
        serializable=witness is not None,
        ad_cd_ok=ad_cd_ok,
        in_doubt=tuple(sorted(set(in_doubt))),
        violations=tuple(violations),
        witness=tuple(witness or ()),
    )
