"""Global serializability audit of a distributed run.

Each node's scheduler checks its own shard; nobody on the cluster ever
sees the *global* history.  This module stitches it back together and
re-checks it with the single-node machinery, unchanged:

* :func:`stitch_edges` unions the per-node dependency graphs, mapped
  from local txn ids to gtxns, keeping the strongest label when two
  nodes recorded the same pair (AD beats CD, the
  :meth:`~repro.core.dependency.Dependency.stronger` rule).
* :func:`history_of_cluster` builds the one
  :class:`~repro.cc.serializability.RunHistory` of the run: driver-side
  global transactions (operation records carry global execution stamps,
  commit stamps follow the coordinator's decision order), the stitched
  edges, and each shard's initial and actual final state — so the
  *serial replay over actual final shard states* is the
  :func:`~repro.cc.serializability.find_witness` search experiment X5
  trusts.
* :func:`audit_global` bundles the verdicts: no transaction left in
  doubt, a serialization witness exists, and the cross-node AD/CD
  contract held end-to-end (no committed transaction has an aborted AD
  predecessor; every committed dependency pair committed in dependency
  order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cc.serializability import RunHistory, find_witness

__all__ = ["GlobalAudit", "audit_global", "history_of_cluster", "stitch_edges"]


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


def history_of_cluster(cluster) -> RunHistory:
    """The global history of ``cluster``'s finished run."""
    shards = {name: cluster._shard_object(name) for name in cluster.shard_names}
    committed = [
        gtxn
        for gtxn in range(cluster.admitted)
        if cluster.gstatus.get(gtxn) == "COMMITTED"
    ]
    return RunHistory(
        adts={name: shared.adt for name, shared in shards.items()},
        initial_states={
            name: shared.initial_state for name, shared in shards.items()
        },
        records={
            gtxn: tuple(cluster.grecords.get(gtxn, ())) for gtxn in committed
        },
        commit_stamps={gtxn: cluster.gstamps[gtxn] for gtxn in committed},
        edges=stitch_edges(cluster),
        final_states={name: shared.state() for name, shared in shards.items()},
    )


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

    history = history_of_cluster(cluster)
    witness = find_witness(history, brute_force_limit)
    if witness is None:
        violations.append("no serial order explains the committed history")

    ad_cd_ok = True
    stamps = history.commit_stamps
    for (later, earlier), dependency in history.edges.items():
        if later not in stamps:
            continue
        if earlier not in stamps:
            # A CD predecessor may resolve either way; only an *abort*
            # dependency on an aborted predecessor must cascade.
            if dependency.name == "AD":
                ad_cd_ok = False
                violations.append(
                    f"committed gtxn {later} carries an AD dependency on "
                    f"aborted gtxn {earlier} (missed cascade)"
                )
            continue
        if stamps[later] < stamps[earlier]:
            ad_cd_ok = False
            violations.append(
                f"gtxn {later} committed before its {dependency.name} "
                f"predecessor {earlier} (stamps {stamps[later]} < "
                f"{stamps[earlier]})"
            )

    return GlobalAudit(
        serializable=witness is not None,
        ad_cd_ok=ad_cd_ok,
        in_doubt=tuple(sorted(set(in_doubt))),
        violations=tuple(violations),
        witness=tuple(witness or ()),
    )
