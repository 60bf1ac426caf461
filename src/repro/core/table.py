"""Compatibility tables (Section 4.4).

An ``n x n`` table over the operations of an object.  Rows are indexed by
the *invoked* (following) operation ``y`` and columns by the operation *in
execution* ``x`` — the paper's convention: "the (Deq, Push) entry
corresponds to the situation that a Deq operation follows a Push operation
on the QStack".

Besides storage and rendering, the table offers the metrics used by the
refinement-monotonicity experiment (X1 in DESIGN.md): each methodology
stage must produce a table whose *potential for concurrency* is at least
that of the previous stage.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.conditions import ConditionContext
from repro.core.dependency import Dependency
from repro.core.entry import Entry
from repro.errors import MethodologyError

__all__ = ["CompatibilityTable"]


class CompatibilityTable:
    """Square table of :class:`~repro.core.entry.Entry` values."""

    def __init__(
        self,
        operations: Iterable[str],
        entries: Mapping[tuple[str, str], Entry] | None = None,
        name: str = "compatibility",
    ) -> None:
        self.operations = list(operations)
        self.name = name
        self._entries: dict[tuple[str, str], Entry] = {}
        #: Bumped by every :meth:`set_entry`: tells a compiled copy
        #: whether it is still current.
        self.revision = 0
        if entries:
            for key, entry in entries.items():
                self.set_entry(key[0], key[1], entry)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def set_entry(self, invoked: str, executing: str, entry: Entry) -> None:
        """Set the entry for ``invoked`` (y, row) following ``executing`` (x)."""
        self._validate(invoked, executing)
        self._entries[(invoked, executing)] = entry
        self.revision += 1

    def entry(self, invoked: str, executing: str) -> Entry:
        """The entry for operation ``invoked`` following ``executing``."""
        self._validate(invoked, executing)
        try:
            return self._entries[(invoked, executing)]
        except KeyError:
            raise MethodologyError(
                f"no entry derived for ({invoked}, {executing})"
            ) from None

    def dependency(self, invoked: str, executing: str) -> Dependency:
        """Strongest (unconditional projection) dependency of a cell."""
        return self.entry(invoked, executing).strongest()

    def __eq__(self, other: object) -> bool:
        """Structural equality: same operations (in order), same entries.

        The table ``name`` is presentation metadata and does not
        participate — stage outputs are compared across derivation modes
        (cached vs uncached, parallel vs sequential) by content.
        """
        if not isinstance(other, CompatibilityTable):
            return NotImplemented
        return (
            self.operations == other.operations
            and self._entries == other._entries
        )

    __hash__ = None  # mutable container

    def resolve(
        self, invoked: str, executing: str, context: ConditionContext
    ) -> Dependency:
        """Resolve a cell's conditional entry against runtime information."""
        return self.entry(invoked, executing).resolve(context)

    def is_complete(self) -> bool:
        """Whether every (row, column) cell has an entry."""
        return len(self._entries) == len(self.operations) ** 2

    def cells(self) -> Iterable[tuple[str, str, Entry]]:
        """Iterate ``(invoked, executing, entry)`` in row-major order."""
        for invoked in self.operations:
            for executing in self.operations:
                yield invoked, executing, self.entry(invoked, executing)

    # ------------------------------------------------------------------
    # Derived tables and comparisons
    # ------------------------------------------------------------------

    def simple(self) -> dict[tuple[str, str], Dependency]:
        """Unconditional projection: strongest dependency per cell."""
        return {
            (invoked, executing): entry.strongest()
            for invoked, executing, entry in self.cells()
        }

    def map_entries(
        self, transform: Callable[[str, str, Entry], Entry], name: str | None = None
    ) -> "CompatibilityTable":
        """A new table with every entry transformed."""
        result = CompatibilityTable(self.operations, name=name or self.name)
        for invoked, executing, entry in self.cells():
            result.set_entry(invoked, executing, transform(invoked, executing, entry))
        return result

    def diff(self, other: "CompatibilityTable") -> list[tuple[str, str, Entry, Entry]]:
        """Cells whose entries differ from ``other`` (same operations)."""
        if set(self.operations) != set(other.operations):
            raise MethodologyError("cannot diff tables over different operations")
        return [
            (invoked, executing, entry, other.entry(invoked, executing))
            for invoked, executing, entry in self.cells()
            if entry != other.entry(invoked, executing)
        ]

    def refines(self, other: "CompatibilityTable") -> bool:
        """Whether this table is everywhere at most as restrictive as ``other``.

        Compared on the *weakest* dependency of each cell: a refinement
        stage adds weaker conditional alternatives without ever introducing
        a possibility stronger than the unrefined entry.
        """
        if set(self.operations) != set(other.operations):
            raise MethodologyError("cannot compare tables over different operations")
        return all(
            self.entry(invoked, executing).weakest()
            <= other.entry(invoked, executing).weakest()
            and self.entry(invoked, executing).strongest()
            <= other.entry(invoked, executing).strongest()
            for invoked in self.operations
            for executing in self.operations
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def dependency_counts(self) -> dict[Dependency, int]:
        """Cells per dependency, on the unconditional projection."""
        counts = {Dependency.ND: 0, Dependency.CD: 0, Dependency.AD: 0}
        for dependency in self.simple().values():
            counts[dependency] += 1
        return counts

    def conditional_cell_count(self) -> int:
        """Number of cells carrying conditional pairs."""
        return sum(1 for _, _, entry in self.cells() if entry.is_conditional)

    def restrictiveness(self) -> float:
        """Mean restrictiveness over cells: ND=0, CD=1, AD=2.

        Uses the *best-case* (weakest) dependency of each cell — a
        conditional cell's potential for concurrency is its weakest pair.
        Lower is better; the stages of the methodology must not increase
        this number (experiment X1).
        """
        total = sum(
            int(entry.weakest()) for _, _, entry in self.cells()
        )
        return total / max(1, len(self.operations) ** 2)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render_markdown(self, blank_nd: bool = True) -> str:
        """GitHub-style markdown rendering with rows = invoked operation."""
        header = "| (o1, o2) | " + " | ".join(self.operations) + " |"
        divider = "|" + "---|" * (len(self.operations) + 1)
        rows = []
        for invoked in self.operations:
            cells = []
            for executing in self.operations:
                rendered = self.entry(invoked, executing).render(blank_nd=blank_nd)
                cells.append(rendered.replace("\n", "; "))
            rows.append(f"| {invoked} | " + " | ".join(cells) + " |")
        return "\n".join([header, divider, *rows])

    def render_ascii(self, blank_nd: bool = True) -> str:
        """Fixed-width text rendering."""
        rendered: dict[tuple[str, str], str] = {}
        for invoked, executing, entry in self.cells():
            rendered[(invoked, executing)] = entry.render(blank_nd=blank_nd).replace(
                "\n", "; "
            )
        widths = [len("(o1,o2)")] + [len(op) for op in self.operations]
        for column, executing in enumerate(self.operations):
            for invoked in self.operations:
                widths[column + 1] = max(
                    widths[column + 1], len(rendered[(invoked, executing)])
                )
        widths[0] = max([widths[0]] + [len(op) for op in self.operations])

        def fmt_row(label: str, values: list[str]) -> str:
            cells = [label.ljust(widths[0])]
            cells += [value.ljust(widths[i + 1]) for i, value in enumerate(values)]
            return " | ".join(cells).rstrip()

        lines = [fmt_row("(o1,o2)", list(self.operations))]
        lines.append("-+-".join("-" * width for width in widths))
        for invoked in self.operations:
            lines.append(
                fmt_row(
                    invoked,
                    [rendered[(invoked, executing)] for executing in self.operations],
                )
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompatibilityTable {self.name!r} ops={self.operations}>"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _validate(self, invoked: str, executing: str) -> None:
        for op in (invoked, executing):
            if op not in self.operations:
                raise MethodologyError(
                    f"operation {op!r} is not part of this table "
                    f"(operations: {self.operations})"
                )
