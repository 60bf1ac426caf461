"""The methodology-options matrix: partitions, feasibility, fidelity."""

import pytest

from repro.adts.qstack import QStackSpec
from repro.core.dependency import Dependency
from repro.core.methodology import MethodologyOptions, derive
from repro.experiments.base import entry_signature
from repro.graph.instrument import EdgeAttribution


@pytest.fixture(scope="module")
def adt() -> QStackSpec:
    return QStackSpec(operations=["Push", "Pop", "Deq", "Top", "Size"])


class TestOutcomePartitions:
    def test_second_partition(self, adt):
        options = MethodologyOptions(
            outcome_partition="second", refine_inputs=False
        )
        result = derive(adt, options=options)
        # (Pop, Deq): a following Pop's own outcome varies (nok once the
        # Deq emptied the QStack), so the second-side partition applies.
        signature = entry_signature(result.stage4_table.entry("Pop", "Deq"))
        assert any("y_out" in condition for _, condition in signature)
        assert all("x_out" not in condition for _, condition in signature)

    def test_first_partition(self, adt):
        options = MethodologyOptions(
            outcome_partition="first", refine_inputs=False
        )
        result = derive(adt, options=options)
        signature = entry_signature(result.stage4_table.entry("Deq", "Push"))
        assert signature == frozenset(
            {("CD", "x_out = nok"), ("AD", "x_out = ok")}
        )

    def test_joint_partition_conditions_both_sides(self, adt):
        options = MethodologyOptions(
            outcome_partition="joint", refine_inputs=False
        )
        result = derive(adt, options=options)
        signature = entry_signature(result.stage4_table.entry("Pop", "Pop"))
        assert any(
            "x_out" in condition and "y_out" in condition
            for _, condition in signature
        )

    def test_none_partition_keeps_stage3(self, adt):
        options = MethodologyOptions(
            outcome_partition="none",
            refine_inputs=False,
            refine_localities=False,
        )
        result = derive(adt, options=options)
        assert result.stage4_table.diff(result.stage3_table) == []

    def test_auto_collapses_where_one_side_is_determined(self, adt):
        result = derive(adt, options=MethodologyOptions(refine_inputs=False))
        # (Deq, Push) collapses to Push-only conditions under "auto".
        signature = entry_signature(result.stage4_table.entry("Deq", "Push"))
        assert all("y_out" not in condition for _, condition in signature)


class TestFidelityModes:
    def test_paper_mode_produces_unguarded_table14(self, adt):
        options = MethodologyOptions(
            outcome_partition="first",
            refine_inputs=False,
            validate_conditions=False,
        )
        result = derive(adt, options=options)
        signature = entry_signature(result.stage5_table.entry("Deq", "Push"))
        assert ("ND", "f ≠ b") in signature

    def test_validated_mode_guards_table14(self, adt):
        result = derive(adt)
        signature = entry_signature(result.stage5_table.entry("Deq", "Push"))
        assert ("ND", "x_out = ok ∧ f ≠ b") in signature
        assert ("ND", "f ≠ b") not in signature

    def test_both_modes_share_stage3(self, adt):
        paper = derive(
            adt, options=MethodologyOptions(validate_conditions=False)
        )
        validated = derive(adt)
        assert paper.stage3_table.diff(validated.stage3_table) == []


class TestAttribution:
    def test_source_attribution_still_reproduces_table10(self, adt):
        options = MethodologyOptions(attribution=EdgeAttribution.SOURCE)
        result = derive(adt, options=options)
        # The D1/D2-level template derivation is attribution-insensitive
        # for the QStack's operations.
        baseline = derive(adt)
        assert result.stage3_table.diff(baseline.stage3_table) == []


class TestBoundsOverride:
    def test_smaller_bounds_still_complete(self, adt):
        from repro.spec.adt import EnumerationBounds

        options = MethodologyOptions(bounds=EnumerationBounds(2, ("a",)))
        result = derive(adt, options=options)
        assert result.final_table.is_complete()
        # Core conflicts survive even under tiny bounds.
        assert result.stage3_table.dependency("Pop", "Push") is Dependency.AD



_PARTITIONS = ("auto", "first", "second", "joint", "none")
_FEASIBILITIES = ("serial", "any")


class TestOptionValidation:
    @pytest.mark.parametrize(
        "field, value, allowed",
        [
            ("outcome_partition", "bogus", _PARTITIONS),
            ("outcome_partition", "Auto", _PARTITIONS),
            ("outcome_partition", "", _PARTITIONS),
            ("outcome_feasibility", "bogus", _FEASIBILITIES),
            ("outcome_feasibility", "Serial", _FEASIBILITIES),
            ("outcome_feasibility", "all", _FEASIBILITIES),
        ],
    )
    def test_unknown_string_option_is_rejected(self, field, value, allowed):
        with pytest.raises(ValueError, match=field) as info:
            MethodologyOptions(**{field: value})
        message = str(info.value)
        assert repr(value) in message
        for name in allowed:
            assert repr(name) in message
