"""Parity: cached derivations are bit-identical to uncached ones.

The central correctness contract of :mod:`repro.perf` — memoization is
pure plumbing and may never change a single table cell, condition, or
derivation note.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adts.qstack import QStackSpec
from repro.adts.registry import builtin_names, make_adt
from repro.core.methodology import MethodologyOptions, derive


def assert_same_result(left, right):
    assert left.stage3_table == right.stage3_table
    assert left.stage4_table == right.stage4_table
    assert left.stage5_table == right.stage5_table
    assert left.notes == right.notes
    assert left.profiles == right.profiles


@pytest.mark.parametrize("adt_name", builtin_names())
def test_cache_parity_across_builtin_adts(adt_name):
    adt = make_adt(adt_name)
    cached = derive(adt, options=MethodologyOptions(use_cache=True))
    uncached = derive(adt, options=MethodologyOptions(use_cache=False))
    assert_same_result(cached, uncached)
    assert cached.profile.cache_hits > 0
    assert uncached.profile.cache_hits == 0


options_strategy = st.builds(
    MethodologyOptions,
    outcome_partition=st.sampled_from(("auto", "first", "second", "joint", "none")),
    outcome_feasibility=st.sampled_from(("serial", "any")),
    refine_inputs=st.booleans(),
    refine_localities=st.booleans(),
    validate_conditions=st.booleans(),
    use_cache=st.just(True),
)


@given(options_strategy)
@settings(max_examples=12, deadline=None)
def test_cache_parity_across_option_combinations(options):
    """Every pipeline configuration is cache-invariant, not just the default."""
    adt = QStackSpec(capacity=2, domain=("a",), operations=["Push", "Pop", "Top"])
    cached = derive(adt, options=options)
    uncached = derive(
        adt,
        options=MethodologyOptions(
            **{
                **options.__dict__,
                "use_cache": False,
            }
        ),
    )
    assert_same_result(cached, uncached)

