"""Property tests: ANY valid ScenarioSpec conforms, not just the presets.

Hypothesis draws small random specs (devices, duration, carriers, a
surge with random attendance/contention, a random campaign mix) and
asserts the conformance triple on each: byte-identical replay, zero
invariant violations, and sharded ≡ solo.  Runs are kept tiny (2–4
devices, minutes not hours) so the whole module stays tier-1 fast.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.scenarios import (
    CampaignSpec,
    ScenarioSpec,
    SurgeSpec,
    run_scenario_spec,
)
from repro.world.city import VenueSpec

pytestmark = pytest.mark.scenario

_carriers = st.sampled_from([("KPN",), ("T-Mobile",), ("KPN", "Vodafone")])

_campaigns = st.sampled_from([
    (CampaignSpec("battery-monitor"),),
    (CampaignSpec("noise-map"),),
    (CampaignSpec("battery-monitor"), CampaignSpec("contact-tracing")),
    (CampaignSpec("battery-monitor", subset="even"),
     CampaignSpec("anonytl", carrier="KPN")),
])


@st.composite
def specs(draw):
    hours = draw(st.floats(min_value=0.2, max_value=0.5))
    surges = ()
    if draw(st.booleans()):
        start = draw(st.floats(min_value=0.0, max_value=hours * 0.4))
        end = draw(st.floats(min_value=start + 0.05, max_value=hours))
        surges = (
            SurgeSpec(
                name="surge",
                venue="spot",
                start_h=start,
                end_h=end,
                attendance=draw(st.floats(min_value=0.0, max_value=1.0)),
                contention=draw(st.floats(min_value=0.0, max_value=1.0)),
                flaps=draw(st.integers(min_value=1, max_value=3)),
            ),
        )
    return ScenarioSpec(
        name="prop",
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        devices=draw(st.integers(min_value=2, max_value=4)),
        hours=hours,
        carriers=draw(_carriers),
        city_places=draw(st.integers(min_value=8, max_value=24)),
        venues=(VenueSpec(name="spot", category="generic", radius_m=60.0,
                          ap_count=6),),
        surges=surges,
        campaigns=draw(_campaigns),
    )


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=specs())
def test_any_valid_spec_conforms(spec):
    spec.validate()
    first = run_scenario_spec(spec)
    second = run_scenario_spec(spec)
    assert first.report_json == second.report_json
    assert first.report["invariants"]["violation_count"] == 0
    sharded = run_scenario_spec(spec, shards=2, processes=False)
    assert sharded.report_json == first.report_json
