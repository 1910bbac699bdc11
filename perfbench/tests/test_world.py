"""The benchmark's set-up must build the model the scenario builder builds."""

from __future__ import annotations

from perfbench import world
from repro.server.cache import model_fingerprint
from repro.simulate import CityScenario, ScenarioConfig


def test_build_model_equals_the_scenario_model():
    model = world.build_model(world.generate_inputs(1))
    scenario = CityScenario.build(
        ScenarioConfig(seed=world.CITY_SEED, n_training_trips=world.TRAINING_TRIPS)
    )
    assert model_fingerprint(model) == model_fingerprint(scenario.stmaker)
