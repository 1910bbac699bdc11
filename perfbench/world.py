"""Seeded inputs and the program's own set-up, kept apart.

``generate_inputs`` runs the simulator: city, POIs, check-ins and the
taxi training corpus.  Its time is not set-up time; ``run.py`` reports
it on stderr only.  ``build_model`` is the program's work from those
inputs to a trained model: landmark extraction, calibration of the
training corpus, HITS significance and ``STMaker.train_calibrated``.
It mirrors ``CityScenario.build`` without the simulation steps, so the
model equals the one the scenario builder would make from the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.calibration import AnchorCalibrator
from repro.core.summarizer import STMaker
from repro.exceptions import CalibrationError
from repro.features import default_registry
from repro.landmarks import Visit, assign_significance, build_landmarks, generate_pois
from repro.landmarks import POIConfig
from repro.roadnet import generate_city
from repro.simulate import FleetSimulator, ScenarioConfig, TrafficModel, TripSimulator
from repro.simulate.checkins import generate_checkins, landmark_popularity

#: Training trips: enough that popular routes and the historical feature
#: map are populated for most landmark pairs, small enough that one
#: set-up stays near half a second on a 2-CPU host.
TRAINING_TRIPS = 200
#: The city and its training corpus are the same in every run, so set-up
#: does the same work whatever the seed; the run's seed draws the trips
#: and the request stream the workload sends.
CITY_SEED = 7


@dataclass
class Inputs:
    """Everything the simulator produced for one run."""

    config: ScenarioConfig
    network: object
    pois: list
    checkins: list
    traffic: TrafficModel
    fleet: FleetSimulator
    training: list
    test_rng: np.random.Generator


def generate_inputs(seed: int) -> Inputs:
    """Simulate the city and its training corpus; seed the test trips."""
    config = ScenarioConfig(seed=CITY_SEED, n_training_trips=TRAINING_TRIPS)
    streams = np.random.SeedSequence(CITY_SEED).spawn(4)
    rng_city, rng_poi, rng_checkin, rng_train = (
        np.random.default_rng(s) for s in streams
    )
    network = generate_city(config.city, rng_city)
    pois = generate_pois(
        POIConfig(
            count=config.pois.count,
            activity_centers=config.pois.activity_centers,
            center_sigma_m=config.pois.center_sigma_m,
            background_fraction=config.pois.background_fraction,
        ),
        network.bounding_box(),
        network.projector,
        rng_poi,
    )
    # The simulator draws popularity and check-ins over the landmark set;
    # set-up rebuilds the same set from scratch on its own clock.
    landmarks = build_landmarks(network, pois, config.landmarks)
    popularity = landmark_popularity(landmarks, config.checkins, rng_checkin)
    checkins = generate_checkins(landmarks, config.checkins, rng_checkin)
    traffic = TrafficModel()
    fleet = FleetSimulator(
        network, landmarks, TripSimulator(network, traffic, config.trip),
        landmark_popularity=popularity, config=config.fleet,
    )
    training = fleet.generate(
        config.n_training_trips, rng_train,
        days=config.training_days, id_prefix="train",
    )
    return Inputs(
        config, network, pois, checkins, traffic, fleet,
        [trip.raw for trip in training], np.random.default_rng([seed, 1]),
    )


def build_model(inputs: Inputs) -> STMaker:
    """The program's set-up: from simulated inputs to a trained model."""
    config = inputs.config
    landmarks = build_landmarks(inputs.network, inputs.pois, config.landmarks)
    calibrator = AnchorCalibrator(landmarks, config.calibration)
    calibrated = []
    taxi_visits: list[Visit] = []
    for raw in inputs.training:
        try:
            symbolic = calibrator.calibrate(raw)
        except CalibrationError:
            continue
        calibrated.append((raw, symbolic))
        ids = symbolic.landmark_ids()
        taxi_visits.extend(Visit(raw.trajectory_id, lid) for lid in ids)
        for endpoint in (ids[0], ids[-1]):
            taxi_visits.extend(Visit(raw.trajectory_id, endpoint) for _ in range(2))
    assign_significance(landmarks, inputs.checkins + taxi_visits)
    return STMaker.train_calibrated(
        inputs.network, landmarks, calibrated,
        config=config.summarizer, registry=default_registry(),
        calibrator=calibrator,
    )
