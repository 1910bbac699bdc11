"""BENCHMARK.json must describe exactly what run.py prints."""

from __future__ import annotations

import json
import re
from pathlib import Path

from perfbench import run
from perfbench.workloads import WORKLOADS

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_workloads_match():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)


def test_metrics_match_what_run_prints():
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == run.PER_LAYER_UNITS


def test_manifest_fields_are_well_formed():
    metrics = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(0.0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
