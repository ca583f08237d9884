"""Self-tests of the ``datapath-sat`` generator.

Not collected by the repository's test run (the file name does not match
``test_*.py``); run them explicitly from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/selftest_datapath.py -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import datapath  # noqa: E402
from repro.api import Design, DetectionConfig, DetectionSession, Verdict  # noqa: E402


def test_a_seed_always_gives_the_same_sources():
    first = [design.source for design in datapath.generate(7)]
    assert first == [design.source for design in datapath.generate(7)]
    assert first != [design.source for design in datapath.generate(8)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_design_elaborates(seed):
    for generated in datapath.generate(seed):
        design = Design.from_source(generated.source, generated.top, name=generated.name)
        assert design.module.name == generated.top


def test_every_class_is_secure_and_stays_under_the_split_budget():
    budget = DetectionConfig().split_conflicts
    for generated in datapath.generate(1):
        design = Design.from_source(generated.source, generated.top, name=generated.name)
        report = DetectionSession(design, design.default_config()).run()
        assert report.verdict is Verdict.SECURE, generated.name
        for outcome in report.outcomes:
            assert outcome.cubes <= 1, (generated.name, outcome.label)
            assert outcome.result.sat_conflicts < budget, (generated.name, outcome.label)
