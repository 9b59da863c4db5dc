"""Shared fixtures: one tiny end-to-end pipeline run reused by many tests.

The pipeline run is session-scoped — generating and simulating a trace
takes a couple of seconds, and the analysis tests only read from it.
"""

from __future__ import annotations

import pytest

from repro.dataflow import Plan, PlanResult, RunConfig

#: Seed used by the shared fixtures; individual tests that need their own
#: randomness should derive from it rather than hard-coding new seeds.
PIPELINE_SEED = 7


@pytest.fixture(scope="session")
def pipeline_result() -> PlanResult:
    """A complete generate→simulate→ingest run at tiny scale.

    Knobs other than the seed and the scale come from the ``REPRO_*``
    environment, as :meth:`RunConfig.resolve` reads it.
    """
    config = RunConfig.resolve(seed=PIPELINE_SEED, scale="tiny")
    return Plan(config).generate().simulate().ingest().run()


@pytest.fixture(scope="session")
def dataset(pipeline_result: PlanResult):
    return pipeline_result.dataset


@pytest.fixture(scope="session")
def catalogs(pipeline_result: PlanResult):
    return pipeline_result.catalogs


@pytest.fixture(scope="session")
def records(pipeline_result: PlanResult):
    return pipeline_result.dataset.records
