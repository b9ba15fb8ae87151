"""Shared fixtures for the test suite.

Environment construction (profiling every GPU type and fitting network
curves) is the most expensive part of a test, so commonly-used environments
are session-scoped.
"""

from __future__ import annotations

import pytest

from repro.core.simulator import build_environment
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec


def pytest_configure(config: pytest.Config) -> None:
    """Turn numpy's RuntimeWarnings (``inf * 0``, ``0 / 0``, overflow) into
    errors: a NaN or inf that slips through a kernel must fail the suite,
    not scroll past as a warning."""
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture(scope="session")
def opt_job() -> TrainingJobSpec:
    """OPT-350M with a small global batch (fast simulations)."""
    return TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=256,
                           sequence_length=2048)


@pytest.fixture(scope="session")
def neo_job() -> TrainingJobSpec:
    """GPT-Neo-2.7B with a small global batch."""
    return TrainingJobSpec(model=get_model("GPT-Neo-2.7B"), global_batch_size=256,
                           sequence_length=2048)


@pytest.fixture(scope="session")
def a100_topology() -> ClusterTopology:
    """8 nodes x 4 A100 in one zone."""
    return ClusterTopology.homogeneous("a2-highgpu-4g", 8)


@pytest.fixture(scope="session")
def mixed_topology() -> ClusterTopology:
    """4 A100 nodes + 4 V100 nodes in one zone."""
    return ClusterTopology.single_zone(
        "us-central1-a", {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4})


@pytest.fixture(scope="session")
def geo_topology_2regions() -> ClusterTopology:
    """A100 nodes spread over two zones of two regions."""
    return ClusterTopology(nodes={
        "us-central1-a": {"a2-highgpu-4g": 2},
        "us-central1-b": {"a2-highgpu-4g": 2},
        "us-west1-a": {"a2-highgpu-4g": 2},
    })


@pytest.fixture(scope="session")
def opt_env(opt_job, mixed_topology):
    """Environment profiled for OPT-350M over A100 + V100 node types."""
    return build_environment(opt_job, mixed_topology, seed=7)


@pytest.fixture(scope="session")
def opt_env_geo(opt_job, geo_topology_2regions):
    """Environment profiled for OPT-350M over the geo-distributed topology."""
    return build_environment(opt_job, geo_topology_2regions, seed=11)


@pytest.fixture(scope="session")
def neo_env(neo_job, mixed_topology):
    """Environment profiled for GPT-Neo-2.7B over A100 + V100 node types."""
    return build_environment(neo_job, mixed_topology, seed=13)
