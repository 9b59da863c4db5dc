"""Statistics substrate: empirical distributions, sampling, and correlation.

This subpackage contains the generic statistical machinery the measurement
pipeline is built on: empirical CDFs (every "CDF of ..." figure in the
paper), seeded and counter-keyed random streams, Zipf popularity sampling
and fitting, hourly time series, and rank correlation.
"""

from repro.stats.correlation import pearson, spearman
from repro.stats.ecdf import EmpiricalCDF
from repro.stats.sampling import make_rng
from repro.stats.timeseries import HourlyTimeSeries
from repro.stats.zipf import ZipfDistribution, fit_zipf_mle

__all__ = [
    "EmpiricalCDF",
    "HourlyTimeSeries",
    "ZipfDistribution",
    "fit_zipf_mle",
    "make_rng",
    "pearson",
    "spearman",
]
