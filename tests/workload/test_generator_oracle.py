"""The generator's draw order, pinned against a per-user reference loop.

:meth:`WorkloadGenerator.generate_site` makes its session and selection
draws through scalar and batched fast paths (a precomputed start-hour CDF,
scalar session plans, bisected selection tables).  The reference below is
the plain per-user loop those paths must reproduce draw for draw:
``Generator.choice(p=...)`` for start hours and categories, a session plan
built from size-1 arrays, ``np.cumsum`` and a boolean filter, and
``np.searchsorted`` over array tables.  It runs over the same catalog,
population and selector envelopes as ``generate_site``; the two request
streams must agree request by request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.sampling import make_rng, spawn_rng
from repro.types import HOUR_SECONDS, Continent, ContentCategory
from repro.workload.catalog import build_catalog
from repro.workload.generator import WorkloadGenerator, _ObjectSelector, _stable_site_seed
from repro.workload.population import build_population
from repro.workload.profiles import ALL_PROFILES, profile_nonadult
from repro.workload.scale import ScaleConfig
from repro.workload.sessions import SESSION_TIMEOUT_SECONDS, hourly_start_distribution

SCALES = {
    "tiny": ScaleConfig.tiny(),
    "36h": ScaleConfig(object_scale=0.01, request_scale=0.004, user_scale=0.004, duration_seconds=36 * 3600),
}
SEEDS = (0, 1, 7, 2016)
PROFILES = ALL_PROFILES() + (profile_nonadult(),)


def _reference_plan(start, single_fraction, multi_mean_requests, mean_think_s, duration, rng) -> np.ndarray:
    counts = np.ones(1, dtype=int)
    browsing = rng.random(1) >= single_fraction
    n_browsing = int(browsing.sum())
    if n_browsing:
        extra_mean = max(multi_mean_requests - 2.0, 1e-9)
        p = min(1.0, 1.0 / (1.0 + extra_mean))
        counts[browsing] = 1 + rng.geometric(p=p, size=n_browsing)
    gaps_count = int(counts[0]) - 1
    if gaps_count:
        gaps = np.minimum(rng.exponential(scale=mean_think_s, size=gaps_count), SESSION_TIMEOUT_SECONDS * 0.95)
    else:
        gaps = np.empty(0)
    times = start + np.concatenate(([0.0], np.cumsum(gaps)))
    return times[times < duration]


def _reference_requests(generator: WorkloadGenerator, profile) -> list[tuple]:
    """``generate_site``'s request stream by the per-user reference loop."""
    scale = generator.scale
    rng = make_rng(np.random.SeedSequence([generator.seed, _stable_site_seed(profile.name)]))
    catalog = build_catalog(profile, scale, spawn_rng(rng, "catalog"))
    population = build_population(profile, scale, spawn_rng(rng, "population"))
    rng = spawn_rng(rng, "requests")
    duration = float(scale.duration_seconds)
    duration_hours = scale.duration_hours
    selector = _ObjectSelector(catalog, duration_hours, spawn_rng(rng, "selector"), peak_hour=profile.peak_local_hour)
    tables: dict[tuple, np.ndarray | None] = {}

    def select(category, hour):
        objects = catalog.by_category(category)
        if not objects:
            return None
        if (category, hour) not in tables:
            weights = selector.weights_at(category, hour)
            total = weights.sum()
            tables[category, hour] = np.cumsum(weights) / total if total > 0 else None
        table = tables[category, hour]
        if table is None:
            return None
        index = int(np.searchsorted(table, rng.random(), side="right"))
        return objects[min(index, len(objects) - 1)]

    target_requests = scale.requests(profile.paper_request_count)
    total_sessions = max(10, int(round(target_requests / profile.mean_requests_per_session)))
    activity = np.array([u.activity_weight for u in population.users])
    session_counts = rng.multinomial(total_sessions, activity / activity.sum())
    start_distributions = {
        continent: hourly_start_distribution(profile, duration_hours, continent.utc_offset_hours)
        for continent in Continent
    }
    categories = list(profile.request_mix)
    category_probs = np.array([profile.request_mix[c] for c in categories])
    category_probs = category_probs / category_probs.sum()

    requests = []
    history: dict[int, list] = {}
    favorites: dict[int, object] = {}
    for user_index, n_sessions in enumerate(session_counts):
        if n_sessions == 0:
            continue
        user = population.users[user_index]
        dist = start_distributions[user.continent]
        hours = rng.choice(dist.size, size=int(n_sessions), p=dist)
        offsets = rng.uniform(0.0, HOUR_SECONDS, size=int(n_sessions))
        starts = np.sort(hours * HOUR_SECONDS + offsets)
        user_history = history.setdefault(user_index, [])
        for start in starts:
            times = _reference_plan(
                float(start),
                profile.session_single_fraction,
                profile.session_mean_requests,
                profile.session_think_time_s,
                duration,
                rng,
            )
            for timestamp in times:
                timestamp = float(timestamp)
                category = categories[rng.choice(len(categories), p=category_probs)]
                level = profile.addiction_video if category is ContentCategory.VIDEO else profile.addiction_image
                repeat_prob = min(0.85, generator.REPEAT_GAIN * user.addiction_propensity * level)
                if user_history and rng.random() < repeat_prob:
                    favorite = favorites.get(user_index)
                    if favorite is None or rng.random() < 0.3:
                        window = user_history[-generator.REPEAT_WINDOW:]
                        favorite = window[int(rng.integers(0, len(window)))]
                        favorites[user_index] = favorite
                    obj, is_repeat = favorite, True
                else:
                    hour = min(int(timestamp // HOUR_SECONDS), duration_hours - 1)
                    obj, is_repeat = select(category, hour), False
                if obj is None:
                    continue
                requests.append((timestamp, user.user_id, obj.object_id, is_repeat))
                user_history.append(obj)

    # The binges read only the history's keys (who requested anything).
    times, users, positions = generator._add_binges(profile, catalog, population, history, duration, rng)
    requests.extend(
        (timestamp, population.users[user].user_id, catalog.objects[position].object_id, True)
        for timestamp, user, position in zip(times, users, positions)
    )
    requests.sort(key=lambda r: r[0])
    return requests


@pytest.mark.parametrize("scale_name", sorted(SCALES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_generate_site_matches_reference_loop(scale_name, seed, profile):
    generator = WorkloadGenerator(profiles=(profile,), scale=SCALES[scale_name], seed=seed)
    workload = generator.generate_site(profile)
    users, objects = workload.population.users, workload.catalog.objects
    produced = [
        (timestamp, users[user].user_id, objects[obj].object_id, repeat)
        for timestamp, user, obj, repeat in zip(
            workload.timestamps.tolist(),
            workload.user_index.tolist(),
            workload.object_index.tolist(),
            workload.is_repeat.tolist(),
        )
    ]
    expected = _reference_requests(generator, profile)
    assert len(produced) == len(expected)
    for index, (got, want) in enumerate(zip(produced, expected)):
        assert got == want, f"request {index} differs"
