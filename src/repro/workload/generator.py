"""The workload generator: sessions + catalogs → a stream of requests.

This is the synthetic replacement for the paper's proprietary CDN logs.
For each site it builds the catalog and user population, plans every user
session for the week, and turns sessions into time-ordered
:class:`Request` events with the object-selection model below:

* a request first draws its *category* from the site's request mix
  (Fig. 2a: request traffic skews differently from the catalog mix);
* within a category, the object is drawn with probability proportional to
  ``popularity_weight × trend_envelope(hour)`` — Zipf popularity (Fig. 6)
  modulated by the object's temporal trend class (Figs. 7-10) so unborn
  objects get no traffic and short-lived objects die off;
* with a user- and category-dependent probability the user instead
  *re-requests a favourite object* (addiction; Figs. 13/14), and strongly
  addicted users add binge requests on top — producing the
  far-above-diagonal points of Fig. 13.

Feeding the request stream to :class:`repro.cdn.CdnSimulator` yields the
HTTP log the analysis pipeline consumes.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.stats.sampling import make_rng, spawn_rng
from repro.types import Continent, ContentCategory, HOUR_SECONDS
from repro.workload.catalog import ContentCatalog, ContentObject, build_catalog
from repro.workload.population import User, UserPopulation, build_population
from repro.workload.profiles import ALL_PROFILES, SiteProfile
from repro.workload.scale import ScaleConfig
from repro.workload.sessions import (
    hourly_start_distribution,
    plan_session,
    sample_session_starts,
    start_hour_cdf,
)
from repro.workload.temporal import trend_envelope


@dataclass(frozen=True, slots=True)
class Request:
    """One user request event, before it reaches the CDN."""

    timestamp: float
    user: User
    obj: ContentObject
    is_repeat: bool = False
    #: Position of the request in the merged global stream; -1 until
    #: assigned by :meth:`WorkloadGenerator.merged_requests` (the simulator
    #: assigns stream order itself when it sees -1).  The id keys the
    #: request's counter-based random stream, so every stochastic outcome
    #: is a pure function of the request — see :func:`repro.stats.sampling.counter_rng`.
    request_id: int = -1

    def __lt__(self, other: "Request") -> bool:
        return self.timestamp < other.timestamp


@dataclass
class SiteWorkload:
    """Everything generated for one site."""

    profile: SiteProfile
    catalog: ContentCatalog
    population: UserPopulation
    requests: list[Request]

    @property
    def request_count(self) -> int:
        return len(self.requests)


class WorkloadGenerator:
    """Generate a full week of synthetic traffic for a set of sites.

    Parameters
    ----------
    profiles:
        Site profiles to generate (defaults to the paper's five sites).
    scale:
        Down-scaling configuration (defaults to :meth:`ScaleConfig.small`).
    seed:
        Master seed; every draw in the run derives from it.
    """

    #: Multiplier turning (propensity x category addiction) into an
    #: in-session repeat probability (re-request of recently consumed
    #: content); part of the Fig. 13/14 repeated-access signal.
    REPEAT_GAIN = 2.0
    #: How far back in a user's history in-session repeats reach.  Addicts
    #: re-watch what they recently consumed; an unbounded window would keep
    #: reviving long-dead objects and flatten the Fig. 7 aging curve.
    REPEAT_WINDOW = 6
    #: Binge fans per video object: the number of dedicated-fan users is
    #: ``BINGE_FANS_PER_VIDEO_OBJECT x |video catalog|``, directly
    #: calibrating the >=10%-of-video-objects-above-10-requests/user tail
    #: of Fig. 14 while keeping binge volume a small share of traffic.
    BINGE_FANS_PER_VIDEO_OBJECT = 0.16
    #: Mean binge length (requests by one fan on one object).
    BINGE_MEAN_REQUESTS = 14.0
    #: Probability a binge is extreme (8x), producing Fig. 13's
    #: two-orders-of-magnitude outliers.
    EXTREME_BINGE_PROB = 0.05

    def __init__(
        self,
        profiles: tuple[SiteProfile, ...] | list[SiteProfile] | None = None,
        scale: ScaleConfig | None = None,
        seed: int = 0,
    ):
        self.profiles = tuple(profiles) if profiles is not None else ALL_PROFILES()
        if not self.profiles:
            raise WorkloadError("WorkloadGenerator needs at least one site profile")
        self.scale = scale or ScaleConfig.small()
        self.seed = seed

    # -- public API --------------------------------------------------------

    def generate_site(self, profile: SiteProfile) -> SiteWorkload:
        """Generate catalog, population and time-ordered requests for a site."""
        rng = make_rng(np.random.SeedSequence([self.seed, _stable_site_seed(profile.name)]))
        catalog = build_catalog(profile, self.scale, spawn_rng(rng, "catalog"))
        population = build_population(profile, self.scale, spawn_rng(rng, "population"))
        requests = self._generate_requests(profile, catalog, population, spawn_rng(rng, "requests"))
        requests.sort(key=lambda r: r.timestamp)
        return SiteWorkload(profile=profile, catalog=catalog, population=population, requests=requests)

    def generate_all(self) -> dict[str, SiteWorkload]:
        """Generate every configured site.

        Each site's randomness derives solely from (master seed, site
        name), so the sites are independent of one another and of order.
        """
        return {profile.name: self.generate_site(profile) for profile in self.profiles}

    def merged_requests(
        self,
        workloads: dict[str, SiteWorkload] | None = None,
        start_request_id: int = 0,
    ) -> Iterator[Request]:
        """All sites' requests merged into one global time order.

        The CDN simulator consumes this stream so that shared edge caches
        see cross-site interleaving, as a real CDN does.  Each merged
        request is stamped with its position (offset by
        ``start_request_id``) as ``request_id`` — the stable key the
        simulator's counter-based RNG and shard-parallel merge are built
        on.  The stream is lazy: requests are stamped as they are drawn,
        so a streaming consumer (the simulator's producer/consumer
        dispatcher) overlaps generation with its own work instead of
        waiting for the whole stream.  ``start_request_id`` lets a
        resumed or segmented run continue the id sequence where a
        previous stream stopped, keeping the per-request RNG keys stable
        across the seam.
        """
        if workloads is None:
            workloads = self.generate_all()
        merged = heapq.merge(*(w.requests for w in workloads.values()), key=lambda r: r.timestamp)
        for request_id, request in enumerate(merged, start=start_request_id):
            yield Request(request.timestamp, request.user, request.obj, request.is_repeat, request_id)

    def merged_request_batches(
        self,
        workloads: dict[str, SiteWorkload] | None = None,
        batch_size: int = 8192,
        start_request_id: int = 0,
    ) -> Iterator[list[Request]]:
        """The merged request stream chunked into time-ordered lists.

        The batch-oriented simulator entry point
        (:meth:`repro.cdn.simulator.CdnSimulator.run_batches`) consumes
        these; the chunking changes nothing about the stream's order.
        Like :meth:`merged_requests` this is lazy (one ``batch_size``
        block resident at a time) and resumable via ``start_request_id``.
        """
        block: list[Request] = []
        for request in self.merged_requests(workloads, start_request_id=start_request_id):
            block.append(request)
            if len(block) >= batch_size:
                yield block
                block = []
        if block:
            yield block

    # -- internals ----------------------------------------------------------

    def _generate_requests(
        self,
        profile: SiteProfile,
        catalog: ContentCatalog,
        population: UserPopulation,
        rng: np.random.Generator,
    ) -> list[Request]:
        duration = float(self.scale.duration_seconds)
        duration_hours = self.scale.duration_hours

        # Per-hour object-selection tables, built lazily per (category, hour).
        selector = _ObjectSelector(
            catalog, duration_hours, spawn_rng(rng, "selector"), peak_hour=profile.peak_local_hour
        )

        # How many sessions produce the target request volume in expectation.
        target_requests = self.scale.requests(profile.paper_request_count)
        total_sessions = max(10, int(round(target_requests / profile.mean_requests_per_session)))

        # Sessions are dealt to users proportionally to their activity weight.
        activity = np.array([u.activity_weight for u in population.users])
        session_counts = rng.multinomial(total_sessions, activity / activity.sum())

        start_cdfs = {
            continent: start_hour_cdf(
                hourly_start_distribution(profile, duration_hours, continent.utc_offset_hours)
            )
            for continent in Continent
        }

        categories = list(profile.request_mix)
        category_probs = np.array([profile.request_mix[c] for c in categories])
        category_probs = category_probs / category_probs.sum()
        # ``rng.choice(len(categories), p=category_probs)`` draws one
        # ``random()`` and finds it in this normalised CDF with
        # ``searchsorted(side="right")``; ``bisect_right`` over the same
        # doubles gives the same index from the same single draw, without
        # re-validating ``p`` on every request.
        category_cdf = category_probs.cumsum()
        category_cdf /= category_cdf[-1]
        category_cdf = category_cdf.tolist()

        requests: list[Request] = []
        history: dict[int, list[ContentObject]] = {}
        favorites: dict[int, ContentObject] = {}

        for user_index, n_sessions in enumerate(session_counts.tolist()):
            if n_sessions == 0:
                continue
            user = population.users[user_index]
            starts = sample_session_starts(n_sessions, start_cdfs[user.continent], rng)
            # Process a user's sessions chronologically so their history
            # (and hence repeat behaviour) evolves forward in time.
            starts.sort()
            user_history = history.setdefault(user_index, [])
            for start in starts.tolist():
                plan = plan_session(
                    user_index,
                    start,
                    profile.session_single_fraction,
                    profile.session_mean_requests,
                    profile.session_think_time_s,
                    duration,
                    rng,
                )
                for timestamp in plan.request_times:
                    obj, is_repeat = self._pick_object(
                        profile, selector, user, user_history, favorites, user_index,
                        timestamp, categories, category_cdf, rng,
                    )
                    if obj is None:
                        continue
                    requests.append(Request(timestamp, user, obj, is_repeat))
                    user_history.append(obj)

        self._add_binges(profile, catalog, population, history, requests, duration, rng)
        return requests

    def _pick_object(
        self,
        profile: SiteProfile,
        selector: "_ObjectSelector",
        user: User,
        user_history: list[ContentObject],
        favorites: dict[int, ContentObject],
        user_index: int,
        timestamp: float,
        categories: list[ContentCategory],
        category_cdf: list[float],
        rng: np.random.Generator,
    ) -> tuple[ContentObject | None, bool]:
        category = categories[bisect.bisect_right(category_cdf, rng.random())]
        addiction_level = profile.addiction_video if category is ContentCategory.VIDEO else profile.addiction_image
        repeat_prob = min(0.85, self.REPEAT_GAIN * user.addiction_propensity * addiction_level)
        if user_history and rng.random() < repeat_prob:
            favorite = favorites.get(user_index)
            if favorite is None or rng.random() < 0.3:
                window = user_history[-self.REPEAT_WINDOW:]
                favorite = window[int(rng.integers(0, len(window)))]
                favorites[user_index] = favorite
            return favorite, True
        hour = min(int(timestamp // HOUR_SECONDS), selector.duration_hours - 1)
        obj = selector.sample(category, hour, rng)
        return obj, False

    def _add_binges(
        self,
        profile: SiteProfile,
        catalog: ContentCatalog,
        population: UserPopulation,
        history: dict[int, list[ContentObject]],
        requests: list[Request],
        duration: float,
        rng: np.random.Generator,
    ) -> None:
        """Append binge re-requests for strongly addicted users (Fig. 13/14).

        Each strongly addicted visitor fixates on one object — chosen
        uniformly from the catalog's dominant addictive category, so tail
        objects can acquire a dedicated fan — and re-requests it many
        times over a few days.  Occasional extreme binges produce the
        two-orders-of-magnitude requests-to-users outliers of Fig. 13.
        """
        video_objects = catalog.by_category(ContentCategory.VIDEO)
        if not video_objects:
            return
        # Calibrated fan count: enough dedicated fans that >=10% of video
        # objects clear the 10-requests/user bar, spread over the catalog.
        addiction_boost = profile.addiction_video / 0.3
        n_fans = max(2, int(round(self.BINGE_FANS_PER_VIDEO_OBJECT * addiction_boost * len(video_objects))))
        candidates = sorted(
            history,
            key=lambda idx: -population.users[idx].addiction_propensity,
        )[: max(n_fans, 1)]
        for user_index in candidates:
            user = population.users[user_index]
            favorite = video_objects[int(rng.integers(0, len(video_objects)))]
            extra = 3 + int(rng.poisson(self.BINGE_MEAN_REQUESTS))
            # Extreme (Fig. 13's ~100x) binges only on sites with a real
            # video catalog; on image sites a single extreme fan would
            # visibly distort the site's category request mix.
            if len(video_objects) >= 20 and rng.random() < self.EXTREME_BINGE_PROB:
                extra *= 8
            anchor = float(rng.uniform(max(favorite.birth_time, 0.0), duration))
            spread = rng.exponential(scale=3 * HOUR_SECONDS, size=extra)
            times = np.clip(anchor + np.cumsum(spread) - spread.sum() / 2, favorite.birth_time, duration - 1)
            for t in times:
                requests.append(Request(timestamp=float(t), user=user, obj=favorite, is_repeat=True))


class GenerateStage:
    """Dataflow source: site workloads → merged request blocks.

    The plan adapter for :class:`WorkloadGenerator`.  ``connect`` builds
    the generator from the run's seed and scale and generates every site
    up front (that cost is attributed to this stage's wall time), then
    returns the lazy merged request-block stream — downstream stages pull
    one block at a time, so a streaming consumer overlaps with request
    stamping exactly as :meth:`WorkloadGenerator.merged_request_batches`
    promises.  The workloads and resolved profiles stay on the stage so
    the simulate stage can size caches from the catalogs and the plan
    result can expose them.
    """

    name = "generate"

    def __init__(self, profiles: tuple[SiteProfile, ...] | list[SiteProfile] | None = None):
        self.profiles = tuple(profiles) if profiles is not None else None
        self.workloads: dict[str, SiteWorkload] | None = None

    def connect(self, upstream, config):
        generator = WorkloadGenerator(
            profiles=self.profiles, scale=config.scale_config(), seed=config.seed
        )
        self.profiles = generator.profiles
        self.workloads = generator.generate_all()
        return generator.merged_request_batches(self.workloads)

    def finish(self, stats, result) -> None:
        result.workloads = self.workloads


class _ObjectSelector:
    """Lazy per-(category, hour) sampling tables.

    Weight of an object in hour ``h`` is its Zipf popularity weight times
    its trend envelope at ``h``.  Cumulative-weight tables are built on
    first use of each (category, hour) pair and cached; a draw searches
    its table with the array's own ``searchsorted`` method, which skips
    the Python wrapper of ``np.searchsorted``.  (Tables kept as lists and
    searched with ``bisect_right`` were not measurably faster and raised
    the peak traced memory of generation by 1.4 MB at ``tiny``.)
    """

    def __init__(
        self,
        catalog: ContentCatalog,
        duration_hours: int,
        rng: np.random.Generator,
        peak_hour: int | None = None,
    ):
        self.duration_hours = duration_hours
        self._envelopes: dict[ContentCategory, np.ndarray] = {}
        self._weights: dict[ContentCategory, np.ndarray] = {}
        #: Per category with objects: the objects and one table slot per hour.
        self._categories: dict[ContentCategory, tuple[list[ContentObject], list]] = {}
        for category in ContentCategory:
            objects = catalog.by_category(category)
            if not objects:
                continue
            envelope_matrix = np.empty((len(objects), duration_hours))
            for i, obj in enumerate(objects):
                envelope_matrix[i] = trend_envelope(
                    obj.trend,
                    obj.birth_time / HOUR_SECONDS,
                    duration_hours,
                    spawn_rng(rng, obj.object_id),
                    peak_hour=peak_hour,
                )
            self._envelopes[category] = envelope_matrix
            self._weights[category] = np.array([obj.popularity_weight for obj in objects])
            self._categories[category] = (objects, [_UNSET] * duration_hours)

    def weights_at(self, category: ContentCategory, hour: int) -> np.ndarray:
        """Selection weights of ``category``'s objects in ``hour``."""
        return self._weights[category] * self._envelopes[category][:, hour]

    def sample(self, category: ContentCategory, hour: int, rng: np.random.Generator) -> ContentObject | None:
        """Draw one object of ``category`` alive at ``hour`` (None if none).

        Draws one ``random()``, and nothing when no object can be drawn.
        """
        entry = self._categories.get(category)
        if entry is None:
            return None
        objects, tables = entry
        table = tables[hour]
        if table is _UNSET:
            weights = self.weights_at(category, hour)
            total = weights.sum()
            table = tables[hour] = np.cumsum(weights) / total if total > 0 else None
        if table is None:
            return None
        index = int(table.searchsorted(rng.random(), side="right"))
        return objects[min(index, len(objects) - 1)]


_UNSET = object()


def _stable_site_seed(name: str) -> int:
    """Deterministic small integer from a site name (hash() is salted)."""
    return sum((i + 1) * ord(ch) for i, ch in enumerate(name)) % 65521
