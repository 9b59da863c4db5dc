"""The workload generator: sessions + catalogs → a stream of requests.

This is the synthetic replacement for the paper's proprietary CDN logs.
For each site it builds the catalog and user population, plans every user
session for the week, and turns sessions into time-ordered request
columns — timestamp, user index, object index and repeat flag — with the
object-selection model below:

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

The sites' columns merge into one time-ordered stream of
:class:`RequestBlock` slices, whose index columns point into one shared
:class:`RequestTables` of every user and object; feeding the blocks to
:meth:`repro.cdn.CdnSimulator.run_batches` yields the HTTP log the
analysis pipeline consumes.
"""

from __future__ import annotations

import bisect
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


@dataclass(frozen=True, slots=True, eq=False)
class RequestTables:
    """The users and objects a request stream's index columns point into.

    Every site's population and catalog, concatenated in profile order.
    All blocks of one merged stream share one tables object, so a consumer
    does its per-user and per-object work once per table, not per request.
    """

    users: tuple[User, ...]
    objects: tuple[ContentObject, ...]


@dataclass(frozen=True, slots=True, eq=False)
class RequestBlock:
    """Consecutive rows of the merged request stream, as columns.

    Row ``i`` is request ``request_id[i]``: user
    ``tables.users[user_index[i]]`` asks for object
    ``tables.objects[object_index[i]]`` at ``timestamps[i]``.  Blocks cut
    from one stream are views of its columns; ``len(block)`` is the row
    count.
    """

    tables: RequestTables
    timestamps: np.ndarray
    user_index: np.ndarray
    object_index: np.ndarray
    is_repeat: np.ndarray
    request_id: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)

    def rows(self, start: int, stop: int) -> "RequestBlock":
        """Rows ``[start, stop)`` as a block of views of these columns."""
        return RequestBlock(
            self.tables,
            self.timestamps[start:stop],
            self.user_index[start:stop],
            self.object_index[start:stop],
            self.is_repeat[start:stop],
            self.request_id[start:stop],
        )


@dataclass
class SiteWorkload:
    """Everything generated for one site.

    The site's requests are four time-ordered columns: ``timestamps``
    (float64 trace seconds), ``user_index`` (positions in
    ``population.users``), ``object_index`` (positions in
    ``catalog.objects``) and ``is_repeat``.
    """

    profile: SiteProfile
    catalog: ContentCatalog
    population: UserPopulation
    timestamps: np.ndarray
    user_index: np.ndarray
    object_index: np.ndarray
    is_repeat: np.ndarray

    @property
    def request_count(self) -> int:
        return len(self.timestamps)


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
        """Generate catalog, population and time-ordered request columns for a site.

        The requests are sorted by timestamp with a stable sort, so equal
        timestamps keep their generation order.
        """
        rng = make_rng(np.random.SeedSequence([self.seed, _stable_site_seed(profile.name)]))
        catalog = build_catalog(profile, self.scale, spawn_rng(rng, "catalog"))
        population = build_population(profile, self.scale, spawn_rng(rng, "population"))
        timestamps, users, objects, repeats = self._generate_requests(
            profile, catalog, population, spawn_rng(rng, "requests")
        )
        timestamps = np.array(timestamps, dtype=np.float64)
        order = np.argsort(timestamps, kind="stable")
        return SiteWorkload(
            profile=profile,
            catalog=catalog,
            population=population,
            timestamps=timestamps[order],
            user_index=np.array(users, dtype=np.int64)[order],
            object_index=np.array(objects, dtype=np.int64)[order],
            is_repeat=np.array(repeats, dtype=bool)[order],
        )

    def generate_all(self) -> dict[str, SiteWorkload]:
        """Generate every configured site.

        Each site's randomness derives solely from (master seed, site
        name), so the sites are independent of one another and of order.
        """
        return {profile.name: self.generate_site(profile) for profile in self.profiles}

    def merged_request_batches(
        self,
        workloads: dict[str, SiteWorkload] | None = None,
        batch_size: int = 8192,
        start_request_id: int = 0,
    ) -> Iterator[RequestBlock]:
        """All sites' requests merged into one global time order, as
        :class:`RequestBlock` slices of ``batch_size`` rows.

        The CDN simulator consumes this stream
        (:meth:`repro.cdn.simulator.CdnSimulator.run_batches`) so that
        shared edge caches see cross-site interleaving, as a real CDN
        does.  The merge concatenates the sites' columns in profile order,
        offsets their indices into one :class:`RequestTables` of every
        user and object, and orders the rows with one stable argsort on
        the timestamps — so requests with equal timestamps come in profile
        order, then in their site's order.  Each row is stamped with its
        position (offset by ``start_request_id``) as ``request_id``, the
        stable key the simulator's counter-based RNG and shard-parallel
        merge are built on; ``start_request_id`` lets a resumed or
        segmented run continue the id sequence where a previous stream
        stopped.  ``workloads`` defaults to :meth:`generate_all`'s; when
        given, only they are merged, and the generator's own profiles,
        scale and seed are not read.  The stream is lazy: nothing is
        generated or merged before the first block is pulled.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return self._blocks(workloads, batch_size, start_request_id)

    def _blocks(
        self, workloads: dict[str, SiteWorkload] | None, batch_size: int, start_request_id: int
    ) -> Iterator[RequestBlock]:
        stream = self._merge(workloads, start_request_id)
        for start in range(0, len(stream), batch_size):
            yield stream.rows(start, start + batch_size)

    def _merge(self, workloads: dict[str, SiteWorkload] | None, start_request_id: int) -> RequestBlock:
        """The whole merged stream as one block (see :meth:`merged_request_batches`)."""
        if workloads is None:
            workloads = self.generate_all()
        sites = list(workloads.values())
        users: list[User] = []
        objects: list[ContentObject] = []
        user_index, object_index = [], []
        for site in sites:
            user_index.append(site.user_index + len(users))
            object_index.append(site.object_index + len(objects))
            users.extend(site.population.users)
            objects.extend(site.catalog.objects)
        timestamps = np.concatenate([site.timestamps for site in sites])
        order = np.argsort(timestamps, kind="stable")
        return RequestBlock(
            RequestTables(tuple(users), tuple(objects)),
            timestamps[order],
            np.concatenate(user_index)[order],
            np.concatenate(object_index)[order],
            np.concatenate([site.is_repeat for site in sites])[order],
            np.arange(start_request_id, start_request_id + len(order), dtype=np.int64),
        )

    # -- internals ----------------------------------------------------------

    def _generate_requests(
        self,
        profile: SiteProfile,
        catalog: ContentCatalog,
        population: UserPopulation,
        rng: np.random.Generator,
    ) -> tuple[list[float], list[int], list[int], list[bool]]:
        """The site's requests in generation order, as four columns:
        timestamps, user indices, catalog positions and repeat flags."""
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

        timestamps: list[float] = []
        user_indices: list[int] = []
        positions: list[int] = []
        repeats: list[bool] = []
        # Histories and favourites hold catalog positions.
        history: dict[int, list[int]] = {}
        favorites: dict[int, int] = {}

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
                    position, is_repeat = self._pick_object(
                        profile, selector, user, user_history, favorites, user_index,
                        timestamp, categories, category_cdf, rng,
                    )
                    if position is None:
                        continue
                    timestamps.append(timestamp)
                    user_indices.append(user_index)
                    positions.append(position)
                    repeats.append(is_repeat)
                    user_history.append(position)

        binge_times, binge_users, binge_positions = self._add_binges(
            profile, catalog, population, history, duration, rng
        )
        timestamps.extend(binge_times)
        user_indices.extend(binge_users)
        positions.extend(binge_positions)
        repeats.extend([True] * len(binge_times))
        return timestamps, user_indices, positions, repeats

    def _pick_object(
        self,
        profile: SiteProfile,
        selector: "_ObjectSelector",
        user: User,
        user_history: list[int],
        favorites: dict[int, int],
        user_index: int,
        timestamp: float,
        categories: list[ContentCategory],
        category_cdf: list[float],
        rng: np.random.Generator,
    ) -> tuple[int | None, bool]:
        """The catalog position the request asks for (None: nothing
        alive to draw) and whether it re-requests the user's history."""
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
        return selector.sample(category, hour, rng), False

    def _add_binges(
        self,
        profile: SiteProfile,
        catalog: ContentCatalog,
        population: UserPopulation,
        history: dict[int, list[int]],
        duration: float,
        rng: np.random.Generator,
    ) -> tuple[list[float], list[int], list[int]]:
        """Binge re-requests for strongly addicted users (Fig. 13/14).

        Each strongly addicted visitor fixates on one object — chosen
        uniformly from the catalog's dominant addictive category, so tail
        objects can acquire a dedicated fan — and re-requests it many
        times over a few days.  Occasional extreme binges produce the
        two-orders-of-magnitude requests-to-users outliers of Fig. 13.
        Only ``history``'s keys (the users who requested anything) are
        read.  Returns the binge requests' timestamps, user indices and
        catalog positions; every one is a repeat.
        """
        times_out: list[float] = []
        users_out: list[int] = []
        positions_out: list[int] = []
        objects = catalog.objects
        video_positions = [
            index for index, obj in enumerate(objects) if obj.category is ContentCategory.VIDEO
        ]
        if not video_positions:
            return times_out, users_out, positions_out
        # Calibrated fan count: enough dedicated fans that >=10% of video
        # objects clear the 10-requests/user bar, spread over the catalog.
        addiction_boost = profile.addiction_video / 0.3
        n_fans = max(2, int(round(self.BINGE_FANS_PER_VIDEO_OBJECT * addiction_boost * len(video_positions))))
        candidates = sorted(
            history,
            key=lambda idx: -population.users[idx].addiction_propensity,
        )[: max(n_fans, 1)]
        for user_index in candidates:
            favorite = video_positions[int(rng.integers(0, len(video_positions)))]
            birth_time = objects[favorite].birth_time
            extra = 3 + int(rng.poisson(self.BINGE_MEAN_REQUESTS))
            # Extreme (Fig. 13's ~100x) binges only on sites with a real
            # video catalog; on image sites a single extreme fan would
            # visibly distort the site's category request mix.
            if len(video_positions) >= 20 and rng.random() < self.EXTREME_BINGE_PROB:
                extra *= 8
            anchor = float(rng.uniform(max(birth_time, 0.0), duration))
            spread = rng.exponential(scale=3 * HOUR_SECONDS, size=extra)
            times = np.clip(anchor + np.cumsum(spread) - spread.sum() / 2, birth_time, duration - 1)
            times_out.extend(times.tolist())
            users_out.extend([user_index] * extra)
            positions_out.extend([favorite] * extra)
        return times_out, users_out, positions_out


class GenerateStage:
    """Dataflow source: site workloads → merged request blocks.

    The plan adapter for :class:`WorkloadGenerator`.  ``connect`` builds
    the generator from the run's seed and scale and generates every site
    up front (that cost is attributed to this stage's wall time), then
    returns the lazy merged :class:`RequestBlock` stream of
    :meth:`WorkloadGenerator.merged_request_batches` — downstream stages
    pull one block at a time.  The workloads and resolved profiles stay on the stage so
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
        #: Per category with objects: their catalog positions and one table
        #: slot per hour.
        self._categories: dict[ContentCategory, tuple[list[int], list]] = {}
        for category in ContentCategory:
            positions = [
                index for index, obj in enumerate(catalog.objects) if obj.category is category
            ]
            if not positions:
                continue
            objects = [catalog.objects[index] for index in positions]
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
            self._categories[category] = (positions, [_UNSET] * duration_hours)

    def weights_at(self, category: ContentCategory, hour: int) -> np.ndarray:
        """Selection weights of ``category``'s objects in ``hour``."""
        return self._weights[category] * self._envelopes[category][:, hour]

    def sample(self, category: ContentCategory, hour: int, rng: np.random.Generator) -> int | None:
        """Draw the catalog position of one object of ``category`` alive at
        ``hour`` (None if none).

        Draws one ``random()``, and nothing when no object can be drawn.
        """
        entry = self._categories.get(category)
        if entry is None:
            return None
        positions, tables = entry
        table = tables[hour]
        if table is _UNSET:
            weights = self.weights_at(category, hour)
            total = weights.sum()
            table = tables[hour] = np.cumsum(weights) / total if total > 0 else None
        if table is None:
            return None
        index = int(table.searchsorted(rng.random(), side="right"))
        return positions[min(index, len(positions) - 1)]


_UNSET = object()


def _stable_site_seed(name: str) -> int:
    """Deterministic small integer from a site name (hash() is salted)."""
    return sum((i + 1) * ord(ch) for i, ch in enumerate(name)) % 65521
