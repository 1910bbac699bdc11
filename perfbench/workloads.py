"""The three workloads: what each sends, how it is timed, what is checked.

Each workload draws its trips and requests from the seed with the
simulator, lets the program set itself up (``setup``), warms it and
measures for a given number of seconds (``measure``).  Outputs are
checked outside the timed intervals: the closed loops check each request
as it settles, the open loop after the phase (``check``).

* ``batch-dense``: serial ``STMaker.summarize_many`` over fresh, densely
  sampled trips with ``k=3``.  The pipeline alone: no server, no hot
  caches, no process tier.
* ``serve-sparse``: an open loop of independent callers against a default
  ``SummarizationServer``.  Sparse, noisy trips with planted duplicates
  and glitches, drawn Zipf-skewed from a small pool so hot-cache lookups
  repeat; the offered load is about a third of the server's capacity.
* ``serve-process``: one closed-loop client against a server with the
  process executor and two workers, four fresh dense trips per request.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import checks, world
from perfbench.layers import truth_edges

#: Trips per ``summarize_many`` call on batch-dense: small, so a run
#: holds several hundred calls and the call latency has a real tail.
DENSE_BATCH = 2
DENSE_K = 3
#: serve-sparse: requests per second offered.  About a third of the
#: capacity measured for this pool on a 2-CPU host (see README.md).
SPARSE_RATE = 9.0
SPARSE_POOL = 16
#: Pool trips last 9 to 14 samples (4 to 7 minutes), about a third of all
#: trips; the band keeps one seed's pool from being all short or all long.
SPARSE_SAMPLES = (9, 14)
SPARSE_TENANTS = 4
SPARSE_SAMPLE_S = 30.0
SPARSE_NOISE_M = 25.0
SPARSE_ZIPF = 1.0
#: Planted faults per pool trip; each must be dropped by the sanitizer.
SPARSE_DUPLICATES = 2
SPARSE_GLITCHES = 2
GLITCH_JUMP_M = 4000.0
PROCESS_ITEMS = 4
PROCESS_WORKERS = 2
#: Items whose partition optimality is re-derived after a run.
OPTIMALITY_SAMPLE = 12
#: Trips matched whole against ground truth after a run.
ACCURACY_SAMPLE = 6
#: Longest wait for requests to settle; keeps a hung run under 180 s.
SETTLE_TIMEOUT_S = 60.0


@dataclass
class Request:
    """One request as sent and as settled."""

    #: Trips (dense workloads) or pool indexes (serve-sparse).
    trips: list
    k: int | None
    tenant: str | None = None
    due: float = 0.0
    sent: float = 0.0
    #: From the time the request was due to its settle.
    latency_s: float = 0.0
    #: Time a server held it queued, then spent serving it; a direct
    #: summarize_many call has no queue and serves for its whole latency.
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    #: Item execution time the items themselves report, summed.
    exec_s: float = 0.0
    handle: object = None
    result: object = None
    items: int = field(init=False)

    def __post_init__(self) -> None:
        self.items = len(self.trips)


@dataclass
class Phase:
    """What one measured phase did."""

    requests: list[Request] = field(default_factory=list)
    items: int = 0
    #: Denominator of items_per_s: busy time for closed loops, schedule
    #: start to last settle for the open loop.
    duration_s: float = 0.0
    #: CPU time of this process (all threads) while requests were in
    #: flight; the closed loops' per-request checks are not counted.
    cpu_s: float = 0.0
    lags_s: list[float] = field(default_factory=list)
    #: Closed loops check each request as it settles and keep only these.
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    samples: list[tuple] = field(default_factory=list)

    def items_per_s(self, window: int | None) -> float:
        """Items settled per second of the phase.

        A closed loop reports the median over windows of *window*
        consecutive requests, so a burst of interference from the host
        moves one window rather than the figure; the open loop reports
        all items over the phase, which is the rate it offered.
        """
        chunks = [
            self.requests[i:i + window]
            for i in range(0, len(self.requests) - window + 1, window)
        ] if window else []
        if not chunks:
            return self.items / self.duration_s
        return statistics.median(
            sum(r.items for r in c) / sum(r.latency_s for r in c) for c in chunks
        )


def _await(handle, give_up: float) -> bool:
    """Wait for *handle* to settle and to carry its service time.

    The server resolves a handle before it records ``service_s``, so a
    waiter can wake in between; give it until *give_up* (perf_counter).
    """
    handle.wait(max(0.0, give_up - time.perf_counter()))
    while handle.done and handle.service_s is None and time.perf_counter() < give_up:
        time.sleep(0.0005)
    return handle.service_s is not None


def _cleaned(raw):
    from repro.trajectory import sanitize_trajectory

    return sanitize_trajectory(raw)[0]


class _DenseClosedLoop:
    """One caller sending fresh dense trips and waiting for each reply.

    Each request is checked as soon as it settles, outside its timing,
    and then dropped, so memory does not grow with the items a run
    manages to serve; the first items are kept for the costlier checks.
    """

    window: int
    batch: int
    #: Whether every summary is compared with a direct serial summarize.
    compare_serial: bool

    def __init__(self, inputs: world.Inputs, seed: int, trace: bool) -> None:
        self.inputs = inputs
        self.trace = trace
        #: trajectory id -> true route edges, for the traced route accuracy.
        self.truth: dict[str, set[int]] = {}
        self._batches = 0

    def _fresh(self) -> list:
        self._batches += 1
        return self.inputs.fleet.generate(
            self.batch, self.inputs.test_rng, days=1,
            id_prefix=f"dense-{self._batches}",
        )

    def warm_up(self, state) -> None:
        self._send(state, self._fresh())

    def measure(self, state, seconds: float, untraced=contextlib.nullcontext) -> Phase:
        """Send requests until *seconds* of service; checks run *untraced*."""
        phase = Phase()
        while phase.duration_s < seconds:
            trips = self._fresh()
            cpu = time.process_time()
            r = self._send(state, trips)
            phase.cpu_s += time.process_time() - cpu
            phase.duration_s += r.latency_s
            phase.items += r.items
            with untraced():
                self._settle(state, phase, r)
            phase.requests.append(r)
        return phase

    def _settle(self, state, phase: Phase, r: Request) -> None:
        model = self.model(state)
        if r.result is None or r.result.ok_count != r.items:
            phase.problems.append(f"request of {r.items} items did not complete")
            phase.failed += r.items - (r.result.ok_count if r.result else 0)
            return
        r.exec_s = sum(lat.exec_s for lat in r.result.latencies)
        phase.problems += checks.check_not_degraded(r.result.summaries)
        for trip, summary in zip(r.trips, r.result.summaries):
            raw = _cleaned(trip.raw)
            if self.compare_serial:
                phase.problems += checks.check_same_summaries(
                    [summary], [model.summarize(raw, k=DENSE_K)]
                )
            symbolic = model.calibrator.calibrate(raw)
            phase.problems += checks.check_tiling(
                [p.span for p in summary.partitions], symbolic.segment_count, DENSE_K
            )
            if len(phase.samples) < max(OPTIMALITY_SAMPLE, ACCURACY_SAMPLE):
                phase.samples.append((trip, raw, summary))
            if self.trace:
                self.truth[trip.raw.trajectory_id] = truth_edges(
                    self.inputs.network, trip
                )
        r.trips = r.result = r.handle = None

    def failures(self, phase: Phase) -> int:
        return phase.failed

    def check(self, state, phase: Phase) -> list[str]:
        """Optimality on the first items, matching accuracy on the first trips."""
        from repro.mapmatch import HMMMapMatcher

        model = self.model(state)
        problems = list(phase.problems)
        for trip, raw, summary in phase.samples[:OPTIMALITY_SAMPLE]:
            problems += checks.check_summary_partition(model, raw, summary, DENSE_K)
        matcher = HMMMapMatcher(self.inputs.network)
        on = total = 0.0
        for trip, _, _ in phase.samples[:ACCURACY_SAMPLE]:
            a, b = checks.on_route(
                matcher.match(trip.raw.points), self.inputs.network,
                truth_edges(self.inputs.network, trip),
            )
            on += a
            total += b
        return problems + checks.check_route_accuracy(
            on, total, checks.ROUTE_ACCURACY_FLOOR
        )


class BatchDense(_DenseClosedLoop):
    name = "batch-dense"
    workers = 1
    batch = DENSE_BATCH
    #: Requests per items_per_s window (about a second of work).
    window = 16
    compare_serial = False

    def setup(self):
        return world.build_model(self.inputs)

    def release(self, state) -> None:
        pass

    def model(self, state):
        return state

    def server(self, state):
        return None

    def _send(self, state, trips) -> Request:
        r = Request(trips, DENSE_K)
        r.sent = time.perf_counter()
        r.result = state.summarize_many([t.raw for t in trips], k=DENSE_K)
        r.latency_s = r.service_s = time.perf_counter() - r.sent
        return r


def _plant_faults(raw, rng: np.random.Generator):
    """Copy *raw* with duplicate samples and teleport glitches planted.

    Faults sit at distinct, non-adjacent interior samples, so each glitch
    is an isolated jump the sanitizer must drop (it accepts a jump only
    after several consecutive ones).
    """
    from repro.geo import GeoPoint
    from repro.trajectory import RawTrajectory, TrajectoryPoint

    points = list(raw.points)
    n_faults = SPARSE_DUPLICATES + SPARSE_GLITCHES
    slots = np.arange(1, len(points) - 1, 2)
    chosen = sorted(rng.choice(slots, size=n_faults, replace=False).tolist())
    kinds = ["dup"] * SPARSE_DUPLICATES + ["glitch"] * SPARSE_GLITCHES
    rng.shuffle(kinds)
    planted = dict(zip(chosen, kinds))
    out = []
    for i, p in enumerate(points):
        out.append(p)
        kind = planted.get(i)
        if kind == "dup":
            out.append(TrajectoryPoint(p.point, p.t))
        elif kind == "glitch":
            bearing = rng.uniform(0.0, 2.0 * math.pi)
            dlat = GLITCH_JUMP_M * math.cos(bearing) / 111_320.0
            dlon = GLITCH_JUMP_M * math.sin(bearing) / (
                111_320.0 * math.cos(math.radians(p.point.lat))
            )
            t = 0.5 * (p.t + points[i + 1].t)
            out.append(TrajectoryPoint(
                GeoPoint(p.point.lat + dlat, p.point.lon + dlon), t
            ))
    return RawTrajectory(out, raw.trajectory_id)


class ServeSparse:
    name = "serve-sparse"
    workers = 1
    window = None

    def __init__(self, inputs: world.Inputs, seed: int, trace: bool) -> None:
        from repro.exceptions import NoPathError
        from repro.simulate import TripConfig, TripSimulator
        from repro.trajectory import sanitize_trajectory

        self.inputs = inputs
        # The pool, its planted faults and its popularity are part of the
        # workload, like the city: per-trip costs differ by 6x, so a pool
        # drawn per seed would move every latency with the seed.  The run's
        # seed draws the request stream.
        rng = np.random.default_rng([world.CITY_SEED, 2])
        simulator = TripSimulator(
            inputs.network, inputs.traffic,
            TripConfig(sample_interval_s=SPARSE_SAMPLE_S, gps_noise_m=SPARSE_NOISE_M),
        )
        self.pool = []
        while len(self.pool) < SPARSE_POOL:
            origin, destination = inputs.fleet.sample_od(rng)
            depart = 3600.0 * rng.uniform(7.0, 20.0)
            try:
                trip = simulator.simulate(
                    origin, destination, depart, rng,
                    trajectory_id=f"sparse-{len(self.pool)}",
                )
            except NoPathError:
                continue
            if not SPARSE_SAMPLES[0] <= len(trip.raw) <= SPARSE_SAMPLES[1]:
                continue
            self.pool.append(trip)
        self.raws = [_plant_faults(t.raw, rng) for t in self.pool]
        # Noise can make a natural sample look like a jump too; the planted
        # faults come on top of what the sanitizer drops from the original.
        self.expected_drops = []
        for trip in self.pool:
            natural = sanitize_trajectory(trip.raw)[1]
            self.expected_drops.append((
                SPARSE_DUPLICATES + natural.dropped_duplicates,
                SPARSE_GLITCHES + natural.dropped_teleports,
            ))
        self.truth = {
            t.raw.trajectory_id: truth_edges(inputs.network, t) for t in self.pool
        }
        weights = 1.0 / np.arange(1, SPARSE_POOL + 1) ** SPARSE_ZIPF
        self.popularity = rng.permutation(weights / weights.sum())
        self.rng = np.random.default_rng([seed, 2])

    def schedule(self, seconds: float) -> list[Request]:
        """A Poisson arrival schedule with exactly ``rate * seconds`` requests.

        Request sizes 1, 2 and 3 come in equal shares, so the number of
        items offered depends on the run length only.
        """
        n = max(1, round(SPARSE_RATE * seconds))
        offsets = np.sort(self.rng.uniform(0.0, seconds, size=n))
        sizes = self.rng.permutation([1 + i % 3 for i in range(n)])
        requests = []
        for index, (offset, size) in enumerate(zip(offsets, sizes)):
            picks = self.rng.choice(SPARSE_POOL, size=int(size), p=self.popularity)
            requests.append(Request(
                [int(i) for i in picks], None if index % 2 == 0 else 2,
                tenant=f"tenant-{int(self.rng.integers(SPARSE_TENANTS))}",
                due=float(offset),
            ))
        return requests

    def setup(self):
        from repro.server import SummarizationServer

        model = world.build_model(self.inputs)
        return model, SummarizationServer(model).start()

    def release(self, state) -> None:
        state[1].stop()

    def model(self, state):
        return state[0]

    def server(self, state):
        return state[1]

    def warm_up(self, state) -> None:
        server = state[1]
        handles = [
            server.submit([raw], k=k) for raw in self.raws for k in (None, 2)
        ]
        for h in handles:
            h.result(timeout=SETTLE_TIMEOUT_S)

    def measure(self, state, seconds: float, untraced=contextlib.nullcontext) -> Phase:
        server = state[1]
        phase = Phase(requests=self.schedule(seconds))
        cpu = time.process_time()
        start = time.perf_counter()
        for r in phase.requests:
            r.due += start
            delay = r.due - time.perf_counter()
            if delay > 0.0:
                time.sleep(delay)
            r.sent = time.perf_counter()
            r.handle = server.submit(
                [self.raws[i] for i in r.trips], tenant=r.tenant, k=r.k
            )
        last_settle = start
        give_up = time.perf_counter() + SETTLE_TIMEOUT_S
        for r in phase.requests:
            if not _await(r.handle, give_up):
                continue
            settled = r.sent + r.handle.queue_wait_s + r.handle.service_s
            r.latency_s = settled - r.due
            r.queue_wait_s = r.handle.queue_wait_s
            r.service_s = r.handle.service_s
            if r.handle.exception(timeout=0) is None:
                r.exec_s = sum(
                    lat.exec_s for lat in r.handle.result(timeout=0).latencies
                )
            last_settle = max(last_settle, settled)
            phase.lags_s.append(r.sent - r.due)
            phase.items += r.items
        phase.duration_s = last_settle - start
        phase.cpu_s = time.process_time() - cpu
        return phase

    def failures(self, phase: Phase) -> int:
        failed = 0
        for r in phase.requests:
            if not r.handle.done or r.handle.exception(timeout=0) is not None:
                failed += r.items
            else:
                failed += r.handle.result(timeout=0).quarantined_count
        return failed

    def check(self, state, phase: Phase) -> list[str]:
        from repro.trajectory import SanitizerConfig, sanitize_trajectory

        model = state[0]
        problems = checks.check_settled(
            [r.handle for r in phase.requests], [r.items for r in phase.requests]
        )
        if problems:
            return problems
        limit = SanitizerConfig().max_speed_kmh
        cleaned = []
        for raw, expected in zip(self.raws, self.expected_drops):
            clean, report = sanitize_trajectory(raw)
            cleaned.append(clean)
            problems += checks.check_sanitized(report, *expected, clean.points, limit)
        reference = {}
        for i, clean in enumerate(cleaned):
            for k in (None, 2):
                reference[i, k] = model.summarize(clean, k=k)
                problems += checks.check_summary_partition(
                    model, clean, reference[i, k], k
                )
        for r in phase.requests:
            result = r.handle.result(timeout=0)
            problems += checks.check_same_summaries(
                result.summaries, [reference[i, r.k] for i in r.trips]
            )
            for i, report in zip(r.trips, result.sanitization):
                problems += checks.check_sanitized(
                    report, *self.expected_drops[i], [], limit
                )
        return problems


class ServeProcess(_DenseClosedLoop):
    name = "serve-process"
    workers = PROCESS_WORKERS
    batch = PROCESS_ITEMS
    #: Requests per items_per_s window (about three seconds of work).
    window = 4
    compare_serial = True

    def setup(self):
        import repro.artifact
        from repro.server import ServerConfig, SummarizationServer

        model = world.build_model(self.inputs)
        info = repro.artifact.ensure_artifact(model)
        server = SummarizationServer(
            model, ServerConfig(executor="process", workers=PROCESS_WORKERS)
        ).start()
        return model, server, info

    def release(self, state) -> None:
        from pathlib import Path

        state[1].stop()
        # The next set-up publishes again instead of finding this file.
        Path(state[2].path).unlink(missing_ok=True)

    def model(self, state):
        return state[0]

    def server(self, state):
        return state[1]

    def _send(self, state, trips) -> Request:
        r = Request(trips, DENSE_K)
        r.sent = time.perf_counter()
        r.handle = state[1].submit([t.raw for t in trips], k=DENSE_K)
        r.handle.wait(SETTLE_TIMEOUT_S)
        r.latency_s = time.perf_counter() - r.sent
        if (_await(r.handle, r.sent + SETTLE_TIMEOUT_S)
                and not checks.check_settled([r.handle], [r.items])):
            r.result = r.handle.result(timeout=0)
            r.queue_wait_s = r.handle.queue_wait_s
            r.service_s = r.handle.service_s
        return r


WORKLOADS = {w.name: w for w in (BatchDense, ServeSparse, ServeProcess)}
