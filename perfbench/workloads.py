"""The three benchmark workloads: cold, stream and serve.

Each workload builds its inputs from the seed, sets its system up,
measures requests for ``seconds`` seconds (timing further set-ups along
the way), then checks the outputs off the clock and returns an
:class:`Outcome`.  Every workload runs ``method="precreccorr"`` on one
worker thread, so the engine takes the clustered route deterministically.

- **cold** -- closed loop, one client.  Each request is a batch fusion
  job on a freshly generated labelled dataset: build a
  :class:`~repro.ScoringSession` (fit the quality model, detect
  correlations) and score every triple.  Nothing carries over between
  requests, so pattern extraction, the joint model and plan compilation
  run in full every time; the delta layer only takes its cold path.
- **stream** -- closed loop, one client.  One durable session follows a
  stream of updates: each step re-draws the claims on ``STREAM_CHURN``
  triples, is appended to the write-ahead log, and is scored through the
  delta layer; every ``STREAM_REFIT_EVERY``-th step refits incrementally
  first.
- **serve** -- open loop at ``SERVE_RATE`` requests per second through
  the async front end (admission, delta/cold lanes, deadline batching)
  with durability attached and a delta refit every
  ``SERVE_REFIT_SECONDS``.  Latency runs from each request's due time,
  so a stall is charged to every request it delays.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, TypeVar

import numpy as np

from repro import ObservationMatrix, ScoringSession
from repro.persist import Checkpointer, RecoveryManager
from repro.serve import AsyncServingFrontend, Overloaded

from host import HostSpeed
from inputs import Dataset, make_dataset, redraw, splice, window
from spans import Tracer

T = TypeVar("T")

SESSION = {"method": "precreccorr", "workers": 1}
#: Set-ups are timed across the run, not back to back, so the median
#: is not hostage to one moment of a shared host: closed loops set up
#: again every SETUP_EVERY seconds between requests; the open loop sets
#: up SERVE_SETUPS times before and after its traffic.
SETUP_EVERY = 1.5
SERVE_SETUPS = 6
#: Length of the time slices the latency percentiles are taken over.
SLICE_SECONDS = 1.0
#: Fused decisions must beat this accuracy against the planted truth.
MIN_ACCURACY = 0.85

COLD_TRIPLES = 1000
COLD_SLICE_SECONDS = 2.0
COLD_CHECK_EVERY = 16
COLD_CHECKS = 8

STREAM_TRIPLES = 3000
STREAM_CHURN = 15
STREAM_REFIT_EVERY = 50
STREAM_CHECKS = 24
#: A step is shorter than a probe, so the host is probed every 0.1 s.
STREAM_PROBE_EVERY = 0.1

SERVE_TRIPLES = 3000
SERVE_WINDOW = 128
SERVE_RATE = 80.0
SERVE_BUDGET = 0.02
SERVE_COLD_EVERY = 4
SERVE_CHURN = 2
SERVE_REFIT_SECONDS = 2.0
SERVE_CHECKS = 48


@dataclass
class Outcome:
    """What one run measured and what its checks found."""

    #: (start offset into the measured phase, latency) per completed
    #: request, in seconds.
    samples: list[tuple[float, float]] = field(default_factory=list)
    slice_seconds: float = SLICE_SECONDS
    #: ``perf_counter`` at the start of the measured phase.
    begin: float = 0.0
    #: Reference-kernel probes that scale closed-loop times and set-ups.
    host: HostSpeed = field(default_factory=HostSpeed)
    #: Set-up times, scaled to the nominal host speed, and as measured.
    setups: list[float] = field(default_factory=list)
    raw_setups: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Wall-clock length of the measured phase.
    elapsed: float = 0.0
    #: Open loop: requests arrive on a schedule, not after the last reply.
    open_loop: bool = False
    problems: list[str] = field(default_factory=list)
    #: Per-layer figures the workload measures itself (not from spans).
    layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _check_scores(outcome: Outcome, what: str, scores: np.ndarray, n: int) -> None:
    if scores.shape != (n,):
        outcome.problems.append(f"{what}: {scores.shape} scores for {n} triples")
    elif not np.all(np.isfinite(scores)) or scores.min() < 0 or scores.max() > 1:
        outcome.problems.append(f"{what}: scores outside [0, 1]")


def _check_equal(outcome: Outcome, what: str, got: np.ndarray, want: np.ndarray) -> None:
    if got.shape != want.shape or not np.array_equal(got, want):
        diff = float(np.abs(got - want).max()) if got.shape == want.shape else None
        outcome.problems.append(f"{what}: differs from the reference (max |diff| {diff})")


def _check_accuracy(outcome: Outcome, what: str, scores: np.ndarray, labels: np.ndarray) -> None:
    accuracy = float(np.mean((scores >= 0.5) == labels))
    if accuracy < MIN_ACCURACY:
        outcome.problems.append(f"{what}: accuracy {accuracy:.3f} < {MIN_ACCURACY}")


def _twin(observations: ObservationMatrix, labels: np.ndarray) -> ScoringSession:
    """An independent session that scores through the plain fuser path."""
    return ScoringSession(observations, labels, delta="off", **SESSION)


def _timed(outcome: Outcome, build: Callable[[], T], tracer: Optional[Tracer] = None) -> T:
    """Run one set-up and record how long it took, as measured and scaled
    to the nominal host speed (never traced)."""
    if tracer is not None:
        tracer.suspended = True
    try:
        scale = outcome.host.scale_now()
        start = time.perf_counter()
        built = build()
        took = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.suspended = False
    outcome.setups.append(took * scale)
    outcome.raw_setups.append(took)
    return built


# ----------------------------------------------------------------------
# cold
# ----------------------------------------------------------------------


def run_cold(seed: int, seconds: float, tracer: Optional[Tracer], work: Path) -> Outcome:
    rng = np.random.default_rng(seed)
    # A request takes long enough to probe the host after every one.
    outcome = Outcome(slice_seconds=COLD_SLICE_SECONDS, host=HostSpeed(every=0.0))

    def job(data: Dataset) -> np.ndarray:
        session = ScoringSession(data.observations, data.labels, **SESSION)
        try:
            return session.score(data.observations)
        finally:
            session.close()

    first = make_dataset(rng, COLD_TRIPLES)
    samples: list[tuple[int, Dataset, np.ndarray]] = []
    if tracer is not None:
        tracer.install()
    begin = outcome.begin = time.perf_counter()
    deadline = begin + seconds
    next_setup = begin
    k = 0
    try:
        while time.perf_counter() < deadline:
            if time.perf_counter() >= next_setup:
                _timed(outcome, lambda: job(first), tracer)
                next_setup += SETUP_EVERY
            data = make_dataset(rng, COLD_TRIPLES)
            if tracer is not None:
                tracer.set_request(k)
            start = time.perf_counter()
            scores = job(data)
            latency = time.perf_counter() - start
            outcome.samples.append((start - begin, latency))
            outcome.attempted += 1
            _check_scores(outcome, f"cold request {k}", scores, data.observations.n_triples)
            _check_accuracy(outcome, f"cold request {k}", scores, data.labels)
            if k % COLD_CHECK_EVERY == 0:
                samples.append((k, data, scores))
            k += 1
            outcome.host.maybe_probe()
        outcome.elapsed = time.perf_counter() - begin
    finally:
        if tracer is not None:
            tracer.uninstall()

    # The delta layer's cold path must equal the plain fuser bit for bit.
    for k, data, scores in samples[:COLD_CHECKS]:
        twin = _twin(data.observations, data.labels)
        try:
            _check_equal(outcome, f"cold request {k}", scores, twin.score(data.observations))
        finally:
            twin.close()
    outcome.layer["delta_lane_share"] = (0.0, "ratio")
    return outcome


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------


@dataclass
class Durable:
    """A fitted session with a checkpointer attached, warmed by one score."""

    session: ScoringSession
    checkpointer: Checkpointer
    directory: Path

    @classmethod
    def build(cls, data: Dataset, directory: Path) -> "Durable":
        session = ScoringSession(data.observations, data.labels, **SESSION)
        checkpointer = Checkpointer.attach(
            session, data.observations, data.labels, directory
        )
        session.score(data.observations)
        return cls(session, checkpointer, directory)

    def close(self) -> None:
        self.checkpointer.close()
        self.session.attach_checkpointer(None)
        self.session.close()


def _spare(
    outcome: Outcome, data: Dataset, work: Path, tracer: Optional[Tracer] = None
) -> None:
    """Time one more durable set-up in a fresh directory, then drop it."""
    directory = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    _timed(outcome, lambda: Durable.build(data, directory), tracer).close()
    shutil.rmtree(directory, ignore_errors=True)


def run_stream(seed: int, seconds: float, tracer: Optional[Tracer], work: Path) -> Outcome:
    rng = np.random.default_rng(seed)
    base = make_dataset(rng, STREAM_TRIPLES)
    labels = base.labels
    outcome = Outcome(host=HostSpeed(every=STREAM_PROBE_EVERY))
    live = _timed(outcome, lambda: Durable.build(base, work / "live"))
    session, checkpointer = live.session, live.checkpointer

    fits = [base.observations]  # generation -> its training matrix
    samples: list[tuple[int, int, ObservationMatrix, np.ndarray]] = []
    current = base.observations
    scores = np.empty(0)
    if tracer is not None:
        tracer.install()
    begin = outcome.begin = time.perf_counter()
    deadline = begin + seconds
    next_setup = begin + SETUP_EVERY
    step = 0
    try:
        while time.perf_counter() < deadline:
            if time.perf_counter() >= next_setup:
                _spare(outcome, base, work, tracer)
                next_setup += SETUP_EVERY
            step += 1
            current = redraw(base, current, labels, rng, STREAM_CHURN)
            refit = step % STREAM_REFIT_EVERY == 0
            if tracer is not None:
                tracer.set_request(step)
            start = time.perf_counter()
            checkpointer.log_mutation(current, step=step - 1)
            if refit:
                session.refit_delta(current, labels)
            scores = session.score(current)
            latency = time.perf_counter() - start
            outcome.samples.append((start - begin, latency))
            outcome.attempted += 1
            if refit:
                fits.append(current)
            if refit or step % 37 == 1:
                samples.append((step, len(fits) - 1, current, scores))
            outcome.host.maybe_probe()
        outcome.elapsed = time.perf_counter() - begin
    finally:
        if tracer is not None:
            tracer.uninstall()
        live.close()

    # Delta scores and delta refits must equal a cold session fitted on
    # the same generation's input, bit for bit.
    spread = np.linspace(0, len(samples) - 1, min(STREAM_CHECKS, len(samples)))
    picked = [samples[i] for i in spread.astype(int)]
    twins: dict[int, ScoringSession] = {}
    try:
        for at, generation, matrix, served in picked:
            _check_scores(outcome, f"stream step {at}", served, matrix.n_triples)
            twin = twins.get(generation)
            if twin is None:
                twin = twins[generation] = _twin(fits[generation], labels)
            _check_equal(outcome, f"stream step {at}", served, twin.score(matrix))
    finally:
        for twin in twins.values():
            twin.close()
    _check_accuracy(outcome, "stream last step", scores, labels)

    # The log must rebuild the final generation: recover and rescore.
    recovered = RecoveryManager(live.directory).recover(workers=1)
    try:
        if recovered.generation != len(fits) - 1:
            outcome.problems.append(
                f"recovered generation {recovered.generation}, expected {len(fits) - 1}"
            )
        _check_equal(outcome, "recovered session", recovered.session.score(current), scores)
    finally:
        recovered.session.close()
    outcome.notes.append(f"{step} steps, {len(fits) - 1} refits")
    outcome.layer["delta_lane_share"] = (0.0, "ratio")
    return outcome


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def _serve_trace(
    base: Dataset, rng: np.random.Generator, count: int
) -> tuple[list[ObservationMatrix], dict[int, ObservationMatrix]]:
    """Requests plus the refit inputs, keyed by the request index they follow.

    Three requests in four re-read the leading window as it drifts
    (``SERVE_CHURN`` re-drawn triples each): delta-lane traffic.  The
    fourth reads a window elsewhere in the matrix: cold-lane traffic.
    """
    observations = base.observations
    n = observations.n_triples
    lead = window(observations, 0, SERVE_WINDOW)
    lead_labels = base.labels[:SERVE_WINDOW]
    per_refit = int(SERVE_RATE * SERVE_REFIT_SECONDS)
    requests = []
    refits = {}
    for k in range(count):
        if k % SERVE_COLD_EVERY == SERVE_COLD_EVERY - 1:
            start = SERVE_WINDOW + int(rng.integers(0, n - 2 * SERVE_WINDOW))
            requests.append(window(observations, start, SERVE_WINDOW))
        else:
            lead = redraw(base, lead, lead_labels, rng, SERVE_CHURN)
            requests.append(lead)
        if (k + 1) % per_refit == 0:
            refits[k + 1] = splice(observations, 0, lead)
    return requests, refits


def run_serve(seed: int, seconds: float, tracer: Optional[Tracer], work: Path) -> Outcome:
    rng = np.random.default_rng(seed)
    base = make_dataset(rng, SERVE_TRIPLES)
    labels = base.labels
    count = max(1, int(SERVE_RATE * seconds))
    requests, refits = _serve_trace(base, rng, count)
    outcome = Outcome()
    for _ in range(SERVE_SETUPS - 1):
        _spare(outcome, base, work)
    live = _timed(outcome, lambda: Durable.build(base, work / "live"))
    frontend = AsyncServingFrontend(
        live.session,
        max_batch_requests=32,
        default_latency_budget=SERVE_BUDGET,
        checkpointer=live.checkpointer,
    )
    results: list = [None] * count
    samples: list[Optional[tuple[float, float]]] = [None] * count
    lags: list[float] = []
    errors: list[str] = []

    async def drive() -> float:
        async with frontend:
            loop = asyncio.get_running_loop()
            origin = loop.time() + 0.05

            async def fire(k: int) -> None:
                due = origin + k / SERVE_RATE
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append(loop.time() - due)
                try:
                    results[k] = await frontend.submit_detailed(
                        requests[k], latency_budget=SERVE_BUDGET
                    )
                except Overloaded as error:
                    errors.append(f"request {k} shed: {error}")
                    return
                except Exception as error:  # counted as failed, the run goes on
                    errors.append(f"request {k} failed: {error!r}")
                    return
                samples[k] = (due - origin, loop.time() - due)

            async def refit(after: int, matrix: ObservationMatrix) -> None:
                delay = origin + after / SERVE_RATE - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                await frontend.refit(matrix, labels, mode="delta")

            tasks = [asyncio.ensure_future(fire(k)) for k in range(count)]
            tasks += [
                asyncio.ensure_future(refit(after, matrix))
                for after, matrix in refits.items() if after < count
            ]
            await asyncio.gather(*tasks)
            return loop.time() - origin

    if tracer is not None:
        tracer.install()
    try:
        outcome.elapsed = asyncio.run(drive())
    finally:
        if tracer is not None:
            tracer.uninstall()
        live.close()
    for _ in range(SERVE_SETUPS):
        _spare(outcome, base, work)

    outcome.attempted = count
    outcome.failed = len(errors)
    outcome.problems.extend(errors[:5])
    outcome.samples = [value for value in samples if value is not None]
    outcome.slice_seconds = SERVE_REFIT_SECONDS
    outcome.open_loop = True
    served = [(k, result) for k, result in enumerate(results) if result is not None]
    delta_lane = sum(1 for _, result in served if result.lane == "delta")
    outcome.layer["delta_lane_share"] = (delta_lane / max(len(served), 1), "ratio")

    # Served scores must equal a cold session of the generation that
    # served them (delta refits are bit-identical to cold fits).
    fits = [base.observations] + [refits[after] for after in sorted(refits) if after < count]
    twins: dict[int, ScoringSession] = {}
    try:
        for i in np.linspace(0, len(served) - 1, min(SERVE_CHECKS, len(served))).astype(int):
            k, result = served[i]
            _check_scores(outcome, f"serve request {k}", result.scores, SERVE_WINDOW)
            twin = twins.get(result.generation)
            if twin is None:
                twin = twins[result.generation] = _twin(fits[result.generation], labels)
            _check_equal(outcome, f"serve request {k}", result.scores, twin.score(requests[k]))
    finally:
        for twin in twins.values():
            twin.close()
    if lags:
        outcome.notes.append(
            f"generator lag median {statistics.median(lags) * 1e3:.3f} ms, "
            f"max {max(lags) * 1e3:.3f} ms"
        )
    return outcome


WORKLOADS: dict[str, Callable[[int, float, Optional[Tracer], Path], Outcome]] = {
    "cold": run_cold,
    "stream": run_stream,
    "serve": run_serve,
}


def run(name: str, seed: int, seconds: float, tracer: Optional[Tracer], root: Path) -> Outcome:
    """Run workload ``name`` with its durable state in a scratch directory."""
    root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root))
    try:
        return WORKLOADS[name](seed, seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass
