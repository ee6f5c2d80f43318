"""The scenario zoo: named, seeded, parameterised traffic generators.

Each generator turns a :class:`TraceSpec` into a deterministic request
stream (:class:`~repro.trace.recorder.RequestSpec` list) covering one
traffic shape:

* ``diurnal`` — a smooth sinusoidal wave between trough and peak rates
  (the daily load curve, compressed to seconds);
* ``heavy_tail`` — Poisson *session* starts with Pareto-tailed session
  lengths: most sessions send a couple of requests, a few send dozens
  back-to-back;
* ``bursts`` — a steady background plus Poisson-cluster bursts (tens of
  requests landing within milliseconds, correlated, not independent);
* ``adversarial`` — a bimodal deadline mix where a slice of requests
  carries near-impossible deadlines, some additionally pinned to wide
  sub-networks (worst case for admission and width selection);
* ``multi_tenant`` — three tenants blending priorities: bulk traffic
  with generous deadlines, interactive traffic with tight ones, and a
  small critical-priority stream that must never be load-shed;
* ``steady_burst`` — three Poisson phases, steady → overload burst →
  steady: the burst rate sits above what the widest sub-network can
  serve and below what the narrowest can, so a width-oblivious server
  misses deadlines the scheduler keeps (``steady_burst_kill`` in
  :mod:`repro.faults.scenarios` additionally kills a replica mid-burst).

Determinism: every draw flows from ``derive_seed(seed, "scenario",
name, ...)`` in a fixed order, so ``TraceSpec.generate()`` is
bit-reproducible — the pinned corpus under ``benchmarks/traces/`` is
regenerated and byte-compared in CI to prove it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.trace.recorder import RequestSpec
from repro.utils.rng import derive_seed, make_rng


@dataclass(frozen=True)
class TraceSpec:
    """A named, seeded, parameterised scenario."""

    name: str
    generator: str
    seed: int = 0
    duration_s: float = 1.2
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(
                f"unknown generator {self.generator!r} "
                f"(known: {sorted(GENERATORS)})"
            )
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")

    def generate(self) -> List[RequestSpec]:
        """The deterministic request stream for this spec."""
        raw = GENERATORS[self.generator](self)
        # Arrival order defines request ids; ties broken by draw order so
        # the ordering (and therefore the artifact bytes) is total.
        ordered = sorted(enumerate(raw), key=lambda pair: (pair[1][0], pair[0]))
        out: List[RequestSpec] = []
        for rid, (_, (arrival, fields)) in enumerate(ordered):
            out.append(
                RequestSpec(
                    request_id=rid,
                    arrival_s=arrival,
                    payload_seed=derive_seed(self.seed, "payload", self.name, rid),
                    **fields,
                )
            )
        return out

    def rng(self, *labels) -> np.random.Generator:
        return make_rng(derive_seed(self.seed, "scenario", self.name, *labels))

    def meta(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "generator": self.generator,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "params": dict(self.params),
        }


#: A generator returns draws as ``(arrival_s, field_dict)`` pairs; the
#: TraceSpec assigns ids and payload seeds after sorting by arrival.
_Draw = Tuple[float, Dict[str, object]]


def _poisson_arrivals(rng, rate: float, start: float, end: float) -> List[float]:
    times: List[float] = []
    t = start
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= end:
            return times
        times.append(t)


def _thinned_arrivals(
    rng, rate_fn: Callable[[float], float], max_rate: float, duration: float
) -> List[float]:
    """Non-homogeneous Poisson via thinning (exact, deterministic)."""
    times: List[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / max_rate)
        if t >= duration:
            return times
        if rng.uniform() * max_rate < rate_fn(t):
            times.append(t)


def _diurnal(spec: TraceSpec) -> List[_Draw]:
    p = spec.params
    trough = float(p.get("trough_rps", 150.0))
    peak = float(p.get("peak_rps", 700.0))
    periods = float(p.get("periods", 2.0))
    deadline = float(p.get("deadline_s", 0.05))
    rng = spec.rng("arrivals")

    def rate(t: float) -> float:
        phase = 2.0 * math.pi * periods * t / spec.duration_s
        return trough + (peak - trough) * 0.5 * (1.0 - math.cos(phase))

    return [
        (t, {"deadline_s": deadline})
        for t in _thinned_arrivals(rng, rate, peak, spec.duration_s)
    ]


def _heavy_tail(spec: TraceSpec) -> List[_Draw]:
    p = spec.params
    session_rps = float(p.get("session_rps", 60.0))
    alpha = float(p.get("pareto_alpha", 1.3))
    max_len = int(p.get("max_session_len", 48))
    gap = float(p.get("intra_gap_s", 0.006))
    deadline = float(p.get("deadline_s", 0.045))
    rng = spec.rng("sessions")
    draws: List[_Draw] = []
    for start in _poisson_arrivals(rng, session_rps, 0.0, spec.duration_s):
        length = min(max_len, 1 + int(rng.pareto(alpha)))
        for k in range(length):
            t = start + k * gap
            if t >= spec.duration_s:
                break
            draws.append((t, {"deadline_s": deadline}))
    return draws


def _bursts(spec: TraceSpec) -> List[_Draw]:
    p = spec.params
    base_rps = float(p.get("base_rps", 200.0))
    burst_rps = float(p.get("burst_events_per_s", 3.0))
    mean_size = float(p.get("mean_burst_size", 24.0))
    spread = float(p.get("burst_spread_s", 0.012))
    deadline = float(p.get("deadline_s", 0.04))
    rng = spec.rng("arrivals")
    draws: List[_Draw] = [
        (t, {"deadline_s": deadline})
        for t in _poisson_arrivals(rng, base_rps, 0.0, spec.duration_s)
    ]
    for centre in _poisson_arrivals(rng, burst_rps, 0.0, spec.duration_s):
        size = 1 + rng.geometric(1.0 / mean_size)
        for _ in range(size):
            t = centre + rng.exponential(spread)
            if t < spec.duration_s:
                draws.append((t, {"deadline_s": deadline}))
    return draws


def _adversarial(spec: TraceSpec) -> List[_Draw]:
    p = spec.params
    rate = float(p.get("rate_rps", 350.0))
    tight_frac = float(p.get("tight_frac", 0.4))
    tight = float(p.get("tight_deadline_s", 0.008))
    generous = float(p.get("generous_deadline_s", 0.08))
    pin_frac = float(p.get("pin_wide_frac", 0.5))  # of the tight slice
    pin_width = p.get("pin_width", "lower75")
    rng = spec.rng("arrivals")
    draws: List[_Draw] = []
    for t in _poisson_arrivals(rng, rate, 0.0, spec.duration_s):
        fields: Dict[str, object]
        if rng.uniform() < tight_frac:
            fields = {"deadline_s": tight}
            if rng.uniform() < pin_frac:
                # A tight deadline that *also* demands a wide slice: the
                # plane must reject it fast rather than melt down trying.
                fields["min_width"] = pin_width
        else:
            fields = {"deadline_s": generous}
        draws.append((t, fields))
    return draws


def _multi_tenant(spec: TraceSpec) -> List[_Draw]:
    p = spec.params
    tenants = p.get(
        "tenants",
        (
            {"tenant": "bulk", "rps": 150.0, "deadline_s": 0.15, "priority": 0,
             "max_width": None},
            {"tenant": "interactive", "rps": 300.0, "deadline_s": 0.035, "priority": 0,
             "max_width": None},
            {"tenant": "critical", "rps": 50.0, "deadline_s": 0.03, "priority": 1,
             "max_width": None},
        ),
    )
    draws: List[_Draw] = []
    for tenant in tenants:
        rng = spec.rng("tenant", tenant["tenant"])
        for t in _poisson_arrivals(rng, float(tenant["rps"]), 0.0, spec.duration_s):
            fields: Dict[str, object] = {
                "deadline_s": float(tenant["deadline_s"]),
                "priority": int(tenant.get("priority", 0)),
                "tenant": tenant["tenant"],
            }
            if tenant.get("max_width"):
                fields["max_width"] = tenant["max_width"]
            draws.append((t, fields))
    return draws


def _steady_burst(spec: TraceSpec) -> List[_Draw]:
    p = spec.params
    base_rps = float(p.get("base_rps", 300.0))
    burst_rps = float(p.get("burst_rps", 2500.0))
    burst_from = float(p.get("burst_from_s", 0.25))
    burst_until = burst_from + float(p.get("burst_s", 0.25))
    deadline = float(p.get("deadline_s", 0.04))
    rng = spec.rng("arrivals")
    # Each phase restarts the exponential clock at its own boundary.
    return [
        (t, {"deadline_s": deadline})
        for rate, start, end in (
            (base_rps, 0.0, burst_from),
            (burst_rps, burst_from, burst_until),
            (base_rps, burst_until, spec.duration_s),
        )
        for t in _poisson_arrivals(rng, rate, start, end)
    ]


GENERATORS: Dict[str, Callable[[TraceSpec], List[_Draw]]] = {
    "diurnal": _diurnal,
    "heavy_tail": _heavy_tail,
    "bursts": _bursts,
    "adversarial": _adversarial,
    "multi_tenant": _multi_tenant,
    "steady_burst": _steady_burst,
}


#: The pinned corpus: one reference parameterisation per generator.
#: ``benchmarks/traces/<name>.jsonl`` holds the serialised streams;
#: regenerating these specs must reproduce those files byte-for-byte.
SCENARIOS: Dict[str, TraceSpec] = {
    spec.name: spec
    for spec in (
        TraceSpec("diurnal", "diurnal", seed=11),
        TraceSpec("heavy_tail", "heavy_tail", seed=12),
        TraceSpec("bursts", "bursts", seed=13),
        TraceSpec("adversarial", "adversarial", seed=14),
        TraceSpec("multi_tenant", "multi_tenant", seed=15),
    )
}


#: Extension registry for scenario *variants* (e.g. the faulty zoo in
#: :mod:`repro.faults.scenarios`).  Kept separate from :data:`SCENARIOS`
#: on purpose: the pinned corpus and its CI byte-comparison iterate the
#: reference five only, so registering a variant can never invalidate a
#: committed artifact.
EXTRA_SCENARIOS: Dict[str, TraceSpec] = {}


def register_scenario(spec: TraceSpec) -> TraceSpec:
    """Add a variant spec to the lookup space of :func:`get_scenario`."""
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is pinned; pick another name")
    existing = EXTRA_SCENARIOS.get(spec.name)
    if existing is not None and existing != spec:
        raise ValueError(f"scenario {spec.name!r} already registered differently")
    EXTRA_SCENARIOS[spec.name] = spec
    return spec


register_scenario(TraceSpec("steady_burst", "steady_burst", seed=16, duration_s=0.75))


def get_scenario(name: str) -> TraceSpec:
    spec = SCENARIOS.get(name) or EXTRA_SCENARIOS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown scenario {name!r} "
            f"(known: {sorted(SCENARIOS) + sorted(EXTRA_SCENARIOS)})"
        )
    return spec
