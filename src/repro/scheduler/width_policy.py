"""Deadline-driven sub-network width selection over one service-time model.

The paper's weight store serves many widths; this policy decides *which*
width a given request gets.  The rule is the slimmable-network latency /
accuracy tradeoff made operational: **serve the widest slice predicted to
meet the deadline** — wider means better accuracy, narrower means lower
latency, and the deadline says how much latency the caller will tolerate.

Every time estimate of the control plane — the width choice, admission's
service floor and queue wait, the simulator's executor — is one
:class:`ServiceModel`'s ``seconds(width, rows)``.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.device.cost import subnet_flops
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import SubNetSpec

#: Weight each older observation keeps per new one (memory ~100 batches).
FORGET = 0.99

#: Ridge on the normal equations, relative to their mean diagonal: picks
#: small coefficients among equally good fits when the data do not pin all
#: four (one width seen, or one row count).
RIDGE = 1e-9

#: Every support (set of coefficients free to be non-zero) of a 2- and a
#: 4-coefficient fit, the empty one included.
_SUPPORTS = {
    n: [s for k in range(n + 1) for s in itertools.combinations(range(n), k)] for n in (2, 4)
}


def _fit_on(gram: List[List[float]], rhs: List[float], support: Sequence[int]) -> List[float]:
    """The unconstrained fit with every coefficient off ``support`` held at 0,
    by Gaussian elimination (``gram`` is positive definite).  Plain Python:
    at four unknowns NumPy's call overhead would be most of a refit, and a
    refit runs on every served batch."""
    a = [[gram[i][j] for j in support] + [rhs[i]] for i in support]
    n = len(a)
    for k in range(n):
        for i in range(k + 1, n):
            m = a[i][k] / a[k][k]
            a[i] = [v - m * w for v, w in zip(a[i], a[k])]
    coef = [0.0] * len(rhs)
    for i in reversed(range(n)):
        done = sum(a[i][j] * coef[support[j]] for j in range(i + 1, n))
        coef[support[i]] = (a[i][n] - done) / a[i][i]
    return coef


def _nnls(gram: List[List[float]], rhs: List[float], support: Sequence[int]) -> List[float]:
    """``argmin_{c >= 0} c·G·c - 2 c·h`` for a positive definite ``G``, exactly.

    The optimum is the unconstrained fit on its own support that no
    coefficient off the support would improve (KKT).  ``support`` (the last
    fit's) usually still is it, which costs one solve; else the optimum is
    the best non-negative fit over every support.
    """
    coef = _fit_on(gram, rhs, support)
    tol = 1e-12 * max(map(abs, rhs))
    off = [i for i in range(len(rhs)) if i not in support]
    if min(coef) >= 0 and all(
        rhs[i] - sum(g * c for g, c in zip(gram[i], coef)) <= tol for i in off
    ):
        return coef
    fits = [_fit_on(gram, rhs, s) for s in _SUPPORTS[len(rhs)]]
    return min(
        (c for c in fits if min(c) >= 0),
        key=lambda c: sum(ci * (sum(g * cj for g, cj in zip(row, c)) - 2 * h)
                          for ci, row, h in zip(c, gram, rhs)),
    )


class ServiceModel:
    """``seconds(width, rows) = c · [1, rows, f_w, f_w·rows]`` with ``c >= 0``,
    so it never falls with more rows or more FLOPs; ``f_w`` is the width's
    per-image FLOPs over the largest.

    ``coef`` holds until the first :meth:`observe`, which refits by NNLS on
    exponentially forgotten normal equations.  Until two row counts have
    been seen the fit is over ``[1, f_w]``, scaled linearly in rows.
    """

    def __init__(
        self, flops: Mapping[str, float], coef: Sequence[float] = (0.0, 0.0, 0.0, 0.0)
    ) -> None:
        top = max(flops.values())
        self.features: Dict[str, float] = {w: f / top for w, f in flops.items()}
        if len(coef) != 4 or min(coef) < 0:
            raise ValueError(f"need four non-negative coefficients, got {coef!r}")
        self.coef: Tuple[float, ...] = tuple(float(c) for c in coef)
        self._gram, self._rhs = [[0.0] * 4 for _ in range(4)], [0.0] * 4
        self._rows_seen: set = set()
        self._support: Dict[int, Tuple[int, ...]] = {2: (0, 1), 4: (0, 1, 2, 3)}  # last fit's
        self._lock = threading.Lock()

    def seconds(self, width: str, rows: int) -> float:
        """Predicted seconds of one ``rows``-row batch at ``width``."""
        f = self.features[width]
        c0, c1, c2, c3 = self.coef
        return c0 + c1 * rows + (c2 + c3 * rows) * f

    def observe(self, width: str, rows: int, seconds: float) -> None:
        """Fold one timed ``rows``-row batch at ``width`` into the fit."""
        f = self.features[width]
        if not 0 <= seconds < float("inf"):
            raise ValueError(f"service time must be finite and non-negative, got {seconds}")
        x, seconds = (1.0, float(rows), f, f * rows), float(seconds)
        with self._lock:
            self._gram = [
                [FORGET * g + xi * xj for g, xj in zip(row, x)] for row, xi in zip(self._gram, x)
            ]
            self._rhs = [FORGET * h + seconds * xi for h, xi in zip(self._rhs, x)]
            self._rows_seen.add(rows)
            idx = (0, 1, 2, 3) if len(self._rows_seen) > 1 else (0, 2)
            gram = [[self._gram[i][j] for j in idx] for i in idx]
            ridge = RIDGE * sum(gram[k][k] for k in range(len(idx))) / len(idx)
            for k in range(len(idx)):
                gram[k][k] += ridge
            coef = _nnls(gram, [self._rhs[i] for i in idx], self._support[len(idx)])
            self._support[len(idx)] = tuple(i for i, c in enumerate(coef) if c > 0)
            if len(idx) == 2:  # t = p + q·f at the one row count r: p/r, q/r per row
                (seen,) = self._rows_seen
                coef = [0.0, coef[0] / seen, 0.0, coef[1] / seen]
            self.coef = tuple(coef)


class WidthPolicy:
    """Pick the widest candidate whose :attr:`model` prediction fits the budget.

    ``candidates`` are kept sorted widest-first by per-image FLOPs (a
    compiled plan's own count from ``plan_flops``, else the analytical
    one); ``min_width`` / ``max_width`` name the narrowest / widest ones an
    SLA allows.  ``coef`` seeds the model.
    """

    def __init__(
        self,
        net: SlimmableConvNet,
        candidates: Sequence[SubNetSpec],
        *,
        plan_flops: Optional[Mapping[str, int]] = None,
        coef: Sequence[float] = (0.0, 0.0, 0.0, 0.0),
    ) -> None:
        if not candidates:
            raise ValueError("WidthPolicy needs at least one candidate spec")
        plan_flops = plan_flops or {}
        flops = {
            spec.name: plan_flops.get(spec.name) or subnet_flops(net, spec)
            for spec in candidates
        }
        self.model = ServiceModel(flops, coef)
        # Widest (most FLOPs) first: choose() returns the first fit.
        self.candidates: Tuple[SubNetSpec, ...] = tuple(
            sorted(candidates, key=lambda s: flops[s.name], reverse=True)
        )

    def observe(self, name: str, service_s: float, rows: int = 1) -> None:
        """Record one observed ``rows``-row service time for width ``name``."""
        self.model.observe(name, rows, service_s)

    # -- selection -----------------------------------------------------------

    def allowed(
        self, min_width: Optional[str] = None, max_width: Optional[str] = None
    ) -> List[SubNetSpec]:
        """Candidates within ``[min_width, max_width]``, widest first."""
        lo = self._rank(min_width) if min_width is not None else len(self.candidates) - 1
        hi = self._rank(max_width) if max_width is not None else 0
        if hi > lo:
            raise ValueError(
                f"min_width {min_width!r} is wider than max_width {max_width!r}"
            )
        return list(self.candidates[hi : lo + 1])

    def narrowest(
        self, min_width: Optional[str] = None, max_width: Optional[str] = None
    ) -> SubNetSpec:
        return self.allowed(min_width, max_width)[-1]

    def narrower_than(self, name: str, min_width: Optional[str] = None) -> Optional[SubNetSpec]:
        """The next candidate narrower than ``name`` (for hedged retries)."""
        rank = self._rank(name)
        floor = self._rank(min_width) if min_width is not None else len(self.candidates) - 1
        if rank >= floor:
            return None
        return self.candidates[rank + 1]

    def choose(
        self,
        budget_s: float,
        *,
        rows: int = 1,
        min_width: Optional[str] = None,
        max_width: Optional[str] = None,
    ) -> Tuple[SubNetSpec, float]:
        """Widest allowed spec predicted to serve ``rows`` within ``budget_s``.

        Returns ``(spec, predicted_s)``.  When no allowed width fits, the
        narrowest allowed one is returned (with its honest prediction) —
        rejecting outright is admission's call, not the width policy's.
        """
        allowed = self.allowed(min_width, max_width)
        for spec in allowed:
            predicted = self.model.seconds(spec.name, rows)
            if predicted <= budget_s:
                return spec, predicted
        fallback = allowed[-1]
        return fallback, self.model.seconds(fallback.name, rows)

    def _rank(self, name: Optional[str]) -> int:
        for i, spec in enumerate(self.candidates):
            if spec.name == name:
                return i
        raise KeyError(f"unknown width {name!r}")
