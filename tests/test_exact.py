"""Tests for the exact MMKP solver and the approximation's optimality gap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import AllocationRequest, LagrangianAllocator
from repro.core.exact import InstanceTooLarge, optimality_gap, solve_exact
from repro.core.operating_point import OperatingPoint
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.platform.topology import raptor_lake_i9_13900k

_LAYOUT = ErvLayout(raptor_lake_i9_13900k())
_CAPACITY = _LAYOUT.platform.capacity_vector()


def _point(utility, power, **counts):
    return OperatingPoint(
        erv=_LAYOUT.make(**counts), utility=utility, power=power,
        measured=True, samples=1,
    )


def _request(pid, points, mandatory=False):
    return AllocationRequest(
        pid=pid, points=points,
        max_utility=max(p.utility for p in points),
        mandatory=mandatory,
    )


class TestExactSolver:
    def test_single_app_picks_cheapest(self):
        req = _request(1, [
            _point(10.0, 100.0, P2=8),   # ζ = 100
            _point(5.0, 10.0, E=8),      # ζ = 40
        ])
        choice, cost = solve_exact([req], _CAPACITY)
        assert req.points[choice[0]].erv == _LAYOUT.make(E=8)
        assert cost == pytest.approx(40.0)

    def test_contention_forces_split(self):
        mk = lambda: [
            _point(6.0, 30.0, E=16),
            _point(10.0, 80.0, P2=8),
        ]
        a, b = _request(1, mk()), _request(2, mk())
        choice, cost = solve_exact([a, b], _CAPACITY)
        ervs = {a.points[choice[0]].erv, b.points[choice[1]].erv}
        assert ervs == {_LAYOUT.make(E=16), _LAYOUT.make(P2=8)}

    def test_infeasible_returns_none(self):
        reqs = [
            _request(i, [_point(5.0, 20.0, E=16)]) for i in range(2)
        ]
        assert solve_exact(reqs, _CAPACITY) is None

    def test_mandatory_pins_first_point(self):
        req = _request(1, [
            _point(1.0, 50.0, P2=8),
            _point(1.0, 1.0, E=1),
        ], mandatory=True)
        choice, cost = solve_exact([req], _CAPACITY)
        assert choice[0] == 0

    def test_node_budget_enforced(self):
        rng = np.random.default_rng(0)
        reqs = []
        for pid in range(8):
            points = [
                _point(rng.uniform(1, 10), rng.uniform(1, 100),
                       E=int(rng.integers(1, 4)))
                for _ in range(8)
            ]
            reqs.append(_request(pid, points))
        with pytest.raises(InstanceTooLarge):
            solve_exact(reqs, _CAPACITY, max_nodes=10)


@st.composite
def _small_instance(draw):
    n_apps = draw(st.integers(1, 3))
    requests = []
    for pid in range(n_apps):
        n_points = draw(st.integers(1, 4))
        points = []
        for _ in range(n_points):
            p1 = draw(st.integers(0, 3))
            p2 = draw(st.integers(0, 3))
            e = draw(st.integers(0, 6))
            if p1 + p2 + e == 0:
                e = 1
            points.append(
                OperatingPoint(
                    erv=ExtendedResourceVector(_LAYOUT, (p1, p2, e)),
                    utility=draw(st.floats(0.5, 10.0)),
                    power=draw(st.floats(1.0, 100.0)),
                    measured=True, samples=1,
                )
            )
        requests.append(_request(pid, points))
    return requests


class TestOptimalityGap:
    @given(_small_instance())
    @settings(max_examples=40, deadline=None)
    def test_lagrangian_close_to_optimal_on_small_instances(self, requests):
        allocator = LagrangianAllocator(_LAYOUT.platform, _LAYOUT)
        result = allocator.allocate(requests)
        if not result.feasible:
            return  # exact solver has no answer either (co-allocation)
        approx_choice = []
        for req in requests:
            chosen = result.selections[req.pid].point
            # Match on power too: two points may share ERV and utility and
            # differ only in power, and the gap is a power comparison.
            approx_choice.append(
                next(i for i, p in enumerate(req.points) if p.erv == chosen.erv
                     and p.utility == chosen.utility
                     and p.power == chosen.power)
            )
        gap = optimality_gap(requests, _CAPACITY, approx_choice)
        if gap is not None:
            # The approximation stays within 20 % of optimal on instances
            # this small (it is exact on most of them).
            assert gap <= 0.20 + 1e-9

    @given(_small_instance())
    @settings(max_examples=25, deadline=None)
    def test_exact_never_worse_than_approximation(self, requests):
        exact = solve_exact(requests, _CAPACITY)
        if exact is None:
            return
        _, exact_cost = exact
        allocator = LagrangianAllocator(_LAYOUT.platform, _LAYOUT)
        result = allocator.allocate(requests)
        if not result.feasible:
            return
        approx_cost = sum(
            result.selections[req.pid].point.cost(req.max_utility)
            for req in requests
        )
        assert exact_cost <= approx_cost + 1e-6
