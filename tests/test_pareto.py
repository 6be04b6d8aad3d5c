"""Tests for Pareto dominance, fronts, IGD, and the common-point ratio."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.allocator import (
    HYSTERESIS,
    AllocationRequest,
    LagrangianAllocator,
)
from repro.core.cost import batch_costs
from repro.core.operating_point import OperatingPoint
from repro.core.pareto import (
    common_point_ratio,
    dominated_mask,
    dominates,
    igd,
    pareto_front,
    pareto_front_indices,
)
from repro.core.resource_vector import ErvLayout
from repro.platform.topology import raptor_lake_i9_13900k


def _pairwise_dominated_mask(points):
    """Brute-force oracle: the O(n² · m) all-pairs dominance check."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return np.zeros(0, dtype=bool)
    # le[j, i]: row j is <= row i in every objective;
    # lt[j, i]: row j is <  row i in at least one objective.
    with np.errstate(invalid="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
    le = (diff <= 0).all(axis=2)
    lt = (diff < 0).any(axis=2)
    return (le & lt).any(axis=0)


def _intel_table(seed):
    """Every ERV of the Intel platform with seeded utility and power."""
    layout = ErvLayout(raptor_lake_i9_13900k())
    ervs = layout.enumerate_all()
    rng = np.random.default_rng(seed)
    counts = np.array([e.counts for e in ervs], dtype=float)
    resources = counts @ layout.type_projection()
    # Power grows with the cores used; utility saturates, with noise and
    # coarse rounding so that cost ties are common.
    power = np.round(
        5.0 + resources @ [6.0, 2.0] + rng.normal(0.0, 4.0, len(ervs)).clip(-4, 4)
    )
    utility = np.round(
        np.sqrt(resources @ [2.0, 1.0]) * rng.uniform(0.8, 1.2, len(ervs)), 1
    )
    return layout, ervs, resources, power, utility


class TestDominates:
    def test_strictly_better(self):
        assert dominates([1, 1], [2, 2])

    def test_better_in_one_equal_in_other(self):
        assert dominates([1, 2], [2, 2])

    def test_equal_does_not_dominate(self):
        assert not dominates([1, 1], [1, 1])

    def test_trade_off_does_not_dominate(self):
        assert not dominates([1, 3], [2, 2])
        assert not dominates([2, 2], [1, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates([1], [1, 2])


class TestParetoFront:
    def test_simple_front(self):
        pts = np.array([[1, 4], [2, 2], [4, 1], [3, 3], [4, 4]])
        idx = pareto_front_indices(pts)
        assert set(idx) == {0, 1, 2}

    def test_single_point(self):
        assert pareto_front_indices(np.array([[1.0, 2.0]])) == [0]

    def test_duplicates_all_kept(self):
        pts = np.array([[1, 1], [1, 1], [2, 2]])
        assert set(pareto_front_indices(pts)) == {0, 1}

    def test_front_values(self):
        pts = np.array([[1, 4], [2, 2], [3, 3]])
        front = pareto_front(pts)
        assert front.shape == (2, 2)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            pareto_front_indices(np.array([1.0, 2.0]))

    def test_four_objective_front(self):
        # The Fig. 1 filter: time, energy, P-cores, E-cores.
        pts = np.array(
            [
                [10.0, 100.0, 8, 16],
                [12.0, 60.0, 0, 16],
                [11.0, 120.0, 8, 16],
            ]
        )
        assert set(pareto_front_indices(pts)) == {0, 1}


class TestDominatedMaskParity:
    """The front-extraction kernel against the all-pairs oracle."""

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 17, 64, 200])
    def test_matches_oracle_on_tie_heavy_inputs(self, n, m):
        rng = np.random.default_rng(1000 * n + m)
        for levels in (2, 3, 5, 1000):
            pts = rng.integers(0, levels, size=(n, m)).astype(float)
            np.testing.assert_array_equal(
                dominated_mask(pts), _pairwise_dominated_mask(pts)
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_oracle_with_duplicated_rows(self, m):
        rng = np.random.default_rng(m)
        for _ in range(50):
            base = rng.uniform(0.0, 10.0, size=(int(rng.integers(1, 30)), m))
            dup = base[rng.integers(0, len(base), size=len(base))]
            pts = rng.permutation(np.vstack([base, dup, base[:1]]))
            np.testing.assert_array_equal(
                dominated_mask(pts), _pairwise_dominated_mask(pts)
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oracle_on_full_intel_table(self, seed):
        _, ervs, resources, power, utility = _intel_table(seed)
        pts = np.column_stack(
            [batch_costs(power, utility, float(utility.max())), resources]
        )
        assert pts.shape == (764, 3)
        mask = dominated_mask(pts)
        np.testing.assert_array_equal(mask, _pairwise_dominated_mask(pts))
        assert 0 < (~mask).sum() < len(ervs)

    def test_shared_infinity_compares_directly(self):
        # Rows sharing +inf (or -inf) in a column tie there, so the
        # other columns decide.  The pairwise oracle computed
        # inf - inf = nan and never let such rows dominate each other.
        pts = np.array([[np.inf, 1.0], [np.inf, 2.0], [-np.inf, 5.0], [-np.inf, 6.0]])
        assert dominated_mask(pts).tolist() == [False, True, False, True]
        assert not _pairwise_dominated_mask(pts).any()

    def test_nan_rows_neither_dominate_nor_are_dominated(self):
        pts = np.array([[1.0, 1.0], [np.nan, 0.0], [2.0, np.nan], [2.0, 2.0]])
        assert dominated_mask(pts).tolist() == [False, False, False, True]
        np.testing.assert_array_equal(
            dominated_mask(pts), _pairwise_dominated_mask(pts)
        )


class TestAllocatorPruning:
    def test_request_rows_keep_exactly_the_oracle_front(self):
        """Four apps over the full Intel table, one with a hysteresis discount."""
        requests, oracle_keep = [], []
        for pid in range(4):
            layout, ervs, resources, power, utility = _intel_table(10 + pid)
            max_utility = float(utility.max())
            costs = batch_costs(power, utility, max_utility)
            preferred = None
            if pid == 2:
                # Prefer a point that is pruned without the discount but
                # on the front with it.
                plain = _pairwise_dominated_mask(np.column_stack([costs, resources]))
                for i in np.flatnonzero(plain):
                    discounted = costs.copy()
                    discounted[i] *= HYSTERESIS
                    oracle = _pairwise_dominated_mask(
                        np.column_stack([discounted, resources])
                    )
                    if not oracle[i]:
                        preferred, costs = ervs[i], discounted
                        break
                assert preferred is not None
            mask = _pairwise_dominated_mask(np.column_stack([costs, resources]))
            oracle_keep.append(np.flatnonzero(~mask))
            points = [
                OperatingPoint(erv=e, utility=float(u), power=float(p),
                               measured=True, samples=1)
                for e, u, p in zip(ervs, utility, power)
            ]
            requests.append(AllocationRequest(
                pid=pid, points=points, max_utility=max_utility,
                preferred_erv=preferred,
            ))
        allocator = LagrangianAllocator(layout.platform, layout)
        allocator.allocate(requests)
        for req, want in zip(requests, oracle_keep):
            _, _, keep = allocator._request_rows(req, allocator._request_key(req))
            np.testing.assert_array_equal(keep, want)
        n_points = sum(len(req.points) for req in requests)
        assert allocator.stats.points_pruned == n_points - sum(map(len, oracle_keep))


class TestIgd:
    def test_identical_fronts_zero(self):
        ref = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert igd(ref, ref) == pytest.approx(0.0)

    def test_farther_front_larger_igd(self):
        ref = np.array([[0.0, 1.0], [1.0, 0.0]])
        near = np.array([[0.1, 1.0], [1.0, 0.1]])
        far = np.array([[0.5, 1.0], [1.0, 0.5]])
        assert igd(ref, near) < igd(ref, far)

    def test_empty_approximation_infinite(self):
        ref = np.array([[1.0, 1.0]])
        assert igd(ref, np.empty((0, 2))) == float("inf")

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            igd(np.empty((0, 2)), np.array([[1.0, 1.0]]))

    def test_subset_of_reference_is_partial_match(self):
        ref = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        approx = ref[:1]
        assert igd(ref, approx) > 0


class TestCommonRatio:
    def test_full_overlap(self):
        assert common_point_ratio([1, 2, 3], [3, 2, 1]) == 1.0

    def test_partial_overlap(self):
        assert common_point_ratio([1, 2, 3, 4], [1, 2]) == 0.5

    def test_no_overlap(self):
        assert common_point_ratio([1, 2], [3]) == 0.0

    def test_extra_approx_points_do_not_boost(self):
        assert common_point_ratio([1], [1, 2, 3]) == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            common_point_ratio([], [1])


_points = arrays(
    float,
    st.tuples(st.integers(1, 12), st.just(3)),
    elements=st.floats(0, 100, allow_nan=False),
)


class TestParetoProperties:
    @given(_points)
    @settings(max_examples=60)
    def test_front_is_nonempty_and_mutually_nondominated(self, pts):
        idx = pareto_front_indices(pts)
        assert idx
        for i in idx:
            for j in idx:
                if i != j:
                    assert not dominates(pts[j], pts[i])

    @given(_points)
    @settings(max_examples=60)
    def test_every_point_dominated_by_or_on_front(self, pts):
        idx = set(pareto_front_indices(pts))
        for i in range(len(pts)):
            if i in idx:
                continue
            assert any(dominates(pts[j], pts[i]) for j in idx)

    @given(_points)
    @settings(max_examples=40)
    def test_front_idempotent(self, pts):
        front = pareto_front(pts)
        again = pareto_front(front)
        assert sorted(map(tuple, again)) == sorted(map(tuple, front))

    @given(_points)
    @settings(max_examples=40)
    def test_igd_of_front_against_itself_is_zero(self, pts):
        front = pareto_front(pts)
        assert igd(front, front) == pytest.approx(0.0, abs=1e-12)
