import collections
import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdsi.caratheodory as caratheodory_module
import rdsi.extended as extended_module
import rdsi.solver as solver_module
from conftest import (
    binary_entropy,
    bsc_pair,
    grouped_instance,
    hamming,
    hamming_spec,
    ladder_instance,
    random_binary_instance,
)
from oracle import brute_force_oracle
from rdsi.cli import main
from rdsi.errors import AssumptionError, InfeasibleError, InvalidInstanceError, ResourceCapError
from rdsi.extended import solve_rate_ext
from rdsi.model import (
    DistortionSpec,
    ExtendedInstance,
    JointSource,
    TestChannel as Channel,
    conditional_entropy_x_given_y,
)
from rdsi.solver import (
    SolveConfig,
    _cost_tables,
    _LibraryBA,
    expected_distortions,
    r_cr,
    r_wz,
    rate_objective,
    solve_constrained,
    solve_rate,
    tradeoff_sweep,
)

CFG3 = SolveConfig(z_size=3)


def constant_channel(nx, ny, nz=1, xhat=0):
    return Channel(
        z_size=nz,
        pz_given_x=np.full((nx, nz), 1.0 / nz),
        phi=np.full((ny, nz), xhat, dtype=int),
        psi=np.full((nx, nz), xhat, dtype=int),
    )


class TestRateObjective:
    def test_constant_z_is_free(self):
        src = bsc_pair(0.3)
        assert rate_objective(src, constant_channel(2, 2)) == 0.0

    def test_copy_channel_independent_side_info(self):
        src = JointSource.from_pxy(np.full((2, 2), 0.25))
        ch = Channel(
            z_size=2,
            pz_given_x=np.eye(2),
            phi=np.tile([0, 1], (2, 1)),
            psi=np.tile([0, 1], (2, 1)),
        )
        assert rate_objective(src, ch) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_plug_in(self):
        src = bsc_pair(0.1)
        ch = Channel(
            z_size=2,
            pz_given_x=np.array([[0.8, 0.2], [0.2, 0.8]]),
            phi=np.tile([0, 1], (2, 1)),
            psi=np.tile([0, 1], (2, 1)),
        )
        # I(X;Z) - I(Y;Z) = (1 - h(0.2)) - (1 - h(0.1*0.8 + 0.9*0.2))
        expect = binary_entropy(0.26) - binary_entropy(0.2)
        assert rate_objective(src, ch) == pytest.approx(expect, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            rate_objective(bsc_pair(0.1), constant_channel(3, 2))

    def test_equals_conditional_mutual_information(self, rng):
        # I(X;Z) - I(Y;Z) = I(X;Z|Y) under Z - X - Y, via the 3-way joint
        for _ in range(20):
            src, _ = random_binary_instance(rng)
            pz = rng.random((2, 3)) + 0.02
            pz /= pz.sum(axis=1, keepdims=True)
            ch = Channel(
                z_size=3, pz_given_x=pz,
                phi=rng.integers(0, 2, (2, 3)), psi=rng.integers(0, 2, (2, 3)),
            )
            pxyz = src.pxy[:, :, None] * pz[:, None, :]
            i_xz_given_y = 0.0
            for y in range(2):
                py = pxyz[:, y, :].sum()
                if py == 0:
                    continue
                cond = pxyz[:, y, :] / py
                cx = cond.sum(axis=1)
                cz = cond.sum(axis=0)
                for x in range(2):
                    for z in range(3):
                        if cond[x, z] > 0:
                            i_xz_given_y += (
                                py * cond[x, z] * np.log2(cond[x, z] / (cx[x] * cz[z]))
                            )
            assert rate_objective(src, ch) == pytest.approx(i_xz_given_y, abs=1e-10)


class TestExpectedDistortions:
    def test_identical_reconstructions(self):
        src = bsc_pair(0.25)
        edd, ede = expected_distortions(src, hamming_spec(), constant_channel(2, 2))
        assert ede == 0.0
        assert edd == pytest.approx(0.5, abs=1e-12)

    def test_perfect_side_information(self):
        src = JointSource.from_pxy([[0.5, 0.0], [0.0, 0.5]])  # X = Y a.s.
        ch = Channel(
            z_size=1,
            pz_given_x=np.ones((2, 1)),
            phi=np.array([[0], [1]]),  # phi(y, z) = y
            psi=np.array([[0], [1]]),  # psi(x, z) = x
        )
        edd, ede = expected_distortions(src, hamming_spec(), ch)
        assert edd == 0.0 and ede == 0.0

    def test_constant_guess_on_uniform(self):
        src = JointSource.from_pxy(np.full((2, 2), 0.25))
        edd, _ = expected_distortions(src, hamming_spec(), constant_channel(2, 2))
        assert edd == pytest.approx(0.5, abs=1e-12)

    def test_dd_rows_must_match_the_source(self):
        spec = DistortionSpec(xhat_size=2, dd=hamming(3)[:, :2], de=hamming(2))
        with pytest.raises(InvalidInstanceError, match="dd rows"):
            expected_distortions(bsc_pair(0.25), spec, constant_channel(2, 2))

    def test_channel_dimensions_must_match_the_source(self):
        with pytest.raises(InvalidInstanceError, match="channel dimensions"):
            expected_distortions(bsc_pair(0.25), hamming_spec(), constant_channel(3, 2))

    def test_reconstruction_indices_must_fit_xhat(self):
        with pytest.raises(InvalidInstanceError, match="exceed xhat_size"):
            expected_distortions(bsc_pair(0.25), hamming_spec(), constant_channel(2, 2, xhat=2))


def fixed_rules(src, spec, dd_target, de_target, phi, psi):
    """The inner solve for one rule pair (phi, psi): (certified bound,
    point or None)."""
    cons = _cost_tables(src.pxy, spec, np.asarray(phi), np.asarray(psi))
    return solve_constrained(_LibraryBA(src.pxy, cons, [dd_target, de_target]))


class TestInnerMinimize:
    def test_slack_targets_give_zero_rate(self):
        src = bsc_pair(0.25)
        phi = np.zeros((2, 2), dtype=int)
        psi = np.zeros((2, 2), dtype=int)
        _, point = fixed_rules(src, hamming_spec(), 0.6, 0.5, phi, psi)
        assert point is not None
        assert point.value == pytest.approx(0.0, abs=1e-7)

    def test_infeasible_targets_detected(self):
        src = bsc_pair(0.25)
        phi = np.zeros((2, 2), dtype=int)  # always reconstruct 0
        psi = np.zeros((2, 2), dtype=int)
        assert fixed_rules(src, hamming_spec(), 0.1, 0.5, phi, psi) == (-math.inf, None)

    def test_jointly_infeasible_targets_detected(self):
        # each target alone is met by one column, but every channel's two
        # costs add up to 1 > 0.25 + 0.25: the barrier's start LP finds no
        # interior point
        src = bsc_pair(0.25)
        a = np.outer(src.px, [0.0, 1.0])
        ba = _LibraryBA(src.pxy, [a, src.px[:, None] - a], [0.25, 0.25])
        assert solve_constrained(ba) == (-math.inf, None)

    def test_incumbent_below_the_optimum_prunes(self):
        # the instance of test_matches_grid_oracle_for_fixed_rules; an
        # incumbent under its optimum is beaten by a certified bound
        src = bsc_pair(0.25)
        spec = hamming_spec()
        phi = np.array([[0, 1], [0, 1]])
        psi = np.array([[0, 1], [0, 1]])
        _, point = fixed_rules(src, spec, 0.1, 0.3, phi, psi)
        incumbent = point.value - 0.01
        ba = _LibraryBA(src.pxy, _cost_tables(src.pxy, spec, phi, psi), [0.1, 0.3])
        bound, pruned = solve_constrained(ba, incumbent)
        assert pruned is None
        assert incumbent + 1e-7 < bound <= point.value + 1e-9
        assert ba.iterations > 0  # the Newton steps of the centrings it ran

    def test_matches_grid_oracle_for_fixed_rules(self):
        # mid-range target commensurate with the oracle grid (0.1 = 2/20)
        src = bsc_pair(0.25)
        spec = hamming_spec()
        phi = np.array([[0, 1], [0, 1]])  # phi(y, z) = z
        psi = np.array([[0, 1], [0, 1]])  # psi(x, z) = z
        _, point = fixed_rules(src, spec, 0.1, 0.3, phi, psi)
        oracle = brute_force_oracle(src, spec, 0.1, 0.3, 2, 20, phi=phi, psi=psi)
        assert point is not None
        assert oracle >= point.value - 1e-9
        assert abs(point.value - oracle) <= 2e-3

    def test_certified_bound_is_below_the_oracle(self):
        # the instance of test_matches_grid_oracle_for_fixed_rules
        src = bsc_pair(0.25)
        spec = hamming_spec()
        phi = np.array([[0, 1], [0, 1]])
        psi = np.array([[0, 1], [0, 1]])
        bound, _ = fixed_rules(src, spec, 0.1, 0.3, phi, psi)
        oracle = brute_force_oracle(src, spec, 0.1, 0.3, 2, 20, phi=phi, psi=psi)
        assert bound <= oracle + 1e-9


class TestSolveRate:
    def test_guessing_meets_loose_dd(self):
        src = JointSource.from_pxy(np.full((2, 2), 0.25))
        point = solve_rate(src, hamming_spec(), 0.5, 0.0, CFG3)
        assert point.rate == 0.0
        assert point.achieved_dd <= 0.5 + 1e-12
        assert point.achieved_de <= 1e-12

    def test_slack_encoder_constraint_equals_wyner_ziv(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        cfg = SolveConfig(z_size=5)
        point = solve_rate(src, spec, 0.05, 1.0, cfg)
        assert point.rate == pytest.approx(r_wz(src, spec, 0.05), abs=5e-3)

    def test_zero_encoder_constraint_equals_steinberg(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        cfg = SolveConfig(z_size=5)
        point = solve_rate(src, spec, 0.05, 0.0, cfg)
        assert point.rate == pytest.approx(r_cr(src, spec, 0.05), abs=5e-3)

    def test_assumption_violation_raises(self):
        src = bsc_pair(0.25)
        spec = DistortionSpec(xhat_size=2, dd=hamming(2), de=np.ones((2, 2)))
        with pytest.raises(AssumptionError):
            solve_rate(src, spec, 0.1, 0.1, CFG3)

    def test_negative_target_raises(self):
        with pytest.raises(AssumptionError):
            solve_rate(bsc_pair(0.25), hamming_spec(), -0.1, 0.0, CFG3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_target_raises(self, bad):
        for targets in [(bad, 0.1), (0.1, bad)]:
            with pytest.raises(AssumptionError, match="finite"):
                solve_rate(bsc_pair(0.25), hamming_spec(), *targets, CFG3)

    def test_enumeration_cap(self):
        # |Xhat|^|Y| = 27 decoder columns; z_size=4 sits below the cardinality
        # bound |X| + 3 = 5, so C(27, 4) = 17,550 candidates are enumerated
        src, spec, _, _ = ladder_instance(2, 3, 3)
        cfg = SolveConfig(z_size=4, enumeration_cap=10)
        with pytest.raises(ResourceCapError):
            solve_rate(src, spec, 0.01, 0.001, cfg)

    def test_nonpositive_enumeration_cap_rejected(self):
        with pytest.raises(InvalidInstanceError, match="enumeration cap"):
            SolveConfig(enumeration_cap=0)

    def test_witness_is_consistent(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        point = solve_rate(src, spec, 0.1, 0.05, CFG3)
        edd, ede = expected_distortions(src, spec, point.witness)
        assert edd == pytest.approx(point.achieved_dd, abs=1e-12)
        assert ede == pytest.approx(point.achieved_de, abs=1e-12)
        assert edd <= 0.1 + 1e-6 and ede <= 0.05 + 1e-6
        assert rate_objective(src, point.witness) == pytest.approx(point.rate, abs=1e-6)

    def test_deterministic(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        p1 = solve_rate(src, spec, 0.12, 0.03, CFG3)
        p2 = solve_rate(src, spec, 0.12, 0.03, CFG3)
        assert p1.rate == p2.rate
        assert p1.witness.pz_given_x.tobytes() == p2.witness.pz_given_x.tobytes()
        assert p1.witness.phi.tobytes() == p2.witness.phi.tobytes()

    def test_superfluous_constraint_case(self):
        # Xhat = X, D_d = D_e, d_e(xhat, x) = d_d(x, xhat): encoder can copy
        # the source, so the extra constraint does not pinch
        src = bsc_pair(0.25)
        spec = hamming_spec()
        cfg = SolveConfig(z_size=5)
        for d in (0.08, 0.18):
            point = solve_rate(src, spec, d, d, cfg)
            assert point.rate == pytest.approx(r_wz(src, spec, d), abs=5e-3)

    def test_bounded_by_conditional_entropy(self, rng):
        for _ in range(5):
            src, spec = random_binary_instance(rng)
            hxy = conditional_entropy_x_given_y(src)
            point = solve_rate(src, spec, rng.uniform(0, 0.3), rng.uniform(0, 0.3), CFG3)
            assert 0.0 <= point.rate <= hxy + 1e-6


def full_signature_library(pxy, dk):
    """Every (decoder column, encoder column) signature with distinct cost
    columns: the library before the encoder column is collapsed onto its
    best letter."""
    nx, ny = pxy.shape
    sigs, rows, seen = [], [], set()
    for f in itertools.product(range(dk.shape[2]), repeat=ny):
        per = np.einsum("xy,kxye->kxe", pxy, dk[:, :, list(f), :])
        for g in itertools.product(range(dk.shape[3]), repeat=nx):
            cost = per[:, np.arange(nx), list(g)]
            key = cost.tobytes()
            if key not in seen:
                seen.add(key)
                sigs.append((f, g))
                rows.append(cost)
    return sigs, np.asarray(rows).transpose(1, 0, 2)


def base_library(src, spec):
    """The solver's library of a base instance: (signatures, rows (2, N, X))."""
    return solver_module._signature_library(src.pxy, solver_module._base_tables(spec))


class TestSignatureLibrary:
    def test_one_column_per_decoder_rule(self):
        src, spec, _, _ = ladder_instance(3, 3, 3)
        sigs, (a_rows, e_rows) = base_library(src, spec)
        assert len(sigs) == 3**3 == a_rows.shape[0] == e_rows.shape[0]
        assert len({f for f, _ in sigs}) == len(sigs)

    def test_best_encoder_letter_dominates(self, rng):
        instances = [ladder_instance(2, 3, 3)[:2], ladder_instance(3, 2, 2)[:2]]
        instances += [random_binary_instance(rng) for _ in range(3)]
        for src, spec in instances:
            sigs, (_, e_rows) = base_library(src, spec)
            for (f, _), e_best in zip(sigs, e_rows):
                de_f = spec.de[list(f)]  # (Y, Xhat)
                for g in itertools.product(range(spec.xhat_size), repeat=src.x_size):
                    e_g = np.einsum("xy,xy->x", src.pxy, de_f[:, list(g)].T)
                    assert np.all(e_best <= e_g + 1e-15)

    def test_ties_pick_the_smallest_letter(self):
        # independent uniform side information: for f = (0, 1) both encoder
        # letters cost 1/4 at every x
        src = JointSource.from_pxy(np.full((2, 2), 0.25))
        sigs, _ = base_library(src, hamming_spec())
        assert dict(sigs)[(0, 1)] == (0, 0)

    @pytest.mark.parametrize("z_size", [2, 3])
    def test_matches_full_library(self, monkeypatch, z_size):
        asym, asym_spec = random_binary_instance(np.random.default_rng(5))
        cases = [
            (bsc_pair(0.25), hamming_spec(), 0.15, 0.1),
            (
                asym, asym_spec,
                0.5 * float((asym.px[:, None] * asym_spec.dd).sum(axis=0).min()),
                0.3 * float(asym_spec.de.mean()),
            ),
        ]
        cfg = SolveConfig(z_size=z_size)
        for src, spec, dd_t, de_t in cases:
            collapsed = solve_rate(src, spec, dd_t, de_t, cfg).rate
            with monkeypatch.context() as patch:
                patch.setattr(solver_module, "_signature_library", full_signature_library)
                full = solve_rate(src, spec, dd_t, de_t, cfg).rate
            assert collapsed == pytest.approx(full, abs=1e-8)

    @pytest.mark.parametrize("z_size", [2, 3])
    def test_two_encoder_tables_match_full_library(self, monkeypatch, z_size):
        # both tables vary with the encoder letter: the library keeps each
        # (f, x) front of letters, and nothing the front drops is needed;
        # seed 0 settles on the library, seed 3 scans at both z_size
        cfg = SolveConfig(z_size=z_size)
        for seed in (0, 3):
            src, ext = grouped_instance(seed)
            fronts = solve_rate_ext(src, ext, cfg).rate
            with monkeypatch.context() as patch:
                patch.setattr(extended_module, "_signature_library", full_signature_library)
                full = solve_rate_ext(src, ext, cfg).rate
            assert fronts == pytest.approx(full, abs=1e-8)

    def test_three_letter_ladder_solves_at_default_z(self):
        src, spec, dd_t, de_t = ladder_instance(3, 3, 3)
        point = solve_rate(src, spec, dd_t, de_t)
        assert point.label == "exact"
        assert rate_objective(src, point.witness) == pytest.approx(point.rate, abs=1e-8)
        edd, ede = expected_distortions(src, spec, point.witness)
        assert edd <= dd_t + 1e-6 and ede <= de_t + 1e-6
        assert r_wz(src, spec, dd_t) - 1e-9 <= point.rate
        assert point.rate <= conditional_entropy_x_given_y(src) + 1e-9


def encoder_active_instance(seed=2, y_size=2):
    """A 2 x y_size x 3 instance (3^y_size decoder columns) whose encoder
    constraint binds at D_d = 0.6 x the cheapest constant E d_d and a small
    D_e: (src, spec, dd_target)."""
    rng = np.random.default_rng(seed)
    pxy = rng.random((2, y_size)) + 0.1
    pxy /= pxy.sum()
    dd = hamming(3)[:2] * (0.5 + rng.random((2, 3)))
    de = hamming(3) * (0.5 + rng.random((3, 3)))
    src = JointSource.from_pxy(pxy)
    spec = DistortionSpec(xhat_size=3, dd=dd, de=de)
    return src, spec, 0.6 * float((src.px[:, None] * dd).sum(axis=0).min())


@functools.lru_cache(maxsize=None)
def encoder_active_enumeration():
    """R of encoder_active_instance at D_e = 0.02 from a full enumeration of
    all 126 five-column candidates of its 9-column library."""
    src, spec, dd_t = encoder_active_instance()
    de_t = 0.02
    sigs, (a_rows, e_rows) = base_library(src, spec)
    assert len(sigs) == 9
    cons = [np.ascontiguousarray(a_rows.T), np.ascontiguousarray(e_rows.T)]
    cands = solver_module._candidate_array(len(sigs), 5, 10**6)
    full, _, _ = solver_module.scan_candidates(src.pxy, cons, cands, [dd_t, de_t])
    return full.value


def encoder_active_library():
    """A _LibraryBA over encoder_active_instance's full column library at
    D_e = 0.02."""
    de_t = 0.02
    src, spec, dd_t = encoder_active_instance()
    _, (a_rows, e_rows) = base_library(src, spec)
    return solver_module._LibraryBA(src.pxy, [a_rows.T, e_rows.T], [dd_t, de_t])


class TestUniverseFirst:
    def test_encoder_active_matches_full_enumeration(self):
        # the ladder never binds the encoder constraint: here the Wyner-Ziv
        # solution misses D_e, so the point comes from the support solve with
        # both constraints held, which must agree with a full enumeration
        src, spec, dd_t = encoder_active_instance()
        de_t = 0.02
        point = solve_rate(src, spec, dd_t, de_t)
        assert point.label == "exact"
        assert 0.0 <= point.gap <= 1e-7
        assert point.rate > r_wz(src, spec, dd_t) + 1e-3
        assert point.achieved_de <= de_t + 1e-9
        full = encoder_active_enumeration()
        assert point.rate == pytest.approx(full, abs=1e-8)
        # the Wyner-Ziv search's solution misses D_e, and its bound holds for R
        ba = encoder_active_library()
        bound, primal = solver_module._dual_search(ba, 1e-10)
        assert primal.costs[1] > de_t + 1e-3
        assert bound <= full + 1e-9
        # the full-library solve settles the point, with a bound below R
        bound, primal, _ = solver_module._universe_solve(src.pxy, list(ba.costs), [dd_t, de_t])
        assert primal.value == pytest.approx(full, abs=1e-8)
        assert bound <= full + 1e-9

    @pytest.mark.parametrize(
        "seed, y_size, de_t, rate",
        [
            (2, 2, 0.02, 0.1418548231),  # the full enumeration's rate
            (3, 3, 0.1, 0.0868711954),  # the same, 80,730 candidates
            (4, 3, 0.02, None),  # needs a column priced into the support
            (0, 3, 0.02, None),  # no Wyner-Ziv column set reaches D_e
        ],
    )
    def test_encoder_active_points_settle_without_a_scan(
        self, monkeypatch, seed, y_size, de_t, rate
    ):
        src, spec, dd_t = encoder_active_instance(seed, y_size)
        monkeypatch.setattr(solver_module, "scan_candidates", None)
        point = solve_rate(src, spec, dd_t, de_t)
        assert point.label == "exact"
        assert 0.0 <= point.gap <= 1e-7
        assert point.rate > r_wz(src, spec, dd_t) + 1e-3
        assert rate_objective(src, point.witness) == pytest.approx(point.rate, abs=1e-9)
        edd, ede = expected_distortions(src, spec, point.witness)
        assert edd <= dd_t + 1e-9 and ede <= de_t + 1e-9
        if rate is not None:
            assert point.rate == pytest.approx(rate, abs=1e-9)

    @pytest.mark.parametrize(
        "seed, y_size, dd_scale, de_t, rate",
        [
            # the full enumerations' rates, which took 2 s and 756 s
            (2, 2, 0.95, 0.001, 0.0105834349),
            (4, 3, 0.99, 0.01, 8.960760122e-05),
            (0, 3, 0.95, 0.005, 0.006654824512493179),
        ],
    )
    def test_corner_points_settle_without_a_scan(
        self, monkeypatch, seed, y_size, dd_scale, de_t, rate
    ):
        # D_d near the cheapest constant rule's E d_d and a small D_e: no
        # support from the Wyner-Ziv primal reaches both targets, so the
        # barrier solve on the whole library finds the one _settle
        # certifies, and the search before it must stay short
        src, spec, dd_t = encoder_active_instance(seed, y_size)
        dd_t *= dd_scale / 0.6  # encoder_active_instance gives 0.6 x the constant rule
        monkeypatch.setattr(solver_module, "scan_candidates", None)
        point = solve_rate(src, spec, dd_t, de_t)
        assert (point.path, point.label) == ("library", "exact")
        assert 0.0 <= point.gap <= 1e-7
        assert point.rate == pytest.approx(rate, abs=1e-9)
        assert point.iterations < 5000
        assert rate_objective(src, point.witness) == pytest.approx(point.rate, abs=1e-9)
        edd, ede = expected_distortions(src, spec, point.witness)
        assert edd <= dd_t + 1e-9 and ede <= de_t + 1e-9

    def test_sweep_cell_settles_in_few_iterations(self, monkeypatch):
        # a cell of a 20 x 20 sweep of the 3x3x3 ladder instance that the
        # dual search leaves to the barrier solve, as at the corner points
        src, spec, dd_t, _ = ladder_instance(3, 3, 3)
        dd_t *= 0.9 / 0.5  # ladder_instance gives 0.5 x the constant rule
        de_t = 0.6 / 19 * float(spec.de.mean())
        monkeypatch.setattr(solver_module, "scan_candidates", None)
        point = solve_rate(src, spec, dd_t, de_t)
        assert (point.path, point.label) == ("library", "exact")
        assert point.rate == pytest.approx(0.0053953588010342375, abs=1e-9)
        assert point.iterations < 5000

    def test_four_letter_encoder_active_point(self, monkeypatch):
        # D_e at half the E d_e of the Wyner-Ziv solution: C(256, 7)
        # candidates, out of the scan's reach; 0.4632842706 was certified
        # within 7.6e-9 by column generation on a prototype
        src, spec, dd_t, de_t = ladder_instance(4, 4, 4)
        de_t = 0.5 * solve_rate(src, spec, dd_t, de_t).achieved_de
        monkeypatch.setattr(solver_module, "scan_candidates", None)
        point = solve_rate(src, spec, dd_t, de_t)
        assert point.label == "exact"
        assert 0.0 <= point.gap <= 1e-7
        assert point.rate == pytest.approx(0.4632842706, abs=1e-8)
        edd, ede = expected_distortions(src, spec, point.witness)
        assert edd <= dd_t + 1e-9 and ede <= de_t + 1e-9

    def test_certificate_stays_below_the_rate(self):
        # L(p, lam) - lam . t - FW gap bounds R for every lam >= 0 and every
        # channel, including ones with empty columns priced at their shapes
        full = encoder_active_enumeration()
        ba = encoder_active_library()
        rng = np.random.default_rng(11)
        for lam in ([0.0, 0.0], [1.7747538, 0.3064686], [1.0, 3.0], [12.0, 0.0], [0.0, 40.0]):
            for empty in (0, 4, 7):
                p = rng.dirichlet(np.full(9, 0.5), size=2)
                p[:, rng.permutation(9)[:empty]] = 0.0
                p /= p.sum(axis=1, keepdims=True)
                shapes = np.log(rng.dirichlet(np.ones(9), size=2))
                bound, _, _ = solver_module._certificate(
                    ba, shapes, p, np.asarray(lam), math.inf, 0.0
                )
                assert bound <= full + 1e-9

    @pytest.mark.parametrize(
        "shape, rate, max_iterations",
        [
            ((2, 3, 3), 0.2771219323, None),
            ((3, 3, 3), 0.2331082544, 12_000),
            ((4, 4, 4), 0.4558785426, 4_000),
        ],
    )
    def test_ladder_reach_points(self, shape, rate, max_iterations):
        src, spec, dd_t, de_t = ladder_instance(*shape)
        point = solve_rate(src, spec, dd_t, de_t)
        assert point.rate == pytest.approx(rate, abs=1e-9)
        assert point.label == "exact"
        assert 0.0 <= point.gap <= 1e-7
        if max_iterations is not None:
            assert point.iterations <= max_iterations

    def test_four_letter_ladder_is_exact(self):
        src, spec, dd_t, de_t = ladder_instance(4, 4, 4)
        point = solve_rate(src, spec, dd_t, de_t)
        assert point.label == "exact"
        assert 0.0 <= point.gap <= 1e-7
        assert point.witness.z_size <= src.x_size + 3
        assert rate_objective(src, point.witness) == pytest.approx(point.rate, abs=1e-9)
        edd, ede = expected_distortions(src, spec, point.witness)
        assert edd <= dd_t + 1e-9 and ede <= de_t + 1e-9


def ladder_library(shape):
    """A _LibraryBA over a ladder instance's full column library at its
    targets, and that instance's certified solve_rate point."""
    src, spec, dd_t, de_t = ladder_instance(*shape)
    _, (a_rows, e_rows) = base_library(src, spec)
    ba = solver_module._LibraryBA(src.pxy, [a_rows.T, e_rows.T], [dd_t, de_t])
    return ba, solve_rate(src, spec, dd_t, de_t)


class TestOverRelaxedBA:
    # the 3x3x3 ladder's bracket multipliers after lam = 0, solved to 1e-3
    # bits, ten times finer than the dual search's _COARSE_GAP, so that the
    # over-relaxed steps run long enough to be rejected
    BRACKET = ((1.0, 1e-3), (4.0, 1e-3), (16.0, 1e-3))

    @pytest.mark.parametrize("cap", [2, 3, 4, 5])
    def test_bound_is_made_at_the_returned_point(self, monkeypatch, cap):
        # a solve stopped by the iteration cap must pair the Lagrangian and
        # the Frank-Wolfe gap of one and the same channel: an extrapolated
        # step can raise L, so the previous point's gap does not cover it
        ba, point = ladder_library((3, 3, 3))
        monkeypatch.setattr(solver_module, "_BA_MAX_ITERS", cap)
        for lam, tol in self.BRACKET:
            bound, res = ba.solve(lam, tol)
            _, gap = ba._step(res.logp, ba.penalty(bound.lam))
            assert gap > tol  # the cap stopped it
            assert bound == pytest.approx(ba.lagrangian(res.channel, bound.lam) - gap, abs=1e-12)
            assert bound <= point.rate + 1e-9
        assert ba.iterations == cap * len(self.BRACKET)

    def test_rejected_extrapolation_keeps_the_answer(self, monkeypatch):
        # an extrapolated point whose gap rose is dropped for the plain image
        # of the last accepted point, which is an earlier _step's output,
        # normalized, handed back in
        outputs, rejected = [], 0
        step = solver_module._LibraryBA._step

        def counted(ba, logp, penalty):
            nonlocal rejected
            if len(outputs) >= 2:
                plain = solver_module._log_normalize(outputs[-2])
                rejected += np.allclose(logp, plain, rtol=0.0, atol=1e-12)
            new, gap = step(ba, logp, penalty)
            outputs.append(new)
            return new, gap

        ba, _ = ladder_library((3, 3, 3))
        monkeypatch.setattr(solver_module._LibraryBA, "_step", counted)
        for lam, tol in self.BRACKET:
            outputs.clear()
            rejected = 0
            bound, res = ba.solve(lam, tol)
            _, gap = step(ba, res.logp, ba.penalty(bound.lam))
            assert gap <= tol
            if lam < 16.0:
                assert rejected >= 1
        src, spec, dd_t, de_t = ladder_instance(3, 3, 3)
        point = solve_rate(src, spec, dd_t, de_t)
        assert point.label == "exact"
        assert point.rate == pytest.approx(0.233108254361, abs=1e-9)  # the plain BA's rate

    def test_ladder_point_iterations(self):
        # 992 iterations with plain Blahut-Arimoto steps, 365 with over-relaxed
        # steps and the bracket solved to 1e-3 bits
        _, point = ladder_library((3, 3, 3))
        assert point.label == "exact"
        assert point.iterations <= 200

    def test_bracket_leaves_the_barrier_unreached(self, monkeypatch):
        # the bracket stops at _COARSE_GAP, and _settle must still certify
        # every ladder point and the K = 2 BSC ext-solve from its primal
        def refuse(*args, **kwargs):
            raise AssertionError("the barrier solve was reached")

        monkeypatch.setattr(solver_module, "solve_constrained", refuse)
        for shape in ((3, 2, 2), (2, 3, 3), (3, 3, 3), (4, 4, 4)):
            src, spec, dd_t, de_t = ladder_instance(*shape)
            assert solve_rate(src, spec, dd_t, de_t).label == "exact"
        dk = np.zeros((2, 2, 2, 2))
        dk[0], dk[1] = hamming(2)[:, :, None], hamming(2)
        ext = ExtendedInstance(xhat_d_size=2, xhat_e_size=2, k=2, dk=dk, targets=[0.15, 0.1])
        assert solve_rate_ext(bsc_pair(0.25), ext, SolveConfig(z_size=5)).label == "exact"

    def test_support_solve_with_holes(self):
        # a zero encoder target forbids single entries of the 3x3x3 ladder's
        # library before each encoder column collapses onto its best letter,
        # so the support solve starts on columns with holes
        src, spec, dd_t, _ = ladder_instance(3, 3, 3)
        _, rows = full_signature_library(src.pxy, solver_module._base_tables(spec))
        ba = _LibraryBA(src.pxy, [rows[0].T, rows[1].T], [dd_t, 0.0])
        _, primal = solver_module._dual_search(ba, 1e-10)
        forbidden = ba.forbidden > 0.0
        start = forbidden[:, np.argsort(-(ba.px @ primal.channel))[:6]]
        assert (start.any(axis=0) & ~start.all(axis=0)).any()
        p, _ = solver_module._support_solve(ba, primal.channel, [0])
        assert p.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-12)
        assert (p[forbidden] == 0.0).all()
        assert np.einsum("xn,xn->", ba.costs[0], p) == pytest.approx(dd_t, abs=1e-12)

    def test_no_underdetermined_newton_step(self, monkeypatch):
        # a support with fewer free entries than equations fixes a held
        # target by the row sums: the solve must give it up before Newton,
        # whose KKT system there is singular.  The Hessian part of a KKT
        # matrix has a diagonal of at least one and the equations' part a
        # zero diagonal, so the nonzero diagonal entries count the unknowns.
        # The 6 x 6 sweep of the 3x3x3 ladder meets such supports.
        src, spec, dd_t, de_t = ladder_instance(3, 3, 3)
        solve, shapes = solver_module._kkt_solve, []

        def kkt_solve(kkt, rhs, *args):
            shapes.append((np.count_nonzero(np.diag(kkt)), len(kkt)))
            return solve(kkt, rhs, *args)

        monkeypatch.setattr(solver_module, "_kkt_solve", kkt_solve)
        k = 6
        tradeoff_sweep(src, spec, [i / k * 2 * dd_t for i in range(1, k + 1)],
                       [i / k * de_t / 0.3 for i in range(1, k + 1)])
        assert shapes
        assert all(2 * unknowns >= size for unknowns, size in shapes)

    def test_zero_step_columns_do_not_divide(self):
        # a scan candidate of BSC(0.25) at (0.15, 0.1): decoder column (1, 1)
        # with encoder columns (0, 0), (1, 0) and (1, 1) pays E d_d = 0.5
        # whatever the channel, so the support solve holding D_d drops
        # columns while others' steps are exactly zero; the drop test must
        # divide only where a column empties (a warning is an error here)
        a = [[0.5, 0.5, 0.5], [0.0, 0.0, 0.0]]
        e = [[0.5, 0.0, 0.0], [0.5, 0.5, 0.0]]
        ba = _LibraryBA(bsc_pair(0.25).pxy, [a, e], [0.15, 0.1])
        bound, primal = solver_module._dual_search(ba, solver_module._UNIVERSE_GAP)
        assert primal.costs[0] == pytest.approx(0.5, abs=1e-12)
        got, point = solver_module._settle(
            ba, primal.channel, primal.logp, [0, 1], solver_module._UNIVERSE_GAP
        )
        assert point is None
        assert bound > 1e10  # the bracket's bound grows with lam: no channel meets D_d

    def test_newton_steps_take_lu(self, monkeypatch):
        # every Newton step of the ladder points' support solves is a square,
        # nonsingular system: none falls back to least squares
        def refuse(*args, **kwargs):
            raise AssertionError("a Newton step fell back to lstsq")

        monkeypatch.setattr(solver_module.np.linalg, "lstsq", refuse)
        for shape in ((3, 2, 2), (2, 3, 3), (3, 3, 3), (4, 4, 4)):
            src, spec, dd_t, de_t = ladder_instance(*shape)
            assert solve_rate(src, spec, dd_t, de_t).label == "exact"


# the bench's BSC(0.25) Hamming sweep at z_size 5, rates of the seed commit
BSC_SWEEP_DD = (0.05, 0.15, 0.25, 0.35)
BSC_SWEEP_DE = (0.0, 0.1, 0.2, 0.3)
BSC_SWEEP_RATES = (
    (0.562151221182, 0.562151221179, 0.562151221159, 0.562151221163),
    (0.299895817815, 0.274119626523, 0.274119626524, 0.274119626521),
    (0.143155878466, 0.0858935270866, 0.0286311761423, 0.0),
    (0.0496402075079, 0.00906964349505, 6.40685300763e-16, 0.0),
)


def small_library_instance(seed):
    """A seeded nx x 2 x nhat instance, nx and nhat in {2, 3}, and a decoder
    target between 0.2 and 0.8 of the cheapest constant rule's E d_d:
    (src, dd, dd_target)."""
    rng = np.random.default_rng(seed)
    nx, nhat = 2 + seed % 2, 2 + (seed // 2) % 2
    pxy = rng.random((nx, 2)) + 0.1
    pxy /= pxy.sum()
    dd = 0.2 + rng.random((nx, nhat))
    dd[np.arange(nx), np.arange(nx) % nhat] = 0.0
    src = JointSource.from_pxy(pxy)
    return src, dd, rng.uniform(0.2, 0.8) * float((src.px[:, None] * dd).sum(axis=0).min())


def assert_matches_scan(value, cons, cands, target, src):
    """value against the candidate scan over the same columns: never above
    it, and below it by at most 1e-8 bits."""
    old, _, _ = solver_module.scan_candidates(src.pxy, cons, cands, [target])
    assert value <= old.value + 1e-9
    assert old.value - value <= 1e-8


class TestLibraryPath:
    def test_bsc_sweep_settles_on_the_library(self):
        # 4 library columns fit z_size 5, so every cell is the full-library
        # problem: certified, or a rate-0 mix of constant rules
        cfg = SolveConfig(z_size=5)
        for dd_t, row in zip(BSC_SWEEP_DD, BSC_SWEEP_RATES):
            for de_t, seed_rate in zip(BSC_SWEEP_DE, row):
                point = solve_rate(bsc_pair(0.25), hamming_spec(), dd_t, de_t, cfg)
                assert point.path in ("library", "constant")
                assert point.label == "exact"
                assert 0.0 <= point.gap <= 1e-7
                assert point.rate == pytest.approx(seed_rate, abs=1e-9)
                assert point.witness.z_size <= 5

    def test_two_constant_rules_give_rate_zero(self):
        # no single decoder column meets (0.35, 0.2), but a Z independent of
        # X that mixes two of them does
        src, spec = bsc_pair(0.25), hamming_spec()
        point = solve_rate(src, spec, 0.35, 0.2, SolveConfig(z_size=5))
        assert point.rate == 0.0
        assert point.path == "constant"
        w = point.witness
        assert w.z_size == 2
        assert np.array_equal(w.pz_given_x[0], w.pz_given_x[1])
        edd, ede = expected_distortions(src, spec, w)
        assert edd <= 0.35 + 1e-12 and ede <= 0.2 + 1e-12
        assert (edd, ede) == pytest.approx((point.achieved_dd, point.achieved_de), abs=1e-12)
        # 0.7 of the identity rule's (0.25, 0.25) and 0.3 of a constant
        # rule's (0.5, 0)
        assert (point.achieved_dd, point.achieved_de) == pytest.approx((0.325, 0.175), abs=1e-12)
        assert rate_objective(src, w) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rate_zero_front_matches_the_pairwise_definition(self, k):
        # small integer totals give ties on single totals and duplicate
        # columns; the reference keeps, in lexicographic order of the totals
        # (library order on ties), each column that no earlier one matches or
        # beats on every total
        rng = np.random.default_rng(k)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            totals = rng.integers(0, 4, size=(k, n)).astype(float)
            order = np.lexsort(totals[::-1])
            ranked = totals[:, order]
            pairs = (ranked[:, :, None] <= ranked[:, None, :]).all(axis=0)
            reference = order[~np.triu(pairs, 1).any(axis=0)]
            got, front = solver_module._rate_zero_front(list(totals[:, None, :]))
            assert np.array_equal(got, totals)
            assert np.array_equal(front, reference)

    def test_rate_zero_comes_before_the_cap(self):
        # a constant rule meets (0.5, 0.1); z_size 1 sits below every
        # cardinality bound, and one candidate is beyond the cap
        src, spec = bsc_pair(0.25), hamming_spec()
        cfg = SolveConfig(z_size=1, enumeration_cap=1)
        ext = ExtendedInstance(2, 2, 2, solver_module._base_tables(spec), targets=[0.5, 0.1])
        for point in (solve_rate(src, spec, 0.5, 0.1, cfg), solve_rate_ext(src, ext, cfg)):
            assert (point.rate, point.path, point.multipliers) == (0.0, "constant", (0.0, 0.0))
        assert r_wz(src, spec, 0.5, cfg) == 0.0
        assert r_cr(src, spec, 0.5, cfg) == 0.0

    def test_encoder_target_held_from_the_search(self, monkeypatch):
        # the Wyner-Ziv solution misses D_e here, so the one support solve
        # after the search holds both targets; holding D_d alone runs Newton
        # to its iteration cap and returns None
        solve, calls = solver_module._support_solve, []

        def support_solve(*args):
            calls.append(solve(*args))
            return calls[-1]

        monkeypatch.setattr(solver_module, "_support_solve", support_solve)
        point = solve_rate(bsc_pair(0.25), hamming_spec(), 0.35, 0.1, SolveConfig(z_size=5))
        assert calls and all(got is not None for got in calls)
        assert point.label == "exact"
        assert point.rate == pytest.approx(0.00906964292089, abs=1e-9)

    @pytest.mark.parametrize("seed", range(16))
    def test_baselines_match_the_scan(self, seed):
        # r_cr is the full-library problem on the |Xhat| constant decoder
        # columns, r_wz on the decoder-column library at its bound |X| + 1
        src, dd, dd_t = small_library_instance(seed)
        a_cols = src.px[:, None] * dd
        one = np.arange(dd.shape[1])[None, :]  # a single candidate: every column
        assert_matches_scan(r_cr(src, dd, dd_t), [a_cols], one, dd_t, src)
        _, (a_rows,) = solver_module._signature_library(src.pxy, dd[None, :, :, None])
        n = len(a_rows)
        cons = [np.ascontiguousarray(a_rows.T)]
        if dd.shape[1] == 2:  # a 4-column library: a handful of candidates
            cands = solver_module._candidate_array(n, min(src.x_size + 1, n), 10**6)
        else:  # up to 9 columns: one candidate of every column
            cands = np.arange(n)[None, :]
        assert_matches_scan(r_wz(src, dd, dd_t), cons, cands, dd_t, src)

    @pytest.mark.parametrize(
        "seed, dd_scale, de_scale, rate",
        [
            # slack D_e: the enumeration solved the one candidate to
            # 0.1570849542 and labelled it "exact" with gap 0.042, above
            # its own z_size-3 answer
            (4, 0.5, None, 0.1496844365),
            # the support solve holding both targets finds D_e slack (a
            # negative multiplier) and settles without it
            (37, 0.8, 0.3, 0.0815615616),
        ],
    )
    def test_exact_needs_a_certificate(self, seed, dd_scale, de_scale, rate):
        # 3x2x2: the 4 library columns fit the default z_size 6
        rng = np.random.default_rng(seed)
        pxy = rng.random((3, 2)) + 0.1
        pxy /= pxy.sum()
        dd = 0.2 + rng.random((3, 2))
        dd[np.arange(3), np.arange(3) % 2] = 0.0
        de = (0.2 + rng.random((2, 2))) * hamming(2)
        src = JointSource.from_pxy(pxy)
        spec = DistortionSpec(xhat_size=2, dd=dd, de=de)
        dd_t = dd_scale * float((src.px[:, None] * dd).sum(axis=0).min())
        de_t = float(de.max()) if de_scale is None else de_scale * float(de.mean())
        point = solve_rate(src, spec, dd_t, de_t)
        assert point.label == "exact" and point.path == "library"
        assert 0.0 <= point.gap <= 1e-7
        assert point.rate == pytest.approx(rate, abs=1e-9)
        assert point.rate <= solve_rate(src, spec, dd_t, de_t, CFG3).rate + 1e-9
        assert rate_objective(src, point.witness) == pytest.approx(point.rate, abs=1e-9)
        edd, ede = expected_distortions(src, spec, point.witness)
        assert edd <= dd_t + 1e-9 and ede <= de_t + 1e-9
        if de_scale is None:
            assert point.rate == pytest.approx(r_wz(src, spec, dd_t), abs=1e-9)


def ternary_instance():
    """A 2x2x3 instance with 9 library columns, drawn from the seed of the
    ``rng`` fixture: (src, spec)."""
    rng = np.random.default_rng(20240817)
    pxy = rng.random((2, 2)) + 0.1
    pxy /= pxy.sum()
    dd = rng.random((2, 3))
    dd[0, 0] = dd[1, 1] = 0.0
    de = rng.random((3, 3))
    np.fill_diagonal(de, 0.0)
    return JointSource.from_pxy(pxy), DistortionSpec(xhat_size=3, dd=dd, de=de)


def corpus_points():
    """The 97-point regression corpus: encoder_active_instance seeds 0-11 at
    |Y| = 2 and 3, with D_d at 0.6 and 0.95 x the cheapest constant rule's
    E d_d and D_e at 0.005 and 0.02, then the 5x5x5 ladder point.
    Yields (src, spec, dd_target, de_target)."""
    for seed, y_size in itertools.product(range(12), (2, 3)):
        src, spec, _ = encoder_active_instance(seed, y_size)
        const = float((src.px[:, None] * spec.dd).sum(axis=0).min())
        for scale, de_t in itertools.product((0.6, 0.95), (0.005, 0.02)):
            yield src, spec, scale * const, de_t
    yield ladder_instance(5, 5, 5)


class TestCorpus:
    def test_every_point_is_exact_and_checks_out(self, monkeypatch):
        # each point's witness is checked by the model's own formulas, and
        # the barrier solve is called at most 11 times, its count when this
        # corpus was first recorded
        barrier = []
        solve = solver_module.solve_constrained

        def counted(*args, **kwargs):
            barrier.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(solver_module, "solve_constrained", counted)
        points = 0
        for src, spec, dd_t, de_t in corpus_points():
            point = solve_rate(src, spec, dd_t, de_t)
            assert point.label == "exact"
            assert 0.0 <= point.gap <= 1e-7
            edd, ede = expected_distortions(src, spec, point.witness)
            assert edd <= dd_t + 1e-9 and ede <= de_t + 1e-9
            assert rate_objective(src, point.witness) == pytest.approx(point.rate, abs=1e-9)
            points += 1
        assert points == 97
        assert len(barrier) <= 11


class TestBelowTheBound:
    def test_scan_never_undercuts_the_certified_bound(self):
        # a candidate counts only within 1e-12 of every target, so even the
        # full scan of this library stays at or above its certified bound
        src, spec = ternary_instance()
        _, rows = base_library(src, spec)
        cons = [np.ascontiguousarray(r.T) for r in rows]
        targets = [0.1, 0.0]
        bound, _, _ = solver_module._universe_solve(src.pxy, cons, targets)
        cands = solver_module._candidate_array(len(rows[0]), 5, 10**6)
        full, _, _ = solver_module.scan_candidates(src.pxy, cons, cands, targets)
        assert full.value >= bound - 1e-9

    def test_rate_never_rises_with_z_size(self):
        src, spec = ternary_instance()
        rates = [solve_rate(src, spec, 0.1, 0.05, SolveConfig(z_size=z)).rate for z in range(2, 6)]
        assert all(b <= a + 1e-10 for a, b in zip(rates, rates[1:]))

    def test_exact_below_the_bound_is_the_rate(self):
        # the full-library bound holds at every z_size, so a point within
        # 1e-7 of it is "exact" below the cardinality bound too, and then
        # it is the unrestricted rate; a scan never undercuts that rate
        src, spec = ternary_instance()
        cases = [(src, spec, 0.15, 0.1), (src, spec, 0.1, 0.05)]
        for seed in range(3):
            src, spec, dd_t = encoder_active_instance(seed, 2)
            cases.append((src, spec, dd_t, 0.02))
        exact = 0
        for src, spec, dd_t, de_t in cases:
            rate = solve_rate(src, spec, dd_t, de_t).rate
            for z_size in range(2, src.x_size + 3):
                point = solve_rate(src, spec, dd_t, de_t, SolveConfig(z_size=z_size))
                assert point.rate >= rate - 1e-9
                if point.label == "exact":
                    exact += 1
                    assert point.rate == pytest.approx(rate, abs=1e-9)
                    assert point.witness.z_size <= z_size
        assert exact > 0


@st.composite
def small_instances(draw):
    """A random instance with 2-3 source and reconstruction letters, binary
    side information, and a target pair below the free region."""
    nx = draw(st.integers(2, 3))
    nhat = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pxy = rng.random((nx, 2)) + 0.1
    pxy /= pxy.sum()
    dd = 0.2 + rng.random((nx, nhat))
    dd[np.arange(nx), np.arange(nx) % nhat] = 0.0
    de = (0.2 + rng.random((nhat, nhat))) * hamming(nhat)
    src = JointSource.from_pxy(pxy)
    const = float((src.px[:, None] * dd).sum(axis=0).min())
    dd_t = draw(st.floats(0.2, 0.8)) * const
    de_t = draw(st.floats(0.05, 0.5)) * float(de.mean())
    return src, DistortionSpec(xhat_size=nhat, dd=dd, de=de), dd_t, de_t


_PROPERTY = settings(max_examples=4, deadline=None, derandomize=True)
_SLACK = 1e-6  # the enumeration fallback's own tolerance


class TestStructuralProperties:
    @_PROPERTY
    @given(small_instances())
    def test_sandwiched(self, inst):
        src, spec, dd_t, de_t = inst
        rate = solve_rate(src, spec, dd_t, de_t).rate
        assert r_wz(src, spec, dd_t) - _SLACK <= rate
        assert rate <= conditional_entropy_x_given_y(src) + _SLACK

    @_PROPERTY
    @given(small_instances())
    def test_monotone_in_both_targets(self, inst):
        src, spec, dd_t, de_t = inst
        rate = solve_rate(src, spec, dd_t, de_t).rate
        assert solve_rate(src, spec, 1.2 * dd_t, de_t).rate <= rate + _SLACK
        assert solve_rate(src, spec, dd_t, 2.0 * de_t).rate <= rate + _SLACK

    @_PROPERTY
    @given(small_instances())
    def test_slack_encoder_constraint_is_wyner_ziv(self, inst):
        src, spec, dd_t, _ = inst
        slack = float(spec.de.max())  # no reconstruction pair costs more
        assert solve_rate(src, spec, dd_t, slack).rate == pytest.approx(
            r_wz(src, spec, dd_t), abs=_SLACK
        )

    @_PROPERTY
    @given(small_instances(), st.floats(0.3, 1.0), st.floats(0.0, 2.0))
    def test_convex_along_a_segment(self, inst, dd_scale, de_scale):
        src, spec, dd_t, de_t = inst
        ends = [(dd_t, de_t), (dd_scale * dd_t, de_scale * de_t)]
        rates = [solve_rate(src, spec, *end).rate for end in ends]
        mid = [0.5 * (a + b) for a, b in zip(*ends)]
        assert solve_rate(src, spec, *mid).rate <= 0.5 * sum(rates) + _SLACK

    @_PROPERTY
    @given(small_instances())
    def test_zero_encoder_target_is_common_reconstruction(self, inst):
        # d_e is zero only on its diagonal, so D_e = 0 forces the decoder's
        # reconstruction to be the encoder's
        src, spec, dd_t, _ = inst
        assert solve_rate(src, spec, dd_t, 0.0).rate == pytest.approx(
            r_cr(src, spec, dd_t), abs=_SLACK
        )

    @_PROPERTY
    @given(small_instances(), st.data())
    def test_invariant_under_relabelling(self, inst, data):
        src, spec, dd_t, de_t = inst
        sx = data.draw(st.permutations(range(src.x_size)))
        sy = data.draw(st.permutations(range(src.y_size)))
        sh = data.draw(st.permutations(range(spec.xhat_size)))
        moved = solve_rate(
            JointSource.from_pxy(src.pxy[np.ix_(sx, sy)]),
            DistortionSpec(
                xhat_size=spec.xhat_size, dd=spec.dd[np.ix_(sx, sh)], de=spec.de[np.ix_(sh, sh)]
            ),
            dd_t, de_t,
        )
        assert moved.rate == pytest.approx(solve_rate(src, spec, dd_t, de_t).rate, abs=1e-9)


class TestWynerZivBaseline:
    def test_negative_target_raises(self):
        with pytest.raises(AssumptionError, match="nonnegative"):
            r_wz(bsc_pair(0.25), hamming(2), -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_target_raises(self, bad):
        with pytest.raises(AssumptionError, match="finite"):
            r_wz(bsc_pair(0.25), hamming(2), bad)

    def test_source_letter_without_a_zero_distortion_letter_raises(self):
        with pytest.raises(AssumptionError, match="zero-distortion letter"):
            r_wz(bsc_pair(0.25), np.array([[0.5, 1.0], [1.0, 0.0]]), 0.1)

    def test_zero_target_with_perfect_side_info(self):
        src = JointSource.from_pxy([[0.5, 0.0], [0.0, 0.5]])
        assert r_wz(src, hamming(2), 0.0) == 0.0

    def test_independent_side_info_matches_rate_distortion(self):
        src = JointSource.from_pxy(np.full((2, 2), 0.25))
        expect = 1.0 - binary_entropy(0.2)
        assert r_wz(src, hamming(2), 0.2) == pytest.approx(expect, abs=1e-6)
        assert r_wz(src, hamming(2), 0.2) == pytest.approx(0.2781, abs=5e-5)

    def test_half_distortion_is_free(self):
        src = JointSource.from_pxy(np.full((2, 2), 0.25))
        assert r_wz(src, hamming(2), 0.5) == 0.0

    def test_monotone(self):
        src = bsc_pair(0.25)
        vals = [r_wz(src, hamming(2), d) for d in (0.02, 0.08, 0.15, 0.22)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_doubly_symmetric_matches_convex_envelope(self):
        # classic structure for the doubly symmetric binary pair: the rate
        # is the lower convex envelope of h(p*D) - h(D) joined with (p, 0);
        # build the envelope by brute force as an independent oracle
        p = 0.25
        src = bsc_pair(p)

        def g(d):
            return binary_entropy(p * (1 - d) + (1 - p) * d) - binary_entropy(d)

        pts = [(float(d), g(float(d))) for d in np.linspace(0.0, p, 4001)]
        pts.append((p, 0.0))
        pts.sort()
        hull = []
        for pt in pts:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (x2 - x1) * (pt[1] - y1) - (pt[0] - x1) * (y2 - y1) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(pt)
        hx = np.array([q[0] for q in hull])
        hy = np.array([q[1] for q in hull])
        for d in (0.02, 0.05, 0.08, 0.12, 0.18, 0.22):
            envelope = float(np.interp(d, hx, hy))
            assert r_wz(src, hamming(2), d) == pytest.approx(envelope, abs=1e-6)


class TestCommonReconstructionBaseline:
    def test_negative_target_raises(self):
        with pytest.raises(AssumptionError, match="nonnegative"):
            r_cr(bsc_pair(0.25), hamming(2), -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_target_raises(self, bad):
        with pytest.raises(AssumptionError, match="finite"):
            r_cr(bsc_pair(0.25), hamming(2), bad)

    def test_zero_target_forces_lossless(self):
        src = bsc_pair(0.25)
        expect = conditional_entropy_x_given_y(src)
        assert r_cr(src, hamming(2), 0.0) == pytest.approx(expect, abs=1e-6)

    def test_loose_target_is_free(self):
        src = bsc_pair(0.25)
        assert r_cr(src, hamming(2), 0.6) == 0.0

    def test_sandwiched(self):
        src = bsc_pair(0.25)
        value = r_cr(src, hamming(2), 0.1)
        assert r_wz(src, hamming(2), 0.1) - 1e-9 <= value
        assert value <= conditional_entropy_x_given_y(src) + 1e-9


class TestBruteForceOracle:
    def test_rate_zero_agreement(self):
        src = JointSource.from_pxy(np.full((2, 2), 0.25))
        spec = hamming_spec()
        assert brute_force_oracle(src, spec, 0.5, 0.5, 2, 10) == 0.0
        assert solve_rate(src, spec, 0.5, 0.5, SolveConfig(z_size=2)).rate == 0.0

    def test_refinement_never_increases(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        v10 = brute_force_oracle(src, spec, 0.15, 0.1, 2, 10)
        v20 = brute_force_oracle(src, spec, 0.15, 0.1, 2, 20)
        assert v20 <= v10 + 1e-12

    def test_dominates_solver_on_binary_instance(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        solved = solve_rate(src, spec, 0.15, 0.1, SolveConfig(z_size=2)).rate
        oracle = brute_force_oracle(src, spec, 0.15, 0.1, 2, 20)
        assert oracle >= solved - 1e-6
        assert oracle - solved <= 2e-2

    def test_z3_spot_check(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        solved = solve_rate(src, spec, 0.2, 0.15, SolveConfig(z_size=3)).rate
        oracle = brute_force_oracle(src, spec, 0.2, 0.15, 3, 10)
        assert oracle >= solved - 1e-6

    def test_cap(self):
        src = bsc_pair(0.25)
        with pytest.raises(ResourceCapError):
            brute_force_oracle(src, hamming_spec(), 0.2, 0.2, 4, 40)

    def test_dominance_at_arbitrary_targets(self, rng):
        # the oracle may overshoot off-grid targets, but must never fall
        # below the solver by more than rounding
        cfg = SolveConfig(z_size=2)
        for _ in range(5):
            src, spec = random_binary_instance(rng)
            dd_t = float(rng.uniform(0.3, 0.9) * (src.px[:, None] * spec.dd).sum(0).min())
            de_t = float(rng.uniform(0.2, 0.8) * spec.de.mean())
            solved = solve_rate(src, spec, dd_t, de_t, cfg).rate
            try:
                oracle = brute_force_oracle(src, spec, dd_t, de_t, 2, 20)
            except InfeasibleError:
                continue  # no grid point inside tight targets: vacuous
            assert oracle >= solved - 1e-6


class TestBeyondBinary:
    def test_ternary_source(self, rng):
        pxy = rng.random((3, 2)) + 0.1
        pxy /= pxy.sum()
        src = JointSource.from_pxy(pxy)
        dd = rng.random((3, 2))
        dd[:, 0] = 0.0
        spec = DistortionSpec(xhat_size=2, dd=dd, de=hamming(2))
        point = solve_rate(src, spec, 0.1, 0.05, CFG3)
        assert 0.0 <= point.rate <= conditional_entropy_x_given_y(src) + 1e-6
        assert point.achieved_dd <= 0.1 + 1e-6

    def test_ternary_side_information(self, rng):
        pxy = rng.random((2, 3)) + 0.1
        pxy /= pxy.sum()
        src = JointSource.from_pxy(pxy)
        spec = hamming_spec()
        point = solve_rate(src, spec, 0.08, 0.04, CFG3)
        hxy = conditional_entropy_x_given_y(src)
        assert r_wz(src, spec, 0.08, CFG3) - 1e-6 <= point.rate <= hxy + 1e-6

    def test_ternary_reconstruction_alphabet(self):
        src, spec = ternary_instance()
        point = solve_rate(src, spec, 0.15, 0.1, SolveConfig(z_size=2))
        assert point.achieved_dd <= 0.15 + 1e-6

    def test_dead_source_symbol(self):
        src = JointSource.from_pxy([[0.5, 0.25], [0.25, 0.0], [0.0, 0.0]])
        dd = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        spec = DistortionSpec(xhat_size=2, dd=dd, de=hamming(2))
        point = solve_rate(src, spec, 0.1, 0.05, CFG3)
        assert np.isfinite(point.rate) and point.rate >= 0.0


class TestTradeoffSweep:
    def test_single_cell_matches_solve(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        cells = tradeoff_sweep(src, spec, [0.15], [0.1], CFG3)
        point = solve_rate(src, spec, 0.15, 0.1, CFG3)
        assert cells[0][0].point.rate == point.rate

    def test_monotone_and_dominates_wz(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        dd_grid = [0.08, 0.16, 0.24]
        de_grid = [0.0, 0.1, 0.2]
        cells = tradeoff_sweep(src, spec, dd_grid, de_grid, CFG3)
        rates = np.array([[c.point.rate for c in row] for row in cells])
        assert np.all(np.diff(rates, axis=0) <= 1e-3)
        assert np.all(np.diff(rates, axis=1) <= 1e-3)
        for i, dd in enumerate(dd_grid):
            wz = r_wz(src, spec, dd)
            assert np.all(rates[i] >= wz - 1e-9)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(InvalidInstanceError):
            tradeoff_sweep(bsc_pair(0.25), hamming_spec(), [0.2, 0.1], [0.0], CFG3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_target_recorded_in_cell(self, bad):
        # the bad cell follows a solved one, so the shared store is not empty
        src, spec = bsc_pair(0.25), hamming_spec()
        cells = tradeoff_sweep(src, spec, [0.1], [0.05, bad], CFG3)
        good, cell = cells[0]
        assert good.point.rate == solve_rate(src, spec, 0.1, 0.05, CFG3).rate
        assert cell.status == "error" and "finite" in cell.error
        assert_cells_match_own_errors(cells, src, spec, CFG3)

    def test_cell_error_recorded(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        cfg = SolveConfig(z_size=1)
        cells = tradeoff_sweep(src, spec, [0.01, 0.5], [0.0, 0.5], cfg)
        statuses = {c.status for row in cells for c in row}
        assert "error" in statuses  # dd=0.01 unreachable with a single column
        assert cells[1][1].status == "ok"
        assert_cells_match_own_errors(cells, src, spec, cfg)

    def test_cell_errors_match_their_own_solves(self):
        # the library is built once per sweep, but a cell still errors
        # exactly when, and as, its own solve does: a negative target, the
        # zero-distortion assumption, an infeasible target, the scan's cap
        src = bsc_pair(0.25)
        cases = [
            (hamming_spec(), [-0.1, 0.15], [0.0, 0.1], CFG3),
            (DistortionSpec(xhat_size=2, dd=hamming(2), de=np.ones((2, 2))), [0.1], [0.5], CFG3),
            (hamming_spec(), [0.15], [0.1], SolveConfig(z_size=2, enumeration_cap=1)),
        ]
        for spec, dd_grid, de_grid, cfg in cases:
            cells = tradeoff_sweep(src, spec, dd_grid, de_grid, cfg)
            assert any(c.status == "error" for row in cells for c in row)
            assert_cells_match_own_errors(cells, src, spec, cfg)

    def test_zero_target_plane_is_not_reused(self):
        # the (0.15, 0) witness (E d_e 0, rate 0.2999) meets D_e = 0.1 as
        # well, and its plane would "certify" it there, but a plane made at
        # a zero target holds only where that target stays zero
        cells = tradeoff_sweep(bsc_pair(0.25), hamming_spec(), [0.15], [0.0, 0.1], CFG3)
        assert cells[0][0].point.rate == pytest.approx(0.299895817815, abs=1e-9)
        assert cells[0][1].point.rate == pytest.approx(0.274119626524, abs=1e-9)
        assert cells[0][1].point.iterations > 0

    def test_slack_cells_settle_from_the_store(self):
        # where the encoder target is slack the row neighbour's plane
        # (multiplier 0 on D_e) and the lowest-rate witness solved earlier
        # in the row settle the cell without a solve
        cells = tradeoff_sweep(
            bsc_pair(0.25), hamming_spec(), BSC_SWEEP_DD, BSC_SWEEP_DE, SolveConfig(z_size=5)
        )
        reused = {
            (c.dd_target, c.de_target): c.point
            for row in cells for c in row
            if c.point.iterations == 0 and c.point.path != "constant"
        }
        assert set(reused) == {(0.05, 0.2), (0.05, 0.3), (0.15, 0.2), (0.15, 0.3)}
        for (dd_t, _), point in reused.items():
            row = cells[BSC_SWEEP_DD.index(dd_t)]
            source = min((c.point for c in row[:2]), key=lambda p: p.rate)
            assert point.rate == source.rate
            assert np.array_equal(point.witness.pz_given_x, source.witness.pz_given_x)
            assert point.path == "library" and point.label == "exact"
            assert 0.0 <= point.gap <= 1e-10
            assert point.multipliers[1] == 0.0

    def test_bsc_sweep_iterations(self):
        # 559 over the 16 cells with plain Blahut-Arimoto steps, 187 with
        # over-relaxed steps and a dual-search bracket per cell
        cells = tradeoff_sweep(
            bsc_pair(0.25), hamming_spec(), BSC_SWEEP_DD, BSC_SWEEP_DE, SolveConfig(z_size=5)
        )
        assert all(c.point.label == "exact" for row in cells for c in row)
        assert sum(c.point.iterations for row in cells for c in row) <= 51

    def test_bracket_is_solved_once_per_zero_pattern(self, monkeypatch):
        # the dual search's solves depend on the library and on which
        # targets are zero, not on the target values: the sweep shares them
        calls = collections.Counter()
        solve = _LibraryBA.solve

        def counted(ba, lam, tol):
            calls[tuple(ba.targets <= 0.0), lam] += 1
            return solve(ba, lam, tol)

        monkeypatch.setattr(_LibraryBA, "solve", counted)
        cells = tradeoff_sweep(
            bsc_pair(0.25), hamming_spec(), BSC_SWEEP_DD, BSC_SWEEP_DE, SolveConfig(z_size=5)
        )
        assert max(calls.values()) == 1
        assert sum(calls.values()) == 6
        for row, rates in zip(cells, BSC_SWEEP_RATES):
            assert [c.point.rate for c in row] == pytest.approx(rates, abs=1e-9)

    @pytest.mark.parametrize("case", ["bsc", "ladder"])
    def test_cells_match_their_own_solves(self, case):
        if case == "bsc":
            src, spec, cfg = bsc_pair(0.25), hamming_spec(), SolveConfig(z_size=5)
            dd_grid, de_grid = BSC_SWEEP_DD, BSC_SWEEP_DE
        else:
            # a 5 x 5 subgrid of the 20 x 20 sweep of the 3x3x3 ladder
            # instance: D_d = i/20 x the constant rule, D_e = j x 0.6/19 x
            # the mean d_e
            src, spec, dd_t, _ = ladder_instance(3, 3, 3)
            cfg = SolveConfig()
            dd_grid = [i / 20 * dd_t / 0.5 for i in (4, 8, 12, 16, 19)]
            de_grid = [j * 0.6 / 19 * float(spec.de.mean()) for j in (0, 4, 9, 14, 19)]
        cells = tradeoff_sweep(src, spec, dd_grid, de_grid, cfg)
        reused = 0
        for row in cells:
            for cell in row:
                own = solve_rate(src, spec, cell.dd_target, cell.de_target, cfg)
                point = cell.point
                assert point.rate == pytest.approx(own.rate, abs=1e-9)
                assert point.label == own.label
                assert (point.achieved_dd, point.achieved_de) == pytest.approx(
                    (own.achieved_dd, own.achieved_de), abs=1e-9
                )
                reused += point.iterations == 0 and point.path != "constant"
        assert reused >= 4

    @pytest.mark.parametrize(
        "case",
        ["bsc slack", "bsc zero D_e", "ladder", "encoder binds", "encoder binds zero D_e"],
    )
    def test_printed_plane_stays_below_the_rate(self, case, tmp_path, capsys):
        # (rate - gap) + multipliers . (t - t') from discrete-solve's JSON is
        # a lower bound on R at neighbouring targets t' with the same zeros
        cfg = SolveConfig()
        if case.startswith("bsc"):
            src, spec = bsc_pair(0.25), hamming_spec()
            t = (0.15, 0.0 if "zero" in case else 0.1)
        elif case == "ladder":
            src, spec, dd_t, de_t = ladder_instance(3, 3, 3)
            t = (dd_t, de_t)
        else:
            src, spec, dd_t = encoder_active_instance()
            t = (dd_t, 0.0 if "zero" in case else 0.02)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "x_size": src.x_size, "y_size": src.y_size, "xhat_size": spec.xhat_size,
            "pxy": src.pxy.ravel().tolist(), "dd": spec.dd.ravel().tolist(),
            "de": spec.de.ravel().tolist(),
        }))
        argv = ["discrete-solve", "--input", str(path),
                "--config", f"dd_target={t[0]!r}", "--config", f"de_target={t[1]!r}"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        lam = np.asarray(report["diagnostics"]["multipliers"])
        assert lam.shape == (2,) and (lam >= 0.0).all()
        base = report["rate"] - report["diagnostics"]["gap"]
        checked = 0
        for sd, se in itertools.product((0.8, 0.9, 1.1, 1.25), repeat=2):
            there = (t[0] * sd, t[1] * se)
            try:
                rate = solve_rate(src, spec, *there, cfg).rate
            except InfeasibleError:
                continue
            assert base + lam @ (np.asarray(t) - there) <= rate + 1e-9
            checked += 1
        assert checked >= 8


def assert_cells_match_own_errors(cells, src, spec, cfg):
    for row in cells:
        for cell in row:
            if cell.status == "error":
                with pytest.raises((AssumptionError, InfeasibleError, ResourceCapError)) as exc:
                    solve_rate(src, spec, cell.dd_target, cell.de_target, cfg)
                assert str(exc.value) == cell.error


class TestScipyNames:
    def test_calls_go_through_module_attributes(self, rng, monkeypatch):
        # bench/tracing.py replaces these module attributes to time the
        # calls, so the code must look them up when it calls them
        counts = collections.Counter()
        hooked = (
            (solver_module, "linprog"),
            (caratheodory_module, "linprog"),
        )
        for module, name in hooked:
            fn = getattr(module, name)

            def counted(*args, _key=f"{module.__name__}.{name}", _fn=fn, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        # an encoder-active 2x2x3 point below the bound whose certified
        # witness does not fit in z_size 2, so the scan solves candidates
        src, spec, dd_t = encoder_active_instance(2, 2)
        point = solve_rate(src, spec, dd_t, 0.02, SolveConfig(z_size=2))
        assert point.path == "scan"
        ext = ExtendedInstance(2, 2, 2, rng.random((2, 2, 2, 2)), targets=[1, 1])
        pz = rng.random((2, 2)) + 0.05
        pz /= pz.sum(axis=1, keepdims=True)
        pu = rng.random((2, 2, 5)) + 0.05
        pu /= pu.sum(axis=2, keepdims=True)
        phi = rng.integers(0, 2, size=(2, 2))
        psi3 = rng.integers(0, 2, size=(2, 2, 5))
        caratheodory_module.reduce_aux_u(bsc_pair(0.25), ext, pz, pu, phi, psi3)
        for module, name in hooked:
            assert counts[f"{module.__name__}.{name}"] > 0, (module.__name__, name)
