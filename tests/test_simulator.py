"""Direct lattice integration: forces, symplectic stepping, verification."""

import dataclasses
import math

import numpy as np
import pytest

import latticewaves as lw
from latticewaves import simulator
from latticewaves.simulator import LatticeState
from latticewaves.spectral import evaluate, mean_value


@pytest.fixture(scope="module")
def wave_nnn(prof_nnn1, grid):
    ctx = lw.LongWaveOperators(prof_nnn1, grid, 0.2)
    return lw.solve_contraction(ctx)


@pytest.fixture(scope="module")
def state_nnn(wave_nnn):
    return lw.init_from_wave(wave_nnn, 1024)


class TestInit:
    def test_strain_matches_profile(self, wave_nnn, state_nnn):
        eps = wave_nnn.eps
        grid = wave_nnn.ctx.grid
        xi = eps * (np.arange(1024, dtype=float) - 256)
        w_vals = np.where(np.abs(xi) < grid.L, evaluate(wave_nnn.W, xi), 0.0)
        background = eps * mean_value(wave_nnn.W) * 2.0 * grid.L / 1024
        r = state_nnn.strain() + background
        wp_max = float(np.max(np.abs(np.gradient(wave_nnn.W.values, grid.dx))))
        assert np.max(np.abs(r - eps ** 2 * w_vals)) < eps ** 3 * wp_max

    def test_momentum_reproducible_and_finite(self, wave_nnn):
        s1 = lw.init_from_wave(wave_nnn, 1024)
        s2 = lw.init_from_wave(wave_nnn, 1024)
        p1 = float(np.sum(s1.v))
        assert math.isfinite(p1)
        assert p1 == float(np.sum(s2.v))
        # ansatz value: sum v = -eps c * integral(W) + spectral-size error
        total = mean_value(wave_nnn.W) * 2.0 * wave_nnn.ctx.grid.L
        expect = -wave_nnn.eps * math.sqrt(wave_nnn.c_eps_sq) * total
        assert p1 == pytest.approx(expect, rel=1e-6)

    def test_zero_wave_gives_flat_lattice(self, wave_nnn):
        grid = wave_nnn.ctx.grid
        zero = dataclasses.replace(wave_nnn, W=lw.Field.zero(grid),
                                   V=lw.Field.zero(grid))
        st = lw.init_from_wave(zero, 1024)
        assert np.max(np.abs(st.d)) == 0.0
        assert np.max(np.abs(st.v)) == 0.0

    def test_lattice_too_short(self, wave_nnn):
        with pytest.raises(lw.ConfigError):
            lw.init_from_wave(wave_nnn, 256)

    def test_seam_jump_recorded(self, wave_nnn, state_nnn):
        total = mean_value(wave_nnn.W) * 2.0 * wave_nnn.ctx.grid.L
        assert state_nnn.seam_jump == pytest.approx(wave_nnn.eps * total, rel=1e-12)


class TestForce:
    def test_equilibrium(self, cm4):
        st = LatticeState(model=cm4, J=128, d=np.zeros(128), v=np.zeros(128),
                          m_force=16)
        assert np.max(np.abs(lw.force(st))) == 0.0

    def test_uniform_translation(self, cm4):
        st = LatticeState(model=cm4, J=128, d=np.full(128, 0.03),
                          v=np.zeros(128), m_force=16)
        assert np.max(np.abs(lw.force(st))) < 1e-15

    def test_single_site_against_high_precision(self, cm4):
        # raw potential derivative summed in 30-digit arithmetic, versus the
        # expansion-based force path
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        J, Mf = 64, 30
        d = np.zeros(J)
        d[17] = 1e-3
        st = LatticeState(model=cm4, J=J, d=d, v=np.zeros(J), m_force=Mf)
        ours = lw.force(st)
        a = mpmath.mpf(4)
        dd = [mpmath.mpf(0)] * J
        dd[17] = mpmath.mpf("0.001")
        for j in (0, 5, 16, 17, 18, 40):
            acc = mpmath.mpf(0)
            for m in range(1, Mf + 1):
                ep = dd[(j + m) % J] - dd[j]
                em = dd[j] - dd[(j - m) % J]
                acc += (-a * (m + ep) ** (-a - 1)) - (-a * (m + em) ** (-a - 1))
            assert abs(ours[j] - float(acc)) < 1e-12

    def test_domain_violation_names_site_and_range(self, cm4):
        d = np.zeros(128)
        d[10] = 1.0  # strain 1.0 > delta_star
        st = LatticeState(model=cm4, J=128, d=d, v=np.zeros(128), m_force=8)
        with pytest.raises(lw.DomainError, match=r"site j=\d+.*m=\d+"):
            lw.force(st)

    def test_force_is_minus_energy_gradient(self, state_nnn, rng):
        st = state_nnn.copy()
        f = lw.force(st)
        h = 1e-6
        for j in rng.integers(0, st.J, 20):
            d0 = st.d[j]
            st.d[j] = d0 + h
            ep = lw.total_energy(st)
            st.d[j] = d0 - h
            em = lw.total_energy(st)
            st.d[j] = d0
            grad = (ep - em) / (2.0 * h)
            assert -grad == pytest.approx(f[j], rel=1e-6, abs=1e-9)


class TestVerlet:
    def test_flat_lattice_fixed_point(self, cm4):
        st = LatticeState(model=cm4, J=128, d=np.zeros(128), v=np.zeros(128),
                          m_force=8)
        lw.step_verlet(st, 0.01)
        assert np.max(np.abs(st.d)) == 0.0 and np.max(np.abs(st.v)) == 0.0

    def test_free_drift(self, cm4):
        # with vanishing forces displacement advances linearly in v
        st = LatticeState(model=cm4, J=128, d=np.full(128, 0.01),
                          v=np.full(128, 0.5), m_force=8)
        lw.step_verlet(st, 0.02)
        assert np.max(np.abs(st.d - 0.01 - 0.5 * 0.02)) < 1e-15

    def test_reversibility(self, state_nnn):
        st = state_nnn.copy()
        d0, v0 = st.d.copy(), st.v.copy()
        lw.step_verlet(st, 0.02)
        st.v = -st.v
        lw.step_verlet(st, 0.02)
        assert np.max(np.abs(st.d - d0)) < 1e-11
        assert np.max(np.abs(-st.v - v0)) < 1e-11

    def test_local_error_third_order(self, state_nnn):
        # Richardson: one 2h step vs two h steps differ at O(h^3)
        errs = []
        for h in (0.04, 0.02):
            one = state_nnn.copy()
            lw.step_verlet(one, 2.0 * h)
            two = state_nnn.copy()
            lw.step_verlet(two, h)
            lw.step_verlet(two, h)
            errs.append(np.max(np.abs(one.d - two.d)))
        ratio = errs[0] / errs[1]
        assert 6.0 < ratio < 10.5


class TestEnergy:
    def test_equilibrium_zero(self, cm4):
        st = LatticeState(model=cm4, J=128, d=np.zeros(128), v=np.zeros(128),
                          m_force=16)
        assert lw.total_energy(st) == 0.0

    def test_pure_kinetic(self, cm4):
        v = np.linspace(-1.0, 1.0, 128) * 0.01
        st = LatticeState(model=cm4, J=128, d=np.zeros(128), v=v, m_force=16)
        assert lw.total_energy(st) == pytest.approx(0.5 * float(np.sum(v ** 2)),
                                                    rel=1e-14)

    def test_drift_over_ten_thousand_steps(self, wave_nnn, state_nnn):
        st = state_nnn.copy()
        dt = 0.05 / math.sqrt(wave_nnn.ctx.c0_sq)
        e0 = lw.total_energy(st)
        for _ in range(10_000):
            lw.step_verlet(st, dt)
        drift = abs(lw.total_energy(st) - e0) / abs(e0)
        assert drift < 1e-6


class TestRunAndVerify:
    def test_translation_covariance(self, wave_nnn):
        s1 = lw.init_from_wave(wave_nnn, 1024, j_c=256)
        s2 = lw.init_from_wave(wave_nnn, 1024, j_c=266)
        # shifted initial data up to the constant ramp gauge
        r1, r2 = s1.strain(), s2.strain()
        assert np.max(np.abs(np.roll(r1, 10) - r2)) < 1e-10
        rep1 = lw.run_and_verify(wave_nnn, 1024, 5.0, j_c=256, checkpoints=10)
        rep2 = lw.run_and_verify(wave_nnn, 1024, 5.0, j_c=266, checkpoints=10)
        assert rep1.speed_measured == pytest.approx(rep2.speed_measured, abs=1e-10)
        assert rep1.shape_error_max == pytest.approx(rep2.shape_error_max, abs=1e-10)

    def test_short_run_quality(self, wave_nnn):
        rep = lw.run_and_verify(wave_nnn, 1024, 20.0)
        assert rep.speed_rel_error < 0.01
        assert rep.shape_error_max < 0.05
        assert rep.energy_drift < 1e-6
        assert not rep.early_stopped
        assert rep.passed()

    def test_dt_stability_guard(self, wave_nnn):
        with pytest.raises(lw.ConfigError):
            lw.run_and_verify(wave_nnn, 1024, 5.0, dt=1.0)

    def test_early_stop_at_seam(self, wave_nnn):
        rep = lw.run_and_verify(wave_nnn, 1024, 400.0, checkpoints=400)
        assert rep.early_stopped
        assert rep.T < 400.0

    def test_trajectory_rows(self, wave_nnn):
        rep = lw.run_and_verify(wave_nnn, 1024, 10.0, checkpoints=10)
        assert len(rep.trajectory) >= 10
        t, pos, peak, energy = rep.trajectory[0]
        assert t == 0.0 and math.isfinite(pos + peak + energy)


def _gather_force(state):
    """Reference force: every bond (m, j) gathered into one m_force x J array."""
    j = np.arange(state.J)
    m = np.arange(1, state.m_force + 1)[:, None]
    g = state.model.force_term(m.astype(float), state.d[(j + m) % state.J] - state.d)
    return np.sum(g - g[m - 1, (j - m) % state.J], axis=0)


def _gather_energy(state):
    j = np.arange(state.J)
    m = np.arange(1, state.m_force + 1)[:, None]
    eta = state.d[(j + m) % state.J] - state.d
    return (0.5 * float(np.sum(state.v ** 2))
            + float(np.sum(state.model.pair_energy(m.astype(float), eta))))


def _cubic_table():
    # a finite-range family whose remainders are user callables
    return lw.build_model(lw.PotentialSpec.finite_range(
        [1.0, 0.4, 0.1], [1.0, -0.3, 0.05], gamma=[0.5, 0.2, 0.1],
        psi_prime=[lambda e: 0.5 * e ** 3, lambda e: -0.2 * e ** 3,
                   lambda e: 0.1 * e ** 3]))


@pytest.fixture(params=["direct", "fft"])
def force_path(request, monkeypatch):
    """Run force and total_energy on one path whatever the range."""
    limit = 10 ** 9 if request.param == "direct" else 0
    monkeypatch.setattr(simulator, "_DIRECT_MAX_RANGE", limit)
    return request.param


def _wave_like_state(model, J, m_force, rng):
    j = np.arange(J)
    d = (0.05 * np.sin(2.0 * np.pi * j / J) + 0.01 * np.cos(6.0 * np.pi * j / J + 1.0)
         + 0.002 * rng.standard_normal(J))
    return LatticeState(model=model, J=J, d=d, v=0.01 * rng.standard_normal(J),
                        m_force=m_force)


class TestForcePaths:
    @pytest.mark.parametrize("model_name, m_force", [
        ("cm4", 1), ("cm4", 8), ("cm4", 64), ("cm4", 200),
        ("cm35", 64), ("nnn1", 2), ("nnn1", 3), ("nnn1", 6), ("cubic_table", 3)])
    def test_against_gather(self, request, force_path, model_name, m_force, rng):
        model = (_cubic_table() if model_name == "cubic_table"
                 else request.getfixturevalue(model_name))
        st = _wave_like_state(model, 256, m_force, rng)
        ref = _gather_force(st)
        f = lw.force(st)
        assert np.max(np.abs(f - ref)) <= 1e-11 * np.max(np.abs(ref))
        e_ref = _gather_energy(st)
        assert abs(lw.total_energy(st) - e_ref) <= 1e-11 * abs(e_ref)
        # the callables have no series, so they never take the FFT path
        taken = "direct" if model_name == "cubic_table" else force_path
        assert st.force_paths == {taken}
        assert (st.series_terms > 0) == (taken == "fft")

    @pytest.mark.parametrize("m_force", [3, 6])
    def test_table_range_past_M_adds_nothing(self, nnn1, force_path, m_force, rng):
        # the table's coefficients are zero beyond M = 2
        st = _wave_like_state(nnn1, 256, m_force, rng)
        short = st.copy()
        short.m_force = 2
        f, ref = lw.force(st), lw.force(short)
        assert np.max(np.abs(f - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert lw.total_energy(st) == pytest.approx(lw.total_energy(short), rel=1e-14)

    def test_wrap_beyond_full_ring(self, cm4, rng):
        # on J = 64, ranges m and m + 64 land on the same neighbour
        st = _wave_like_state(cm4, 64, 200, rng)
        ref = _gather_force(st)
        assert np.max(np.abs(lw.force(st) - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert st.force_paths == {"fft"}

    def test_range_change_rebuilds_kernels(self, cm4, rng):
        st = _wave_like_state(cm4, 256, 64, rng)
        lw.force(st)
        st.m_force = 32
        ref = _gather_force(st)
        assert np.max(np.abs(lw.force(st) - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_strain_past_series_cap_takes_direct_path(self, cm4, rng):
        st = _wave_like_state(cm4, 256, 64, rng)
        st.d = st.d + 0.05 * (np.arange(256) % 2)  # |r| ~ 0.05: N would pass the cap
        assert cm4.series_length(float(np.max(np.abs(st.strain())))) is None
        ref = _gather_force(st)
        assert np.max(np.abs(lw.force(st) - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert st.force_paths == {"direct"}

    def test_cm4_wave_force_is_minus_energy_gradient(self, sol_cm4, rng):
        st = lw.init_from_wave(sol_cm4, 4096, m_force=64)
        f = lw.force(st)
        assert st.force_paths == {"fft"}
        h = 1e-6
        sites = np.concatenate([rng.integers(0, st.J, 10),
                                st.center + rng.integers(-100, 100, 10)])
        for j in sites:
            d0 = st.d[j]
            st.d[j] = d0 + h
            ep = lw.total_energy(st)
            st.d[j] = d0 - h
            em = lw.total_energy(st)
            st.d[j] = d0
            grad = (ep - em) / (2.0 * h)
            assert -grad == pytest.approx(f[j], rel=1e-6, abs=1e-11)


class TestReportBounds:
    def test_nnn_run_reports_direct_path(self, wave_nnn):
        rep = lw.run_and_verify(wave_nnn, 1024, 2.0, checkpoints=4)
        assert rep.force_path == "direct"
        assert rep.series_terms == 0 and rep.series_bound == 0.0
        assert rep.range_tail_bound == 0.0  # m_force = M: nothing is cut
        assert rep.strain_max > 0.0

    def test_cm4_run_reports_series_and_range_cut(self, sol_cm4):
        rep = lw.run_and_verify(sol_cm4, 4096, 1.0, checkpoints=4)
        assert rep.force_path == "fft" and rep.m_force == 64
        assert 1 <= rep.series_terms <= 12
        force_scale = 2.0 * rep.strain_max * float(np.sum(
            sol_cm4.ctx.model.alpha[:64] * np.arange(1, 65)))
        assert 0.0 <= rep.series_bound <= 2.0 ** -53 * force_scale
        # ranges beyond 64 neighbours bound: 2 sum_{m>64} alpha_m m rho + ...
        a = 4.0
        lead = 2.0 * a * (a + 1.0) * rep.strain_max * sum(
            m ** (-a - 1.0) for m in range(65, 5000))
        assert lead <= rep.range_tail_bound <= 1.1 * lead + 1e-20
        d = rep.to_dict()
        for key in ("force_path", "series_terms", "series_bound",
                    "range_tail_bound", "strain_max"):
            assert d[key] == getattr(rep, key)
