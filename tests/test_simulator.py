"""Direct lattice integration: forces, symplectic stepping, verification."""

import dataclasses
import functools
import math

import numpy as np
import pytest

import latticewaves as lw
from latticewaves import simulator
from latticewaves.simulator import LatticeState
from latticewaves.spectral import mean_value
from conftest import evaluate_dense


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
        w_vals = np.where(np.abs(xi) < grid.L, evaluate_dense(wave_nnn.W, xi), 0.0)
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

    @pytest.mark.parametrize("j_c", [5000, -3000, 3697])
    def test_wave_off_the_ring_rejected(self, sol_nnn1, j_c):
        # eps = 0.1, L = 40: the wave takes the sites |j - j_c| <= 399
        with pytest.raises(lw.ConfigError,
                           match=rf"j_c={j_c} .*J=4096.*399 <= j_c <= 3696"):
            lw.init_from_wave(sol_nnn1, 4096, j_c=j_c)

    def test_wave_at_the_ring_edge_accepted(self, sol_nnn1):
        st = lw.init_from_wave(sol_nnn1, 4096, j_c=3696)
        ref = lw.init_from_wave(sol_nnn1, 4096, j_c=1024)
        assert np.array_equal(np.roll(st.v, 1024 - 3696), ref.v)

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


STEPPERS = [pytest.param(lw.step_verlet, id="step_verlet"),
            pytest.param(lw.step_split, id="step_split"),
            pytest.param(functools.partial(lw.step_split, steps=3), id="step_split_3")]


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

    @pytest.mark.parametrize("step", STEPPERS)
    def test_reversibility(self, state_nnn, step):
        st = state_nnn.copy()
        d0, v0 = st.d.copy(), st.v.copy()
        step(st, 0.02)
        st.v = -st.v
        step(st, 0.02)
        assert np.max(np.abs(st.d - d0)) < 1e-11
        assert np.max(np.abs(-st.v - v0)) < 1e-11

    @pytest.mark.parametrize("step", STEPPERS)
    def test_local_error_third_order(self, state_nnn, step):
        # Richardson: one 2h step vs two h steps differ at O(h^3)
        errs = []
        for h in (0.04, 0.02):
            one = state_nnn.copy()
            step(one, 2.0 * h)
            two = state_nnn.copy()
            step(two, h)
            step(two, h)
            errs.append(np.max(np.abs(one.d - two.d)))
        ratio = errs[0] / errs[1]
        assert 6.0 < ratio < 10.5


def _normal_modes(model, J, m_force, d0, v0, t):
    """Closed-form flow of the harmonic ring d'' = -A d: A's eigenvectors."""
    A = np.zeros((J, J))
    for m in range(1, m_force + 1):
        a = float(model.alpha_of(m))
        for j in range(J):
            A[j, j] += 2.0 * a
            A[j, (j + m) % J] -= a
            A[j, (j - m) % J] -= a
    lam, Q = np.linalg.eigh(A)
    w, grows = np.sqrt(np.abs(lam)), lam < 0.0
    cos = np.where(grows, np.cosh(w * t), np.cos(w * t))
    sinc = np.where(grows, np.sinh(w * t) / np.where(grows, w, 1.0),
                    t * np.sinc(w * t / np.pi))
    p0, q0 = Q.T @ d0, Q.T @ v0
    return Q @ (cos * p0 + sinc * q0), Q @ (-lam * sinc * p0 + cos * q0)


class TestSplit:
    @pytest.mark.parametrize("alpha, dt", [
        ([1.0, 0.3, 0.1, -0.05, 0.02, 0.01], None),  # default 0.4/c0
        ([1.0, -0.4, 0.0, 0.0, 0.0, 0.0], 0.5),  # theta_mf < 0 near kappa = 0
    ], ids=["stable", "growing"])
    def test_harmonic_chain_step_is_exact(self, force_path, alpha, dt, rng):
        # beta = gamma = 0: F_nl vanishes and one step is the linear flow
        model = lw.build_model(lw.PotentialSpec.custom(alpha, [0.0] * 6, [0.0] * 6))
        J, dt = 64, dt or 0.4 / math.sqrt(model.sum_alpha_m2)
        st = LatticeState(model=model, J=J, d=0.1 * rng.standard_normal(J),
                          v=0.1 * rng.standard_normal(J), m_force=6)
        d_ref, v_ref = _normal_modes(model, J, 6, st.d, st.v, dt)
        lw.step_split(st, dt)
        assert st.force_paths == {force_path}
        assert np.max(np.abs(st.d - d_ref)) <= 1e-12
        assert np.max(np.abs(st.v - v_ref)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 7, 23])
    @pytest.mark.parametrize("wave, m_force, path", [
        ("wave_nnn", 2, "direct"), ("wave_cm4_02", 16, "fft")])
    def test_steps_match_single_steps(self, request, wave, m_force, path, k):
        # one call of k steps keeps (d, v) as spectra between the steps
        sol = request.getfixturevalue(wave)
        dt = 0.4 / math.sqrt(sol.ctx.c0_sq)
        one = lw.init_from_wave(sol, 1024, m_force=m_force)
        many = one.copy()
        lw.step_split(one, dt, k)
        for _ in range(k):
            lw.step_split(many, dt)
        assert one.force_paths == many.force_paths == {path}
        for name in ("d", "v"):
            a, b = getattr(one, name), getattr(many, name)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
        assert one.t == many.t
        # the cache is F_nl at the returned d.  F_nl is a second difference
        # of d, which magnifies the rounding of d: measured up to 1.0e-13
        # (nnn) and 6.8e-13 (cm4) relative to max |F_nl| at k <= 23
        assert np.array_equal(one._accel_nl, lw.nonlinear_force(one.copy()))
        diff = np.max(np.abs(one._accel_nl - many._accel_nl))
        assert diff <= 2e-12 * np.max(np.abs(many._accel_nl))

    @pytest.mark.parametrize("k", [1, 5])
    def test_transform_count(self, state_nnn, monkeypatch, k):
        # k steps on the direct path: rfft(d), rfft(v), then per step one
        # irfft(d^) and, between steps, one rfft(F_nl), and irfft(v^) last
        st = state_nnn.copy()
        dt = 0.4 / math.sqrt(st.model.sum_alpha_m2)
        lw.step_split(st, dt)  # builds the ring multipliers
        calls = []
        for name in ("rfft", "irfft"):
            def counted(*args, _fn=getattr(np.fft, name), **kw):
                calls.append(_fn)
                return _fn(*args, **kw)
            monkeypatch.setattr(simulator.np.fft, name, counted)
        lw.step_split(st, dt, k)
        assert st.force_paths == {"direct"}
        assert len(calls) == 2 * k + 2

    def test_steps_below_one_rejected(self, state_nnn):
        st = state_nnn.copy()
        with pytest.raises(lw.ConfigError, match="steps=0"):
            lw.step_split(st, 0.1, 0)
        assert np.array_equal(st.v, state_nnn.v) and st.t == state_nnn.t

    def test_agrees_with_fine_verlet(self, wave_nnn):
        # planted wave, T = 20: the split at its default step against Verlet
        # at 0.0125/c0.  Measured 9.1e-6 (strain) and 8.1e-6 (velocity);
        # Verlet at its former default 0.05/c0 sits 1.9e-5 from the same
        # reference.
        c0, T = math.sqrt(wave_nnn.ctx.c0_sq), 20.0
        runs = []
        for step, factor in ((lw.step_split, 0.4), (lw.step_verlet, 0.0125)):
            st = lw.init_from_wave(wave_nnn, 1024)
            n = math.ceil(T * c0 / factor)
            for _ in range(n):
                step(st, T / n)
            runs.append(st)
        split, verlet = runs
        r0 = float(np.max(np.abs(lw.init_from_wave(wave_nnn, 1024).strain())))
        assert np.max(np.abs(split.strain() - verlet.strain())) <= 1.5e-5 * r0
        assert np.max(np.abs(split.v - verlet.v)) <= 1.5e-5 * np.max(np.abs(verlet.v))


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
        assert rep.steps == math.ceil(20.0 / rep.dt)
        assert rep.steps * rep.dt == pytest.approx(rep.T, rel=1e-12)

    def test_passed_flips_at_each_gate(self, wave_nnn):
        rep = dataclasses.replace(
            lw.run_and_verify(wave_nnn, 1024, 2.0, checkpoints=4),
            speed_rel_error=0.0, shape_error_max=0.0, energy_drift=0.0)
        assert rep.passed()
        for name, gate in (("speed_rel_error", 0.01), ("shape_error_max", 0.05),
                           ("energy_drift", 1e-6)):
            assert dataclasses.replace(rep, **{name: gate}).passed()
            above = math.nextafter(gate, math.inf)
            assert not dataclasses.replace(rep, **{name: above}).passed()

    def test_dt_stability_guard(self, wave_nnn):
        with pytest.raises(lw.ConfigError):
            lw.run_and_verify(wave_nnn, 1024, 5.0, dt=1.0)

    def test_dt_guard_by_resonance(self, sol_cm4):
        # omega_max = max sqrt(theta_mf) over the ring's wavenumbers, m <= 64
        kappa = 2.0 * np.pi * np.arange(4096 // 2 + 1) / 4096
        m = np.arange(1, 65)[:, None]
        theta = 2.0 * np.sum(sol_cm4.ctx.model.alpha[:64, None]
                             * (1.0 - np.cos(m * kappa)), axis=0)
        omega_max = math.sqrt(float(np.max(theta)))
        c0 = math.sqrt(sol_cm4.ctx.c0_sq)
        assert omega_max <= 2.0 * c0  # alpha_m >= 0
        limit = 0.5 * math.pi / omega_max
        with pytest.raises(lw.ConfigError, match=r"omega_max=.*dt <= "):
            lw.run_and_verify(sol_cm4, 4096, 1.0, dt=limit * (1.0 + 1e-6))
        rep = lw.run_and_verify(sol_cm4, 4096, 0.2, dt=limit * (1.0 - 1e-6),
                                checkpoints=2)
        assert rep.omega_max_dt == pytest.approx(0.5 * math.pi, rel=1e-5)
        rep = lw.run_and_verify(sol_cm4, 4096, 0.2, checkpoints=2)
        assert rep.dt == pytest.approx(0.4 / c0, rel=1e-15)
        assert rep.omega_max_dt == pytest.approx(omega_max * rep.dt, rel=1e-12)
        assert rep.integrator == "strang"

    def test_early_stop_at_seam(self, wave_nnn):
        # the pulse reaches the guard band near T = 300 and the seam near
        # T = 340; however few the checkpoints, it is stopped in between
        for checkpoints in (1, 2, 5, 100, 400):
            rep = lw.run_and_verify(wave_nnn, 1024, 400.0, checkpoints=checkpoints)
            assert rep.early_stopped
            assert rep.T < 400.0
            assert rep.speed_rel_error < 1e-3
            # the steps taken, not the steps planned
            assert rep.steps * rep.dt == pytest.approx(rep.T, rel=1e-12)

    @pytest.mark.parametrize("checkpoints", [0, -5])
    def test_checkpoints_below_one_rejected(self, wave_nnn, checkpoints):
        with pytest.raises(lw.ConfigError, match=rf"checkpoints={checkpoints} "):
            lw.run_and_verify(wave_nnn, 1024, 2.0, checkpoints=checkpoints)

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
        ("cm35", 64), ("nnn1", 2), ("nnn1", 3), ("nnn1", 6)])
    def test_against_gather(self, request, force_path, model_name, m_force, rng):
        st = _wave_like_state(request.getfixturevalue(model_name), 256, m_force, rng)
        ref = _gather_force(st)
        f = lw.force(st)
        assert np.max(np.abs(f - ref)) <= 1e-11 * np.max(np.abs(ref))
        e_ref = _gather_energy(st)
        assert abs(lw.total_energy(st) - e_ref) <= 1e-11 * abs(e_ref)
        assert st.force_paths == {force_path}
        assert (st.series_terms > 0) == (force_path == "fft")

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


@pytest.fixture(scope="module")
def wave_cm4_02(prof_cm4, grid):
    return lw.solve_contraction(lw.LongWaveOperators(prof_cm4, grid, 0.2))


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
        # ranges beyond 64 neighbours bound:
        # 2 sum_{m>64} alpha_m min(m rho, spread) + ...
        a = 4.0
        lead = 2.0 * a * (a + 1.0) * sum(
            m ** (-a - 2.0) * min(m * rep.strain_max, rep.spread_max)
            for m in range(65, 5000))
        assert lead <= rep.range_tail_bound <= 1.1 * lead + 1e-20
        d = rep.to_dict()
        for key in ("force_path", "series_terms", "series_bound",
                    "range_tail_bound", "strain_max", "spread_max",
                    "integrator", "omega_max_dt"):
            assert d[key] == getattr(rep, key)

    def test_range_tail_bound_uses_spread(self, wave_cm4_02):
        # brute force over every stored range past the cut, m = 9..M
        model = wave_cm4_02.ctx.model
        rep = lw.run_and_verify(wave_cm4_02, 1024, 1.0, m_force=8, checkpoints=2)
        st = lw.init_from_wave(wave_cm4_02, 1024, m_force=8)
        j, tail = np.arange(st.J), np.zeros(st.J)
        for start in range(9, model.M + 1, 256):
            m = np.arange(start, min(start + 256, model.M + 1))[:, None]
            g = model.force_term(m.astype(float), st.d[(j + m) % st.J] - st.d)
            tail += np.sum(g - g[m - start, (j - m) % st.J], axis=0)
        assert rep.spread_max < model.M * rep.strain_max
        old = model.range_tail_bound(8, rep.strain_max, math.inf)
        assert np.max(np.abs(tail)) <= rep.range_tail_bound < old
