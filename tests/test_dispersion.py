"""Dispersion relation, Taylor remainders, classification, sigma fits."""

import math

import numpy as np
import pytest

import latticewaves as lw
from latticewaves.dispersion import _phase_speed_grid, t1_t2, t1_t2_progression

# the built-in families with a type I certificate; the first four are
# conftest fixtures
TYPE1 = ("cm35", "cm4", "cm6", "nnn1", "fput", "finite_range")


def _model(request, name):
    if name == "fput":
        return lw.build_model(lw.PotentialSpec.classical_fput())
    if name == "finite_range":
        return lw.build_model(lw.PotentialSpec.finite_range(
            alpha=[1.0, 0.0, 0.3], beta=[1.0, 0.0, 0.0]))
    return request.getfixturevalue(name)


class TestThetaLambda:
    def test_theta_vanishes_at_zero(self, cm4, nnn1):
        assert lw.dispersion_relation(cm4, 0.0) == 0.0
        assert lw.dispersion_relation(nnn1, 0.0) == 0.0

    def test_theta_cm4_at_pi(self, cm4):
        # series, closed form, and the zeta identity 80*(1-2^-6)*zeta(6)
        series = lw.dispersion_relation(cm4, np.pi)
        assert series == pytest.approx(np.pi ** 6 / 12.0, abs=1e-8)
        assert lw.theta_power4_closed(np.pi) == pytest.approx(np.pi ** 6 / 12.0, abs=1e-10)

    def test_theta_cm4_closed_form_everywhere(self, cm4):
        k = np.linspace(-np.pi, 3.0 * np.pi, 257)
        assert np.max(np.abs(lw.dispersion_relation(cm4, k)
                             - lw.theta_power4_closed(k))) < 1e-8

    def test_theta_nnn_two_term(self, nnn1):
        assert lw.dispersion_relation(nnn1, np.pi) == pytest.approx(4.0, abs=1e-12)

    def test_evenness_and_periodicity(self, cm4, rng):
        k = rng.uniform(-10.0, 10.0, 1000)
        th_p = lw.dispersion_relation(cm4, k)
        th_m = lw.dispersion_relation(cm4, -k)
        assert np.max(np.abs(th_p - th_m)) < 1e-12
        th_shift = lw.dispersion_relation(cm4, k + 2.0 * np.pi)
        assert np.max(np.abs(th_shift - th_p)) < 1e-11
        lam_p = lw.phase_speed_sq(cm4, k)
        lam_m = lw.phase_speed_sq(cm4, -k)
        assert np.max(np.abs(lam_p - lam_m)) < 1e-12

    def test_lambda_is_theta_over_ksq(self, cm4, nnn1, rng):
        k = rng.uniform(0.1, 10.0, 200)
        for model in (cm4, nnn1):
            lam = lw.phase_speed_sq(model, k)
            ratio = lw.dispersion_relation(model, k) / k ** 2
            assert np.max(np.abs(lam - ratio) / np.abs(ratio)) < 1e-10

    def test_lambda_at_zero_is_certified_sound_speed(self, cm4, nnn1):
        assert lw.phase_speed_sq(cm4, 0.0) == pytest.approx(
            2.0 * np.pi ** 4 / 9.0, abs=1e-10)
        for g in (-1.0 / 32.0, 0.25, 1.0):
            m = lw.build_model(lw.PotentialSpec.nnn(g))
            assert lw.phase_speed_sq(m, 0.0) == pytest.approx(1.0 + 4.0 * g, abs=1e-12)

    def test_lambda_below_sound_speed_for_nonneg_alpha(self, cm4, rng):
        k = rng.uniform(0.05, 12.0, 500)
        lam = lw.phase_speed_sq(cm4, k)
        assert np.all(lam < cm4.sum_alpha_m2)


class TestPhaseSpeedGrid:
    """lambda = c0^2 + t1 on linspace(0, k_max, n + 1) by one
    ``t1_t2_progression``."""

    @pytest.mark.parametrize("n", [4096, 1023])
    @pytest.mark.parametrize("name", TYPE1)
    def test_matches_series_at_every_sample(self, request, name, n):
        # the progression's chirp rows against the kernel rows of t1_t2
        model = _model(request, name)
        k, lam = _phase_speed_grid(model, 4.0 * np.pi, n)
        assert np.array_equal(k, np.linspace(0.0, 4.0 * np.pi, n + 1))
        assert lam[0] == model.sum_alpha_m2
        ref = lw.phase_speed_sq(model, k)
        assert np.max(np.abs(lam - ref)) <= 2e-14 * model.sum_alpha_m2

    @pytest.mark.parametrize("name", ["cm35", "finite_range"])
    def test_against_mpmath(self, request, name):
        # the sample nearest each point, against the stored-coefficient sum
        # at 30 digits; 2 pi +- h and the first sample sit where 1 - cos
        # cancels.  For cm35 m_eff = M, and c0^2 less the tail term of t1
        # is the stored sum of alpha_m m^2, so this is the value aimed at.
        mpmath = pytest.importorskip("mpmath")
        model = _model(request, name)
        n = 4096
        k, lam = _phase_speed_grid(model, 4.0 * np.pi, n)
        h = 2.0 * np.pi / 2048
        for target in (h, 0.25, 2.0 * np.pi - h, 2.0 * np.pi + h, 3.0, 4.0 * np.pi):
            j = int(round(target / h))
            with mpmath.workdps(30):
                kj = mpmath.mpf(k[j])
                acc = mpmath.mpf(0)
                for m, al in enumerate(model.alpha, start=1):
                    acc += al * (1 - mpmath.cos(m * kj))
                ref = float(2 * acc / kj ** 2)
            assert abs(lam[j] - ref) <= 2e-15 * model.sum_alpha_m2, target

    def test_cm6_against_full_series(self, cm6):
        # alpha_m = 42 m^-8 for every m >= 1, so sum_m alpha_m cos(mk) is
        # -42 (2 pi)^8 B_8(k / 2 pi) / (2 8!) on [0, 2 pi] (DLMF 24.8.1)
        # and lambda(k) = 2 (sum_m alpha_m (1 - cos mk)) / k^2 over all m;
        # M = 144 stored terms fall 3e-12 c0^2 short of it at k = h
        mpmath = pytest.importorskip("mpmath")
        n = 4096
        k, lam = _phase_speed_grid(cm6, 4.0 * np.pi, n)
        h = 2.0 * np.pi / 2048
        for target in (h, 0.25, 1.0, 3.0, 2.0 * np.pi - h, 2.0 * np.pi + h,
                       6.0, 4.0 * np.pi):
            j = int(round(target / h))
            with mpmath.workdps(40):
                kj = mpmath.mpf(k[j])
                x = mpmath.frac(kj / (2 * mpmath.pi))
                cos_sum = -(2 * mpmath.pi) ** 8 * mpmath.bernpoly(8, x) / (
                    2 * mpmath.factorial(8))
                ref = float(2 * 42 * (mpmath.zeta(8) - cos_sum) / kj ** 2)
            assert abs(lam[j] - ref) <= 2e-15 * cm6.sum_alpha_m2, target


class TestCurvature:
    def test_nnn_closed_form(self):
        for g in (-1.0 / 32.0, 0.25, 1.0):
            m = lw.build_model(lw.PotentialSpec.nnn(g))
            assert lw.long_wave_curvature(m) == pytest.approx(
                -1.0 / 6.0 - 8.0 * g / 3.0, abs=1e-12)

    def test_cm_zeta_form(self, cm4, cm35):
        assert lw.long_wave_curvature(cm4) == pytest.approx(
            -20.0 * lw.zeta(2.0) / 6.0, abs=1e-12)
        assert lw.long_wave_curvature(cm35) == pytest.approx(
            -3.5 * 4.5 * lw.zeta(1.5) / 6.0, abs=1e-12)

    def test_classical_single_term(self):
        m = lw.build_model(lw.PotentialSpec.classical_fput(alpha1=1.0, beta1=1.0))
        assert lw.long_wave_curvature(m) == pytest.approx(-1.0 / 6.0, abs=1e-15)
        assert lw.long_wave_curvature_fd(m) == pytest.approx(-1.0 / 6.0, rel=1e-6)

    def test_fd_cross_check_smooth_families(self, nnn1):
        # central differencing matches the series formula to 1e-6 relative
        # whenever lambda is smooth (finite range)
        fd = lw.long_wave_curvature_fd(nnn1)
        assert fd == pytest.approx(lw.long_wave_curvature(nnn1), rel=1e-6)

    def test_fd_cross_check_power_law(self, cm4, cm35):
        # for the power-law family lambda'' is only Holder-sigma continuous,
        # so the stencil converges like h^sigma; tolerance reflects that
        h = 1e-4
        for model, sigma in ((cm4, 1.0), (cm35, 0.5)):
            fd = lw.long_wave_curvature_fd(model, h=h)
            exact = lw.long_wave_curvature(model)
            assert abs(fd - exact) / abs(exact) < 10.0 * h ** sigma


class TestTaylorRemainders:
    def test_t2_even_and_zero_at_origin(self, cm35):
        k = np.array([0.0, 0.3, -0.3, 1.7, -1.7])
        t2 = t1_t2(cm35, k)[1]
        assert t2[0] == 0.0
        assert t2[1] == pytest.approx(t2[2], rel=1e-12)
        assert t2[3] == pytest.approx(t2[4], rel=1e-12)

    def test_matches_direct_formula_at_moderate_k(self, nnn1, cm4):
        # T2 = lambda - lambda(0) - lambda''(0) k^2/2, formed naively, is
        # accurate enough at k ~ 1 to validate the series evaluation
        for model in (nnn1, cm4):
            for k in (0.7, 1.3, 2.1):
                direct = (lw.phase_speed_sq(model, k) - model.sum_alpha_m2
                          - 0.5 * lw.long_wave_curvature(model) * k ** 2)
                assert t1_t2(model, k)[1][0] == pytest.approx(direct, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("name, k", [
        ("cm6", 2e-3), ("cm6", 0.3), ("cm6", 2.5),
        ("cm35", 2e-3), ("cm35", 0.05), ("cm35", 2.5),
        ("nnn1", 2e-3), ("nnn1", 0.05), ("nnn1", 0.3), ("nnn1", 2.5),
    ])
    def test_against_mpmath(self, request, name, k):
        model = request.getfixturevalue(name)
        t1, t2 = t1_t2(model, np.array([k]))
        assert (t1[0], t2[0]) == tuple(r[0] for r in t1_t2(model, k))
        m_eff = model.M
        if model.infinite_range:
            m_eff = max(model.M, math.ceil(8.0 / k))
        ref1, ref2 = _mpmath_t1_t2(model, k, m_eff)
        assert t1[0] == pytest.approx(ref1, rel=1e-13, abs=0.0)
        assert t2[0] == pytest.approx(ref2, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("j", [39, 43])
    def test_progression_against_mpmath(self, cm6, j):
        # a = 6, eps = 0.2 on the L = 40 box (m_eff = 510): j = 39 and 43
        # lie in the chirp of remainder_sums, whose corner is m_s = 8,
        # j_s = 16 here, so the chirp carries the rows 9 <= m <= 510 with
        # mk > 5 and the rows m <= 8 are summed one by one.  A chirp over
        # every m misses t2 here by 3-6e-12 (rows with mk < 2), and an
        # m_eff set by a later point instead of k_1 = dk misses by 1e-12
        dk = 0.2 * math.pi / 40.0
        t1, t2 = t1_t2_progression(cm6, dk, 1025)
        ref1, ref2 = _mpmath_t1_t2(cm6, j * dk, math.ceil(8.0 / dk))
        assert t1[j] == pytest.approx(ref1, rel=1e-13, abs=0.0)
        assert t2[j] == pytest.approx(ref2, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.4])
    @pytest.mark.parametrize("power, M", [(4.2, 4000), (2.0, 3000)])
    def test_progression_matches_series_on_slow_tables(self, power, M, eps):
        # tables alpha_m = m^-power that are not type I, so no operator
        # context is built on them (test_operators covers the families);
        # k_j = j eps pi / L, j <= N/2 on the L = 40, N = 2048 box
        m = np.arange(1, M + 1, dtype=float)
        model = lw.build_model(lw.PotentialSpec.custom(
            m ** -power, np.zeros(M), None))
        dk = eps * math.pi / 40.0
        got = t1_t2_progression(model, dk, 1025)
        ref = t1_t2(model, dk * np.arange(1025))
        for g, r in zip(got, ref):
            assert g[0] == r[0] == 0.0
            assert np.max(np.abs(g[1:] - r[1:]) / np.abs(r[1:])) <= 1e-13


def _mpmath_t1_t2(model, k, m_eff):
    """t1, t2 at k > 0 as the kernel sum up to m_eff at 30 digits plus the
    true tail beyond it (Hurwitz zeta for the power law, zero for a table)."""
    mpmath = pytest.importorskip("mpmath")
    mc = np.arange(1, m_eff + 1, dtype=float)
    w2 = model.alpha_of(mc) * mc * mc
    with mpmath.workdps(30):
        tail2 = tail4 = mpmath.mpf(0)
        if model.infinite_range:
            c = model.a * (model.a + 1)
            tail2 = c * mpmath.zeta(model.a, m_eff + 1)
            tail4 = c * mpmath.zeta(model.a - 2, m_eff + 1)
        kk = mpmath.mpf(k)
        if k * m_eff >= 4.0:
            tails = (-tail2, -tail2 + kk * kk * tail4 / 12)
        else:
            tails = (-kk * kk * tail4 / 12, 0)
        acc1 = acc2 = mpmath.mpf(0)
        for m, w in zip(range(1, m_eff + 1), w2):
            y = m * kk
            g1 = mpmath.sinc(y / 2) ** 2 - 1
            acc1 += w * g1
            acc2 += w * (g1 + y * y / 12)
        return float(acc1 + tails[0]), float(acc2 + tails[1])


class TestCoefficientsFromDispersion:
    def test_single_mode(self):
        k = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        alpha = lw.coefficients_from_dispersion(4.0 * np.sin(k / 2.0) ** 2, 4)
        assert alpha[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(alpha[1:])) < 1e-12

    def test_half_angle_identity(self):
        # 1 - cos(2k) = 2 sin^2(k) corresponds to alpha_2 = 1/2 alone
        k = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        alpha = lw.coefficients_from_dispersion(1.0 - np.cos(2.0 * k), 6)
        assert alpha[1] == pytest.approx(0.5, abs=1e-12)
        assert abs(alpha[0]) < 1e-12 and np.max(np.abs(alpha[2:])) < 1e-12

    def test_degree8_roundtrip(self, rng):
        alpha_true = rng.uniform(-1.0, 1.0, 8)
        k = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        theta = np.zeros_like(k)
        for m, al in enumerate(alpha_true, start=1):
            theta += 4.0 * al * np.sin(0.5 * m * k) ** 2
        alpha = lw.coefficients_from_dispersion(theta, 8)
        assert np.max(np.abs(alpha - alpha_true)) < 1e-12
        model = lw.build_model(lw.PotentialSpec.custom(
            alpha=alpha, beta=np.ones(8), gamma=np.zeros(8)))
        theta_rec = lw.dispersion_relation(model, k)
        assert np.max(np.abs(theta_rec - theta)) < 1e-10

    def test_rejects_nonvanishing_origin(self):
        k = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        with pytest.raises(lw.DomainError):
            lw.coefficients_from_dispersion(1.0 + np.cos(k), 4)

    def test_rejects_odd_samples(self):
        k = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        with pytest.raises(lw.DomainError):
            lw.coefficients_from_dispersion(np.sin(k), 4)

    def test_needs_enough_samples(self):
        with pytest.raises(lw.DomainError):
            lw.coefficients_from_dispersion(np.zeros(8), 4)


class TestCertification:
    def test_nnn_certified_sigma2(self, prof_nnn1):
        assert prof_nnn1.type1_certified
        assert prof_nnn1.sigma == pytest.approx(2.0, abs=0.05)
        assert prof_nnn1.lambda_dd0 < 0.0
        assert prof_nnn1.sup_outside < prof_nnn1.c0_sq

    def test_cm35_certified_sigma_half(self, prof_cm35):
        assert prof_cm35.type1_certified
        assert prof_cm35.sigma == pytest.approx(0.5, abs=0.05)

    def test_cm6_certified_sigma2(self, prof_cm6):
        assert prof_cm6.type1_certified
        assert prof_cm6.sigma == pytest.approx(2.0, abs=0.1)

    def test_finite_range_nonneg_alpha_certified(self):
        m = lw.build_model(lw.PotentialSpec.finite_range(
            alpha=[1.0, 0.0, 0.3], beta=[1.0, 0.0, 0.0]))
        prof = lw.certify_type1(m)
        assert prof.type1_certified
        assert prof.lambda_lower >= 0.0

    def test_nnn_wrong_type_not_certified(self):
        m = lw.build_model(lw.PotentialSpec.nnn(-0.2))
        prof = lw.certify_type1(m)
        assert not prof.type1_certified
        assert not prof.conditions["negative_curvature"]
        assert lw.long_wave_curvature(m) == pytest.approx(
            -1.0 / 6.0 + 8.0 * 0.2 / 3.0, abs=1e-12)

    def test_certificate_feasibility(self, prof_cm4):
        # one constant must serve both condition (iii) inequalities
        assert 0.0 < prof_cm4.mu_star <= prof_cm4.mu_quad
        assert prof_cm4.k_star in (0.5, 1.0, 1.5, 2.0)

    @pytest.mark.parametrize("name", TYPE1)
    def test_outside_enclosure_holds(self, request, name):
        model = _model(request, name)
        prof = lw.certify_type1(model)
        assert prof.type1_certified
        assert prof.sup_outside <= prof.sup_outside_bound < prof.c0_sq
        assert prof.to_dict()["sup_outside_bound"] == prof.sup_outside_bound
        # every alpha_m >= 0, so lambda >= 0 although the cm6 samples at
        # 2 pi and 4 pi round to -1.4e-14
        assert prof.lambda_lower == 0.0
        assert prof.notes[0].startswith("condition (iii)")

    @pytest.mark.parametrize("name", ["cm6", "nnn1", "fput", "finite_range"])
    def test_outside_enclosure_bounds_a_finer_grid(self, request, name):
        model = _model(request, name)
        prof = lw.certify_type1(model)
        k = np.linspace(prof.k_star, 4.0 * np.pi, 65537)
        assert np.max(lw.phase_speed_sq(model, k)) <= prof.sup_outside_bound

    def test_outside_enclosure_counts_a_declared_tail(self):
        # alpha mass a table declares beyond M can lift lambda by up to
        # 4 tail / k*^2 outside k*, which no sample sees
        def certify(tail):
            return lw.certify_type1(lw.build_model(lw.PotentialSpec.custom(
                [1.0, 0.0, 0.3], [1.0, 0.0, 0.0], None, tail_alpha_m2=tail)))

        bare, light, heavy = certify(0.0), certify(1e-3), certify(0.05)
        assert light.sup_outside == bare.sup_outside
        assert light.sup_outside_bound >= (bare.sup_outside_bound
                                           + 4e-3 / light.k_star ** 2)
        assert light.type1_certified
        assert heavy.sup_outside_bound > heavy.c0_sq
        assert not heavy.conditions["subsonic_outside"]
        assert "not excluded" in heavy.notes[0]

    def test_no_enclosure_without_k_star(self):
        prof = lw.certify_type1(lw.build_model(lw.PotentialSpec.nnn(-0.2)))
        assert prof.sup_outside_bound is None
        assert "not excluded" in prof.notes[0]

    def test_to_dict_roundtrippable(self, prof_cm4):
        import json
        d = prof_cm4.to_dict()
        json.dumps(d)
        assert d["type1"] is True


class TestSigmaEstimate:
    def test_cm35(self, cm35):
        assert lw.estimate_sigma(cm35, (0.01, 0.5)) == pytest.approx(0.5, abs=0.05)

    def test_cm6(self, cm6):
        assert lw.estimate_sigma(cm6, (0.01, 0.5)) == pytest.approx(2.0, abs=0.1)

    def test_nnn(self, nnn1):
        assert lw.estimate_sigma(nnn1, (0.01, 0.5)) == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("s", [2.0 ** -20, 2.0 ** -40], ids=["2^-20", "2^-40"])
    def test_certificate_does_not_depend_on_coefficient_scale(self, s):
        # scaling every alpha_m by s only rescales time, and a power of two
        # scales every lambda, t1 and t2 exactly
        def certify(scale):
            spec = lw.PotentialSpec.finite_range([scale, scale / 4.0], [1.0, 0.5])
            return lw.certify_type1(lw.build_model(spec))

        ref, got = certify(1.0), certify(s)
        for key in ("sigma", "sigma_fit", "k_star", "notes"):
            assert getattr(got, key) == getattr(ref, key)
        assert got.mu_star == s * ref.mu_star
        assert got.c0_sq == s * ref.c0_sq

    def test_preconditions(self, cm35):
        with pytest.raises(lw.DomainError):
            lw.estimate_sigma(cm35, (0.5, 0.1))
        with pytest.raises(lw.DomainError):
            lw.estimate_sigma(cm35, (0.01, 0.5), n=10)
