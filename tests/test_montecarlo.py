"""Moment estimation, Lyapunov curves, walk statistics, asymptotic probe."""

from functools import partial

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import ive

from pamse import exact
from pamse import exclusion as ex
from pamse import montecarlo as mc
from pamse.lattice import Kernel, Torus, heat1d, srw_kernel


def _spec(d, L, rho, kappa, p=1, gamma=1.0):
    return exact.OperatorSpec(torus=Torus(d, L), kernel=srw_kernel(d), kappa=kappa,
                              p=p, rho=rho, gamma=gamma)


@pytest.fixture
def small_params():
    return _spec(d=1, L=6, rho=0.5, kappa=0.5, p=1)


class TestEstimateMoment:
    def test_gamma_zero_exact_one(self):
        params = _spec(d=1, L=6, rho=0.5, kappa=0.5, p=1, gamma=0.0)
        est = mc.estimate_moment(params, 2.0, 50, 1)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_matches_exact_semigroup(self, small_params):
        est = mc.estimate_moment(small_params, 2.0, 30_000, 9)
        spec = exact.OperatorSpec(torus=Torus(1, 6), kernel=srw_kernel(1),
                                  kappa=0.5, p=1, rho=0.5)
        target = exact.exact_moment(spec, 2.0)
        assert est.within(target, 3.0)

    def test_seed_determinism(self, small_params):
        a = mc.estimate_moment(small_params, 1.0, 500, 42)
        b = mc.estimate_moment(small_params, 1.0, 500, 42)
        assert a.mean == b.mean and a.log_mean == b.log_mean

    def test_too_few_trials_rejected(self, small_params):
        with pytest.raises(ValueError):
            mc.estimate_moment(small_params, 1.0, 1, 0)

    def test_jensen_floor(self, small_params):
        # log E exp >= E of the exponent = p rho gamma t at equilibrium
        est = mc.estimate_moment(small_params, 2.0, 5000, 3)
        floor = small_params.p * small_params.rho * 2.0
        assert est.log_mean >= floor - 4 * est.log_stderr

    def test_worker_merge_invariance(self, small_params):
        seq = mc.estimate_moment(small_params, 1.0, 400, 11, n_workers=1)
        par = mc.estimate_moment(small_params, 1.0, 400, 11, n_workers=2)
        assert seq.mean == par.mean

    def test_uncapped_torus(self):
        # 2^20 * 20 joint states, far above the exact layer's cap: Monte
        # Carlo builds no state space, so the spec and the estimate still run
        spec = _spec(d=1, L=20, rho=0.5, kappa=0.5, p=1)
        assert 2**20 * 20 > exact.DEFAULT_STATE_CAP
        est = mc.estimate_moment(spec, 1.0, 50, 3)
        assert est.n == 50 and 0.0 <= est.log_mean <= 1.0

    def test_any_symmetric_catalyst_kernel(self):
        # the catalyst follows spec.kernel
        kernel = Kernel(d=1, offsets=(((1,), 0.25), ((-1,), 0.25),
                                      ((2,), 0.25), ((-2,), 0.25)))
        spec = exact.OperatorSpec(torus=Torus(1, 6), kernel=kernel, kappa=0.5,
                                  p=1, rho=0.5)
        est = mc.estimate_moment(spec, 2.0, 30_000, 9)
        assert est.within(exact.exact_moment(spec, 2.0), 4.0)

    def test_pool_failure_warns_and_runs_serially(self, small_params, monkeypatch):
        class RefusedPool:
            def __init__(self, *args, **kwargs):
                raise PermissionError("no process pool here")

        seq = mc.estimate_moment(small_params, 1.0, 400, 11, n_workers=1)
        monkeypatch.setattr(mc, "ProcessPoolExecutor", RefusedPool)
        with pytest.warns(RuntimeWarning, match=r"PermissionError.*400 trials"):
            fallback = mc.estimate_moment(small_params, 1.0, 400, 11, n_workers=2)
        assert fallback.mean == seq.mean and fallback.stderr == seq.stderr


class TestLambdaCurve:
    def test_bounds_and_plateau(self, small_params):
        run = mc.lambda_curve(small_params, [0.5, 1.0, 2.0, 4.0], 3000, 21)
        assert run.bounds_ok()
        assert run.fit_window[1] == 4.0
        assert np.isfinite(run.plateau)

    def test_bad_grid_rejected(self, small_params):
        with pytest.raises(ValueError):
            mc.lambda_curve(small_params, [2.0, 1.0], 100, 0)
        with pytest.raises(ValueError):
            mc.lambda_curve(small_params, [1.0], 100, 0)

    def test_intermittency_direction_mc(self):
        # at kappa=0 the mc curve must reproduce the exact p-ordering
        t = 4.0
        lams = []
        for p in (1, 2):
            params = _spec(d=1, L=6, rho=0.5, kappa=0.0, p=p)
            est = mc.estimate_moment(params, t, 20_000, [88, p])
            lams.append(est.log_mean / (p * t))
        assert lams[1] > lams[0]


class TestAsymptoticProbe:
    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            mc.asymptotic_probe(2, 1.0, 10.0, 10, 0)

    # the exact probe value is the frozen-walk double integral on the
    # relative clock (u - s)(2d + 1/kappa) = 2d 1[kappa] (u - s)
    def test_frozen_walk_matches_quadrature(self):
        d, kappa, t = 3, 2.0, 0.8
        mine = mc.probe_expectation(d, kappa, t)
        oracle = dblquad(lambda u, s: float(ive(0, (u - s) * (2 * d + 1 / kappa) / d)) ** d,
                         0, t, lambda s: s, lambda s: t, epsabs=1e-13)[0] / t
        assert mine == pytest.approx(oracle, abs=1e-10)

    def test_expectation_matches_adaptive_quad(self):
        # criterion 8's parameters: the lag nodes against the 1-d integral
        d, kappa, t = 4, 10.0, 200.0
        mine = mc.probe_expectation(d, kappa, t)
        oracle = quad(lambda v: (t - v) * ive(0, (2 * d + 1 / kappa) * v / d) ** d,
                      0, t, limit=400, epsabs=1e-15, epsrel=1e-13)[0] / t
        assert mine == pytest.approx(oracle, rel=1e-12)

    def test_kappa_infinity_reference(self):
        # the reference tends to G_d/(2d) as kappa grows
        from pamse.lattice import green

        _, ref = mc.asymptotic_probe(3, 1e9, 1.0, 2, 0)
        assert ref == pytest.approx(green(srw_kernel(3)) / 6.0, rel=1e-6)

    def test_short_run_near_reference(self):
        est, ref = mc.asymptotic_probe(4, 10.0, 100.0, 60, 7)
        assert abs(est.mean - ref) / ref < 0.08


def _probe_trials_oracle(d, kappa, t, seed, trials):
    """The probe trial one lag node at a time: breakpoints by np.unique, walk
    positions by searchsorted on segment midpoints. Same draws and the same
    per-node dot product as `montecarlo._probe_trials`."""
    v_nodes, v_weights = mc._probe_nodes(t)
    tables = []
    for v in v_nodes:
        tau = v / kappa / d
        m_max = int(np.ceil(tau + 10.0 * np.sqrt(tau + 1.0) + 8))
        tables.append((m_max, heat1d(np.arange(-m_max, m_max + 1), tau)))
    out = []
    for trial in trials:
        rng = np.random.default_rng(mc.flat_seed(seed) + (trial,))
        n_jumps = rng.poisson(2.0 * d * t)
        tau_jump = np.sort(rng.random(n_jumps) * t)
        axes = rng.integers(0, d, n_jumps)
        signs = rng.integers(0, 2, n_jumps) * 2 - 1
        steps = np.zeros((n_jumps, d), dtype=np.int64)
        steps[np.arange(n_jumps), axes] = signs
        pos = np.vstack([np.zeros((1, d), dtype=np.int64), np.cumsum(steps, axis=0)])
        total = 0.0
        for (m_max, tab), v, wgt in zip(tables, v_nodes, v_weights):
            cuts = np.unique(np.concatenate([[0.0], tau_jump, tau_jump - v, [t - v]]))
            cuts = cuts[(cuts >= 0.0) & (cuts <= t - v)]
            mids = 0.5 * (cuts[:-1] + cuts[1:])
            seg = np.diff(cuts)
            i_s = np.searchsorted(tau_jump, mids, side="right")
            i_u = np.searchsorted(tau_jump, mids + v, side="right")
            z = pos[i_u] - pos[i_s]
            inside = np.all(np.abs(z) <= m_max, axis=1)
            if not np.any(inside):
                continue
            idx = z[inside] + m_max
            p = np.ones(int(inside.sum()))
            for j in range(d):
                p *= tab[idx[:, j]]
            total += wgt * float(seg[inside] @ p)
        out.append(total / t)
    return np.array(out)


class TestProbeMergedPass:
    """The merged per-chunk pass of `_probe_trials` gives bit for bit the
    values of the per-node oracle above."""

    @pytest.mark.parametrize("d, kappa, t, seed, n", [
        (4, 10.0, 200.0, 5, 3),
        (4, 10.0, 20.0, [5, 1], 8),
        (4, 10.0, 0.01, 3, 12),  # most trials make no jump
        (4, 3.0, 1.0, 9, 8),
        (3, 2.0, 5.0, 6, 8),
        (3, 1.0, 50.0, [1, 2], 4),
        (3, 0.5, 0.01, 2, 12),
    ])
    def test_matches_per_node_oracle(self, d, kappa, t, seed, n):
        v_nodes, v_weights = mc._probe_nodes(t)
        got = mc._probe_trials(d, kappa, t, seed, v_nodes, v_weights, range(n))
        assert _hexes(got) == _hexes(_probe_trials_oracle(d, kappa, t, seed, range(n)))

    def test_two_workers_match_oracle(self):
        d, kappa, t, seed, n = 3, 2.0, 0.3, 11, mc.TRIAL_CHUNK + 4
        want = _probe_trials_oracle(d, kappa, t, seed, range(n))
        est, _ = mc.asymptotic_probe(d, kappa, t, n, seed, n_workers=2)
        assert _hexes((est.mean, est.stderr)) == _hexes(
            (want.mean(), want.std(ddof=1) / np.sqrt(n)))


class TestChunkKeying:
    """A Feynman-Kac trial's exponent depends on (seed, trial) alone."""

    def test_prefix_of_a_longer_run(self, small_params):
        # 300 trials end inside the second chunk of a 700-trial run
        chunk = partial(mc._moment_trials, small_params, 1.0)
        short = ex.chunk_trials(chunk, 17, range(300))
        assert _hexes(ex.chunk_trials(chunk, 17, range(700))[:300]) == _hexes(short)
        est = mc.estimate_moment(small_params, 1.0, 300, 17)
        assert est.mean == float(np.exp(short).mean())
        assert est.log_mean == mc._logmeanexp(short)

    def test_two_workers_match_serial(self, small_params):
        seq = mc.estimate_moment(small_params, 1.0, 700, 17, n_workers=1)
        par = mc.estimate_moment(small_params, 1.0, 700, 17, n_workers=2)
        assert _hexes((seq.mean, seq.stderr, seq.log_mean, seq.log_stderr)) == _hexes(
            (par.mean, par.stderr, par.log_mean, par.log_stderr))


def test_flat_seed_layouts():
    assert mc.flat_seed(5) == (5,)
    assert mc.flat_seed([2, [3, 4]]) == (2, 3, 4)
    a = mc.flat_seed([1, 2])
    b = mc.flat_seed((1, 2))
    assert a == b


def _hexes(values):
    return [float(v).hex() for v in values]


class TestReplayPin:
    """Exact float.hex values of the Monte Carlo replay entry points at fixed
    seeds, recorded when trials came to be drawn and replayed a chunk at a
    time."""

    @pytest.mark.parametrize("kw, t, n, seed, extra, want", [
        (dict(d=1, L=6, rho=0.4, kappa=0.5, p=1), 1.5, 300, 11, {},
         ("0x1.132c150d4fdc1p+1", "0x1.256d04b95b748p-4",
          "0x1.87de287175fa3p-1", "0x1.11338487427aep-5")),
        (dict(d=1, L=6, rho=0.5, kappa=2.0, p=2, gamma=0.7), 1.0, 300, 12, {},
         ("0x1.1668c25335aaep+1", "0x1.a3c77344fb9a3p-5",
          "0x1.8ddb0a227df5cp-1", "0x1.822616180ab1ep-6")),
        (dict(d=1, L=4, rho=0.3, kappa=1.0, p=3), 1.0, 300, [13, 2], {},
         ("0x1.fc3e8bc8d7d9ap+1", "0x1.0fb652db61e7cp-2",
          "0x1.6101b03ea864cp+0", "0x1.12da7a06c6734p-4")),
        (dict(d=1, L=5, rho=0.6, kappa=0.0, p=2), 1.2, 300, 14, {},
         ("0x1.9ff3330bb5255p+2", "0x1.061a93c7e0d61p-2",
          "0x1.df268cb90304cp+0", "0x1.429534edb753cp-5")),
        # two workers merge their trial chunks into the serial result
        (dict(d=1, L=6, rho=0.5, kappa=1.0, p=1), 1.5, 300, 16, {"n_workers": 2},
         ("0x1.327231e093db7p+1", "0x1.26a83e41aca47p-4",
          "0x1.befb5e210653bp-1", "0x1.ec87c6f112cfdp-6")),
        (dict(d=2, L=3, rho=0.5, kappa=0.5, p=2), 0.8, 200, 15, {},
         ("0x1.38ad8fc2ee98ep+1", "0x1.75f86f271bf6cp-4",
          "0x1.c94a1cf13d4bfp-1", "0x1.327f4e97d7eeap-5")),
    ])
    def test_estimate_moment(self, kw, t, n, seed, extra, want):
        est = mc.estimate_moment(_spec(**kw), t, n, seed, **extra)
        assert tuple(_hexes((est.mean, est.stderr, est.log_mean,
                             est.log_stderr))) == want

class TestProbePin:
    """Exact values of the probe (its geometric Gauss-Legendre lag grid) and
    of lambda_curve at fixed seeds, recorded before the grid construction was
    shared with the field module; the probe rows re-pinned when the lag grid
    went from 14 to 7 panels (the t = 0.6 and t = 40 values kept every bit),
    the probe references, which read G_d, when green moved onto the window
    table's Gauss-Legendre rule, and the lambda_curve rows when Feynman-Kac
    trials came to be drawn a chunk at a time."""

    @pytest.mark.parametrize("d, kappa, t, want", [
        (4, 10.0, 0.6, "0x1.b107e97e314b7p-4"),
        (4, 10.0, 3.0, "0x1.1e3da0999c8c7p-3"),
        (4, 10.0, 40.0, "0x1.3684bb618beabp-3"),
        (3, 2.0, 200.0, "0x1.d224a369bceb3p-3"),
    ])
    def test_probe_expectation(self, d, kappa, t, want):
        assert mc.probe_expectation(d, kappa, t).hex() == want

    @pytest.mark.parametrize("d, kappa, t, n, seed, want", [
        (4, 10.0, 20.0, 30, 5,
         ["0x1.34672a78cb157p-3", "0x1.8a2a4d47f6abep-9", "0x1.3962e19ba9270p-3"]),
        (3, 2.0, 5.0, 30, 6,
         ["0x1.a28e2d68c970ap-3", "0x1.35f98d03c3ff3p-7", "0x1.ddc73ba2abd7ap-3"]),
    ])
    def test_asymptotic_probe(self, d, kappa, t, n, seed, want):
        est, reference = mc.asymptotic_probe(d, kappa, t, n, seed)
        assert _hexes((est.mean, est.stderr, reference)) == want

    @pytest.mark.parametrize("kw, grid, n, seed, want", [
        (dict(d=1, L=6, rho=0.5, kappa=0.5, p=1), [0.5, 1.0, 2.0], 300, 21,
         (["0x1.13950a716f77ep-1", "0x1.1be4401f06256p-1", "0x1.3ea3a2d4e7fa6p-1"],
          ["0x1.9553c535e87bep-6", "0x1.6d28704422ac4p-6", "0x1.3ad5ac1ea747dp-6"],
          ["0x1.6163058ac9cf4p-1", "0x1.0d8696f07514fp-4"])),
        (dict(d=1, L=4, rho=0.3, kappa=1.5, p=2, gamma=0.8), [0.4, 0.8, 1.2, 1.6],
         200, [4, 1],
         (["0x1.1d1b0f9e9a5e5p-2", "0x1.125e8577a5841p-2",
           "0x1.2f1e826146660p-2", "0x1.375962f2745ddp-2"],
          ["0x1.481013626a57dp-6", "0x1.3f7bcb2864088p-6",
           "0x1.2f0912fa4dbbap-6", "0x1.46b40e1ccff7ap-6"],
          ["0x1.500a04a5fe455p-2", "0x1.16811cad8d1b9p-3"])),
    ])
    def test_lambda_curve(self, kw, grid, n, seed, want):
        run = mc.lambda_curve(_spec(**kw), grid, n, seed)
        assert (_hexes(run.lambdas), _hexes(run.lambda_err),
                _hexes((run.plateau, run.plateau_err))) == want
