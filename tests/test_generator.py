"""Sine-pool synthesis tests."""

import re

import numpy as np
import pytest

from freqsynth import (
    GeneratorConfig,
    MIX_FREQ_RANGE,
    NATURAL_FREQUENCIES,
    aggregate_periodogram,
    build_datasets,
    build_pool,
    estimate_fundamental,
    freq_synth,
    freq_synth_mix,
    freq_synth_natural,
    harmonic_set,
    sample_windows,
    scaled_periodogram,
    standardize,
    standardize_by_train,
    synthesize,
)
from freqsynth import generator
from freqsynth.dataset import Dataset
from freqsynth.errors import (
    DegenerateChannel,
    FreqSynthError,
    InsufficientData,
    InvalidAmplitudeScale,
    InvalidSeries,
    TooManyPoints,
    WindowTooLong,
)
from freqsynth.generator import STANDARDIZED_ATOL, _draw_pool, _render_channels

import oracles
from oracles import render_channels_direct

NATURAL_LAWS = [(omega, h) for omega in NATURAL_FREQUENCIES for h in (1, 2, 3)]


def assert_standardized(ds):
    """Every channel has mean 0 and population std 1 to STANDARDIZED_ATOL."""
    assert np.max(np.abs(ds.values.mean(axis=1))) <= STANDARDIZED_ATOL
    assert np.max(np.abs(ds.values.std(axis=1) - 1.0)) <= STANDARDIZED_ATOL


class TestHarmonicSet:
    def test_three_harmonics(self):
        assert harmonic_set(1 / 24, 3) == [1 / 24, 1 / 12, 1 / 8]

    def test_nyquist_filter(self):
        assert harmonic_set(0.3, 3) == [0.3]

    def test_single(self):
        assert harmonic_set(1 / 7, 1) == [1 / 7]

    def test_ascending_and_nonempty(self):
        for omega in (0.01, 0.1, 0.249, 0.4):
            for h in (1, 2, 5, 10):
                om = harmonic_set(omega, h)
                assert om
                assert om == sorted(om)
                assert all(0 < f < 0.5 for f in om)

    def test_bitwise_the_plain_filter(self):
        # the set's size is found by bisection; it must hold exactly the
        # floats of the plain filter over every k = 1..h
        rng = np.random.default_rng(18)
        omegas = [*rng.uniform(1e-4, 0.5, 300), *(0.5 / rng.integers(1, 10**4, 300)),
                  *(1 / rng.integers(3, 10**4, 300)), 0.25, 0.5 / 3, np.nextafter(0.5, 0)]
        for omega in map(float, omegas):
            h = int(rng.integers(1, 10**4 + 1))
            want = [omega * k for k in range(1, h + 1) if omega * k < 0.5]
            got = harmonic_set(omega, h)
            assert [f.hex() for f in got] == [f.hex() for f in want], (omega, h)
            assert generator._harmonic_count(omega, h) == len(want)

    def test_huge_h_returns_at_once(self):
        assert harmonic_set(0.1, 10**12) == [0.1 * k for k in range(1, 5)]
        assert harmonic_set(1e-310, 3) == [1e-310, 2e-310, 3e-310]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(omega_bar=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(omega_bar=0.5)
        with pytest.raises(ValueError):
            GeneratorConfig(omega_bar=0.1, m=0)
        with pytest.raises(ValueError):
            GeneratorConfig(omega_bar=0.1, h=0)
        with pytest.raises(ValueError):
            GeneratorConfig(omega_bar=0.1, l=0)
        with pytest.raises(ValueError):
            GeneratorConfig(omega_bar=0.1, n=1)
        with pytest.raises(ValueError):
            GeneratorConfig(omega_bar=0.1, d=0)

    def test_amplitude_scale_guard(self):
        with pytest.raises(InvalidAmplitudeScale):
            GeneratorConfig(omega_bar=0.1, A_prime=0.01)
        with pytest.raises(InvalidAmplitudeScale):
            GeneratorConfig(omega_bar=0.1, A_prime=0.005)

    def test_nan_rejected_naming_the_field(self):
        with pytest.raises(InvalidAmplitudeScale, match="A_prime"):
            GeneratorConfig(omega_bar=0.1, A_prime=float("nan"))
        with pytest.raises(ValueError, match="omega_bar"):
            GeneratorConfig(omega_bar=float("nan"))

    def test_point_budget(self):
        # construction only: no config here is ever synthesized
        with pytest.raises(TooManyPoints) as exc:
            GeneratorConfig(omega_bar=0.1, n=10**9, d=10**6)
        assert isinstance(exc.value, ValueError)
        assert isinstance(exc.value, FreqSynthError)
        assert str(exc.value) == (
            "n * d = 1000000000 * 1000000 = 1000000000000000 points exceeds "
            "the limit of 1000000000 points"
        )
        assert GeneratorConfig(omega_bar=0.1, m=1, n=10**9, d=1).n == 10**9
        with pytest.raises(TooManyPoints, match=r"^n \* d = 1000000001 \* 1 "):
            GeneratorConfig(omega_bar=0.1, n=10**9 + 1, d=1)

    @pytest.mark.parametrize("sizes, product", [
        # omega_bar = 0.1 and h = 3 give K = 3 harmonics
        ({"m": 10**12, "l": 10**12, "n": 2}, "d * l = 1 * 1000000000000 "),
        ({"l": 10**9 + 1, "n": 2}, "d * l = 1 * 1000000001 "),
        ({"m": 10**9 + 1, "h": 1, "n": 2}, "d * m = 1 * 1000000001 "),
        ({"m": 10**9 // 2 + 1, "h": 1, "n": 2, "d": 2}, "d * m = 2 * 500000001 "),
        ({"m": 4 * 10**8, "n": 2}, "m * K = 400000000 * 3 "),
        ({"n": 10**9 // 6 + 1}, "min(m, 2K) * n = 6 * 166666667 "),
        ({"m": 1, "n": 10**9 + 1}, "n * d = 1000000001 * 1 "),
        ({"omega_bar": 1e-9, "h": 10**12}, "m * K = 100 * 499999999 "),
    ])
    def test_point_budget_covers_every_render_array(self, sizes, product):
        # construction only: no config here is ever synthesized
        with pytest.raises(TooManyPoints, match="^" + re.escape(product)):
            GeneratorConfig(**{"omega_bar": 0.1, "d": 1, **sizes})

    @pytest.mark.parametrize("sizes", [
        {"l": 10**9, "n": 2}, {"m": 10**9, "h": 1, "n": 2},
        {"m": 3 * 10**8, "n": 2}, {"n": 10**9 // 6}, {"m": 1, "n": 10**9},
    ])
    def test_point_budget_bounds_are_inclusive(self, sizes):
        assert GeneratorConfig(**{"omega_bar": 0.1, "d": 1, **sizes}).n == sizes["n"]

    @pytest.mark.parametrize("field", ["m", "h", "l", "n", "d"])
    @pytest.mark.parametrize("value", [1.5, True, float("nan"), float("inf"), "5", None])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            GeneratorConfig(omega_bar=0.1, **{field: value})

    @pytest.mark.parametrize("value", ["0.1", True, None, [0.1], 0.1 + 0j])
    def test_omega_bar_must_be_real(self, value):
        with pytest.raises(ValueError, match="^omega_bar must be a real number"):
            GeneratorConfig(omega_bar=value)

    @pytest.mark.parametrize("value", ["5.0", False, None, {"a": 5}, 5 + 0j])
    def test_a_prime_must_be_real(self, value):
        with pytest.raises(ValueError, match="^A_prime must be a real number"):
            GeneratorConfig(omega_bar=0.1, A_prime=value)

    @pytest.mark.parametrize("value", [0.01, -1.0, float("inf"), float("nan")])
    def test_a_prime_must_be_finite_and_exceed_the_shift(self, value):
        # an infinite scale would render infinite channels
        message = (f"A_prime must exceed 0.01 and be at most {generator._A_PRIME_L_MAX / 10} "
                   f"for l = 10, got {value}")
        with pytest.raises(InvalidAmplitudeScale, match=f"^{re.escape(message)}$"):
            GeneratorConfig(omega_bar=0.1, A_prime=value)

    @pytest.mark.parametrize("l", [1, 10, 1000])
    def test_a_prime_bound_at_and_above(self, l):
        bound = generator._A_PRIME_L_MAX / l
        assert GeneratorConfig(omega_bar=0.1, A_prime=bound, l=l, n=64).A_prime == bound
        with pytest.raises(InvalidAmplitudeScale, match="^A_prime must exceed 0.01 and be at most"):
            GeneratorConfig(omega_bar=0.1, A_prime=np.nextafter(bound, np.inf), l=l, n=64)

    def test_l_past_float_range_is_over_the_point_budget(self):
        # the A_prime bound divides by l only after the budget has bounded it
        with pytest.raises(TooManyPoints, match=r"^d \* l = 1 \* 1000"):
            GeneratorConfig(omega_bar=0.1, l=10**309, d=1)
        with pytest.raises(TooManyPoints, match=r"^d \* l = "):
            GeneratorConfig(omega_bar=0.1, A_prime=1e308, l=10**309, d=1)

    def test_largest_exponential_draw(self):
        # an MT19937 state whose next outputs drive Generator.exponential into
        # its ziggurat tail (a 64-bit draw whose layer bits 3..10 are 0) and
        # then draw the largest 53-bit uniform
        def untemper(y):
            y ^= y >> 18
            y ^= (y << 15) & 0xEFC60000
            x = y
            for _ in range(5):
                x = y ^ ((x << 7) & 0x9D2C5680)
            x = y = x & 0xFFFFFFFF
            for _ in range(3):
                x = y ^ (x >> 11)
            return x

        bits = np.random.MT19937(0)
        state = bits.state
        key = state["state"]["key"].copy()
        key[:4] = [untemper(o) for o in (0xFFFFFFFF, 0xFFFFF807, 0xFFFFFFFF, 0xFFFFFFFF)]
        state["state"].update(key=key, pos=0)
        bits.state = state
        assert np.random.Generator(bits).exponential(scale=1.0) == generator._EXP_MAX

    @pytest.mark.parametrize("m", [1, 3])  # every member drawn, or the basis render
    def test_worst_draw_at_the_bound_renders_finite(self, m):
        # every draw takes a member of the largest amplitude, in phase at t = 0
        l = 10
        a_prime = generator._A_PRIME_L_MAX / l
        amp = (a_prime - 0.01) * generator._EXP_MAX + 0.01
        pool = (np.full(m, amp), np.full(m, 0.1), np.full(m, np.pi / 2))
        cfg = GeneratorConfig(omega_bar=0.1, A_prime=a_prime, l=l, n=16, d=2)
        with np.errstate(over="raise", invalid="raise"):
            values = synthesize(cfg, pool=pool).values
        assert values[:, 0].tolist() == pytest.approx([l * amp] * 2, rel=1e-12)

    def test_integral_counts_become_ints(self):
        cfg = GeneratorConfig(omega_bar=0.1, m=np.int64(100), n=2048.0)
        assert type(cfg.m) is int and type(cfg.n) is int
        assert cfg.digest() == GeneratorConfig(omega_bar=0.1, n=2048).digest()

    @pytest.mark.parametrize("real", [float, np.float64, np.float32, np.float16])
    def test_real_fields_become_floats(self, real):
        cfg = GeneratorConfig(omega_bar=real(0.125), A_prime=real(2.0), n=256, d=1)
        assert type(cfg.omega_bar) is float and type(cfg.A_prime) is float
        assert cfg.digest() == GeneratorConfig(
            omega_bar=0.125, A_prime=2.0, n=256, d=1
        ).digest()
        assert cfg.digest() in synthesize(cfg).provenance

    @pytest.mark.parametrize("real", [float, np.float64])
    def test_real_fields_keep_their_digest(self, real):
        # the digest this config had before its real fields were stored
        # as floats
        cfg = GeneratorConfig(omega_bar=real(0.1), A_prime=real(0.3))
        assert cfg.digest() == "d75b7426f2cfdcd5"

    def test_real_fields_out_of_float_range(self):
        with pytest.raises(ValueError, match="^A_prime is out of range"):
            GeneratorConfig(omega_bar=0.1, A_prime=10**400)

    def test_digest_stable_and_sensitive(self):
        a = GeneratorConfig(omega_bar=1 / 24, seed=3)
        b = GeneratorConfig(omega_bar=1 / 24, seed=3)
        c = GeneratorConfig(omega_bar=1 / 24, seed=4)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert len(a.digest()) == 16


class TestExplicitPool:
    """synthesize(cfg, pool) checks every rule of an explicit pool and
    raises InvalidSeries naming the array that breaks one."""

    CFG = GeneratorConfig(omega_bar=0.1, l=2, n=64, d=2, seed=0)
    GOOD = ([1.0, 2.0], [0.1, 0.2], [0.0, 1.0])

    @pytest.mark.parametrize("k, values, match", [
        (0, [1.0, 0.0], r"^amplitudes must be > 0, got 0\.0$"),
        (0, [-2.0, 1.0], r"^amplitudes must be > 0, got -2\.0$"),
        (1, [0.1, 0.5], r"^frequencies must be in \(0, 0\.5\), got 0\.5$"),
        (1, [0.0, 0.2], r"^frequencies must be in \(0, 0\.5\), got 0\.0$"),
        (2, [0.0, -0.1], r"^phases must be in \[0, 2\*pi\), got -0\.1$"),
        (2, [2 * np.pi, 1.0], r"^phases must be in \[0, 2\*pi\), got 6\.28"),
        (1, [0.1], r"^frequencies has 1 values; the pool needs 2$"),
        (2, [0.0, 1.0, 2.0], r"^phases has 3 values; the pool needs 2$"),
        (1, [0.1, np.nan], r"^frequencies must be finite$"),
        (0, [1.0, np.inf], r"^amplitudes must be finite$"),
        (2, [[0.0, 1.0]], r"^phases must be 1-d, got ndim=2$"),
    ], ids=["amplitude 0", "amplitude < 0", "frequency 0.5", "frequency 0", "phase < 0",
            "phase 2pi", "short frequencies", "long phases", "nan frequency",
            "infinite amplitude", "2-d phases"])
    def test_each_rule_is_checked(self, k, values, match):
        pool = list(self.GOOD)
        pool[k] = values
        with pytest.raises(InvalidSeries, match=match):
            synthesize(self.CFG, pool)

    @pytest.mark.parametrize("pool", [GOOD[:2], (*GOOD, [0.0, 0.0])], ids=["2 arrays", "4 arrays"])
    def test_a_pool_is_three_arrays(self, pool):
        with pytest.raises(InvalidSeries, match=rf"^a pool is the 3 arrays .*, got {len(pool)} arrays$"):
            synthesize(self.CFG, pool)

    def test_an_empty_pool_is_rejected(self):
        with pytest.raises(InvalidSeries, match=r"^amplitudes has 0 values; the pool needs some$"):
            synthesize(self.CFG, ([], [], []))

    def test_the_bounds_themselves_pass(self):
        # amplitudes just above 0, frequencies just inside (0, 0.5), phase 0
        tiny = np.nextafter(0.0, 1.0)
        pool = ([tiny, 1.0], [tiny, np.nextafter(0.5, 0.0)], [0.0, np.nextafter(2 * np.pi, 0.0)])
        assert synthesize(self.CFG, pool).values.shape == (2, 64)

    def test_sequences_and_arrays_render_alike(self):
        arrays = tuple(np.array(a) for a in self.GOOD)
        assert np.array_equal(synthesize(self.CFG, self.GOOD).values,
                              synthesize(self.CFG, arrays).values)


class TestBuildPool:
    def test_size_and_frequency_support(self):
        cfg = GeneratorConfig(omega_bar=1 / 24, h=3, m=100, seed=0)
        amps, freqs, phases = build_pool(cfg)
        assert amps.shape == freqs.shape == phases.shape == (100,)
        allowed = set(harmonic_set(1 / 24, 3))
        assert set(freqs.tolist()) <= allowed

    def test_deterministic(self):
        cfg = GeneratorConfig(omega_bar=1 / 24, h=2, m=50, seed=7)
        for a, b in zip(build_pool(cfg), build_pool(cfg), strict=True):
            assert_bitwise(a, b)

    @pytest.mark.parametrize("seed", range(10))
    def test_bitwise_equal_to_the_oracle_draw(self, seed):
        # the arrays synthesize(cfg) renders, drawn off cfg.seed; m = 1 included
        m = (1, 2, 7, 100, 1)[seed % 5]
        cfg = GeneratorConfig(omega_bar=(1 / 24, 0.07, 0.3)[seed % 3], h=1 + seed % 4, m=m,
                              A_prime=(5.0, 0.5)[seed % 2], seed=seed)
        got = build_pool(cfg)
        want = oracles._draw_pool_arrays(cfg, np.random.default_rng(seed))
        assert len(got) == 3
        for g, w in zip(got, want, strict=True):
            assert g.shape == (m,)
            assert_bitwise(g, w)

    @pytest.mark.parametrize("a_prime", [1.0, 5.0])
    def test_amplitude_law(self, a_prime):
        # Exp(A' - 0.01) + 0.01 has mean exactly A'
        cfg = GeneratorConfig(
            omega_bar=1 / 24, h=3, m=100_000, A_prime=a_prime, seed=123
        )
        amps = build_pool(cfg)[0]
        assert abs(amps.mean() - a_prime) < 0.05 * a_prime
        assert amps.min() > 0.01

    def test_phase_range(self):
        cfg = GeneratorConfig(omega_bar=1 / 24, m=1000, seed=5)
        phases = build_pool(cfg)[2]
        assert np.all(phases >= 0.0)
        assert np.all(phases < 2 * np.pi)


class TestSynthesize:
    def test_single_spec_pool_l1(self):
        cfg = GeneratorConfig(omega_bar=0.1, l=1, n=200, d=3, seed=0)
        ds = synthesize(cfg, pool=([1.7], [0.1], [0.3]))
        expected = oracles.render_sine(1.7, 0.1, 0.3, 200)
        for row in ds.values:
            assert np.array_equal(row, expected)

    def test_identical_pool_identical_channels(self):
        cfg = GeneratorConfig(omega_bar=0.1, l=10, n=500, d=5, seed=1)
        ds = synthesize(cfg, pool=([1.3] * 4, [1 / 24] * 4, [0.5] * 4))
        base = 10.0 * oracles.render_sine(1.3, 1 / 24, 0.5, 500)
        for row in ds.values:
            assert np.allclose(row, base, rtol=1e-12, atol=0)
        pcc = np.corrcoef(ds.values)
        assert np.allclose(pcc, 1.0, atol=1e-12)

    def test_deterministic(self):
        cfg = GeneratorConfig(omega_bar=1 / 24, h=3, n=2048, d=4, seed=99)
        a, b = synthesize(cfg), synthesize(cfg)
        assert np.array_equal(a.values, b.values)
        assert a.provenance == b.provenance

    def test_shape_and_provenance(self):
        cfg = GeneratorConfig(omega_bar=1 / 24, n=1024, d=3, seed=2)
        ds = synthesize(cfg)
        assert ds.values.shape == (3, 1024)
        assert cfg.digest() in ds.provenance

    def test_power_confined_to_harmonics(self):
        # window 1200 is a multiple of 24, so the harmonic set sits on
        # exact bins 50, 100, 150; leakage must stay below 1%
        cfg = GeneratorConfig(omega_bar=1 / 24, h=3, seed=11)
        ds = synthesize(cfg)
        agg = aggregate_periodogram(ds, 1200)
        keep = np.zeros(len(agg), dtype=bool)
        for f in harmonic_set(1 / 24, 3):
            j = np.argmin(np.abs(agg.freqs - f))
            keep[max(0, j - 1) : j + 2] = True
        assert agg.powers[keep].sum() >= 0.99 * agg.powers.sum()


def direct_synthesize(cfg, pool=None):
    """synthesize's channels from the per-member oracle render."""
    rng = np.random.default_rng(cfg.seed)
    if pool is None:
        arrays = _draw_pool((cfg.omega_bar, cfg.h), cfg.m, cfg.A_prime, rng)
    else:
        arrays = tuple(np.asarray(a, dtype=np.float64) for a in pool)
    return render_channels_direct(*arrays, cfg.n, cfg.d, cfg.l, rng)


def assert_within_basis_tolerance(got, want):
    # the basis path skips rounding (2*pi*f*t) + phase, so it differs
    # from the per-member render by a few ulps of the largest argument
    assert got.shape == want.shape
    gap = np.abs(got - want).max(axis=1)
    assert np.all(gap <= 1e-10 * want.std(axis=1)), gap / want.std(axis=1)


class TestBasisRender:
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_harmonic_pools_match_direct_render(self, h, seed):
        cfg = GeneratorConfig(omega_bar=1 / 24, h=h, n=50_000, seed=seed)
        assert_within_basis_tolerance(synthesize(cfg).values, direct_synthesize(cfg))

    @pytest.mark.parametrize("omega", NATURAL_FREQUENCIES)
    def test_natural_pools_match_direct_render(self, omega):
        cfg = GeneratorConfig(omega_bar=omega, h=3, n=50_000, seed=4)
        assert_within_basis_tolerance(synthesize(cfg).values, direct_synthesize(cfg))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_nyquist_pool_matches_direct_render(self, seed):
        # the largest arguments, so the widest gap (seed 2: 8.8e-11 std)
        cfg = GeneratorConfig(omega_bar=0.45, h=1, n=50_000, seed=seed)
        assert_within_basis_tolerance(synthesize(cfg).values, direct_synthesize(cfg))

    def test_explicit_pool_with_repeated_frequencies(self):
        rng = np.random.default_rng(8)
        pool = (rng.uniform(0.5, 3.0, 12), [1 / 24, 1 / 7, 0.2] * 4, rng.uniform(0.0, 6.0, 12))
        cfg = GeneratorConfig(omega_bar=0.1, l=7, n=50_000, d=4, seed=3)
        got = synthesize(cfg, pool=pool).values
        assert_within_basis_tolerance(got, direct_synthesize(cfg, pool))

    def test_pools_without_repeats_render_every_member(self):
        # 2 distinct frequencies in a pool of 4: no basis saving, so the
        # per-member render runs and matches bit for bit
        k = np.arange(4)
        pool = (1.0 + k, np.where(k % 2, 0.2, 1 / 24), 0.1 * k)
        cfg = GeneratorConfig(omega_bar=0.1, l=5, n=3000, d=3, seed=9)
        assert np.array_equal(synthesize(cfg, pool=pool).values, direct_synthesize(cfg, pool))

    def test_mix_datasets_bitwise_equal_to_direct_render(self):
        seed, copies, n, d = 13, 2, 4096, 3
        got = build_datasets(["mix"] * copies, seed, n=n, d=d)
        master = np.random.default_rng(seed)
        for ds in got:
            rng = np.random.default_rng(int(master.integers(0, 2**63 - 1)))
            pool = oracles.build_mix_pool(100, 5.0, rng)
            values = render_channels_direct(*pool, n, d, 10, rng)
            want = standardize(Dataset(values=values, channel_names=ds.channel_names))
            assert np.array_equal(ds.values, want.values)

    @pytest.mark.parametrize("m", [7, 100])
    @pytest.mark.parametrize("n", [1000, 50_000, 123_457])
    def test_mix_pools_render_in_place_bit_for_bit(self, n, m):
        # the in-place member rows against the one-expression render
        rng = np.random.default_rng(n + m)
        arrays = _draw_pool("mix", m, 5.0, rng)
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        got = _render_channels(*arrays, n, 5, 10, rng)
        want = render_channels_direct(*arrays, n, 5, 10, twin)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m, d, l", [(100, 5, 10), (100, 5, 1), (100, 1, 1), (3, 5, 10)])
    @pytest.mark.parametrize("seed", range(20))
    def test_mix_renders_drawn_members_bit_for_bit(self, seed, m, d, l):
        # only the members some channel draws are rendered; a skipped
        # member's zero count added an exact zero, so no bit moves
        rng = np.random.default_rng(seed)
        arrays = _draw_pool("mix", m, 5.0, rng)
        twin, probe = np.random.default_rng(), np.random.default_rng()
        twin.bit_generator.state = probe.bit_generator.state = rng.bit_generator.state
        drawn = np.unique(probe.integers(0, m, size=(d, l))).size
        if m == 3:
            assert drawn == m  # 50 draws of 3 members take every one
        else:
            assert drawn < m  # some members are skipped
        got = _render_channels(*arrays, 2000, d, l, rng)
        want = render_channels_direct(*arrays, 2000, d, l, twin)
        assert got.tobytes() == want.tobytes()


class TestStandardize:
    def test_hand_example(self):
        ds = Dataset(values=np.array([[1.0, 2.0, 3.0]]), channel_names=("a",))
        out = standardize(ds)
        root = np.sqrt(3.0 / 2.0)
        assert np.allclose(out.values[0], [-root, 0.0, root], atol=1e-12)
        assert_standardized(out)

    def test_idempotent(self):
        vals = np.random.default_rng(3).normal(size=(3, 400))
        once = standardize(Dataset(values=vals, channel_names=("a", "b", "c")))
        twice = standardize(once)
        assert np.max(np.abs(twice.values - once.values)) < 1e-9

    def test_constant_channel(self):
        vals = np.vstack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(DegenerateChannel):
            standardize(Dataset(values=vals, channel_names=("a", "b")))

    def test_near_constant_large_offset_channel(self):
        t = np.arange(1000)
        vals = np.vstack([1e8 + 1e-7 * np.sin(t), np.sin(0.3 * t)])
        with pytest.raises(DegenerateChannel, match=r"channel\(s\) \[0\]"):
            standardize(Dataset(values=vals, channel_names=("a", "b")))

    def test_small_relative_spread_still_standardized(self):
        t = np.arange(1000)
        vals = np.vstack([1e8 + 1.0 * np.sin(t), np.sin(0.3 * t)])
        out = standardize(Dataset(values=vals, channel_names=("a", "b")))
        mean = vals.mean(axis=1, keepdims=True)
        std = vals.std(axis=1, keepdims=True)
        assert np.array_equal(out.values, (vals - mean) / std)

    def test_moments(self):
        vals = np.random.default_rng(4).uniform(1, 9, size=(2, 333))
        out = standardize(Dataset(values=vals, channel_names=("a", "b")))
        assert np.max(np.abs(out.values.mean(axis=1))) < 1e-9
        assert np.max(np.abs(out.values.std(axis=1) - 1.0)) < 1e-9


class TestSampleWindows:
    def _datasets(self):
        rng = np.random.default_rng(5)
        return [
            Dataset(
                values=rng.normal(size=(2, 300)), channel_names=("a", "b")
            ),
            Dataset(
                values=rng.normal(size=(3, 250)), channel_names=("x", "y", "z")
            ),
        ]

    def test_values_match_source_slices(self):
        datasets = self._datasets()
        train, val = sample_windows(datasets, 40, 10, L=16, H=4, seed=0)
        want = oracles.sample_windows_eager(datasets, 40, 10, 16, 4, 0)
        for ws, eager in zip((train, val), want, strict=True):
            assert_bitwise(ws.lookbacks, eager.lookbacks)
            assert_bitwise(ws.horizons, eager.horizons)

    def test_disjoint_triples(self):
        train, val = sample_windows(self._datasets(), 100, 100, L=8, H=2, seed=1)
        # flat starts into the shared series are one-to-one with triples
        assert train._series is val._series
        assert len(set(train._starts) | set(val._starts)) == 200

    def test_counts_and_lengths(self):
        train, val = sample_windows(self._datasets(), 12, 5, L=96, H=24, seed=2)
        assert (train.count, val.count) == (12, 5)
        assert train.L == val.L == 96
        assert train.H == val.H == 24

    def test_window_too_long(self):
        with pytest.raises(WindowTooLong):
            sample_windows(self._datasets(), 1, 0, L=200, H=100, seed=0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            sample_windows(self._datasets(), 10_000, 10_000, L=8, H=2, seed=0)

    def test_deterministic(self):
        a = sample_windows(self._datasets(), 20, 20, L=8, H=2, seed=9)
        b = sample_windows(self._datasets(), 20, 20, L=8, H=2, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.lookbacks, y.lookbacks)
            assert np.array_equal(x.horizons, y.horizons)
            assert np.array_equal(x._starts, y._starts)


class TestFreqSynth:
    def test_default_shapes(self):
        train, val = freq_synth(1 / 24, seed=0)
        assert (train.count, val.count) == (5000, 5000)
        assert train.L == 96 and train.H == 720
        assert train.lookbacks.shape[1] + train.horizons.shape[1] == 816

    def test_single_window(self):
        train, val = freq_synth(1 / 24, seed=3, count_train=1, count_val=1, n=4096)
        assert train.count == 1 and val.count == 1
        assert train._series is val._series
        assert train._starts[0] != val._starts[0]

    def test_deterministic(self):
        a, _ = freq_synth(1 / 24, seed=5, count_train=50, count_val=10, n=4096)
        b, _ = freq_synth(1 / 24, seed=5, count_train=50, count_val=10, n=4096)
        assert np.array_equal(a.lookbacks, b.lookbacks)
        assert np.array_equal(a.horizons, b.horizons)

    def test_window_too_long(self):
        with pytest.raises(WindowTooLong):
            freq_synth(1 / 24, seed=0, count_train=1, count_val=1, n=500)

    def test_harmonic_datasets_standardized(self):
        datasets = build_datasets([(1 / 24, h) for h in (1, 2, 3)], seed=1, n=2048, d=2)
        assert len(datasets) == 3
        for ds in datasets:
            assert_standardized(ds)


class TestNaturalVariant:
    def test_dataset_grid(self):
        datasets = build_datasets(NATURAL_LAWS, 0, n=4096, d=2)
        assert len(datasets) == len(NATURAL_FREQUENCIES) * 3

    def test_recovery_on_quarter_day_subset(self):
        datasets = build_datasets(NATURAL_LAWS, 0, n=8192, d=2)
        # layout is fundamental-major: entries 6..8 carry omega = 1/24
        i = NATURAL_FREQUENCIES.index(1 / 24) * 3
        for ds in datasets[i + 1 : i + 3]:
            est = estimate_fundamental(ds)
            assert abs(est.omega_bar - 1 / 24) <= 1 / 1024

    def test_deterministic(self):
        a, _ = freq_synth_natural(2, count_train=30, count_val=10, n=4096, d=2)
        b, _ = freq_synth_natural(2, count_train=30, count_val=10, n=4096, d=2)
        assert np.array_equal(a.lookbacks, b.lookbacks)


class TestMixVariant:
    def test_pool_frequency_range(self):
        lo, hi = MIX_FREQ_RANGE
        for seed in range(5):
            _, freqs, _ = _draw_pool("mix", 100, 5.0, np.random.default_rng(seed))
            assert np.all(freqs > lo)
            assert np.all(freqs < hi)

    def test_no_dominant_bin(self):
        # unstructured pools spread power; no bin may hold > 50%
        for seed in range(10):
            ds = build_datasets(["mix"], seed, n=4096, d=2)[0]
            agg = aggregate_periodogram(ds, 1024)
            assert agg.powers.max() <= 0.5 * agg.powers.sum()

    def test_deterministic(self):
        a, _ = freq_synth_mix(4, count_train=30, count_val=10, n=4096, d=2)
        b, _ = freq_synth_mix(4, count_train=30, count_val=10, n=4096, d=2)
        assert np.array_equal(a.lookbacks, b.lookbacks)

    @pytest.mark.parametrize(
        "sizes",
        [{"n": 10**9, "d": 10**6}, {"d": 2.5}, {"d": 0}, {"n": 1},
         {"n": 10**9 // 5 + 1}, {"n": "64"}],
    )
    @pytest.mark.parametrize("law", ["mix", (1 / 24, 2)])
    def test_sizes_checked_as_generator_config_checks_them(self, sizes, law, monkeypatch):
        # checked before anything is drawn, so nothing is ever rendered;
        # n * d over the point budget (the default d is 5) included
        def refuse(*args, **kwargs):
            raise AssertionError("a dataset was rendered")

        monkeypatch.setattr(generator, "_render_channels", refuse)
        monkeypatch.setattr(generator, "synthesize", refuse)
        with pytest.raises(ValueError) as want:
            GeneratorConfig(omega_bar=0.1, **sizes)
        with pytest.raises(ValueError) as got:
            build_datasets([law], 0, **sizes)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("law", ["mixx", "ab", (0.1,), (0.1, 2, 3), 0.1, None])
    def test_unknown_law_is_named(self, law):
        with pytest.raises(ValueError, match="^unknown frequency law") as exc:
            build_datasets(["mix", law], 0, n=64, d=1)
        assert repr(law) in str(exc.value)

    class Rendered(Exception):
        """Raised by the patched render: every check before it passed."""

    def _no_render(self, monkeypatch):
        def render(*args, **kwargs):
            raise self.Rendered()

        monkeypatch.setattr(generator, "_render_channels", render)

    def test_mix_law_budget_counts_the_drawn_members(self, monkeypatch):
        # a mix render holds at most min(m, d * l) of its m = 100 members
        # as rows of n; with the budget at 10**4 points, m * n is over it
        # at every n here, so only d * l * n decides
        monkeypatch.setattr(generator, "_MAX_POINTS", 10**4)
        (ds,) = build_datasets(["mix"], 0, n=1000, d=1)  # 10 rows of 1000
        assert ds.values.shape == (1, 1000)
        build_datasets(["mix"], 0, n=200, d=5)  # 50 rows of 200
        with pytest.raises(TooManyPoints, match=r"^min\(m, d \* l\) \* n = 50 \* 201 "):
            build_datasets(["mix"], 0, n=201, d=5)
        with pytest.raises(TooManyPoints, match=r"^min\(m, d \* l\) \* n = 10 \* 1001 "):
            build_datasets(["mix"], 0, n=1001, d=1)

    @pytest.mark.parametrize("laws, n, error, message", [
        ([(0.1, 1), (0.7, 1)], 64, ValueError, r"^omega_bar must be in \(0, 0.5\), got 0.7$"),
        ([(0.1, 1), (0.2, 0)], 64, ValueError, r"^h must be an integer >= 1, got 0$"),
        ([(0.1, 1), "mix"], 10**8 + 1, TooManyPoints,
         r"^min\(m, d \* l\) \* n = 10 \* 100000001 "),
        (["mix", (1e-9, 10**12)], 64, TooManyPoints, r"^m \* K = 100 \* 499999999 "),
    ], ids=["omega_bar", "h", "mix budget", "harmonic budget"])
    def test_every_law_checked_before_any_render(self, monkeypatch, laws, n, error, message):
        # construction only: the law that fails comes after one that
        # passes, and nothing is rendered before the failure
        self._no_render(monkeypatch)
        with pytest.raises(error, match=message):
            build_datasets(laws, 0, n=n, d=1)


class TestCorrelationTrend:
    def test_more_sines_per_channel_raises_mean_pcc(self):
        # channels sharing more pool draws correlate more strongly;
        # light check on the endpoints of the acceptance-gate sweep
        def mean_abs_pcc(l, seed):
            cfg = GeneratorConfig(
                omega_bar=1 / 24, h=3, m=100, l=l, n=4096, d=8, seed=seed
            )
            c = np.corrcoef(synthesize(cfg).values)
            off = c[~np.eye(8, dtype=bool)]
            return float(np.mean(np.abs(off)))

        lo = np.mean([mean_abs_pcc(1, s) for s in range(5)])
        hi = np.mean([mean_abs_pcc(50, s) for s in range(5)])
        assert hi > lo


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def assert_same_datasets(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_bitwise(a.values, b.values)
        assert (a.channel_names, a.provenance) == (b.channel_names, b.provenance)


def assert_same_windows(got, want):
    for a, b in zip(got, want, strict=True):
        assert_bitwise(a.lookbacks, b.lookbacks)
        assert_bitwise(a.horizons, b.horizons)


SIZES = [
    dict(n=600, d=2),
    dict(n=513, d=3),
    dict(n=300, d=1),
]


class TestBitForBit:
    """build_datasets, the freq_synth variants and the standardisers
    against the code they replaced (tests/oracles.py), bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 99, 2**40 + 3])
    @pytest.mark.parametrize("sizes", SIZES)
    @pytest.mark.parametrize("h_values", [(1, 2, 3), (4,), (2, 1, 5)])
    def test_harmonic_datasets(self, seed, sizes, h_values):
        laws = [(1 / 24, h) for h in h_values]
        assert_same_datasets(
            build_datasets(laws, seed, **sizes),
            oracles.build_harmonic_datasets(1 / 24, seed, h_values, **sizes),
        )

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    @pytest.mark.parametrize("sizes", SIZES)
    def test_natural_datasets(self, seed, sizes):
        assert_same_datasets(
            build_datasets(NATURAL_LAWS, seed, **sizes),
            oracles.build_natural_datasets(seed, **sizes),
        )
        freqs, h_values = (0.2, 1 / 60), (3, 1)
        assert_same_datasets(
            build_datasets([(f, h) for f in freqs for h in h_values], seed, **sizes),
            oracles.build_natural_datasets(
                seed, frequencies=freqs, h_values=h_values, **sizes
            ),
        )

    @pytest.mark.parametrize("seed", [0, 13, 2**40 + 3])
    @pytest.mark.parametrize("sizes", SIZES)
    @pytest.mark.parametrize("copies", [1, 3, 4])
    def test_mix_datasets(self, seed, sizes, copies):
        assert_same_datasets(
            build_datasets(["mix"] * copies, seed, **sizes),
            oracles.build_mix_datasets(seed, copies=copies, **sizes),
        )

    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 3])
    @pytest.mark.parametrize("sizes", SIZES)
    def test_freq_synth_variants(self, seed, sizes):
        counts = dict(count_train=40, count_val=9, L=24, H=12)
        assert_same_windows(
            freq_synth(1 / 7, seed, **counts, **sizes),
            oracles.freq_synth(1 / 7, seed, **counts, **sizes),
        )
        assert_same_windows(
            freq_synth_natural(seed, **counts, **sizes),
            oracles.freq_synth_natural(seed, **counts, **sizes),
        )
        assert_same_windows(
            freq_synth_mix(seed, **counts, **sizes),
            oracles.freq_synth_mix(seed, **counts, **sizes),
        )

    def test_freq_synth_defaults(self):
        assert_same_windows(
            freq_synth(1 / 24, 11, count_train=200, count_val=20, n=2048),
            oracles.freq_synth(1 / 24, 11, count_train=200, count_val=20, n=2048),
        )

    def test_pools(self):
        for seed in range(4):
            cfg = GeneratorConfig(omega_bar=0.07, h=4, m=37, A_prime=2.0, seed=seed)
            want = oracles._draw_pool_arrays(cfg, np.random.default_rng(seed))
            for g, w in zip(build_pool(cfg), want, strict=True):
                assert_bitwise(g, w)
            got = _draw_pool("mix", 41, 3.0, np.random.default_rng(seed))
            want = oracles.build_mix_pool(41, 3.0, np.random.default_rng(seed))
            for g, w in zip(got, want, strict=True):
                assert_bitwise(g, w)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_synthesize(self, seed):
        cfg = GeneratorConfig(omega_bar=0.11, h=3, m=20, l=6, n=700, d=3, seed=seed)
        assert_same_datasets([synthesize(cfg)], [oracles.synthesize(cfg)])
        pool = tuple(a[:7] for a in build_pool(cfg))
        assert_same_datasets([synthesize(cfg, pool)], [oracles.synthesize(cfg, pool)])

    def test_standardisers(self):
        rng = np.random.default_rng(6)
        names = ("a", "b", "c")
        ds = Dataset(values=rng.normal(3.0, 2.0, size=(3, 301)), channel_names=names,
                     provenance="p")
        assert_same_datasets([standardize(ds)], [oracles.standardize(ds)])
        train, val, test = (Dataset(ds.values[:, a:b], names, "p")
                            for a, b in ((0, 200), (200, 250), (250, 301)))
        for splits in ((train,), (train, test), (train, val, test), (train, train)):
            assert_same_datasets(
                standardize_by_train(*splits), oracles.standardize_by_train(*splits)
            )

    def test_standardisers_refuse_the_same_channels(self):
        t = np.arange(400)
        vals = np.vstack([np.sin(0.3 * t), np.full(400, 2.0), 1e8 + 1e-7 * np.sin(t)])
        ds = Dataset(values=vals, channel_names=("a", "b", "c"))
        for new, old in ((standardize, oracles.standardize),
                         (standardize_by_train, oracles.standardize_by_train)):
            with pytest.raises(DegenerateChannel, match=r"channel\(s\) \[1, 2\]"):
                new(ds)
            with pytest.raises(DegenerateChannel, match=r"channel\(s\) \[1, 2\]"):
                old(ds)

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 1000, 1001])
    def test_periodograms(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        got, want = scaled_periodogram(x), oracles.scaled_periodogram(x)
        assert_bitwise(got.freqs, want.freqs)
        assert_bitwise(got.powers, want.powers)
        if n >= 16:
            ds = Dataset(values=rng.normal(size=(3, 4 * n + 5)), channel_names=("a", "b", "c"))
            got, want = aggregate_periodogram(ds, n), oracles.aggregate_periodogram(ds, n)
            assert_bitwise(got.freqs, want.freqs)
            assert_bitwise(got.powers, want.powers)
