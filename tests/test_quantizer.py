import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisecomb.quantizer import (
    QUANTIZERS,
    BudgetExceededError,
    Grid,
    StickCode,
    bpp,
    decode_weights,
    fractions_from_scores,
    payload_bits,
    quantize_dp,
    quantize_greedy_exponential,
    quantize_nn,
    quantize_stagewise,
    stick_forward,
    stick_inverse,
    stick_objective,
)

RNG = np.random.default_rng(2718)


def _random_scores(m, zero_tail=0):
    b = np.sort(np.abs(RNG.normal(size=m)))[::-1]
    if zero_tail:
        b[-zero_tail:] = 0.0
    return b


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_two_bits_worked_example():
    grid = Grid(2)
    assert np.allclose(grid.values, [1 / 3, 2 / 3, 1.0], atol=1e-15)
    assert grid.all_fractions()[0] == 0.0
    assert grid.levels == 4


def test_grid_one_bit():
    grid = Grid(1)
    assert grid.values.tolist() == [1.0]


def test_grid_zero_bits_equal_split():
    grid = Grid(0)
    assert grid.values.size == 0
    code = StickCode(codes=(0, 0))
    gamma = decode_weights(code, grid)
    assert np.allclose(gamma, 1 / np.sqrt(3.0), atol=1e-15)


def test_grid_rejects_negative_bits():
    with pytest.raises(ValueError):
        Grid(-1)


# ---------------------------------------------------------------------------
# stick-breaking maps
# ---------------------------------------------------------------------------


def test_stick_forward_examples():
    assert np.array_equal(stick_forward([1.0]), [1.0, 0.0])
    gamma = stick_forward([1 / 3, 1 / 2])
    assert np.allclose(gamma, 1 / np.sqrt(3.0), atol=1e-15)


def test_stick_forward_rejects_out_of_range():
    with pytest.raises(ValueError):
        stick_forward([1.2])
    with pytest.raises(ValueError):
        stick_forward([-0.1])
    with pytest.raises(ValueError):
        stick_forward([np.nan])


@given(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=12))
@settings(max_examples=300, deadline=None)
def test_stick_forward_unit_norm_any_fractions(u):
    gamma = stick_forward(np.array(u))
    assert abs(np.sum(gamma * gamma) - 1.0) <= 1e-12
    assert np.all(gamma >= 0)


def test_stick_inverse_examples():
    assert np.array_equal(stick_inverse([1.0, 0.0, 0.0]), [1.0, 0.0])
    u = stick_inverse(np.full(3, 1 / np.sqrt(3.0)))
    assert np.allclose(u, [1 / 3, 1 / 2], atol=1e-15)


def test_stick_inverse_validates():
    with pytest.raises(ValueError):
        stick_inverse([0.9, 0.1])  # not unit norm
    with pytest.raises(ValueError):
        stick_inverse([-0.6, 0.8])
    with pytest.raises(ValueError):
        stick_inverse([np.nan, np.nan])
    with pytest.raises(ValueError):
        stick_inverse([np.nan, 1.0])


def test_stick_inverse_tiny_tail_recovers():
    # a vanishing trailing weight survives the round trip to within its size
    gamma = np.array([1.0, 1e-20, 0.0])
    back = stick_forward(stick_inverse(gamma))
    assert np.max(np.abs(back - gamma)) <= 1e-19


def test_round_trip_random_unit_vectors():
    for _ in range(10**4 // 10):
        m = int(RNG.integers(1, 16))
        gamma = np.abs(RNG.normal(size=m))
        gamma /= np.linalg.norm(gamma)
        back = stick_forward(stick_inverse(gamma))
        assert np.max(np.abs(back - gamma)) <= 1e-12


@given(st.lists(st.floats(0.0, 0.9), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_round_trip_from_fraction_space(u):
    # fractions bounded away from 1 keep every remaining stick >= 1e-5, where
    # the 1e-12 round-trip tolerance has comfortable headroom; exhaustion
    # corners are covered by the dedicated test below
    gamma = stick_forward(np.array(u))
    back = stick_forward(stick_inverse(gamma))
    assert np.max(np.abs(back - gamma)) <= 1e-12


def test_round_trip_exact_exhaustion():
    gamma = stick_forward(np.array([0.25, 1.0, 0.7]))  # stick dies at stage 2
    assert gamma[2] == 0.0 and gamma[3] == 0.0
    back = stick_forward(stick_inverse(gamma))
    assert np.array_equal(back, gamma)


# ---------------------------------------------------------------------------
# nearest-neighbor quantization
# ---------------------------------------------------------------------------


def test_nn_examples():
    grid = Grid(2)
    assert quantize_nn(np.array([0.30]), grid).codes == (1,)  # 1/3 beats 0
    assert quantize_nn(np.array([2 / 3]), grid).codes == (2,)  # exact grid point
    assert quantize_nn(np.array([0.001]), grid).codes == (0,)  # reserved zero wins


def test_nn_tie_breaks_to_smaller_code():
    grid = Grid(2)
    # 1/6 is equidistant between 0 and 1/3
    assert quantize_nn(np.array([1 / 6]), grid).codes == (0,)


def test_nn_rejects_nan_fractions():
    with pytest.raises(ValueError, match="fractions must lie in"):
        quantize_nn(np.array([np.nan]), Grid(3))


@pytest.mark.parametrize("name", sorted(QUANTIZERS))
@pytest.mark.parametrize("b", [[1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf]], ids=["nan", "inf", "-inf"])
def test_quantizers_refuse_non_finite_scores(name, b):
    # all three quantizers refuse the same inputs with the same message
    with pytest.raises(ValueError, match="scores must be finite"):
        QUANTIZERS[name](np.array(b), Grid(3))


# ---------------------------------------------------------------------------
# stage-wise quantization
# ---------------------------------------------------------------------------


def test_stagewise_two_atom_closed_form():
    b = np.array([4.0, 3.0])
    grid = Grid(16)  # fine grid: discretization ~ continuous optimum
    code = quantize_stagewise(b, grid)
    gamma = decode_weights(code, grid)
    assert np.allclose(gamma, [0.8, 0.6], atol=1e-4)
    u_star = 16.0 / 25.0
    assert abs(decodes_to_fraction(code, grid) - u_star) <= 1e-4


def decodes_to_fraction(code, grid):
    return grid.all_fractions()[code.codes[0]]


def test_stagewise_rejects_unsorted():
    with pytest.raises(ValueError):
        quantize_stagewise(np.array([3.0, 4.0]), Grid(2))


def test_stagewise_m1_empty():
    code = quantize_stagewise(np.array([2.0]), Grid(3))
    assert code.codes == ()
    assert np.array_equal(decode_weights(code, Grid(3)), [1.0])


def test_stagewise_zero_last_atom_gets_zero_weight():
    grid = Grid(4)
    code = quantize_stagewise(np.array([2.0, 1.0, 0.0]), grid)
    gamma = decode_weights(code, grid)
    assert gamma[-1] == 0.0


def test_all_zero_scores_emit_equal_split():
    grid = Grid(3)
    code = quantize_stagewise(np.zeros(4), grid)
    code2 = quantize_stagewise(np.zeros(4), grid)
    assert code == code2
    gamma = decode_weights(code, grid)
    # nearest-grid codes of the equal-split fractions
    assert np.allclose(gamma, decode_weights(quantize_nn(1.0 / np.arange(4, 1, -1), grid), grid))


# ---------------------------------------------------------------------------
# dynamic program vs oracle
# ---------------------------------------------------------------------------


def test_dp_matches_exhaustive_exactly():
    for _ in range(300):
        m = int(RNG.integers(2, 5))
        C = int(RNG.integers(1, 4))
        b = _random_scores(m, zero_tail=int(RNG.random() < 0.2))
        grid = Grid(C)
        code_dp, val_dp = quantize_dp(b, grid)
        code_gr, val_gr = quantize_greedy_exponential(b, grid)
        assert val_dp == pytest.approx(val_gr, abs=1e-12)
        assert stick_objective(b, code_dp, grid) == pytest.approx(val_dp, abs=1e-12)


def test_dp_value_equals_decoded_objective():
    for _ in range(100):
        m = int(RNG.integers(2, 10))
        b = _random_scores(m)
        grid = Grid(int(RNG.integers(0, 7)))
        code, value = quantize_dp(b, grid)
        assert stick_objective(b, code, grid) == pytest.approx(value, rel=1e-12)


def test_dominance_chain():
    violations = 0
    for _ in range(2000):
        m = int(RNG.integers(2, 9))
        C = int(RNG.integers(1, 6))
        b = _random_scores(m, zero_tail=int(RNG.random() < 0.15))
        grid = Grid(C)
        _, val_dp = quantize_dp(b, grid)
        val_sw = stick_objective(b, quantize_stagewise(b, grid), grid)
        val_nn = stick_objective(b, quantize_nn(fractions_from_scores(b), grid), grid)
        assert val_dp >= val_sw - 1e-12
        if val_sw < val_nn - 1e-12:
            violations += 1
    assert violations == 0


def test_stagewise_consistent_with_continuous_projection():
    # the continuous-domain recursion targets the same fractions as the
    # direct projection of gamma*, so the two O(m) quantizers coincide
    for _ in range(300):
        m = int(RNG.integers(2, 10))
        C = int(RNG.integers(1, 7))
        b = _random_scores(m, zero_tail=int(RNG.random() < 0.2))
        grid = Grid(C)
        sw = quantize_stagewise(b, grid)
        nn = quantize_nn(fractions_from_scores(b), grid)
        assert sw == nn


def test_dp_fine_grid_approaches_continuous_optimum():
    # components bounded below: sqrt(u) granularity near u = 0 would otherwise
    # allow coordinate errors above the tolerance at negligible objective cost
    grid = Grid(16)
    for _ in range(50):
        m = int(RNG.integers(2, 9))
        b = np.sort(np.abs(RNG.normal(size=m)) + 0.1)[::-1]
        code, _ = quantize_dp(b, grid)
        gamma = decode_weights(code, grid)
        assert np.max(np.abs(gamma - b / np.linalg.norm(b))) <= 1e-3


# ---------------------------------------------------------------------------
# exhaustive baseline
# ---------------------------------------------------------------------------


def test_greedy_budget_refusal_reports_cost():
    grid = Grid(4)
    b = _random_scores(8)
    with pytest.raises(BudgetExceededError) as exc:
        quantize_greedy_exponential(b, grid)
    msg = str(exc.value)
    assert str(16**7) in msg and "16^7" in msg


def test_greedy_m2_cost_is_level_count():
    grid = Grid(3)
    b = _random_scores(2)
    # 2^C assignments: runs under any budget >= 8, refuses below
    code, _ = quantize_greedy_exponential(b, grid, budget=8)
    assert len(code.codes) == 1
    with pytest.raises(BudgetExceededError):
        quantize_greedy_exponential(b, grid, budget=7)


# ---------------------------------------------------------------------------
# bits accounting
# ---------------------------------------------------------------------------


def test_bpp_figure_parameter_sets():
    # exact rational values of the formula at the two published configurations
    val_a = bpp(1000, 32768, 12, 8, 512)
    assert val_a == 999 * (15 * 12 + 8 * 11) / 512**2
    assert val_a == pytest.approx(267732 / 262144, abs=0)
    val_b = bpp(100, 32768, 2, 0, 512)
    assert val_b == pytest.approx(2970 / 262144, abs=0)
    assert val_b == pytest.approx(0.011330, abs=1e-5)


def test_bpp_m1_drops_code_term():
    assert bpp(101, 1024, 1, 9, 64) == 100 * 10 / 64**2


def test_bpp_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        bpp(10, 1000, 2, 3, 64)
    with pytest.raises(ValueError):
        payload_bits(10, 48, 2, 3)


def test_payload_bits_formula():
    assert payload_bits(30, 16, 4, 3) == 29 * (4 * 4 + 3 * 3)
    assert payload_bits(1, 16, 4, 3) == 0
    assert payload_bits(100, 1, 1, 0) == 0  # K=1: zero-width indices
