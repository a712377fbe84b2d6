"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured runtime.  Run with ``pytest
tests/test_acceptance.py -v -s`` to see the report.
"""

import time

import numpy as np

from conftest import channel_action_distance
from qgame.equilibrium import best_response, response_problem, unitary_oracle, verify_nash
from qgame.game import (
    build_game,
    classical_reduction,
    payoff_contract,
    payoff_direct,
    payoff_tensor_general,
    payoff_tensor_matrix_unit,
    simulate_play,
)
from qgame.games_builtin import (
    ewl_equilibrium_strategies,
    ewl_prisoners_dilemma,
    ewl_referee_measurement,
    figure1_reference_tensors,
)
from qgame.quantum import (
    identity_chi,
    kraus_form,
    kraus_to_chi,
    shift_channel,
)
from qgame.random_ops import random_chi, random_density, random_hermitian, random_kraus_channel


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number: int, description: str, ok: bool, elapsed: float) -> None:
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'} ({elapsed:6.2f}s)  {description}")


def random_game(n1, n2, rng):
    rho = random_density(n1 * n2, rng)
    return build_game(rho, random_hermitian(n1 * n2, rng), random_hermitian(n1 * n2, rng), n1, n2)


def test_criterion_1_figure_reproduction():
    with Stopwatch() as clock:
        game = ewl_prisoners_dilemma().game
        fixtures = figure1_reference_tensors()
        # np.max, not Python's max, so that a NaN deviation propagates and fails
        worst = float(np.max([np.abs(payoff_tensor_matrix_unit(game, player).entries - fixture)
                              for player, fixture in zip(("I", "II"), fixtures)]))
    # exact: every entry is a dyadic rational that the construction forms without rounding
    ok = worst == 0.0 and clock.elapsed < 1.0
    report(1, f"reference grids reproduced, worst deviation {worst:.1e}", ok, clock.elapsed)
    assert worst == 0.0
    assert clock.elapsed < 1.0


def test_criterion_2_closed_form_identity():
    rng = np.random.default_rng(2)
    with Stopwatch() as clock:
        worst = 0.0
        for n, count in ((2, 100), (3, 20)):
            for _ in range(count):
                game = random_game(n, n, rng)
                for player in ("I", "II"):
                    general = payoff_tensor_general(game, player)
                    closed = payoff_tensor_matrix_unit(game, player)
                    worst = max(worst, float(np.max(np.abs(general - closed.entries))))
    ok = worst <= 1e-12 and clock.elapsed < 10.0
    report(2, f"trace form equals closed form, worst deviation {worst:.1e}", ok, clock.elapsed)
    assert worst <= 1e-12
    assert clock.elapsed < 10.0


def test_criterion_3_classical_reduction():
    with Stopwatch() as clock:
        game = ewl_prisoners_dilemma().game
        bim = classical_reduction(game)
        expected_i = np.array([[3.0, 0.0], [5.0, 1.0]])
        expected_ii = np.array([[3.0, 5.0], [0.0, 1.0]])
        worst = max(
            float(np.max(np.abs(bim.payoff_i - expected_i))),
            float(np.max(np.abs(bim.payoff_ii - expected_ii))),
        )
    ok = worst <= 1e-10
    report(3, f"classical bimatrix reproduced, worst deviation {worst:.1e}", ok, clock.elapsed)
    assert worst <= 1e-10


def test_criterion_4_equilibrium_reproduction():
    with Stopwatch() as clock:
        game = ewl_prisoners_dilemma().game
        chi_star, xi_star = ewl_equilibrium_strategies()
        payoffs = [
            payoff_contract(payoff_tensor_matrix_unit(game, player), chi_star, xi_star)
            for player in ("I", "II")
        ]
        payoff_ok = all(abs(p - 2.5) <= 1e-10 for p in payoffs)
        result = verify_nash(game, chi_star, xi_star, epsilon=1e-5)
        certificates_ok = (result.response_i.gap <= 1e-5 and result.response_ii.gap <= 1e-5)
    ok = payoff_ok and result.is_equilibrium and certificates_ok and clock.elapsed < 30.0
    report(4, f"equilibrium payoffs {payoffs} with certified gaps "
              f"({result.response_i.gap:.1e}, {result.response_ii.gap:.1e})", ok, clock.elapsed)
    assert payoff_ok
    assert result.is_equilibrium
    assert certificates_ok
    assert clock.elapsed < 30.0


def test_criterion_5_non_equilibrium_detection():
    with Stopwatch() as clock:
        game = ewl_prisoners_dilemma().game
        chi_id = identity_chi(2)
        result = verify_nash(game, chi_id, chi_id, epsilon=1e-3)
    ok = (not result.is_equilibrium) and result.gap_i >= 2 - 1e-3
    report(5, f"classical play rejected, gap_I = {result.gap_i:.6f}", ok, clock.elapsed)
    assert not result.is_equilibrium
    assert result.gap_i >= 2 - 1e-3


def test_criterion_6_evaluation_equivalence():
    rng = np.random.default_rng(6)
    with Stopwatch() as clock:
        worst = 0.0
        for _ in range(20):
            game = random_game(2, 2, rng)
            tensors = {p: payoff_tensor_matrix_unit(game, p) for p in ("I", "II")}
            for _ in range(10):
                ch_a = random_kraus_channel(2, rng)
                ch_b = random_kraus_channel(2, rng)
                chi_a, chi_b = kraus_to_chi(ch_a), kraus_to_chi(ch_b)
                for player in ("I", "II"):
                    via_tensor = payoff_contract(tensors[player], chi_a, chi_b)
                    via_direct = payoff_direct(game, ch_a, ch_b, player)
                    worst = max(worst, abs(via_tensor - via_direct))
    ok = worst <= 1e-9
    report(6, f"contraction equals direct evaluation over 200 channel pairs, "
              f"worst deviation {worst:.1e}", ok, clock.elapsed)
    assert worst <= 1e-9


def test_criterion_7_channel_round_trip():
    rng = np.random.default_rng(7)
    with Stopwatch() as clock:
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 4))
            channel = random_kraus_channel(n, rng)
            rebuilt = kraus_form(kraus_to_chi(channel))
            worst = max(worst, channel_action_distance(channel, rebuilt, n))
    ok = worst <= 1e-8
    report(7, f"chi round trip preserves channel action over 200 channels, "
              f"worst deviation {worst:.1e}", ok, clock.elapsed)
    assert worst <= 1e-8


def test_criterion_8_payoff_range():
    rng = np.random.default_rng(8)
    with Stopwatch() as clock:
        game = ewl_prisoners_dilemma().game
        tensor = payoff_tensor_matrix_unit(game, "I")
        tensor_ii = payoff_tensor_matrix_unit(game, "II")
        lo, hi = np.inf, -np.inf
        for _ in range(1000):
            chi, xi = random_chi(2, rng), random_chi(2, rng)
            for t in (tensor, tensor_ii):
                value = payoff_contract(t, chi, xi)
                lo, hi = min(lo, value), max(hi, value)
    ok = lo >= -1e-9 and hi <= 5 + 1e-9
    report(8, f"payoffs over 1000 random strategy pairs span [{lo:.4f}, {hi:.4f}]",
           ok, clock.elapsed)
    assert lo >= -1e-9
    assert hi <= 5 + 1e-9


def test_criterion_9_oracle_dominance():
    rng = np.random.default_rng(9)
    with Stopwatch() as clock:
        game = ewl_prisoners_dilemma().game
        tensors = {"I": payoff_tensor_matrix_unit(game, "I"),
                   "II": payoff_tensor_matrix_unit(game, "II")}
        worst_margin = np.inf
        duality_ok = True
        for trial in range(20):
            player = "I" if trial % 2 == 0 else "II"
            opponent = random_chi(2, rng)
            oracle_value, _ = unitary_oracle(tensors[player], opponent, player)
            result = best_response(response_problem(tensors[player], opponent, player))
            worst_margin = min(worst_margin, result.value - oracle_value)
            duality_ok = duality_ok and (result.value <= result.dual_bound + 1e-8)
    ok = worst_margin >= -1e-8 and duality_ok
    report(9, f"solver dominates unitary grid on 20 opponents, worst margin "
              f"{worst_margin:.2e}, weak duality {'held' if duality_ok else 'BROKEN'}",
           ok, clock.elapsed)
    assert worst_margin >= -1e-8
    assert duality_ok


def test_criterion_10_monte_carlo_consistency():
    with Stopwatch() as clock:
        game = ewl_prisoners_dilemma().game
        povm, a_i, a_ii = ewl_referee_measurement()

        def run():
            return simulate_play(game, povm, a_i, a_ii, shift_channel(2, 0),
                                 shift_channel(2, 0), 100_000, np.random.default_rng(10))

        first = run()
        deterministic = run() == first
        within = abs(first.mean_i - 3.0) <= 3 * first.stderr_i + 1e-12
    ok = within and deterministic and clock.elapsed < 5.0
    report(10, f"Monte Carlo mean {first.mean_i:.5f} (stderr {first.stderr_i:.5f}), "
               f"deterministic={deterministic}", ok, clock.elapsed)
    assert within
    assert deterministic
    assert clock.elapsed < 5.0
