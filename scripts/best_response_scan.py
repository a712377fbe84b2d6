#!/usr/bin/env python3
"""Stress the best-response solver against the unitary grid oracle.

Draws random opponent strategies, solves the certified best response, and
compares it with the brute-force unitary grid and with random extreme
points of the strategy set, on the built-in game or, with
``--random-games``, on random 2x2 games.  The solver should dominate both
lower bounds and every gap should certify.
"""

import argparse

import numpy as np

from qgame.equilibrium import best_response, unitary_oracle
from qgame.game import build_game, payoff_tensor_matrix_unit, response_problem
from qgame.games_builtin import ewl_prisoners_dilemma
from qgame.quantum import kraus_to_chi
from qgame.random_ops import random_chi, random_density, random_hermitian, random_kraus_channel


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--random-games", action="store_true",
                        help="scan random games instead of the built-in one")
    parser.add_argument("--resolution", type=int, default=24)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    base = ewl_prisoners_dilemma().game

    print(f"{'trial':>5} {'player':>6} {'solver':>12} {'dual bound':>12} {'gap':>9} "
          f"{'unitary grid':>12} {'extreme pts':>12} {'margin':>9}")
    worst_margin = np.inf
    for trial in range(args.trials):
        if args.random_games:
            dim = 4
            game = build_game(random_density(dim, rng), random_hermitian(dim, rng),
                              random_hermitian(dim, rng), 2, 2)
        else:
            game = base
        player = "I" if trial % 2 == 0 else "II"
        tensor = payoff_tensor_matrix_unit(game, player)
        opponent = random_chi(2, rng)
        problem = response_problem(tensor, opponent, player)

        result = best_response(problem)
        grid_value, _ = unitary_oracle(tensor, opponent, player, resolution=args.resolution)
        extreme = max(
            float(np.trace(problem.matrix @ kraus_to_chi(random_kraus_channel(2, rng)).matrix).real)
            for _ in range(200)
        )
        lower = max(grid_value, extreme)
        margin = result.value - lower
        worst_margin = min(worst_margin, margin)
        print(f"{trial:>5} {player:>6} {result.value:>12.8f} {result.dual_bound:>12.8f} "
              f"{result.gap:>9.1e} {grid_value:>12.8f} {extreme:>12.8f} {margin:>9.2e}")

    print(f"\nworst solver margin over all lower bounds: {worst_margin:.3e}")
    if worst_margin < -1e-8:
        raise SystemExit("solver fell below a lower bound; do not trust this configuration")


if __name__ == "__main__":
    main()
