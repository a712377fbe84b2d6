#!/usr/bin/env python3
"""Full report for the built-in quantized prisoner's dilemma.

Prints both payoff grids (fraction-rendered), checks them against the
bundled transcription fixture, shows the classical reduction, and verifies
the equilibrium strategy pair.
"""

import numpy as np

from qgame.cli import ArgumentParser, _tolerance, print_matrix, survive_closed_pipe
from qgame.equilibrium import verify_nash
from qgame.game import classical_reduction, payoff_contract, payoff_tensor_matrix_unit
from qgame.games_builtin import (
    ewl_equilibrium_strategies,
    ewl_prisoners_dilemma,
    figure1_reference_tensors,
)
from qgame.linalg import NASH_EPSILON


def main():
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=_tolerance, default=NASH_EPSILON)
    args = parser.parse_args()

    game = ewl_prisoners_dilemma().game
    chi_star, xi_star = ewl_equilibrium_strategies()

    for player, fixture in zip(("I", "II"), figure1_reference_tensors()):
        tensor = payoff_tensor_matrix_unit(game, player)
        deviation = float(np.max(np.abs(tensor.entries - fixture)))
        print(f"\npayoff grid, player {player} (max deviation from fixture {deviation:.1e})")
        print_matrix(tensor.grid, exact=True)

    print("\nclassical reduction (identity / bit flip):")
    bim = classical_reduction(game)
    for s in range(2):
        print("  " + "   ".join(f"({bim.payoff_i[s, t]:g}, {bim.payoff_ii[s, t]:g})"
                                for t in range(2)))

    pay_i = payoff_contract(payoff_tensor_matrix_unit(game, "I"), chi_star, xi_star)
    pay_ii = payoff_contract(payoff_tensor_matrix_unit(game, "II"), chi_star, xi_star)
    print(f"\nequilibrium strategy pair payoffs: ({pay_i:g}, {pay_ii:g})")

    report = verify_nash(game, chi_star, xi_star, epsilon=args.epsilon)
    verdict = "confirmed" if report.is_equilibrium else "REFUTED"
    print(f"epsilon-Nash property ({args.epsilon:g}): {verdict}; "
          f"gaps ({report.gap_i:.2e}, {report.gap_ii:.2e}), "
          f"certificates ({report.response_i.gap:.2e}, {report.response_ii.gap:.2e})")


if __name__ == "__main__":
    survive_closed_pipe(main)
