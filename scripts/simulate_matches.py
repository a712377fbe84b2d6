#!/usr/bin/env python3
"""Monte Carlo tournament between the bundled strategies.

Plays every pairing of identity, bit flip and the two equilibrium
strategies through the referee's measurement and compares empirical means
with the exact expected payoffs.
"""

import numpy as np

from qgame.cli import ArgumentParser, _rounds, _seed, survive_closed_pipe
from qgame.game import simulate_play
from qgame.games_builtin import (
    ewl_equilibrium_strategies,
    ewl_prisoners_dilemma,
    ewl_referee_measurement,
)
from qgame.quantum import kraus_form, shift_channel


def main():
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=_rounds, default=100_000)
    parser.add_argument("--seed", type=_seed, default=0)
    args = parser.parse_args()

    game = ewl_prisoners_dilemma().game
    povm, a_i, a_ii = ewl_referee_measurement()
    chi_star, xi_star = ewl_equilibrium_strategies()
    lineup = [
        ("identity", shift_channel(2, 0)),
        ("bitflip", shift_channel(2, 1)),
        ("chi_star", kraus_form(chi_star)),
        ("xi_star", kraus_form(xi_star)),
    ]

    streams = np.random.SeedSequence(args.seed).spawn(len(lineup) ** 2)
    print(f"{'player I':>10} {'player II':>10} {'mean I':>9} {'mean II':>9} "
          f"{'exact I':>9} {'exact II':>9} {'z I':>6} {'z II':>6}")
    k = 0
    for name_a, ch_a in lineup:
        for name_b, ch_b in lineup:
            rng = np.random.default_rng(streams[k])
            k += 1
            res = simulate_play(game, povm, a_i, a_ii, ch_a, ch_b, args.rounds, rng)
            z_i = (res.mean_i - res.exact_i) / res.stderr_i if res.stderr_i else 0.0
            z_ii = (res.mean_ii - res.exact_ii) / res.stderr_ii if res.stderr_ii else 0.0
            print(f"{name_a:>10} {name_b:>10} {res.mean_i:>9.4f} {res.mean_ii:>9.4f} "
                  f"{res.exact_i:>9.4f} {res.exact_ii:>9.4f} {z_i:>+6.2f} {z_ii:>+6.2f}")


if __name__ == "__main__":
    survive_closed_pipe(main)
