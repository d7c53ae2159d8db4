"""Query budgets and accuracy of the simulated quantum mean-estimation oracle.

Shows how the bounded-noise and bounded-variance budgets scale with the
target accuracy, then measures the empirical clean-event rate with fault
injection on (estimates should land within +/- eps except with probability
delta).
"""

import math

import numpy as np

from lipzoom.environment import (
    Estimator,
    NoiseModel,
    QuantumOracleSim,
    RoundLedger,
    qmc1_budget,
    qmc2_budget,
    qmc_estimate,
    triangle_model,
)

SIGMA = math.sqrt(0.1)


def main():
    print("eps        qmc1(d=1e-3)   qmc2(sigma=sqrt(.1))")
    for k in range(1, 8):
        eps = 2.0 ** -k
        b1 = qmc1_budget(eps, 1e-3)
        b2 = qmc2_budget(eps, SIGMA, 1e-3)
        print(f"{eps:<10g} {b1:>12}   {b2:>12}")

    model = triangle_model()
    oracle = QuantumOracleSim("contract", True, np.random.default_rng(0))
    mu = model.mu((0.5,))
    delta, eps, n = 0.05, 0.1, 5_000
    estimator = Estimator(NoiseModel("bernoulli"), delta)
    hits = sum(
        abs(qmc_estimate(oracle, estimator, model, (0.5,), eps,
                         RoundLedger(10 ** 9, 10 ** 9))[0] - mu) <= eps
        for _ in range(n)
    )
    print(f"\nclean-event rate at delta={delta}: {hits / n:.4f} "
          f"(expected about {1 - delta})")


if __name__ == "__main__":
    main()
