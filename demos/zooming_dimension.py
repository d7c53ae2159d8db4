"""Zooming-dimension profiles for the three benchmark reward functions.

The near-optimal set X_r = {x : r <= gap(x) < 2r} is covered by balls of
radius r/3; the log-log slope of the cover count against 1/r estimates the
zooming dimension, which governs how hard a function is to optimize.
"""

from lipzoom.diagnostics import fit_zooming_dimension
from lipzoom.environment import REWARD_FACTORIES


def main():
    for name, factory in REWARD_FACTORIES.items():
        prof = fit_zooming_dimension(factory())
        counts = ", ".join(f"{r:g}:{c}" for r, c in zip(prof.radii, prof.counts))
        print(f"{name:>8}: dim {prof.fitted_dimension:.3f} "
              f"(residual {prof.fit_residual:.3f})  counts {counts}")


if __name__ == "__main__":
    main()
