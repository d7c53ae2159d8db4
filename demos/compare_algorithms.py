"""Regret comparison on the triangle function under Bernoulli noise.

Runs the two quantum-oracle policies and the classical baseline at a small
horizon, prints the final mean regrets and writes a combined SVG panel.
Takes well under a second (0.17-0.29 s on a 2-CPU Xeon host).
"""

from pathlib import Path

from lipzoom.harness import ExperimentConfig, emit_csv, emit_plot, run_experiment

OUT = Path(__file__).parent / "out"


def main():
    entries = []
    for alg in ("qlae", "qzooming", "classical_zooming"):
        cfg = ExperimentConfig(algorithm=alg, reward="triangle", noise="bernoulli",
                               T=20_000, trials=5, master_seed=7)
        traces, summary = run_experiment(cfg)
        emit_csv(traces, summary, OUT / alg)
        entries.append((alg, summary))
        print(f"{alg:>20}: final mean regret {summary.mean[-1]:8.1f} "
              f"(std {summary.std[-1]:.1f})")
    path = emit_plot(entries, OUT / "triangle_bernoulli.svg",
                     title="Triangle (Bernoulli), T=20000")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
