"""Reader of the traces CSV that `lipzoom.harness.emit_csv` writes; only the tests read traces back."""

from __future__ import annotations

from pathlib import Path

from lipzoom.harness import RegretTrace


def read_traces_csv(path: str | Path) -> list[RegretTrace]:
    """Inverse of the traces file written by emit_csv."""
    rows: dict[str, dict] = {}
    with open(path) as f:
        f.readline()  # header
        for line in f:
            run_id, alg, reward, noise, t, v = line.rstrip("\n").split(",")
            entry = rows.setdefault(
                run_id, {"algorithm": alg, "reward": reward, "noise": noise, "cps": []}
            )
            entry["cps"].append((int(t), float(v)))
    return [
        RegretTrace(rid, e["algorithm"], e["reward"], e["noise"], tuple(e["cps"]))
        for rid, e in rows.items()
    ]
