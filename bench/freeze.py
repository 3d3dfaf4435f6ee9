"""Freeze the outputs that the benchmark's op checks compare against.

Writes `reference.json` next to this file: (m_n, length) for every
simulation seed the workloads can draw, the Monte Carlo estimate and the
quadrature value for every overlap cell and MC seed, and the exact walk
count.  The file in the repository was written from the code the benchmark
was defined on; regenerating it from changed code would make the checks
compare that code with itself.

    PYTHONPATH=src python3 bench/freeze.py     # about two minutes on 2 cores
"""

import json

from polylab import pathcount, simulator, stochastics

import workloads as w


def main() -> None:
    simulate = {}
    for seed in w.N20_SEEDS:
        rec = simulator.run_trial(20, seed, 0)
        simulate[f"20:{seed}"] = [rec.m_n, rec.length]
    for seed in range(min(w.N12_BASE_SEEDS), max(w.N12_BASE_SEEDS) + w.N12_TRIALS):
        rec = simulator.run_trial(12, seed, 0)
        simulate[f"12:{seed}"] = [rec.m_n, rec.length]
    overlap = {}
    for l, k, x in w.OVERLAP_GRID:
        spec = stochastics.OverlapSpec(l=l, k=k, x=x)
        exact = stochastics.overlap_probability_exact(spec)
        for seed in w.OVERLAP_SEEDS:
            est = stochastics.overlap_probability_mc(spec, w.OVERLAP_MC_TRIALS, seed)
            overlap[f"{l}:{k}:{x!r}:{seed}"] = [est.estimate, exact]
    count = {"%d:%d:%d" % w.COUNT_ARGS: str(pathcount.stanley_count(*w.COUNT_ARGS))}
    with open(w.REFERENCE_PATH, "w") as fh:
        json.dump({"simulate": simulate, "overlap": overlap, "count": count}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
