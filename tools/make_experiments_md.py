#!/usr/bin/env python
"""Compose EXPERIMENTS.md from benchmarks/results/*.txt plus commentary.

Run after ``pytest benchmarks/ --benchmark-only``:

    python tools/make_experiments_md.py
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation (§VII) plus Figs. 1–2,
regenerated by ``pytest benchmarks/ --benchmark-only`` on the simulated
machine.  **Compare shapes, not absolute seconds**: functional quantities
(nnz, errors, memory, volumes) are exact; times come from the calibrated
scaled-Summit model (see docs/calibration.md and docs/simulation.md; the
substitutions are inventoried in DESIGN.md).

Each block below is the verbatim output of one experiment (also written
to ``benchmarks/results/<id>.txt``); the commentary records how the
measured shape relates to the paper's claim, including known deviations.

"""

#: exp id → (paper anchor, commentary)
COMMENTARY = {
    "fig1": (
        "Fig. 1 — runtime breakdown, 12.4x headline",
        "The three configurations reproduce the paper's bar chart: the "
        "original is dominated by local SpGEMM + symbolic memory "
        "estimation (paper: ~90% together), the optimized configuration "
        "collapses both, and overlap shaves the remaining merge time. "
        "The measured end-to-end speedup on the isom100-1 analog at 100 "
        "virtual nodes lands at the paper's order of magnitude "
        "(paper: 12.4x).",
    ),
    "fig2": (
        "Fig. 2 — pipelined vs classic SUMMA timeline",
        "The paper's Fig. 2 is a schematic; ours is the *measured* event "
        "timeline of rank 0. In the classic run each stage's broadcast "
        "strictly precedes its multiply; in the pipelined run the "
        "stage-(k+1) broadcast overlaps the stage-k GPU multiply (positive "
        "measured overlap), and the CPU is released right after the H2D "
        "transfer, exactly as §III describes.",
    ),
    "fig4": (
        "Fig. 4 — local SpGEMM by scheme (paper: up to 1.1x/2.6x/3.3x; "
        "hybrid best)",
        "Orderings match: nsparse > bhsparse > rmerge2 > cpu-hash, the "
        "hybrid recipe edges out the best fixed library, and the GPU "
        "advantage grows with network density (archaea < eukarya < "
        "isom100-3), as in the paper. Our rmerge2 sits slightly higher "
        "(~1.5x vs the paper's 1.1x).",
    ),
    "table2": (
        "Table II — overlap efficiency (paper: overall ≈ 15-20% above "
        "SpGEMM)",
        "The expansion makespan tracks the dominant stage and stays far "
        "below the serialized stage sum; our overall/SpGEMM ratio is "
        "higher than the paper's 1.15-1.20 because (a) our 'overall' "
        "includes the fused per-phase pruning the paper reports "
        "separately and (b) the scaled workloads are relatively more "
        "communication-heavy on the lighter networks.",
    ),
    "fig5": (
        "Fig. 5 — thread-based vs process-based node management",
        "Thread-based wins local SpGEMM, memory estimation and merging; "
        "process-based wins only pruning — the paper's exact pattern. "
        "Broadcast is within a few percent either way at our scale "
        "(paper sees a 19% thread-based win).",
    ),
    "table3": (
        "Table III — merge peak memory (paper: binary saves 15-25%)",
        "Binary merge needs less peak memory than multiway in every "
        "iteration of every network; our savings are larger (~40%) than "
        "the paper's 15-25% because the scaled networks' intermediate "
        "lists overlap more (higher compression along the way). The "
        "direction and mechanism are the paper's.",
    ),
    "fig6": (
        "Fig. 6 — probabilistic estimation error and runtime",
        "A handful of keys stays within ~10% median relative error "
        "(paper: 'within 10% range'), error shrinks with r, runtime is "
        "linear in r, and the probabilistic scheme is far cheaper than "
        "the exact symbolic pass while cf is large — with the exact "
        "scheme winning in the converged tail, which is exactly why the "
        "optimized HipMCL uses §VII-D's hybrid recipe.",
    ),
    "table4": (
        "Table IV — end-to-end original vs optimized",
        "Controlled same-machine comparison plus the paper's "
        "cross-machine row (original on a Cori-KNL-like machine). The "
        "dense isom analogs gain the most (the GPU-friendly large-cf "
        "regime), sparse metaclust50 the least, matching §VII-E's "
        "explanation.",
    ),
    "fig7": (
        "Fig. 7 — strong scaling (paper: 49% / 57% efficiency)",
        "Runtime decreases monotonically with node count at sub-linear "
        "efficiency; the measured efficiencies at the largest sweep "
        "points bracket the paper's 49% (isom100-1) and 57% "
        "(metaclust50).",
    ),
    "fig8": (
        "Fig. 8 — per-stage strong scaling",
        "Local SpGEMM scales best; SUMMA broadcast scales worst (nearly "
        "flat), with memory estimation and merging in between — the same "
        "bottleneck family the paper identifies. (In the paper the "
        "estimation's absolute time also overtakes broadcast at 400 "
        "nodes; our estimation stays comm-bound but cheaper, a knowing "
        "deviation recorded here.)",
    ),
    "table5": (
        "Table V — CPU/GPU idle inside the pipelined SUMMA",
        "Measured inside the expansion sections: CPU idle exceeds GPU "
        "idle on the dense isom100-1 analog (the CPU waits while the "
        "GPUs multiply), with a wider gap than on the sparse metaclust50 "
        "— the paper's asymmetry and its density explanation.",
    ),
    "ablation-phases": (
        "Ablation — phased execution (§II/§V design choice)",
        "Smaller memory budgets force more phases; each phase "
        "re-broadcasts A, so broadcast time rises as the budget shrinks — "
        "quantifying the §III trade the pipelining then hides.",
    ),
    "ablation-merge": (
        "Ablation — merge schedules (§IV design choice)",
        "Binary merge pays a small merge-time overhead versus multiway "
        "(paper: 3-4%) for a large peak-memory saving, while immediate "
        "two-way merging shows the redundant-pass cost §IV warns about.",
    ),
    "ablation-dcsc": (
        "Ablation — DCSC vs CSC (§III-B design choice)",
        "Doubly compressed pointers are overhead at small P (dense "
        "blocks) and a clear win once blocks go hypersparse at large P — "
        "the CombBLAS design point the paper builds on.",
    ),
    "ablation-3d": (
        "Ablation — 2-D vs split-3-D (§II / §VII-E remarks)",
        "Measured under the same machine model (and charged on the one "
        "engine by repro.summa.engine3d's grid model behind --grid 3d): "
        "3-D cuts broadcast time increasingly "
        "with concurrency (§VII-E) at the price of fiber-combine and "
        "redistribution terms 2-D avoids; the α-β model alone does not "
        "reproduce §II's sparse-case amortization failure (constant-"
        "factor costs are out of model scope — noted deviation).",
    ),
}

ORDER = [
    "fig1", "fig2", "fig4", "table2", "fig5", "table3", "fig6",
    "table4", "fig7", "fig8", "table5",
    "ablation-phases", "ablation-merge", "ablation-dcsc", "ablation-3d",
]


def main() -> None:
    parts = [HEADER]
    missing = []
    for exp in ORDER:
        path = RESULTS / f"{exp}.txt"
        anchor, commentary = COMMENTARY[exp]
        parts.append(f"## {anchor}\n")
        if path.exists():
            parts.append("```text")
            parts.append(path.read_text().rstrip())
            parts.append("```")
        else:
            missing.append(exp)
            parts.append("*(results file missing — run the benchmarks)*")
        parts.append("")
        parts.append(commentary)
        parts.append("")
    parts.append(
        "---\n\nRegenerate: ``pytest benchmarks/ --benchmark-only`` then "
        "``python tools/make_experiments_md.py``.\n"
    )
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print(
        f"wrote EXPERIMENTS.md ({len(ORDER) - len(missing)}/{len(ORDER)} "
        f"experiments present{'; missing: ' + ', '.join(missing) if missing else ''})"
    )


if __name__ == "__main__":
    main()
