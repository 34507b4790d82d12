"""Plain-text result tables: strategy comparison and router comparison.

persist_results writes render_report(records) to report.txt, and
`driftlab report DIR` prints that file as saved. Aggregation is mean and
sample standard deviation (ddof=1; a single seed reports std 0) over seeds.
"""

from __future__ import annotations

import numpy as np

from .strategies import ROUTER_KINDS


def _mean_std(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size >= 2 else 0.0
    return mean, std


def render_report(records) -> str:
    """Comparison tables of a finished experiment's run records, then the
    runs that failed."""
    strategy_stats = {}     # name -> (final accuracies, final bwts)
    routing_stats = {}      # router kind -> overall routing accuracies
    for rec in records:
        if not rec.ok:
            continue
        accs, bwts = strategy_stats.setdefault(rec.strategy, ([], []))
        accs.append(rec.final_accuracy)
        bwts.append(rec.bwt_final)
        if rec.routing is not None:
            routing_stats.setdefault(rec.router_kind, []).append(rec.routing.accuracy)
    benchmark = records[0].benchmark_label if records else "(no runs)"
    lines = [
        "Continual-learning results",
        "==========================",
        "",
        f"benchmark: {benchmark}",
        f"seeds per strategy: {len({rec.seed for rec in records})}",
        "",
        "Final average accuracy A_T over seen domains (mean +/- std over seeds)",
        f"{'strategy':<16} {'A_T':>22} {'BWT (auxiliary)':>22}",
    ]
    for name, (accs, bwts) in strategy_stats.items():
        mean, std = _mean_std(accs)
        cell = f"{mean:.6f} +/- {std:.6f}"
        bwt_vals = [b for b in bwts if b is not None]
        if bwt_vals:
            bm, bs = _mean_std(bwt_vals)
            bwt_cell = f"{bm:.6f} +/- {bs:.6f}"
        else:
            bwt_cell = "-"
        lines.append(f"{name:<16} {cell:>22} {bwt_cell:>22}")
    if routing_stats:
        lines += ["", "Domain routing accuracy (mean +/- std over seeds)",
                  f"{'router':<16} {'accuracy':>22}"]
        for kind in ROUTER_KINDS:
            if kind in routing_stats:
                mean, std = _mean_std(routing_stats[kind])
                lines.append(f"{kind:<16} {mean:.6f} +/- {std:.6f}".rstrip())
    failed = [rec for rec in records if not rec.ok]
    if failed:
        lines += ["", "Failed runs"]
        lines += [f"{rec.run_id} {rec.strategy} seed={rec.seed}: {rec.failure}"
                  for rec in failed]
    lines.append("")
    return "\n".join(lines)
