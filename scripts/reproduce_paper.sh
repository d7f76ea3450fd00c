#!/usr/bin/env bash
# Full-scale reproduction: 16 computational states, 96 us pulses sampled at
# 960 ps, fidelity goal 0.99999.  A closed-system gate-synthesis iteration
# takes 2.2-2.3 s (P and F alike) on a shared 2-vCPU host with one
# OpenBLAS thread (fastest of 2,000-step iterations scaled to 100,000
# steps; 1.6-1.7 s while the host runs fast), so the 1,500-iteration
# budget is about 1 h.  One recorded P run reached F >= 0.999 in 383
# iterations in 29 min, when an iteration took 4.5 s; today those
# iterations take about 14 min.  The dissipative re-optimization
# (density matrices, 17 trajectories) runs for days.  Every optimization
# saves its own <stem>_field.csv and <stem>_trace.csv every few iterations
# (--checkpoint-every), so an interrupted run resumes by appending
# --resume "$OUT/<stem>_field.csv", which also continues its trace.
#
# Usage: scripts/reproduce_paper.sh [OUTDIR]

set -euo pipefail
OUT=${1:-runs/paper}
ACK=--acknowledge-long-run

iontrapsim trap --tier paper $ACK --out "$OUT"
iontrapsim gate --tier paper $ACK --out "$OUT"

# gate field, transition-probability functional (alpha0 = 1e15 a.u.)
iontrapsim optimize --tier paper $ACK --out "$OUT" \
    --mode gate --functional P --checkpoint-every 10

# gate field, trace functional (alpha0 = 4e15 a.u.)
iontrapsim optimize --tier paper $ACK --out "$OUT" \
    --mode gate --functional F --checkpoint-every 10

# initialization field for the sigma = 1, x0 = -0.75 packet
iontrapsim optimize --tier paper $ACK --out "$OUT" \
    --mode prep --functional P --checkpoint-every 10

# ten-pulse simulation, closed plus the kappa sweep (Fig.-6-style data)
iontrapsim simulate --tier paper $ACK --out "$OUT" \
    --field "$OUT/gate_p_field.csv"

# spectra of the converged fields
iontrapsim analyze --tier paper $ACK --out "$OUT" --field "$OUT/gate_p_field.csv"
iontrapsim analyze --tier paper $ACK --out "$OUT" --field "$OUT/gate_f_field.csv"

# dissipative re-optimization at kappa = 1e-18 a.u. (very long; resumable by
# appending: --resume "$OUT/gate_p_diss_field.csv")
iontrapsim optimize --tier paper $ACK --out "$OUT" \
    --mode gate --functional P --dissipative --kappa 1e-18 --checkpoint-every 5
