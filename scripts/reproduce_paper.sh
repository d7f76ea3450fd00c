#!/usr/bin/env bash
# Full-scale reproduction: 16 computational states, 96 us pulses sampled at
# 960 ps, fidelity goal 0.99999.  In the committed P record
# (records/paper/gate_p_trace.csv; shared 2-vCPU host, one OpenBLAS
# thread) a closed-system gate-synthesis iteration took 2.41 s, and the
# 1,500-iteration budget ran out after 60.4 min at F = 0.99996448 (F
# passed 0.999 at iteration 383).  The dissipative re-optimization
# (density matrices, 17 trajectories) runs for days.  Every optimization
# saves its own <stem>_field.csv and <stem>_trace.csv every few iterations
# (--checkpoint-every), so an interrupted run resumes by appending
# --resume "$OUT/<stem>_field.csv", which also continues its trace.
#
# An optimize that stops short of its goal (budget spent or stalled) exits
# 4 after saving its field and trace, and the script goes on with that
# field.  Exits 2 (configuration) and 3 (numerical failure, an objective
# that decreased included, after which only the last checkpoint is on
# disk) stop the script.
#
# Usage: scripts/reproduce_paper.sh [OUTDIR]

set -euo pipefail
OUT=${1:-runs/paper}
ACK=--acknowledge-long-run

iontrapsim() {
    local status=0
    command iontrapsim "$@" || status=$?
    if [[ $1 == optimize && $status == 4 ]]; then
        echo "reproduce_paper.sh: optimize did not reach its goal (exit 4); continuing" >&2
        return 0
    fi
    return "$status"
}

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
