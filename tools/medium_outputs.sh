#!/bin/sh
# Writes the Medium's pinned observable outputs into OUT_DIR, for the digests
# in tests/golden/medium_outputs.sha256:
#   hidden_trace.json     topology_hidden_terminal --smoke Chrome trace
#                         (partial sensing: DB-DP, FCSMA and DCF)
#   hidden_metrics.jsonl  its metrics, minus the "mem." gauges
#   fig3_metrics.jsonl    fig3 --smoke metrics, minus the "mem." gauges
#                         (complete domain and the burst path)
#   cells_metrics.jsonl   topology_cells --smoke --shards 4 metrics, minus the
#                         "mem." gauges (merged per-cell sketches)
#   cells_stream.jsonl    its --metrics-stream snapshots (per-link debt
#                         sketches read mid-run)
# The mem. gauges are dropped because they count bytes of internal layout,
# not simulated behaviour.
#
# usage: tools/medium_outputs.sh BUILD_DIR OUT_DIR
#   then: (cd OUT_DIR && sha256sum -c --strict <repo>/tests/golden/medium_outputs.sha256)
set -eu
build=$1
out=$2
mkdir -p "$out/hidden" "$out/fig3" "$out/cells"
"$build/bench/topology_hidden_terminal" --smoke --metrics-out "$out/hidden" \
  --trace-out "$out/hidden/trace.json" > /dev/null
"$build/bench/fig3_symmetric_arrival_sweep" --smoke --metrics-out "$out/fig3" > /dev/null
"$build/bench/topology_cells" --smoke --shards 4 --metrics-out "$out/cells" \
  --metrics-stream "$out/cells_stream.jsonl" > /dev/null
cp "$out/hidden/trace.json" "$out/hidden_trace.json"
grep -v '"name":"mem\.' "$out/hidden/metrics.jsonl" > "$out/hidden_metrics.jsonl"
grep -v '"name":"mem\.' "$out/fig3/metrics.jsonl" > "$out/fig3_metrics.jsonl"
grep -v '"name":"mem\.' "$out/cells/metrics.jsonl" > "$out/cells_metrics.jsonl"
