#!/usr/bin/env bash
# Produces a qlog trace from a netem failover run, then gates on the
# analyzer: malformed events, inverted span legs, or an unclosed or
# over-budget failover gap fail the run. Writes artifacts/chaos.qlog and
# the analyzer's text and JSON reports beside it.
# Usage: scripts/trace-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p artifacts
TCPLS_TRACE_OUT=artifacts/chaos.qlog go test -run TestChaosTraceArtifact -count=1 -timeout 5m .
go run ./cmd/tcpls-trace -check -max-gap 5s artifacts/chaos.qlog | tee artifacts/chaos-report.txt
go run ./cmd/tcpls-trace -json artifacts/chaos.qlog > artifacts/chaos-report.json
