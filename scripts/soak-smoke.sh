#!/usr/bin/env bash
# The server soak at 500 sessions: a hold group, admission churn, flat
# goroutines and bounded memory, observable sheds, live /metrics and
# /debug/tcpls mid-soak, and a byte-exact drain under load (the gates
# are inside TestServerSoak). Writes artifacts/soak.qlog.
# Usage: scripts/soak-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p artifacts
TCPLS_SOAK_SESSIONS=500 TCPLS_SOAK_QLOG="$PWD/artifacts/soak.qlog" \
  go test -run TestServerSoak -count=1 -v -timeout 10m ./internal/server/
