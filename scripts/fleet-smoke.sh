#!/usr/bin/env bash
# The fleet chaos campaign at 500 sessions on seeds 1-3 under the race
# detector: real engines over simulated TCP, seed-reproducible faults,
# every fleet invariant checked. A failing seed prints its one-line repro
# and drops the implicated session's qlog into artifacts/.
# Usage: scripts/fleet-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p artifacts
TCPLS_FLEET_SESSIONS=500 TCPLS_FLEET_SEEDS=1,2,3 TCPLS_FLEET_QLOG_DIR=artifacts \
  go test -race -run TestFleetCampaign -count=1 -v -timeout 15m ./internal/fleet/
