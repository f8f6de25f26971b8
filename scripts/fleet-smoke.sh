#!/usr/bin/env bash
# The fleet chaos campaign at 500 sessions on seeds 1-3 under the race
# detector: real engines over simulated TCP, seed-reproducible faults,
# every fleet invariant checked. A failing seed prints its one-line repro
# and drops the implicated session's qlog into artifacts/. The seeds'
# fingerprints must match internal/fleet/testdata/fingerprints: a change
# that moves them updates that list and says why in CHANGES.md.
# Usage: scripts/fleet-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p artifacts
TCPLS_FLEET_SESSIONS=500 TCPLS_FLEET_SEEDS=1,2,3 TCPLS_FLEET_QLOG_DIR=artifacts \
  go test -race -run TestFleetCampaign -count=1 -v -timeout 15m ./internal/fleet/ | tee artifacts/fleet-smoke.log
sed -n 's/.*seed \([0-9]*\): 500 sessions, .*fingerprint \([0-9a-f]*\)$/\1 \2/p' artifacts/fleet-smoke.log |
  diff internal/fleet/testdata/fingerprints -
