#!/usr/bin/env bash
# The fault-injection suite under the race detector, repeated: the root
# package's chaos, reconnect, telemetry, health-scrape and flight-recorder
# tests twice, then the engine's replay and hostile-ack tests twenty times.
# Usage: scripts/chaos.sh
set -euo pipefail
cd "$(dirname "$0")/.."
go test -race -count=2 -run 'TestChaos|TestReconnect|TestAutoFailoverEmits|TestHealthScrapeRaces|TestTelemetry|TestFlight|TestMetricsAndDump|TestTraceInstallSwapRace|TestRecvBackpressure|TestListenerForgets' -timeout 10m .
go test -race -count=20 -run 'TestReplayIsByteIdenticalToSealSeq|TestHostileAckPinsAtMostTwiceRetained' ./internal/core/
