#!/usr/bin/env bash
# Runs tcpls-trace -check over every qlog in artifacts/ (none is fine):
# failure artifacts must be analyzable, not just present.
# Usage: scripts/qlog-check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
for f in artifacts/*.qlog; do
  [ -e "$f" ] || continue
  go run ./cmd/tcpls-trace -check "$f"
done
