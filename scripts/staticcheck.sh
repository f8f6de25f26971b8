#!/usr/bin/env bash
# Installs the pinned staticcheck release and runs it over the module.
# Usage: scripts/staticcheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."
go install honnef.co/go/tools/cmd/staticcheck@2023.1.7
staticcheck ./...
