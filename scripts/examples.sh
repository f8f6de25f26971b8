#!/usr/bin/env bash
# Runs every program under examples/ with `go run`, each under a timeout,
# and fails if any of them exits non-zero (or times out). The examples
# are the API's contract: they are run, never edited to pass.
#
# Usage: scripts/examples.sh [timeout-seconds]   (default 120 per example)
set -u
cd "$(dirname "$0")/.."
limit=${1:-120}
failed=0
for dir in examples/*/; do
	name=$(basename "$dir")
	echo "=== examples/$name"
	if timeout "$limit" go run "./examples/$name"; then
		echo "--- ok examples/$name"
	else
		echo "--- FAIL examples/$name (exit $?)"
		failed=1
	fi
done
exit $failed
