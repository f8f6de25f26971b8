#!/usr/bin/env bash
# The resumption smoke: a ticket issued by one tcpls-server process
# resumes at 1-RTT against a second process sharing only the encrypted
# -ticket-key-file, its 0-RTT offer is declined across the restart, and
# the acceptance shows on the restarted server's /metrics. Needs curl and
# ports 14443/19090; writes the binaries, ticket.keys, ticket.json and
# the logs in the repository root. Usage: scripts/resume-smoke.sh
cd "$(dirname "$0")/.."
export TCPLS_TICKET_PASSPHRASE=${TCPLS_TICKET_PASSPHRASE:-ci-smoke-pass}
rm -f ticket.keys ticket.json

set -eux
go build -o tcpls-server ./cmd/tcpls-server
./tcpls-server -listen 127.0.0.1:14443 -metrics-addr 127.0.0.1:19090 \
  -ticket-key-file ticket.keys -drain-timeout 5s > srv1.log 2>&1 &
SRV=$!
sleep 1
./tcpls-server -connect 127.0.0.1:14443 \
  -name server.tcpls -ticket-file ticket.json
kill "$SRV" && wait "$SRV"
./tcpls-server -listen 127.0.0.1:14443 -metrics-addr 127.0.0.1:19090 \
  -ticket-key-file ticket.keys -drain-timeout 5s > srv2.log 2>&1 &
SRV2=$!
sleep 1
./tcpls-server -connect 127.0.0.1:14443 \
  -name server.tcpls -ticket-file ticket.json
curl -s http://127.0.0.1:19090/metrics | tee resume-metrics.txt \
  | grep -E '^tcpls_resume_accepted_total\{[^}]*\} [1-9]'
kill "$SRV2"
