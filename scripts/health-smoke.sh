#!/usr/bin/env bash
# The health smoke: a tcpls-server behind a tcpls-netem relay, stalled and
# thawed under a live failover transfer, checked over HTTP and in the qlog.
# Needs curl and jq; writes artifacts/ and the built binaries in the
# repository root. Usage: scripts/health-smoke.sh
cd "$(dirname "$0")/.."

# Live stall is diagnosed and cleared (tcpls-server + netem).
# The observability contract against real binaries: a tcpls-server
# behind a fault-injection relay, a client pushing rate-limited
# traffic through it. Freeze the relay and the server's health
# monitor must raise stall_suspected on /debug/tcpls/health while
# the stall is in force (100ms tick -> ~300ms to diagnose); thaw
# it and the verdict must clear by hysteresis. Both observations
# are made live over HTTP, not by post-hoc trace parsing.
set -eux
mkdir -p artifacts/qlog
# A failed step must not leave the server, the relay or the client
# running; a rerun must find no fifo from the last one.
SRV= NETEM= CLI=
trap 'kill $SRV $NETEM $CLI 2>/dev/null || true' EXIT
rm -f netem.ctl netem.out
go build -o tcpls-server ./cmd/tcpls-server
go build -o tcpls-netem ./cmd/tcpls-netem
go build -o tcpls-top ./cmd/tcpls-top
./tcpls-server -listen 127.0.0.1:14443 -metrics-addr 127.0.0.1:19090 \
  -failover -health-interval 100ms -qlog-dir artifacts/qlog \
  -drain-timeout 5s > artifacts/server.log 2>&1 &
SRV=$!
sleep 1
# Fault relay in front of the server, driven over a fifo.
mkfifo netem.ctl
./tcpls-netem -connect 127.0.0.1:14443 -rate 16000000 \
  < netem.ctl > netem.out 2> artifacts/netem.log &
NETEM=$!
exec 3>netem.ctl
sleep 1
RELAY=$(head -1 netem.out)
# Client pushes 25 MB through the relay at ~2 MB/s (slow enough
# that a few seconds of stall stays within the retransmit
# budget, long enough to outlive the whole fault window and
# finish CLEANLY — the qlog must close every conn). Echo mode
# keeps bytes outstanding in BOTH directions, so a frozen relay
# gives the server-side monitor zero ack AND zero rx progress.
./tcpls-server -connect "$RELAY" -name server.tcpls -failover \
  -bytes 60000000 > artifacts/client.log 2>&1 &
CLI=$!
# Healthy baseline: a ticking monitor and no active verdicts.
for i in $(seq 50); do
  curl -s http://127.0.0.1:19090/debug/tcpls/health \
    | jq -e '[.health[] | select(.ticks > 5)] | length > 0' && break
  sleep 0.3
done
curl -s http://127.0.0.1:19090/debug/tcpls/health \
  | jq -e '[.health[] | .active[]?] | length == 0'
echo stall >&3
# The diagnosis must appear live, during the stall.
DIAGNOSED=0
for i in $(seq 100); do
  if curl -s http://127.0.0.1:19090/debug/tcpls/health \
    | jq -e '[.health[] | .active[]? | select(.kind == "stall_suspected")] | length > 0'; then
    DIAGNOSED=1; break
  fi
  sleep 0.2
done
[ "$DIAGNOSED" = 1 ]
# The raise transition must carry its evidence window.
curl -s http://127.0.0.1:19090/debug/tcpls/health | tee artifacts/health-stall.json \
  | jq -e '[.health[] | .recent[]? | select(.kind == "stall_suspected" and .raised and (.evidence | length) > 0)] | length > 0'
./tcpls-top -addr 127.0.0.1:19090 -once | tee artifacts/top-stall.txt \
  | grep stall_suspected
echo unstall >&3
# ...and clear by hysteresis on the STILL-LIVE session once
# traffic resumes (the transfer is only ~halfway done here).
CLEARED=0
for i in $(seq 100); do
  if curl -s http://127.0.0.1:19090/debug/tcpls/health \
    | jq -e '([.health[] | .active[]?] | length == 0)
             and ([.health[] | select(.process != true) | select(.ticks > 5)] | length > 0)'; then
    CLEARED=1; break
  fi
  sleep 0.2
done
[ "$CLEARED" = 1 ]
curl -s http://127.0.0.1:19090/metrics | grep tcpls_health \
  > artifacts/health-metrics.txt || true
# The client must complete its transfer cleanly — a stall that
# killed it (budget exhaustion, timeout) fails the job here.
wait $CLI
echo quit >&3
exec 3>&-
wait $NETEM || true
kill -INT $SRV
wait $SRV || true

# Health qlog artifact sanity (tcpls-trace -health).
# The same stall must be recoverable offline: the server's
# per-session qlog carries the health category and the analyzer
# prints both the raise and the hysteresis clear in the verdict
# timeline, with nothing left open at trace end. (-check is not
# gated here: a server-side trace of a session whose client
# simply finished ends with an open failover gap — under
# failover semantics a peer's FIN is indistinguishable from a
# failure. Byte-exactness with health events present is gated by
# the unit tests and the chaos job.)
set -eux
ls artifacts/qlog/*.qlog
grep -l '"category":"health"' artifacts/qlog/*.qlog
FOUND=0
for f in artifacts/qlog/*.qlog; do
  OUT=$(go run ./cmd/tcpls-trace -health "$f")
  echo "$OUT"
  if echo "$OUT" | grep -E 'RAISED +stall_suspected' \
     && echo "$OUT" | grep -E 'cleared +stall_suspected' \
     && echo "$OUT" | grep -q 'all verdicts cleared by trace end'; then
    FOUND=1
  fi
done
[ "$FOUND" = 1 ]
