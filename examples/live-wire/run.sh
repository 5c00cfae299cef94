#!/usr/bin/env bash
# Live-wire runbook: authoritative origin → mitmd (a real product
# profile) → 8-probe fleet → reportd sharded ingest → Table 5 render.
# Everything runs on loopback; see README.md in this directory.
#
# Usage:  ./examples/live-wire/run.sh            (from the repo root)
#         PRODUCT="Kaspersky Lab ZAO" FLEET=16 COUNT=50 ./examples/live-wire/run.sh
set -euo pipefail

PRODUCT="${PRODUCT:-Bitdefender}"
FLEET="${FLEET:-8}"
COUNT="${COUNT:-25}"   # probes per worker
HOSTS="${HOSTS:-tlsresearch.byu.edu,promodj.com,www.facebook.com}"

ORIGIN_ADDR=127.0.0.1:9443
MITMD_ADDR=127.0.0.1:8443
MITMD_STATS=127.0.0.1:8481
REPORTD_ADDR=127.0.0.1:8080

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    # SIGTERM mitmd first so its graceful drain + final stats line shows.
    for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

wait_http() { # url
    for _ in $(seq 1 100); do
        curl -fsS -o /dev/null "$1" 2>/dev/null && return 0
        sleep 0.1
    done
    echo "timed out waiting for $1" >&2
    return 1
}

wait_tcp() { # host:port
    for _ in $(seq 1 100); do
        (exec 3<>"/dev/tcp/${1%:*}/${1#*:}") 2>/dev/null && { exec 3>&- || true; return 0; }
        sleep 0.1
    done
    echo "timed out waiting for $1" >&2
    return 1
}

echo "== building =="
go build -o "$WORK/bin/" ./cmd/reportd ./cmd/mitmd ./cmd/tlsproxy-probe ./examples/live-wire/origin

echo "== 1. authoritative origin ($ORIGIN_ADDR) =="
"$WORK/bin/origin" -listen "$ORIGIN_ADDR" -hosts "$HOSTS" -refdir "$WORK/refs" &
PIDS+=($!)
wait_tcp "$ORIGIN_ADDR"

echo "== 2. reportd ($REPORTD_ADDR, sharded ingest) =="
"$WORK/bin/reportd" -listen "$REPORTD_ADDR" -refdir "$WORK/refs" -campaign live-wire -shards 4 &
PIDS+=($!)
wait_http "http://$REPORTD_ADDR/stats"

echo "== 3. mitmd intercepting as \"$PRODUCT\" ($MITMD_ADDR) =="
"$WORK/bin/mitmd" -listen "$MITMD_ADDR" -upstream "$ORIGIN_ADDR" \
    -product "$PRODUCT" -stats "$MITMD_STATS" -ca-out "$WORK/proxy-ca.pem" &
PIDS+=($!)
wait_tcp "$MITMD_ADDR"
wait_http "http://$MITMD_STATS/metrics"

echo "== 4. probe fleet ($FLEET workers x $COUNT probes) =="
"$WORK/bin/tlsproxy-probe" -addr "$MITMD_ADDR" -fleet "$FLEET" -count "$COUNT" \
    -hosts "$HOSTS" -report "http://$REPORTD_ADDR"

echo
echo "== 5. what the proxy did (mitmd /metrics) =="
curl -fsS "http://$MITMD_STATS/metrics"; echo

echo
echo "== 6. what the measurement saw =="
curl -fsS "http://$REPORTD_ADDR/stats"
curl -fsS "http://$REPORTD_ADDR/metrics?format=prometheus" | grep '^ingest_'
echo
curl -fsS "http://$REPORTD_ADDR/table/5"
echo
curl -fsS "http://$REPORTD_ADDR/table/negligence"
