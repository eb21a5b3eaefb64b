#!/bin/sh
# serve-smoke: end-to-end smoke test of the graph analytics service.
#
# Builds cmd/served and cmd/servedload with -race, boots served on an
# ephemeral port with a generated grid graph, drives it with the load
# driver (queries + async jobs), checks the report carries request
# counts and throughput, scrapes /metrics for the serve counters, then
# sends SIGTERM and asserts the process drains and exits cleanly. Used by
# `make serve-smoke` and CI; needs only a Go toolchain and curl.
# DESIGN.md §12 documents the serving architecture.
set -eu

workdir=$(mktemp -d)
log="$workdir/served.log"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building cmd/served and cmd/servedload (-race)"
go build -race -o "$workdir/served" ./cmd/served
go build -race -o "$workdir/servedload" ./cmd/servedload

"$workdir/served" -addr 127.0.0.1:0 -gen grid -rows 64 -cols 64 \
    -drain 5s >"$log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|.*served: serving http://\([^/]*\)/.*|\1|p' "$log" | head -n 1)
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: served exited before binding:" >&2
        cat "$log" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "serve-smoke: never saw the serving line in served output:" >&2
    cat "$log" >&2
    exit 1
fi
echo "serve-smoke: driving http://$addr/"

"$workdir/servedload" -addr "$addr" -duration 2s -conc 4 -jobs \
    -out "$workdir/bench.json"

# The report must carry per-endpoint request counts and throughput.
for key in '"qps"' '"requests"' '"sssp"' '"coreness"'; do
    case "$(cat "$workdir/bench.json")" in
    *"$key"*) ;;
    *)
        echo "serve-smoke: load report missing $key:" >&2
        cat "$workdir/bench.json" >&2
        exit 1
        ;;
    esac
done
echo "serve-smoke: load report carries requests and qps"

# The server's own metrics surface must have counted the queries.
requests=$(curl -fsS "http://$addr/metrics" \
    | sed -n 's/^julienne_serve_requests \([0-9]*\)$/\1/p')
if [ -z "$requests" ] || [ "$requests" -eq 0 ]; then
    echo "serve-smoke: julienne_serve_requests not positive on /metrics" >&2
    curl -fsS "http://$addr/metrics" >&2 || true
    exit 1
fi
echo "serve-smoke: server counted $requests requests"

# SIGTERM must drain and exit zero within the budget.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
if [ "$status" -ne 0 ]; then
    echo "serve-smoke: served exited $status after SIGTERM:" >&2
    cat "$log" >&2
    exit 1
fi
case "$(cat "$log")" in
*"served: drained, exiting"*) ;;
*)
    echo "serve-smoke: no drain line in served output:" >&2
    cat "$log" >&2
    exit 1
    ;;
esac
echo "serve-smoke: drained cleanly on SIGTERM"
echo "serve-smoke: ok"
