#!/bin/sh
# obs-demo: end-to-end smoke test of the observability plane.
#
# Builds cmd/julienne, runs `julienne kcore` on a generated RMAT graph
# with the -http debug surface bound to an ephemeral port, scrapes
# /metrics until the round-latency histogram is non-empty, sanity-checks
# /debug/obs, and shuts the process down. Exits non-zero if the scrape never sees a
# populated histogram. Used by `make obs-demo` and the bench-smoke CI
# job; needs only a Go toolchain and curl.
set -eu

workdir=$(mktemp -d)
log="$workdir/julienne.log"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "obs-demo: building cmd/julienne"
go build -o "$workdir/julienne" ./cmd/julienne

# -http :0 binds an ephemeral port; the CLI reports the bound address
# on stderr as "obs: serving http://HOST:PORT/metrics ...". The process keeps
# serving after the run completes until interrupted, so the surface
# stays up for scraping.
"$workdir/julienne" kcore -gen rmat -n 4096 -m 32768 -http 127.0.0.1:0 >"$log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|.*obs: serving http://\([^/]*\)/metrics.*|\1|p' "$log" | head -n 1)
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "obs-demo: julienne kcore exited before binding -http:" >&2
        cat "$log" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "obs-demo: never saw the serving line in julienne kcore output:" >&2
    cat "$log" >&2
    exit 1
fi
echo "obs-demo: scraping http://$addr/metrics"

count=0
for _ in $(seq 1 50); do
    count=$(curl -fsS "http://$addr/metrics" \
        | sed -n 's/^julienne_round_latency_ns_count \([0-9]*\)$/\1/p')
    [ -n "$count" ] && [ "$count" -gt 0 ] && break
    count=0
    sleep 0.2
done
if [ "$count" -eq 0 ]; then
    echo "obs-demo: julienne_round_latency_ns_count never became positive" >&2
    curl -fsS "http://$addr/metrics" >&2 || true
    exit 1
fi
echo "obs-demo: round-latency histogram has $count samples"

# /debug/obs must serve JSON carrying histogram summaries and the
# flight-recorder tail.
debug=$(curl -fsS "http://$addr/debug/obs")
for key in '"histograms"' '"flight"' '"round.latency_ns"'; do
    case "$debug" in
    *"$key"*) ;;
    *)
        echo "obs-demo: /debug/obs missing $key:" >&2
        echo "$debug" >&2
        exit 1
        ;;
    esac
done
echo "obs-demo: /debug/obs carries histograms and flight tail"
echo "obs-demo: ok"
