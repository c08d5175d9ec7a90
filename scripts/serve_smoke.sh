#!/usr/bin/env bash
# Detection-daemon soak smoke for CI (the `serve-stress` ctest,
# RUN_SERIAL).
#
# Boots a real `crd serve` daemon process on a Unix socket, then drives
# hundreds of concurrent sessions against it with the `--stress` client
# across several waves, checking the invariants that must hold on ANY
# host:
#
#   * zero cross-session interference — every session's reply stream is
#     byte-identical ("identical: yes" from the stress client);
#   * bounded memory — the daemon's live heap after the last wave stays
#     within 35% of its post-first-wave plateau (per-session state is
#     actually reclaimed when sessions close, it does not accrete). Each
#     sample is the status document's heap_live_bytes, read once every
#     session of the wave has closed. The daemon runs with glibc's
#     per-thread chunk cache off (GLIBC_TUNABLES tcache_count=0): cached
#     chunks count as in use, and filling the workers' caches otherwise
#     reads as ~40 kB of growth per wave. VmRSS is printed but not gated:
#     it keeps the allocator's high-water mark, which varies with how a
#     wave's sessions happened to spread over the worker threads' malloc
#     arenas (37-83 MB after the same first wave on a 4-CPU host). Where
#     the daemon cannot report its heap (heap_live_bytes 0: non-glibc, or
#     a sanitizer build whose allocator replaces malloc) VmRSS is gated;
#   * graceful drain — a real SIGTERM makes the daemon exit 0 with its
#     "drained:" summary.
#
# Like ingest_smoke.sh, concurrency only means something when the daemon,
# its workers, and the clients can overlap: on a single-CPU host the whole
# test is a skip (exit 77, the ctest SKIP_RETURN_CODE convention).
#
# Usage: serve_smoke.sh <build-dir>
set -u

BUILD_DIR="${1:?usage: serve_smoke.sh <build-dir>}"
CRD="$BUILD_DIR/tools/crd/crd"

CPUS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ "$CPUS" -lt 2 ]; then
  echo "serve_smoke: single-CPU host ($CPUS); daemon and clients cannot overlap — skipping" >&2
  exit 77
fi

# Scale the soak to the host class: the full 200-concurrent-session bar
# needs enough CPUs that client threads are not pure scheduling overhead.
if [ "$CPUS" -ge 4 ]; then
  SESSIONS=200
else
  SESSIONS=64
fi
WAVES=4

WORK_DIR="$(mktemp -d)"
SOCK="$WORK_DIR/serve.sock"
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

# A racy recorded trace for the sessions to analyze.
"$CRD" record --stress --producers=3 --events=20000 --ring=1024 \
    --out="$WORK_DIR/trace.crdb" >/dev/null 2>&1
if [ ! -s "$WORK_DIR/trace.crdb" ]; then
  echo "serve_smoke: could not record a stress trace" >&2
  exit 1
fi

GLIBC_TUNABLES=glibc.malloc.tcache_count=0 \
  "$CRD" serve --socket="$SOCK" >"$WORK_DIR/daemon.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  echo "serve_smoke: daemon did not come up" >&2
  cat "$WORK_DIR/daemon.log" >&2
  exit 1
fi

rss_kb() {
  awk '/^VmRSS:/ { print $2 }' "/proc/$DPID/status" 2>/dev/null || echo 0
}

# The daemon's live heap in kB once the wave's sessions have all closed —
# the status connection asking is then the only one left — or VmRSS when
# the daemon reports no heap figure.
settled_heap_kb() {
  local doc active heap
  for i in $(seq 1 100); do
    doc="$("$CRD" serve --connect="$SOCK" --status 2>/dev/null)"
    active="$(printf '%s\n' "$doc" |
      sed -n 's/.*"sessions_active": *\([0-9][0-9]*\).*/\1/p')"
    [ "$active" = 1 ] && break
    sleep 0.1
  done
  heap="$(printf '%s\n' "$doc" |
    sed -n 's/.*"heap_live_bytes": *\([0-9][0-9]*\).*/\1/p')"
  if [ "${heap:-0}" -gt 0 ]; then
    echo $((heap / 1024))
  else
    rss_kb
  fi
}

FIRST_HEAP=0
for wave in $(seq 1 $WAVES); do
  OUT="$("$CRD" serve --connect="$SOCK" --trace="$WORK_DIR/trace.crdb" \
      --stress --sessions=$SESSIONS --waves=1 2>&1)"
  status=$?
  case "$OUT" in
    *"identical: yes"*) ;;
    *)
      echo "serve_smoke: wave $wave sessions diverged (exit $status):" >&2
      echo "$OUT" >&2
      exit 1
      ;;
  esac
  HEAP="$(settled_heap_kb)"
  echo "serve_smoke: wave $wave/$WAVES: $SESSIONS sessions identical, daemon heap ${HEAP} kB, RSS $(rss_kb) kB"
  [ "$wave" -eq 1 ] && FIRST_HEAP="$HEAP"
done

FINAL_HEAP="$HEAP"
if [ "$FIRST_HEAP" -gt 0 ] && \
   ! awk -v a="$FIRST_HEAP" -v b="$FINAL_HEAP" 'BEGIN { exit !(b <= a * 1.35) }'; then
  echo "serve_smoke: daemon heap grew ${FIRST_HEAP} kB -> ${FINAL_HEAP} kB across $WAVES waves (per-session state accreting)" >&2
  exit 1
fi

# Graceful drain: SIGTERM must produce the drain summary and exit 0.
kill -TERM "$DPID"
DRAIN_OK=no
for i in $(seq 1 100); do
  if ! kill -0 "$DPID" 2>/dev/null; then
    DRAIN_OK=yes
    break
  fi
  sleep 0.1
done
if [ "$DRAIN_OK" != yes ]; then
  echo "serve_smoke: daemon did not exit within 10s of SIGTERM" >&2
  exit 1
fi
wait "$DPID"
DEXIT=$?
DPID=""
if [ "$DEXIT" -ne 0 ]; then
  echo "serve_smoke: daemon exited $DEXIT after SIGTERM" >&2
  exit 1
fi
case "$(cat "$WORK_DIR/daemon.log")" in
  *"drained:"*) ;;
  *)
    echo "serve_smoke: no drain summary in daemon log:" >&2
    cat "$WORK_DIR/daemon.log" >&2
    exit 1
    ;;
esac

TOTAL=$((SESSIONS * WAVES))
echo "serve_smoke: $TOTAL sessions across $WAVES waves, heap ${FIRST_HEAP} -> ${FINAL_HEAP} kB, clean SIGTERM drain"
exit 0
