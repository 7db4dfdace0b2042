#!/usr/bin/env bash
# Distributed-scan conformance gate for the coordinator–worker job protocol.
#
# Phase 1 (conformance): run `iabc coordinate` over random:25,0.7,1 with two
# external `iabc work` processes joined over loopback, and require the
# maxf/work report lines to be byte-identical to the single-process oracle
# (`iabc maxf`) — same verdict, same witness-bearing counters, no double
# counting across leases.
#
# Phase 2 (crash-identical resume): relaunch, SIGKILL one worker mid-scan,
# and require the surviving worker to re-run the victim's requeued leases to
# the exact same report lines. The coordinator journals only acknowledged
# gap-free prefixes and fences stale jobIDs, so a crashed lease re-executes
# as pure replay — byte-identical, not merely equivalent. A kill after the
# scan ended would test nothing, so the victim must not have seen the
# coordinator finish.
set -euo pipefail

cd "$(dirname "$0")/.."
bin=$(mktemp -d)/iabc
go build -o "$bin" ./cmd/iabc

work=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT

# A seeded random digraph: its automorphism group is trivial, so every one of
# the 179 469 fault sets of its seven checks is scanned on its own ground and
# the single-process sweep takes 4.7 s on a 2-vCPU Xeon host — phase 2's
# 1 s kill lands mid-scan. (random:23,0.7,1 finishes in 2.3 s since the
# prefix lookahead, chord:21,2 in milliseconds since the checker scans one
# fault set per automorphism orbit.)
topo=random:25,0.7,1
port=$(( (RANDOM % 10000) + 20000 ))
addr="127.0.0.1:$port"

echo "== oracle: single-process iabc maxf -topo $topo"
"$bin" maxf -topo "$topo" > "$work/oracle.out"
grep -E '^(maxf|work):' "$work/oracle.out" > "$work/oracle.lines"

echo "== phase 1: coordinator + 2 workers on $addr vs oracle"
"$bin" coordinate -topo "$topo" -listen "$addr" > "$work/coord1.out" 2>&1 &
coord=$!
"$bin" work -join "$addr" > "$work/worker1a.out" 2>&1 &
w1=$!
"$bin" work -join "$addr" > "$work/worker1b.out" 2>&1 &
w2=$!
wait "$coord" || { echo "coordinator failed:"; cat "$work/coord1.out"; exit 1; }
wait "$w1" "$w2" || { echo "worker failed:"; cat "$work"/worker1*.out; exit 1; }

grep -E '^(maxf|work):' "$work/coord1.out" > "$work/phase1.lines"
if ! diff -u "$work/oracle.lines" "$work/phase1.lines"; then
  echo "FAIL: distributed report differs from the single-process oracle"
  cat "$work/coord1.out"
  exit 1
fi
grep -q '^distrib: 2 worker(s) joined' "$work/coord1.out" \
  || { echo "FAIL: both workers should have joined"; cat "$work/coord1.out"; exit 1; }
echo "phase 1 OK: maxf/work lines byte-identical across 2 workers"

echo "== phase 2: SIGKILL one worker mid-scan, leases must replay identically"
port=$((port + 1))
addr="127.0.0.1:$port"
"$bin" coordinate -topo "$topo" -listen "$addr" > "$work/coord2.out" 2>&1 &
coord=$!
"$bin" work -join "$addr" > "$work/worker2a.out" 2>&1 &
w1=$!
"$bin" work -join "$addr" > "$work/worker2b.out" 2>&1 &
w2=$!
sleep 1
kill -9 "$w2" 2>/dev/null || true
wait "$w2" 2>/dev/null || true
wait "$coord" || { echo "coordinator failed after worker kill:"; cat "$work/coord2.out"; exit 1; }
wait "$w1" || { echo "surviving worker failed:"; cat "$work/worker2a.out"; exit 1; }

grep -E '^(maxf|work):' "$work/coord2.out" > "$work/phase2.lines"
if ! diff -u "$work/oracle.lines" "$work/phase2.lines"; then
  echo "FAIL: report after SIGKILLed worker differs from the oracle"
  cat "$work/coord2.out"
  exit 1
fi
grep -q '^distrib: 2 worker(s) joined' "$work/coord2.out" \
  || { echo "FAIL: victim should have joined before the kill"; cat "$work/coord2.out"; exit 1; }
if grep -q 'coordinator finished' "$work/worker2b.out"; then
  echo "FAIL: the kill landed after the scan finished"; cat "$work/worker2b.out"; exit 1
fi
echo "phase 2 OK: requeued leases re-ran to a byte-identical report"
echo "distributed gate PASSED"
