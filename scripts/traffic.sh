#!/usr/bin/env bash
# What production runs: builds every entry point (cmd/*, examples/*, bench)
# with coverage instrumentation over the whole module, drives them through
# what CI and the paper's artifacts already run, and reports which non-test
# functions and statements outside bench/, cmd/ and examples/ were never
# reached (DESIGN.md "What production runs").
#
#   scripts/traffic.sh [-o report.txt] [-check]
#
# -check exits 1 when an unreached function has no line in
# scripts/traffic.keep. A line there naming a function that was reached, or
# is gone, is listed but does not fail: a redial is reached on some runs
# only. Only the Go toolchain's own -cover, GOCOVERDIR
# and `go tool covdata` are used; everything is written to a temp dir, every
# socket is loopback, and no process outlives the script.
set -euo pipefail

origin=$PWD
root=$(cd "$(dirname "$0")/.." && pwd)
keep="$root/scripts/traffic.keep"
report="" check=0
while [ $# -gt 0 ]; do
  case "$1" in
    -o) report=$2; shift 2 ;;
    -check) check=1; shift ;;
    *) echo "usage: scripts/traffic.sh [-o report.txt] [-check]" >&2; exit 2 ;;
  esac
done

work=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT
bin="$work/bin" cov="$work/cov" out="$work/out" log="$work/log.txt"
mkdir -p "$bin" "$cov" "$out"
export GOCOVERDIR="$cov" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

say() { echo "traffic: [${SECONDS}s] $*" >&2; }
# run: a step that must succeed; its output goes to the log, shown on failure.
run() {
  echo "+ $*" >>"$log"
  if ! "$@" >>"$log" 2>&1; then
    tail -n 40 "$log" >&2; say "FAILED: $*"; exit 1
  fi
}
# refuse: a step that must exit non-zero (a refusal path is traffic too).
refuse() {
  echo "+ (refused) $*" >>"$log"
  if "$@" >>"$log" 2>&1; then say "expected a refusal: $*"; exit 1; fi
}
# ctl_of: the control address a gossipd announced on its stdout file.
ctl_of() {
  for _ in $(seq 1 100); do
    a=$(sed -n 's/.*control http:\/\/\([^ ]*\).*/\1/p' "$1" | head -n 1)
    [ -n "$a" ] && { echo "$a"; return; }
    sleep 0.1
  done
  say "gossipd never announced its control address"; exit 1
}

cd "$root"
say "building the entry points with -cover -coverpkg=./..."
for dir in cmd/* examples/* bench; do
  [ -f "$dir/main.go" ] || continue
  run go build -cover -coverpkg=./... -o "$bin/$(basename "$dir")" "./$dir"
done
cd "$out" # every run below writes relative paths here, never into the checkout

say "sweep: protocols x models, dynamics, adversary, classes, generations x shards, fields, families"
S="$bin/sweep -trials 2 -parallel 2 -out /dev/null"
for proto in ag tag tag-uniform tag-is uncoded; do
  for model in sync async; do
    run $S -graph grid -sizes 16 -protocol $proto -model $model
  done
done
for dyn in edge:rate=0.2 churn:rate=0.1,period=8 rewire:rate=0.3,period=8 burst:rate=0.5,period=16,burst=4 grow:period=2; do
  run $S -graph torus -sizes 16 -dynamics $dyn
  run $S -graph torus -sizes 16 -dynamics $dyn -model async -protocol uncoded
done
run $S -graph randreg -sizes 256 -kmode const:8 -dynamics edge:rate=0.2 -shards 2
run $S -graph torus -sizes 16 -dynamics static
for mode in pollute replay freeride mix; do
  run $S -graph complete -sizes 24 -adversary byzantine:frac=0.1,mode=$mode
done
run $S -graph complete -sizes 24 -adversary byzantine:frac=0.1,mode=mix -action push -model async
run $S -graph complete -sizes 24 -adversary byzantine:frac=0.1,mode=replay -q 256
ALGOSSIP_GF_TIER=scalar run $S -graph complete -sizes 24 -adversary byzantine:frac=0.1,mode=replay -q 16
run $S -graph complete -sizes 24 -classes straggler:frac=0.25,slow=3
run $S -graph complete -sizes 24 -classes tiered:frac=0.25,boost=4 -action pull
for shards in 0 1 3; do
  run $S -graph randreg -sizes 256 -kmode const:16 -generations 4 -single-source -shards $shards
done
for q in 2 7 16 256; do
  run $S -graph ring -sizes 16 -q $q
  run $S -graph ring -sizes 16 -q $q -generations 4
done
printf '0 1\n1 2\n2 3\n3 0\n0 2\n' >edges.txt
for fam in line ring grid torus complete star bintree barbell lollipop cliquechain hypercube er randreg geometric pa file:edges.txt; do
  run $S -graph $fam -sizes 16 -kmode sqrt
done
run $bin/sweep -graph barbell -sizes 16,32 -trials 4 -parallel 1 -checkpoint ck.jsonl -store store.jsonl -out a.csv
head -n 5 ck.jsonl >ck.cut && mv ck.cut ck.jsonl # a run cut short: the rest is re-run on resume
run $bin/sweep -graph barbell -sizes 16,32 -trials 4 -parallel 2 -checkpoint ck.jsonl -resume -store store.jsonl -progress -out b.csv
run $bin/sweep -graph ring -sizes 16 -trials 2 -kmode n -timeout 30s -cpuprofile cpu.prof -memprofile mem.prof -trace run.trace -out c.csv
refuse $bin/sweep -q 300
refuse $bin/sweep -graph nosuch
refuse $bin/sweep -protocol tag -action push -store refused.jsonl
refuse $bin/sweep -protocol tag -dynamics edge:rate=0.2
refuse $bin/sweep -adversary byzantine:frac=NaN
refuse $bin/sweep -dynamics static:rate=0.5
# A refused sweep leaves an existing -out file as it was.
cp a.csv keep.csv
refuse $bin/sweep -q 6 -out keep.csv
run cmp a.csv keep.csv

say "gossipsim"
G="$bin/gossipsim -trials 2"
for proto in ag tag tag-uniform tag-is uncoded; do
  for model in sync async; do
    run $G -graph barbell -n 16 -k 8 -protocol $proto -model $model -detail
  done
done
run $G -graph grid -n 36 -q 256 -detail -tracecsv trace.csv
run $G -graph grid -n 36 -dynamics churn:rate=0.1,period=8 -detail
run $G -graph complete -n 24 -adversary byzantine:frac=0.1,mode=mix -detail
run $G -graph randreg -n 256 -k 16 -generations 4 -single-source -shards 2 -detail
refuse $bin/gossipsim -q 6

say "tables -quick (every artifact)"
# E17 builds gossipd itself, so tables runs from inside the module.
(cd "$root" && run $bin/tables -quick -outdir "$out/tables")
run $bin/tables -quick -only E1 -trials 2 -seed 7
# Full size: E5's communities outgrow exact conductance and take the
# Cheeger bound.
run $bin/tables -only E5 -trials 2
refuse $bin/tables -only E99

say "examples"
for ex in quickstart filesync lossycluster sensorgrid barbell queueing; do
  run $bin/$ex
done

say "benchdelta"
printf 'BenchmarkX-2 \t 100 \t 10.0 ns/op \t 0 B/op \t 0 allocs/op\n' >bench.txt
run $bin/benchdelta -baseline base.json -in bench.txt -update -commit traffic
run $bin/benchdelta -baseline base.json -in bench.txt -out fresh.json -history hist.jsonl -commit traffic

say "bench: five workloads on the auto and scalar tiers, and their traced (per-layer) runs"
for w in sweep_rank payload_gf256 scale_sharded live_tcp fabric_sweep; do
  for tier in auto scalar; do
    ALGOSSIP_GF_TIER=$tier run $bin/bench -workload $w -seconds 1
  done
  run $bin/bench -workload $w -seconds 1 -trace 1
done

say "fabric: sweep -listen + two workers, one SIGKILLed mid-lease, status and query"
F="-graph ring -protocol ag -sizes 128,192,256 -trials 30 -seed 9"
run $bin/sweep $F -parallel 1 -out want.csv
$bin/sweep $F -listen 127.0.0.1:0 -checkpoint fab.ckpt -store fab.jsonl \
  -lease-chunk 8 -lease-ttl 2s -out got.csv 2>coord.err &
coord=$!; pids+=($coord)
url=""
for _ in $(seq 1 100); do
  url=$(sed -n 's/^sweep: serving \(http:\/\/127\.0\.0\.1:[0-9]*\) .*/\1/p' coord.err | head -n 1)
  [ -n "$url" ] && break
  sleep 0.1
done
[ -n "$url" ] || { say "served sweep never announced its address"; exit 1; }
$bin/fabricd worker -coordinator "$url" -name w1 -parallel 1 >>"$log" 2>&1 &
w1=$!; pids+=($w1)
sleep 0.5
{ kill -9 $w1 && wait $w1; } 2>/dev/null || true
run $bin/fabricd status -coordinator "$url"
run $bin/fabricd worker -coordinator "$url" -name w2 -parallel 2
wait $coord
run cmp want.csv got.csv
run $bin/fabricd query -store fab.jsonl -cells
run $bin/fabricd query -store fab.jsonl -graph ring -n 256 -dynamics '' -generations 0
run $bin/fabricd query -store store.jsonl -graph barbell -regime ''
refuse $bin/sweep -q 9 -listen 127.0.0.1:0
refuse $bin/sweep -session x
refuse $bin/fabricd nosuch

say "gossipctl run: TCP and UDP deployments under chaos"
# A 4 x 4 split of the ring: the Byzantine process's two inner nodes hear
# nothing usable, and the run must still end, at the honest stopping tick.
# The cut opens and heals long before 8 messages cross 12 honest nodes.
run $bin/gossipctl run -bin $bin/gossipd -procs 4 -graph ring -n 16 -k 8 -payload 8 -q 256 \
  -byzantine 1 -loss 0.1 -chaos-latency 1ms -chaos-jitter 1ms \
  -partition-after 20ms -heal-after 40ms -interval 10ms -timeout 90s
# On the scalar tier (what a host without vector byte kernels runs) the
# GF(16) decoders of this one are bit-sliced; the daemons inherit the tier.
ALGOSSIP_GF_TIER=scalar run $bin/gossipctl run -bin $bin/gossipd -procs 3 -transport udp -graph grid -n 9 -k 6 -gen 3 \
  -payload 4 -q 16 -loss 0.05 -interval 5ms -timeout 90s
run $bin/gossipctl run -bin $bin/gossipd -procs 2 -graph complete -n 6 -k 3 -q 2 -interval 5ms -timeout 90s

say "one gossipd, every single-daemon subcommand"
$bin/gossipd -nodes 0,1,2,3 -graph ring -n 4 -k 2 -payload 4 -interval 5ms >d.out 2>>"$log" &
d=$!; pids+=($d)
ctl=$(ctl_of d.out)
C=$bin/gossipctl
run $C status -ctl "$ctl"
refuse $C seed -ctl "$ctl" -node 0 -index 0 -payload 0102
run $C seed -ctl "$ctl" -node 0 -index 0 -payload 01020304
run $C seed -ctl "$ctl" -node 1 -index 1 -payload 05060708
run $C chaos -ctl "$ctl" -latency 1ms -jitter 1ms -corrupt 0.2 -partition 3
run $C start -ctl "$ctl"
run $C chaos -ctl "$ctl" -heal
run $C chaos -ctl "$ctl"
run $C topology -ctl "$ctl" -graph complete -n 4
run $C kill -ctl "$ctl" -node 3
run $C metrics -ctl "$ctl"
run $C drain -ctl "$ctl"
wait $d
refuse $bin/gossipd -nodes 0 -graph ring -n 4 -k 2 -transport carrier-pigeon
# A declared peer map is checked whole at start, as POST /peers checks one.
refuse $bin/gossipd -nodes 0 -graph ring -n 4 -k 2 -peers 1=127.0.0.1:9001,4=127.0.0.1:9004
refuse $bin/gossipd -nodes 0 -graph ring -n 4 -k 2 -peers 1=127.0.0.1
# One process has one gossip address: two local nodes at two are refused.
refuse $bin/gossipd -nodes 0,1 -graph ring -n 4 -k 2 -peers 0=127.0.0.1:9000,1=127.0.0.1:9001
refuse $bin/gossipd -nodes 0 -graph ring -n 4 -k 2 -loss NaN

# ---- the report ----
cd "$work"
run go tool covdata textfmt -i="$cov" -o=profile.txt
(cd "$root" && go tool cover -func="$work/profile.txt") >func.txt

mod=$(cd "$root" && go list -m)

# Functions at 0%, as "package Receiver.Name": `go tool cover -func` prints a
# method without its receiver, so that is read off the source line (line
# numbers churn; names do not).
grep -v -E "^$mod/(bench|cmd|examples)/" func.txt | awk '$NF == "0.0%" && $1 != "total:" { split($1, loc, ":"); print loc[1], loc[2], $2 }' |
  while read -r file line name; do
    rel=${file#"$mod"/}
    recv=$(sed -n -E "${line}s/^func \(([A-Za-z_0-9]+ +)?\*?([A-Za-z_0-9]+)(\[[^]]*\])?\) .*/\2./p" "$root/$rel")
    pkg=$(dirname "$rel")
    echo "$pkg $recv$name"
  done >unreached.txt
# A package no entry point links is unreached as a whole: "package *".
linked=$(awk 'NR > 1 { f = $1; sub(/:.*/, "", f); sub(/\/[^\/]*$/, "", f); print f }' profile.txt | sort -u)
(cd "$root" && go list ./internal/...) | grep -v -E '/(harnesstest|simtest)$' |
  while read -r pkg; do
    grep -q -x "$pkg" <<<"$linked" || echo "${pkg#"$mod"/} *"
  done >>unreached.txt
sort -u -o unreached.txt unreached.txt

# Statement share per package: a block is reached when any run counted it.
awk -v mod="$mod/" 'NR > 1 {
  split($1, loc, ":"); blk = $1; n = $2; hit = $3
  if (!(blk in stmts)) { stmts[blk] = n; file[blk] = loc[1] }
  if (hit > 0) reached[blk] = 1
}
END {
  for (b in stmts) {
    pkg = file[b]; sub(/\/[^\/]*$/, "", pkg)
    if (pkg == mod "bench" || pkg ~ "^" mod "(cmd|examples)/") continue
    if (pkg == substr(mod, 1, length(mod) - 1)) pkg = mod "."
    sub(mod, "", pkg)
    tot[pkg] += stmts[b]; if (!(b in reached)) un[pkg] += stmts[b]
  }
  for (p in tot) printf "%s %d %d\n", p, tot[p], un[p]
}' profile.txt | sort >pkgs.txt

{
  echo "# What production runs: $(cd "$root" && git describe --always --dirty 2>/dev/null || echo unknown) ($(go env GOARCH), $(nproc) vCPUs)"
  echo
  echo "## Unreached statements per package (outside bench/, cmd/, examples/)"
  echo
  printf '%-34s %7s %9s %7s\n' package stmts unreached share
  awk '{ printf "%-34s %7d %9d %6.1f%%\n", $1, $2, $3, 100 * $3 / $2; t += $2; u += $3 }
       END { printf "%-34s %7d %9d %6.1f%%\n", "total", t, u, 100 * u / t }' pkgs.txt
  echo
  echo "## Unreached functions, and packages no entry point links ($(wc -l <unreached.txt | tr -d ' '))"
  echo
  cat unreached.txt
} >report.txt

# The keep list: "package Receiver.Name reason..." per line.
{ grep -v -E '^[[:space:]]*(#|$)' "$keep" || true; } | awk '{ print $1, $2 }' | sort -u >kept.txt
comm -23 unreached.txt kept.txt >unlisted.txt
comm -13 unreached.txt kept.txt >stale.txt
{
  echo
  echo "## Unreached and not in scripts/traffic.keep ($(wc -l <unlisted.txt | tr -d ' '))"
  echo
  cat unlisted.txt
  echo
  echo "## In scripts/traffic.keep but reached this run, or gone ($(wc -l <stale.txt | tr -d ' '))"
  echo
  cat stale.txt
} >>report.txt

cat report.txt
if [ -n "$report" ]; then cd "$origin" && cp "$work/report.txt" "$report"; fi
if [ "$check" = 1 ] && [ -s "$work/unlisted.txt" ]; then
  say "unreached functions with no line in scripts/traffic.keep: delete them or give the reason"
  exit 1
fi
