#!/bin/sh
# End-to-end smoke test of the fleet front end: build hetserve + hetrouter,
# start three members and a router over them, and drive the fleet invariants
# over real HTTP:
#
#   1. Scatter parity — the router's merged ranked answers are byte-identical
#      (full-precision JSON) to a member searching the whole grid, and match
#      hetopt to its printed precision — also at N = 16000, where the §3.4
#      memory rule excludes 42 of the 62 candidates and hetopt on the model
#      file must print exactly what hetopt on a fresh campaign prints.
#   2. Kill-one-member retry — with a member down, the dead range re-scatters
#      across the survivors and the answer bytes do not change.
#   3. Coordinated reload — the two-phase fleet reload moves every member's
#      version together; with a member dead it fails and no survivor moves.
#
# Run from the repository root:
#
#	sh scripts/router_smoke.sh
#
# Needs python3 (JSON parsing) and four free TCP ports (default 18220-18223,
# override with HETROUTER_PORT_BASE).
set -eu

BASE="${HETROUTER_PORT_BASE:-18220}"
P1=$BASE; P2=$((BASE + 1)); P3=$((BASE + 2)); RPORT=$((BASE + 3))
MODEL=cmd/hetserve/testdata/model_nl.json
N=9600
TOPK=7
N_MEM=16000
TOPK_MEM=3
BIN=$(mktemp -d)
# Every spawned server appends its PID; the trap kills whatever is still up.
PIDS=""
# shellcheck disable=SC2086 # word-splitting the PID list is the point
trap 'for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done; rm -rf "$BIN"' EXIT

wait_up() {
	for _ in $(seq 1 50); do
		if curl -fsS "http://127.0.0.1:$1/v1/healthz" >/dev/null 2>&1; then return 0; fi
		sleep 0.1
	done
	echo "FAIL: server on :$1 never came up" >&2
	exit 1
}

echo "== build"
go build -o "$BIN/hetserve" ./cmd/hetserve
go build -o "$BIN/hetrouter" ./cmd/hetrouter
go build -o "$BIN/hetopt" ./cmd/hetopt

echo "== start 3 members + router"
for port in $P1 $P2 $P3; do
	"$BIN/hetserve" -model "$MODEL" -addr "127.0.0.1:$port" &
	PIDS="$PIDS $!"
done
for port in $P1 $P2 $P3; do wait_up "$port"; done
# -shardmin -1 forces the scatter path: the fixture grid (62 candidates) is
# far below the production default, which would route whole queries by
# affinity and leave the merge untested.
"$BIN/hetrouter" -members "http://127.0.0.1:$P1,http://127.0.0.1:$P2,http://127.0.0.1:$P3" \
	-addr "127.0.0.1:$RPORT" -shardmin -1 &
ROUTER_PID=$!
PIDS="$PIDS $ROUTER_PID"
wait_up "$RPORT"
curl -fsS "http://127.0.0.1:$RPORT/v1/healthz"

echo "== scatter parity: router vs whole-grid member vs hetopt"
"$BIN/hetopt" -model "$MODEL" -n "$N" -topk "$TOPK" | tee "$BIN/direct.txt"
curl -fsS "http://127.0.0.1:$RPORT/v1/topk?n=$N&topk=$TOPK" > "$BIN/router_topk.json"
curl -fsS "http://127.0.0.1:$P1/v1/topk?n=$N&topk=$TOPK" > "$BIN/member_topk.json"

# check_parity ROUTER_JSON MEMBER_JSON [HETOPT_TXT TOPK]: the router's ranked
# list is byte-identical to the whole-grid member's and matches hetopt's.
check_parity() {
	grep -Eo '\([0-9,]+\) +tau = [0-9.]+' "$BIN/${3:-direct.txt}" > "$BIN/direct.pairs"
	[ -s "$BIN/direct.pairs" ] || { echo "FAIL: no candidates in hetopt output" >&2; exit 1; }
	python3 - "$BIN" "${4:-$TOPK}" "$1" "$2" <<'EOF'
import json, re, sys
bin_dir, topk, router_file, member_file = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]

a = json.load(open(f"{bin_dir}/{router_file}"))
b = json.load(open(f"{bin_dir}/{member_file}"))
# Byte-identical ranked lists at full float precision: JSON float encoding
# is injective, so string equality is bit identity of every tau.
sa, sb = json.dumps(a["best"]), json.dumps(b["best"])
if sa != sb:
    sys.exit(f"FAIL: router answer diverges from whole-grid member:\n {sa}\n {sb}")
if len(a["best"]) != topk:
    sys.exit(f"FAIL: router returned {len(a['best'])} candidates, want {topk}")

direct = []
for line in open(f"{bin_dir}/direct.pairs"):
    m = re.match(r"(\([0-9,]+\)) +tau = ([0-9.]+)", line.strip())
    direct.append((m.group(1), float(m.group(2))))
served = [(c["config"], c["tau"]) for c in a["best"]]
if len(direct) != topk:
    sys.exit(f"FAIL: hetopt printed {len(direct)} candidates, want {topk}")
for i, ((dc, dt), (sc, st)) in enumerate(zip(direct, served)):
    # hetopt prints tau rounded to one decimal: configs exact, taus to the
    # printed precision.
    if dc != sc or abs(dt - st) > 0.05:
        sys.exit(f"FAIL: rank {i+1}: hetopt {dc} tau={dt}, router {sc} tau={st}")
print(f"OK: router merge is byte-identical to the whole-grid search on {topk} candidates at N={a['n']}")
EOF
}
check_parity router_topk.json member_topk.json

echo "== memory rule at N=$N_MEM: pipeline, model file and fleet give one answer"
"$BIN/hetopt" -model "$MODEL" -n "$N_MEM" -topk "$TOPK_MEM" | tee "$BIN/mem.txt"
"$BIN/hetopt" -campaign nl -n "$N_MEM" -topk "$TOPK_MEM" > "$BIN/mem_campaign.txt"
diff -u "$BIN/mem_campaign.txt" "$BIN/mem.txt" || {
	echo "FAIL: hetopt -model and hetopt -campaign nl disagree at N=$N_MEM" >&2
	exit 1
}
grep -q '^ *1\. (1,3,8,1) ' "$BIN/mem.txt" || {
	echo "FAIL: N=$N_MEM winner is not (1,3,8,1): the memory rule did not travel with the model file" >&2
	exit 1
}
curl -fsS "http://127.0.0.1:$RPORT/v1/topk?n=$N_MEM&topk=$TOPK_MEM" > "$BIN/router_mem.json"
curl -fsS "http://127.0.0.1:$P1/v1/topk?n=$N_MEM&topk=$TOPK_MEM" > "$BIN/member_mem.json"
check_parity router_mem.json member_mem.json mem.txt "$TOPK_MEM"

echo "== coordinated reload: every member moves together"
curl -fsS -X POST -H 'Content-Type: application/json' \
	-d "{\"path\": \"$MODEL\"}" "http://127.0.0.1:$RPORT/v1/reload" | tee "$BIN/reload.json"
echo
python3 - "$BIN" <<'EOF'
import json, sys
res = json.load(open(f"{sys.argv[1]}/reload.json"))
versions = [m["version"] for m in res["members"]]
if len(versions) != 3 or versions != [2, 2, 2]:
    sys.exit(f"FAIL: coordinated reload versions {versions}, want [2, 2, 2]")
print("OK: all 3 members moved to version 2 together")
EOF

echo "== kill one member: dead range re-scatters, answers unchanged"
KILLED=$(echo "$PIDS" | awk '{print $2}') # member on port P2
kill "$KILLED"
wait "$KILLED" 2>/dev/null || true
curl -fsS "http://127.0.0.1:$RPORT/v1/topk?n=$N&topk=$TOPK" > "$BIN/router_topk2.json"
check_parity router_topk2.json member_topk.json
curl -fsS "http://127.0.0.1:$RPORT/v1/stats" > "$BIN/stats.json"
python3 - "$BIN" <<'EOF'
import json, sys
st = json.load(open(f"{sys.argv[1]}/stats.json"))
if st["rescatters"] < 1:
    sys.exit(f"FAIL: no re-scatter recorded after member death: {st}")
if st["healthyMembers"] != 2:
    sys.exit(f"FAIL: {st['healthyMembers']} healthy members, want 2")
print(f"OK: dead member's range re-scattered ({st['rescatters']} re-scatters), 2 survivors")
EOF

echo "== coordinated reload with a dead member: all-or-none"
CODE=$(curl -s -o "$BIN/reload_fail.json" -w '%{http_code}' -X POST \
	-H 'Content-Type: application/json' -d "{\"path\": \"$MODEL\"}" \
	"http://127.0.0.1:$RPORT/v1/reload")
[ "$CODE" != 200 ] || { echo "FAIL: fleet reload succeeded with a dead member" >&2; exit 1; }
echo "reload with dead member refused (HTTP $CODE)"
for port in $P1 $P3; do
	V=$(curl -fsS "http://127.0.0.1:$port/v1/healthz" | python3 -c 'import json,sys; print(json.load(sys.stdin)["version"])')
	[ "$V" = 2 ] || { echo "FAIL: survivor on :$port moved to version $V during failed reload" >&2; exit 1; }
done
echo "OK: no survivor moved (still version 2)"

echo "== clean shutdown"
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID"
echo "OK: hetrouter exited cleanly"
