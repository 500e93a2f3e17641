#!/bin/sh
# End-to-end smoke test of the planner service: build hetserve, start it
# against the committed model fixture, run one query and one top-K over
# HTTP, and assert the answers are bit-identical to the direct search
# (hetopt over the same model file). The same again at N = 16000, where the
# paper's §3.4 memory rule excludes 42 of the 62 candidates: server, hetopt
# on the model file and hetopt on a freshly built campaign must give one
# answer, winner (1,3,8,1). Then the refit-parity gate:
# POST a measurement batch to /v1/refit (auth required) and assert the
# refit server's ranked answers are byte-for-byte identical to a fresh
# hetserve on the model that modelfit -rebuild produces from the same
# batch. Run from the repository root:
#
#	sh scripts/serve_smoke.sh
#
# Needs python3 (JSON parsing) and two free TCP ports (default 18217 and
# 18218, override with HETSERVE_PORT / HETSERVE_PORT2).
set -eu

PORT="${HETSERVE_PORT:-18217}"
PORT2="${HETSERVE_PORT2:-18218}"
MODEL=cmd/hetserve/testdata/model_nl.json
REFIT_SECRET=smoke-refit-secret
N=9600
N_MEM=16000
TOPK=3
BIN=$(mktemp -d)
# Every spawned server appends its PID to this list, so the trap kills
# whatever is still running no matter where the script dies — adding a
# server cannot silently leak a process the way per-PID trap vars could.
PIDS=""
# shellcheck disable=SC2086 # word-splitting the PID list is the point
trap 'for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done; rm -rf "$BIN"' EXIT

echo "== build"
go build -o "$BIN/hetserve" ./cmd/hetserve
go build -o "$BIN/hetopt" ./cmd/hetopt
go build -o "$BIN/modelfit" ./cmd/modelfit

# check_served CASE: the served answers $BIN/CASE_topk.json and
# $BIN/CASE_query.json match hetopt's output $BIN/CASE.txt.
check_served() {
	# Extract "(config)  tau" pairs from the ranked list.
	grep -Eo '\([0-9,]+\) +tau = [0-9.]+' "$BIN/$1.txt" > "$BIN/$1.pairs"
	[ -s "$BIN/$1.pairs" ] || { echo "FAIL: no candidates in hetopt output" >&2; exit 1; }
	python3 - "$BIN/$1" "$TOPK" <<'EOF'
import json, re, sys
case, topk = sys.argv[1], int(sys.argv[2])

direct = []
for line in open(f"{case}.pairs"):
    m = re.match(r"(\([0-9,]+\)) +tau = ([0-9.]+)", line.strip())
    direct.append((m.group(1), float(m.group(2))))

topk_resp = json.load(open(f"{case}_topk.json"))
served = [(c["config"], c["tau"]) for c in topk_resp["best"]]
if len(served) != topk or len(direct) != topk:
    sys.exit(f"FAIL: expected {topk} candidates, hetopt={len(direct)} hetserve={len(served)}")
for i, ((dc, dt), (sc, st)) in enumerate(zip(direct, served)):
    # hetopt prints tau rounded to one decimal; the configs must match
    # exactly and the taus to the printed precision.
    if dc != sc or abs(dt - st) > 0.05:
        sys.exit(f"FAIL: rank {i+1}: hetopt {dc} tau={dt}, hetserve {sc} tau={st}")

query = json.load(open(f"{case}_query.json"))
best = query["best"][0]
if (best["config"], best["tau"]) != (served[0][0], served[0][1]):
    sys.exit(f"FAIL: /v1/query winner {best} != /v1/topk rank 1 {served[0]}")
print(f"OK: server matches direct search on {topk} ranked candidates at N={topk_resp['n']}")
EOF
}

echo "== direct search (hetopt)"
"$BIN/hetopt" -model "$MODEL" -n "$N" -topk "$TOPK" | tee "$BIN/direct.txt"

echo "== start hetserve on :$PORT"
"$BIN/hetserve" -model "$MODEL" -addr "127.0.0.1:$PORT" -refit-auth "$REFIT_SECRET" &
SERVER_PID=$!
PIDS="$PIDS $SERVER_PID"
for _ in $(seq 1 50); do
	if curl -fsS "http://127.0.0.1:$PORT/v1/healthz" >/dev/null 2>&1; then break; fi
	sleep 0.1
done
curl -fsS "http://127.0.0.1:$PORT/v1/healthz"

echo "== query + top-K over HTTP"
curl -fsS "http://127.0.0.1:$PORT/v1/query?n=$N" > "$BIN/direct_query.json"
curl -fsS "http://127.0.0.1:$PORT/v1/topk?n=$N&topk=$TOPK" > "$BIN/direct_topk.json"
check_served direct

echo "== memory rule at N=$N_MEM: pipeline, model file and server give one answer"
"$BIN/hetopt" -model "$MODEL" -n "$N_MEM" -topk "$TOPK" | tee "$BIN/mem.txt"
"$BIN/hetopt" -campaign nl -n "$N_MEM" -topk "$TOPK" > "$BIN/mem_campaign.txt"
diff -u "$BIN/mem_campaign.txt" "$BIN/mem.txt" || {
	echo "FAIL: hetopt -model and hetopt -campaign nl disagree at N=$N_MEM" >&2
	exit 1
}
grep -q '^ *1\. (1,3,8,1) ' "$BIN/mem.txt" || {
	echo "FAIL: N=$N_MEM winner is not (1,3,8,1): the memory rule did not travel with the model file" >&2
	exit 1
}
curl -fsS "http://127.0.0.1:$PORT/v1/query?n=$N_MEM" > "$BIN/mem_query.json"
curl -fsS "http://127.0.0.1:$PORT/v1/topk?n=$N_MEM&topk=$TOPK" > "$BIN/mem_topk.json"
check_served mem

echo "== stats"
curl -fsS "http://127.0.0.1:$PORT/v1/stats"

echo "== refit parity gate"
# Synthesize a re-measurement batch from the model's own bins: the first
# sample of the first persisted bin with Ta scaled by 7%, i.e. a plausible
# re-calibration of one (class, M) cell.
python3 - "$MODEL" > "$BIN/batch.json" <<'EOF'
import json, sys
model = json.load(open(sys.argv[1]))
s = dict(model["bins"][0]["samples"][0])
s["ta"] *= 1.07
json.dump({"samples": [s]}, sys.stdout)
EOF

# Without the auth header the endpoint must refuse.
CODE=$(curl -s -o "$BIN/deny.json" -w '%{http_code}' -X POST \
	--data-binary @"$BIN/batch.json" "http://127.0.0.1:$PORT/v1/refit")
[ "$CODE" = 403 ] || { echo "FAIL: unauthenticated refit got HTTP $CODE, want 403" >&2; exit 1; }
echo "unauthenticated POST refused (403)"

# With the header the batch folds in and the model version advances.
curl -fsS -X POST -H "X-Refit-Auth: $REFIT_SECRET" \
	--data-binary @"$BIN/batch.json" "http://127.0.0.1:$PORT/v1/refit" | tee "$BIN/refit.json"
echo

# Reference path: rebuild the whole model from scratch on bins + batch.
"$BIN/modelfit" -rebuild "$MODEL" -batch "$BIN/batch.json" -out "$BIN/rebuilt.json"
"$BIN/hetopt" -model "$BIN/rebuilt.json" -n "$N" -topk "$TOPK" | tee "$BIN/direct2.txt"
grep -Eo '\([0-9,]+\) +tau = [0-9.]+' "$BIN/direct2.txt" > "$BIN/direct2.pairs"

# A second hetserve on the rebuilt model gives full-precision JSON answers
# to diff byte for byte against the refit server's.
"$BIN/hetserve" -model "$BIN/rebuilt.json" -addr "127.0.0.1:$PORT2" &
SERVER2_PID=$!
PIDS="$PIDS $SERVER2_PID"
for _ in $(seq 1 50); do
	if curl -fsS "http://127.0.0.1:$PORT2/v1/healthz" >/dev/null 2>&1; then break; fi
	sleep 0.1
done

curl -fsS "http://127.0.0.1:$PORT/v1/topk?n=$N&topk=$TOPK" > "$BIN/refit_topk.json"
curl -fsS "http://127.0.0.1:$PORT2/v1/topk?n=$N&topk=$TOPK" > "$BIN/rebuilt_topk.json"

python3 - "$BIN" "$TOPK" <<'EOF'
import json, re, sys
bin_dir, topk = sys.argv[1], int(sys.argv[2])

refit = json.load(open(f"{bin_dir}/refit.json"))
if refit.get("version") != 2 or not refit.get("report", {}).get("replaced"):
    sys.exit(f"FAIL: refit response {refit} — want version 2 with a replaced sample")

a = json.load(open(f"{bin_dir}/refit_topk.json"))
b = json.load(open(f"{bin_dir}/rebuilt_topk.json"))
# The ranked candidates must agree byte for byte at full float precision
# (JSON float encoding is injective, so byte equality is bit identity).
sa, sb = json.dumps(a["best"]), json.dumps(b["best"])
if sa != sb:
    sys.exit(f"FAIL: refit server answers differ from rebuilt model:\n {sa}\n {sb}")

direct = []
for line in open(f"{bin_dir}/direct2.pairs"):
    m = re.match(r"(\([0-9,]+\)) +tau = ([0-9.]+)", line.strip())
    direct.append((m.group(1), float(m.group(2))))
served = [(c["config"], c["tau"]) for c in a["best"]]
if len(served) != topk or len(direct) != topk:
    sys.exit(f"FAIL: expected {topk} candidates, hetopt={len(direct)} refit server={len(served)}")
for i, ((dc, dt), (sc, st)) in enumerate(zip(direct, served)):
    if dc != sc or abs(dt - st) > 0.05:
        sys.exit(f"FAIL: rank {i+1}: hetopt {dc} tau={dt}, refit server {sc} tau={st}")
print(f"OK: refit answers match modelfit -rebuild byte for byte on {topk} candidates")
EOF

kill -TERM "$SERVER2_PID"
wait "$SERVER2_PID"
SERVER2_PID=""

echo "== clean shutdown"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
echo "OK: hetserve exited cleanly"
