#!/usr/bin/env bash
# Chaos smoke test, run by the CI `smoke-chaos` job and runnable
# locally: build the CLI, take a faultless single-process sweep as the
# reference, then (1) run a coordinated sweep under a seeded fault
# schedule — worker crashes, stragglers, dropped and duplicated
# completions, one torn checkpoint append — and assert its stdout is
# byte-identical to the reference while the stderr tally proves faults
# actually fired; (2) check the run's checkpoint journal, its torn
# append repaired, is whole and loads as the finished sweep: a re-run
# renders the identical table and appends nothing; (3) cut the journal
# mid-record as a crash mid-append would and assert the re-run drops
# the torn tail, re-sweeps exactly the ranges cut, and still renders the
# identical table.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
cleanup() {
    # No background processes today, but failure paths must stay clean
    # if one is ever added: sweep the job table before removing state.
    stray=$(jobs -p)
    [ -n "$stray" ] && kill $stray 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/setconsensus" ./cmd/setconsensus

# Same sizing as smoke_coord.sh: ~64 ranges, O(seconds) in CI. The
# lease is short so dropped completions re-issue quickly instead of
# stalling the run for the default 30s.
workload="space:n=5,t=2,r=2,v=0..1"
protocols="optmin,upmin"
range_size=2048
ckpt="$workdir/chaos.ckpt"
spec="seed=1337,crash=0.04,straggler=0.15,delay=5ms,drop=0.5#2,dup=0.1,torn#1"

# journal(path) parses the checkpoint journal — one record per line, the
# %08x CRC-32 of the JSON body, a space, the body — and fails unless
# every line is intact. finished() reports whether the done records tile
# the space up to its end.
journal_py='
import json, sys, zlib
def journal(path):
    lines = open(path, "rb").read().split(b"\n")
    tail = lines.pop()
    assert not tail, "torn tail of %d bytes" % len(tail)
    recs = []
    for i, line in enumerate(lines):
        crc, _, body = line.partition(b" ")
        assert len(crc) == 8 and int(crc, 16) == zlib.crc32(body), "record %d fails its CRC" % i
        recs.append(json.loads(body))
    assert recs, "no header"
    return recs[0], recs[1:]
def finished(hdr, recs):
    size = hdr["rangeSize"]
    done = {r["done"]["offset"]: r.get("count", 0) for r in recs if "done" in r}
    ends = [off + n for off, n in done.items() if n < size]
    return bool(ends) and all(off in done for off in range(0, min(ends), size))
'

# rerun resumes the sweep from the journal with an armed but empty
# fault schedule, so the coordinator's counters still reach stderr.
rerun() {
    "$workdir/setconsensus" -coordinate -workers 3 -range-size "$range_size" \
        -lease 1s -chaos "seed=7" -checkpoint "$ckpt" \
        -protocol "$protocols" -workload "$workload" \
        >"$workdir/$1.txt" 2>"$workdir/$1.err"
    diff -u "$workdir/mono.txt" "$workdir/$1.txt"
}

echo "== faultless single-process reference sweep"
"$workdir/setconsensus" -protocol "$protocols" -workload "$workload" \
    >"$workdir/mono.txt"

echo "== coordinated sweep under chaos: $spec"
"$workdir/setconsensus" -coordinate -workers 3 -range-size "$range_size" \
    -lease 1s -chaos "$spec" -checkpoint "$ckpt" \
    -protocol "$protocols" -workload "$workload" \
    >"$workdir/chaos.txt" 2>"$workdir/chaos.err"
diff -u "$workdir/mono.txt" "$workdir/chaos.txt"
echo "   chaotic output identical to faultless single-process run"

grep '^chaos: injected ' "$workdir/chaos.err" || {
    echo "FAIL: no chaos tally on stderr"
    cat "$workdir/chaos.err"
    exit 1
}
if grep -q '^chaos: injected none$' "$workdir/chaos.err"; then
    echo "FAIL: fault schedule fired nothing"
    cat "$workdir/chaos.err"
    exit 1
fi
# The torn#1 budget guarantees at least the torn-write fault fired.
grep -q '^chaos: injected .*torn=1' "$workdir/chaos.err" || {
    echo "FAIL: torn checkpoint write did not fire"
    cat "$workdir/chaos.err"
    exit 1
}
grep '^coord: ' "$workdir/chaos.err"

echo "== the journal, torn append repaired, loads as the finished sweep"
python3 -c "$journal_py
hdr, recs = journal(sys.argv[1])
assert hdr['version'] == 3, hdr['version']
assert finished(hdr, recs), 'final journal is not the finished sweep'
print('   %d records, every CRC intact; %d ranges done' % (len(recs), sum('done' in r for r in recs)))
" "$ckpt"
cp "$ckpt" "$workdir/final.ckpt"
rerun finished
cmp "$ckpt" "$workdir/final.ckpt" || {
    echo "FAIL: resuming the finished sweep appended to its journal"
    exit 1
}
grep -q 'ckpt-tails-dropped=0' "$workdir/finished.err" || {
    echo "FAIL: the finished journal lost a tail on load"
    cat "$workdir/finished.err"
    exit 1
}
echo "   re-run renders the identical table, sweeps nothing, appends nothing"

echo "== cut the journal mid-record; the re-run re-sweeps exactly what was cut"
python3 -c "$journal_py
hdr, recs = journal(sys.argv[1])
blob = open(sys.argv[1], 'rb').read()
ends = [i + 1 for i, b in enumerate(blob) if b == 0x0a]
k = len(ends) // 2  # cut inside record k; records 0..k-1 stay intact
open(sys.argv[1], 'wb').write(blob[:(ends[k - 1] + ends[k]) // 2])
kept = {r['done']['offset'] for r in recs[:k - 1] if 'done' in r}
cut = sorted({r['done']['offset'] for r in recs if 'done' in r} - kept)
open(sys.argv[2], 'w').write(json.dumps(cut))
print('   cut inside record %d of %d: %d finished ranges lost' % (k, len(ends), len(cut)))
" "$ckpt" "$workdir/cut.json"
rerun resumed
grep -q 'ckpt-tails-dropped=1' "$workdir/resumed.err" || {
    echo "FAIL: resume did not report the dropped tail"
    cat "$workdir/resumed.err"
    exit 1
}
python3 -c "$journal_py
hdr, recs = journal(sys.argv[1])
cut = json.load(open(sys.argv[2]))
assert finished(hdr, recs), 'resumed journal is not the finished sweep'
done = [r['done']['offset'] for r in recs if 'done' in r]
assert len(done) == len(set(done)), 'a range finished twice'
fresh = sorted(done[len(done) - len(cut):])
assert fresh == cut, 're-swept %s, want the cut ranges %s' % (fresh, cut)
" "$ckpt" "$workdir/cut.json"
echo "   torn tail dropped, the $(python3 -c "import json,sys; print(len(json.load(open(sys.argv[1]))))" "$workdir/cut.json") cut ranges re-swept; output identical"

echo "smoke ok"
