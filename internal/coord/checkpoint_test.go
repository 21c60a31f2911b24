package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/agg"
	"setconsensus/internal/chaos"
)

// journalFile is a parsed checkpoint journal: the intact entries after
// its v3 header, the end offset of every intact record (ends[0] is the
// header's), and the length of the torn or tampered tail.
type journalFile struct {
	blob    []byte
	entries []journalEntry
	ends    []int
	tail    int
}

func (j journalFile) done() int {
	n := 0
	for _, e := range j.entries {
		if e.Done != nil {
			n++
		}
	}
	return n
}

func readJournal(t testing.TB, path string) journalFile {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j := journalFile{blob: blob}
	body, rest, ok := nextRecord(blob)
	if !ok {
		t.Fatalf("journal has no intact header: %q", blob)
	}
	var hdr journalHeader
	if err := json.Unmarshal(body, &hdr); err != nil || hdr.Version != checkpointVersion {
		t.Fatalf("journal header %s: version %d, err %v", body, hdr.Version, err)
	}
	j.ends = append(j.ends, len(blob)-len(rest))
	for len(rest) > 0 {
		body, next, ok := nextRecord(rest)
		if !ok {
			break
		}
		var e journalEntry
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		j.entries = append(j.entries, e)
		rest = next
		j.ends = append(j.ends, len(blob)-len(rest))
	}
	j.tail = len(rest)
	return j
}

// seedJournal runs a fake sweep to completion with a checkpoint
// configured — one worker, so the journal is a header plus five done
// records in offset order — checks that the journal is the only file it
// left, and returns the golden summary JSON a resume must reproduce.
func seedJournal(t *testing.T, cp string) string {
	t.Helper()
	p := testParams(5, fakeTotal)
	p.CheckpointPath = cp
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(context.Background(), []Worker{plainFake("seed")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Dir(cp))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != filepath.Base(cp) {
		t.Fatalf("checkpointed run left %v, want only %s", files, filepath.Base(cp))
	}
	return summaryJSON(t, sum)
}

// flipInRecord flips one byte in the middle of the JSON body of the
// i-th record (0 is the header), so its checksum no longer matches.
func flipInRecord(t *testing.T, cp string, i int) {
	t.Helper()
	j := readJournal(t, cp)
	start := 0
	if i > 0 {
		start = j.ends[i-1]
	}
	at := start + crcWidth + 1 + (j.ends[i]-start-crcWidth-2)/2
	j.blob[at] ^= 0x01
	if err := os.WriteFile(cp, j.blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// cutAt truncates the journal to n bytes, as a crash mid-append would.
func cutAt(t *testing.T, cp string, n func(j journalFile) int) {
	t.Helper()
	if err := os.Truncate(cp, int64(n(readJournal(t, cp)))); err != nil {
		t.Fatal(err)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func assertUnchanged(t testing.TB, path string, before []byte) {
	t.Helper()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("rejected checkpoint was modified:\n got %q\nwant %q", after, before)
	}
}

// countSweeps wraps workers to count every range they sweep.
func countSweeps(ws []Worker, n *atomic.Int32) []Worker {
	out := make([]Worker, len(ws))
	for i, w := range ws {
		out[i] = &countingWorker{Worker: w, n: n}
	}
	return out
}

type countingWorker struct {
	Worker
	n *atomic.Int32
}

func (w *countingWorker) Sweep(ctx context.Context, r Range, progress func(setconsensus.SweepProgress)) (*setconsensus.Summary, error) {
	w.n.Add(1)
	return w.Worker.Sweep(ctx, r, progress)
}

// The checkpoints of earlier releases: single JSON documents, v1 without
// and v2 with an embedded checksum.
const (
	v1Checkpoint = `{"version":1,"workload":"fake","refs":["optmin","floodmin"],"rangeSize":5,"nextOffset":5,"done":[],"pending":[{"offset":0,"limit":5}]}`
	v2Checkpoint = `{"version":2,"checksum":"5d0b3c1a","workload":"fake","refs":["optmin","floodmin"],"rangeSize":5,"nextOffset":5,"done":[],"pending":[{"offset":0,"limit":5,"attempts":1}]}`
)

// TestCheckpointFailureModes is the failure-mode table over the five
// done records of a seeded journal. A torn or tampered record is dropped
// with everything after it, counted, and re-swept — exactly the dropped
// ranges — to the golden bytes, leaving an intact journal. A file
// without an intact v3 header rejects with the typed error and stays
// byte-identical.
func TestCheckpointFailureModes(t *testing.T) {
	const seeded = 5
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, cp string)
		wantErr error // nil: New must succeed
		keep    int   // done records the resume keeps
		dropped bool  // the load dropped a tail
	}{
		{
			name:    "missing journal starts fresh",
			corrupt: func(t *testing.T, cp string) { os.Remove(cp) },
		},
		{
			name: "cut mid-record drops the tail",
			corrupt: func(t *testing.T, cp string) {
				cutAt(t, cp, func(j journalFile) int { return (j.ends[seeded-1] + j.ends[seeded]) / 2 })
			},
			keep:    seeded - 1,
			dropped: true,
		},
		{
			name:    "tampered last record drops the tail",
			corrupt: func(t *testing.T, cp string) { flipInRecord(t, cp, seeded) },
			keep:    seeded - 1,
			dropped: true,
		},
		{
			name:    "tampered middle record drops it and the rest",
			corrupt: func(t *testing.T, cp string) { flipInRecord(t, cp, 2) },
			keep:    1,
			dropped: true,
		},
		{
			name: "cut header rejects untouched",
			corrupt: func(t *testing.T, cp string) {
				cutAt(t, cp, func(j journalFile) int { return j.ends[0] / 2 })
			},
			wantErr: ErrCheckpointCorrupt,
		},
		{
			name:    "garbled header rejects untouched",
			corrupt: func(t *testing.T, cp string) { flipInRecord(t, cp, 0) },
			wantErr: ErrCheckpointCorrupt,
		},
		{
			name:    "v2 JSON rejects untouched",
			corrupt: func(t *testing.T, cp string) { writeFile(t, cp, v2Checkpoint) },
			wantErr: ErrCheckpointVersion,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := filepath.Join(t.TempDir(), "sweep.ckpt")
			golden := seedJournal(t, cp)
			tc.corrupt(t, cp)

			before, _ := os.ReadFile(cp)
			p := testParams(5, fakeTotal)
			p.CheckpointPath = cp
			c, err := New("fake", testRefs, p)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("error %v, want %v", err, tc.wantErr)
				}
				assertUnchanged(t, cp, before)
				return
			}
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if got := c.Stats().CheckpointTailsDropped; (got == 1) != tc.dropped || got > 1 {
				t.Errorf("CheckpointTailsDropped = %d, want dropped=%v", got, tc.dropped)
			}
			if len(c.done) != tc.keep {
				t.Errorf("resume kept %d done ranges, want %d", len(c.done), tc.keep)
			}
			var swept atomic.Int32
			sum, err := c.Run(context.Background(), countSweeps([]Worker{plainFake("resume")}, &swept), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := summaryJSON(t, sum); got != golden {
				t.Errorf("resumed summary differs from golden:\n got %s\nwant %s", got, golden)
			}
			if got := int(swept.Load()); got != seeded-tc.keep {
				t.Errorf("resume swept %d ranges, want the %d dropped", got, seeded-tc.keep)
			}
			if j := readJournal(t, cp); j.tail != 0 || j.done() != seeded {
				t.Errorf("journal after resume: %d done records and a %d-byte tail, want %d and none", j.done(), j.tail, seeded)
			}
		})
	}
}

// TestCheckpointVersionOneRejected pins the schema gate against the
// oldest on-disk format: a v1 file (no checksum) must reject with the
// version error, never be half-trusted, and stay untouched.
func TestCheckpointVersionOneRejected(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	writeFile(t, cp, v1Checkpoint)
	p := testParams(5, fakeTotal)
	p.CheckpointPath = cp
	if _, err := New("fake", testRefs, p); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("v1 checkpoint: err = %v, want %v", err, ErrCheckpointVersion)
	}
	assertUnchanged(t, cp, []byte(v1Checkpoint))
}

// TestCheckpointIdentityMismatchTyped: the identity rejections carry
// ErrCheckpointMismatch so callers can branch on them.
func TestCheckpointIdentityMismatchTyped(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	seedJournal(t, cp)
	p := testParams(5, fakeTotal)
	p.CheckpointPath = cp
	if _, err := New("other", testRefs, p); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("workload mismatch: err = %v, want %v", err, ErrCheckpointMismatch)
	}
}

// TestTornWriteInjectionRecovers drives the chaos torn point end to
// end: the second completion's append is torn — half the record lands
// — and the writer must cut back to the end of the last intact record
// and write the record again, so the journal stays whole: a resume keeps
// both ranges, drops no tail, sweeps only the rest, and merges to the
// golden bytes.
func TestTornWriteInjectionRecovers(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	p := testParams(5, fakeTotal)
	p.CheckpointPath = cp
	c1, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rs1, ok, err := c1.claim(ctx, "w")
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	c1.complete(ctx, "w", rs1, fakeSum(rs1.Offset, rs1.Limit), nil)

	inj := mustSpec(t, "torn#1")
	c1.params.Chaos = inj
	rs2, ok, err := c1.claim(ctx, "w")
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	c1.complete(ctx, "w", rs2, fakeSum(rs2.Offset, rs2.Limit), nil) // torn, then repaired
	if got := inj.Counts()[chaos.PointTornCheckpoint]; got != 1 {
		t.Fatalf("torn appends fired %d times, want 1", got)
	}
	c1.mu.Lock()
	fatal, written, size := c1.fatal, c1.ckptWritten, c1.journalSize
	if err := c1.closeJournalLocked(); err != nil {
		t.Fatal(err)
	}
	c1.mu.Unlock()
	if fatal != nil {
		t.Fatalf("repairable torn append was fatal: %v", fatal)
	}
	j := readJournal(t, cp)
	if j.tail != 0 || j.done() != 2 || int64(len(j.blob)) != size {
		t.Fatalf("torn append not repaired: %d done records, %d-byte tail, %d bytes on disk, %d intact", j.done(), j.tail, len(j.blob), size)
	}
	if torn, rec := written-size, int64(j.ends[2]-j.ends[1]); torn <= 0 || torn >= rec {
		t.Errorf("writer handed %d bytes beyond the journal, want a short append of the %d-byte record", torn, rec)
	}

	// "Process death" here: resume from disk.
	p.Chaos = nil
	c2, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatalf("resume after torn append: %v", err)
	}
	if got := c2.Stats().CheckpointTailsDropped; got != 0 {
		t.Errorf("CheckpointTailsDropped = %d after a repaired append, want 0", got)
	}
	if len(c2.done) != 2 {
		t.Errorf("resume loaded %d done ranges, want 2", len(c2.done))
	}
	var swept atomic.Int32
	sum, err := c2.Run(context.Background(), countSweeps([]Worker{plainFake("resume")}, &swept), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryJSON(t, sum); got != goldenFake(t) {
		t.Errorf("post-torn resume summary differs from golden:\n got %s\nwant %s", got, goldenFake(t))
	}
	if got := swept.Load(); got != 3 {
		t.Errorf("resume swept %d ranges, want the 3 never completed", got)
	}
}

// TestForgedCheckpointRejected: a checksum-valid record that no
// coordinator writes — a range off the [k·RangeSize, (k+1)·RangeSize)
// grid or at or past the end of the space, a count outside [0, limit],
// disagreeing with its summary or other than the range's share of the
// space, a missing summary, a range finished twice — rejects the whole
// journal as corrupt and leaves it untouched, instead of merging a
// forged range into the result.
func TestForgedCheckpointRejected(t *testing.T) {
	at := func(off int) *Range { return &Range{Offset: off, Limit: 5} }
	for _, tc := range []struct {
		name string
		rec  any
	}{
		{"off-grid offset", journalEntry{Done: at(3), Count: 5, Summary: fakeSum(3, 5)}},
		{"negative offset", journalEntry{Done: at(-5), Count: 0, Summary: fakeSum(-5, 0)}},
		{"short limit", journalEntry{Done: &Range{Offset: 25, Limit: 4}, Summary: fakeSum(25, 4)}},
		{"count above limit", journalEntry{Done: at(20), Count: 6, Summary: fakeSumOf(26, 20, 6)}},
		{"negative count", journalEntry{Done: at(20), Count: -1, Summary: fakeSum(20, 5)}},
		{"nil summary", journalEntry{Done: at(20)}},
		{"nil summary row", json.RawMessage(`{"done":{"offset":20,"limit":5},"summary":{"workload":"fake","protocols":[null]}}`)},
		{"count disagrees with summary", journalEntry{Done: at(20), Count: 2, Summary: fakeSum(20, 5)}},
		{"range finished twice", journalEntry{Done: at(0), Count: 5, Summary: fakeSum(0, 5)}},
		{"done range past the end", journalEntry{Done: at(25), Count: 0, Summary: fakeSum(25, 5)}},
		{"failed attempt past the end", journalEntry{Failed: at(25)}},
		{"count short of the range's share", journalEntry{Done: at(20), Count: 5, Summary: fakeSumOf(25, 20, 5)}},
		{"off-grid failed attempt", journalEntry{Failed: at(7)}},
		{"failed attempt with a summary", journalEntry{Failed: at(25), Summary: fakeSum(25, 5)}},
		{"neither kind", journalEntry{}},
		{"not JSON", json.RawMessage(`{"done":`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := filepath.Join(t.TempDir(), "sweep.ckpt")
			seedJournal(t, cp)
			body, ok := tc.rec.(json.RawMessage)
			if !ok {
				var err error
				if body, err = json.Marshal(tc.rec); err != nil {
					t.Fatal(err)
				}
			}
			line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(body), body)
			blob := append(readJournal(t, cp).blob, line...)
			writeFile(t, cp, string(blob))

			p := testParams(5, fakeTotal)
			p.CheckpointPath = cp
			if _, err := New("fake", testRefs, p); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("forged record %s: err = %v, want %v", body, err, ErrCheckpointCorrupt)
			}
			assertUnchanged(t, cp, blob)
		})
	}
}

// TestEndDiscoveryJournalRejected resumes a journal in the format of
// coordinators that found a space's end by leasing past it: a finished
// sweep whose workers also journaled the empty ranges they leased past
// the end. The journal is intact, but a coordinator that knows Total
// never writes those records, so it is rejected as corrupt, with the
// remedy in the message, and left as it is.
func TestEndDiscoveryJournalRejected(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	seedJournal(t, cp)
	blob := readJournal(t, cp).blob
	for _, off := range []int{25, 30} {
		body, err := json.Marshal(journalEntry{Done: &Range{Offset: off, Limit: 5}, Summary: fakeSum(off, 5)})
		if err != nil {
			t.Fatal(err)
		}
		blob = fmt.Appendf(blob, "%08x %s\n", crc32.ChecksumIEEE(body), body)
	}
	writeFile(t, cp, string(blob))

	p := testParams(5, fakeTotal)
	p.CheckpointPath = cp
	_, err := New("fake", testRefs, p)
	if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), "delete the journal to start over") {
		t.Fatalf("journal with empty ranges past the end: err = %v, want %v naming the remedy", err, ErrCheckpointCorrupt)
	}
	assertUnchanged(t, cp, blob)
}

// TestMergeRejectsUntiledRanges: the merge folds exactly the offsets it
// verified — the multiples of RangeSize below Total — and fails on any
// other completed range, an empty one past the end included. A stray
// range at offset 3 used to be merged too, turning the 23-adversary
// sweep into 28 with no error.
func TestMergeRejectsUntiledRanges(t *testing.T) {
	build := func(at int, extra *setconsensus.Summary) *Coordinator {
		t.Helper()
		c, err := New("fake", testRefs, testParams(5, fakeTotal))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < fakeTotal; off += 5 {
			c.done[off] = fakeSum(off, 5)
		}
		c.done[at] = extra
		return c
	}
	sum, err := build(20, fakeSum(20, 5)).mergedLocked()
	if err != nil {
		t.Fatalf("the tiling alone: %v", err)
	}
	if got := summaryJSON(t, sum); got != goldenFake(t) {
		t.Errorf("merge of the tiling:\n got %s\nwant %s", got, goldenFake(t))
	}
	for _, stray := range []struct {
		at  int
		sum *setconsensus.Summary
	}{
		{25, fakeSum(25, 5)},
		{3, fakeSum(3, 5)},
		{25, fakeSumOf(27, 25, 5)},
	} {
		if sum, err := build(stray.at, stray.sum).mergedLocked(); err == nil {
			t.Errorf("merged stray range at %d: %d adversaries, no error", stray.at, sum.Adversaries())
		}
	}
}

// TestResumeLeasesOnlyMissingRanges pins the resume that a crash
// mid-append leaves behind: the journal is cut inside the record of
// range 10, so ranges 10, 15 and the short last range 20 are lost, and
// whoever of three workers draws range 20 sweeps it slowly. The others
// finish 10 and 15 first and claim again while 20 is out; they must
// wait for it instead of leasing ranges past the end, so the resumed run
// leases and journals exactly the three missing ranges.
func TestResumeLeasesOnlyMissingRanges(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	golden := seedJournal(t, cp)
	cutAt(t, cp, func(j journalFile) int { return (j.ends[2] + j.ends[3]) / 2 })
	p := testParams(5, fakeTotal)
	p.CheckpointPath = cp
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		leased []int
	)
	sweep := func(_ context.Context, r Range) (*setconsensus.Summary, error) {
		mu.Lock()
		leased = append(leased, r.Offset)
		mu.Unlock()
		if r.Offset+r.Limit > fakeTotal {
			time.Sleep(50 * time.Millisecond)
		}
		return fakeSum(r.Offset, r.Limit), nil
	}
	ws := []Worker{&fakeWorker{"a", sweep}, &fakeWorker{"b", sweep}, &fakeWorker{"c", sweep}}
	sum, err := c.Run(context.Background(), ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryJSON(t, sum); got != golden {
		t.Errorf("resumed summary differs from golden:\n got %s\nwant %s", got, golden)
	}
	sort.Ints(leased)
	if fmt.Sprint(leased) != "[10 15 20]" {
		t.Errorf("resume leased ranges at %v, want exactly the missing [10 15 20]", leased)
	}
	j := readJournal(t, cp)
	var journaled []int
	for _, e := range j.entries {
		if e.Done != nil {
			journaled = append(journaled, e.Done.Offset)
		}
		if e.Failed != nil {
			t.Errorf("journal holds a failed attempt at %s", e.Failed)
		}
	}
	if got := fmt.Sprint(journaled[2:]); len(journaled) != 5 || got != "[10 15 20]" && got != "[15 10 20]" {
		t.Errorf("journal holds done records %v, want the kept [0 5] and then exactly 10, 15 and 20", journaled)
	}
}

// TestWrongCountFailsRun: a worker whose summary for a range holds a
// count other than the range's share of the space — here the whole
// 5-adversary window for the 3-adversary last range — fails the run,
// naming both counts, instead of merging a wrong summary.
func TestWrongCountFailsRun(t *testing.T) {
	c, err := New("fake", testRefs, testParams(5, fakeTotal))
	if err != nil {
		t.Fatal(err)
	}
	w := &fakeWorker{name: "w", sweep: func(_ context.Context, r Range) (*setconsensus.Summary, error) {
		return fakeSumOf(fakeTotal+5, r.Offset, r.Limit), nil
	}}
	_, err = c.Run(context.Background(), []Worker{w}, nil)
	if err == nil || !strings.Contains(err.Error(), "yielded 5 adversaries, want 3") {
		t.Fatalf("run with a miscounted range = %v, want an error naming 5 and 3", err)
	}
}

// TestCheckpointBytesLinear pins linear checkpoint I/O: every byte the
// writer is handed stays in the final journal — nothing is rewritten —
// and the bytes per range do not grow with the range count.
func TestCheckpointBytesLinear(t *testing.T) {
	perRange := func(total, ranges int) float64 {
		t.Helper()
		cp := filepath.Join(t.TempDir(), "sweep.ckpt")
		p := testParams(5, total)
		p.CheckpointPath = cp
		c, err := New("fake", testRefs, p)
		if err != nil {
			t.Fatal(err)
		}
		w := &fakeWorker{name: "w", sweep: func(_ context.Context, r Range) (*setconsensus.Summary, error) {
			return fakeSumOf(total, r.Offset, r.Limit), nil
		}}
		if _, err := c.Run(context.Background(), []Worker{w}, nil); err != nil {
			t.Fatal(err)
		}
		j := readJournal(t, cp)
		if c.ckptWritten != int64(len(j.blob)) {
			t.Errorf("%d ranges: writer was handed %d bytes for a %d-byte journal", ranges, c.ckptWritten, len(j.blob))
		}
		if len(j.entries) != ranges || j.tail != 0 {
			t.Fatalf("journal holds %d records and a %d-byte tail, want %d and none", len(j.entries), j.tail, ranges)
		}
		return float64(len(j.blob)-j.ends[0]) / float64(ranges)
	}
	small, large := perRange(24, 5), perRange(249, 50)
	if ratio := large / small; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("bytes per range: %.0f at 5 ranges, %.0f at 50 — not linear", small, large)
	}
}

// TestFailedAttemptsSurviveResume: a charged failed attempt is
// journaled, so after a kill the resumed run starts the range's budget
// where the first run left it — a poisoned range still reaches
// MaxAttempts across restarts.
func TestFailedAttemptsSurviveResume(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	p := testParams(5, fakeTotal)
	p.CheckpointPath = cp
	p.MaxAttempts = 2
	p.RetryBackoff = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c1, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int32
	poisoned := func(name string) *fakeWorker {
		return &fakeWorker{name: name, sweep: func(_ context.Context, r Range) (*setconsensus.Summary, error) {
			if r.Offset == 5 {
				failures.Add(1)
				return nil, fmt.Errorf("poisoned range %s", r)
			}
			return fakeSum(r.Offset, r.Limit), nil
		}}
	}
	// The kill lands on the first claim after the failure was recorded.
	first := poisoned("first")
	killer := &fakeWorker{name: "first", sweep: func(ctx context.Context, r Range) (*setconsensus.Summary, error) {
		if failures.Load() > 0 {
			cancel()
			return nil, ctx.Err()
		}
		return first.Sweep(ctx, r, nil)
	}}
	if _, err := c1.Run(ctx, []Worker{killer}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: err = %v, want %v", err, context.Canceled)
	}
	if got := failures.Swap(0); got != 1 {
		t.Fatalf("first run failed the poisoned range %d times, want 1", got)
	}

	c2, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.carried[5]; got != 1 {
		t.Fatalf("resume carried %d attempts for the poisoned range, want 1", got)
	}
	_, err = c2.Run(context.Background(), []Worker{poisoned("second")}, nil)
	if err == nil {
		t.Fatal("poisoned range succeeded")
	}
	if got := failures.Load(); got != 1 {
		t.Errorf("resumed run tried the poisoned range %d times, want 1 (MaxAttempts 2, 1 carried): %v", got, err)
	}
}

// TestClaimWaitNeverZeroOrStale pins the wait a blocked claim computes:
// the nearest deadline strictly in the future, never a past one — a
// stale deadline would make the claim spin — and a lease expiring
// exactly now waits one tick, after which the scan expires it.
func TestClaimWaitNeverZeroOrStale(t *testing.T) {
	now := time.Now()
	for _, tc := range []struct {
		name      string
		setup     func(c *Coordinator)
		wantTimed bool
		want      time.Duration
	}{
		{
			name: "quarantined worker waits out its probation",
			setup: func(c *Coordinator) {
				c.pending = []*rangeState{{Range: Range{Offset: 0, Limit: 5}, notBefore: now.Add(-time.Second)}}
				c.leased[5] = &rangeState{Range: Range{Offset: 5, Limit: 5}, worker: "other", expiry: now.Add(time.Hour)}
				c.breakers["w"] = &breaker{state: breakerOpen, reopenAt: now.Add(2 * time.Second)}
			},
			wantTimed: true,
			want:      2 * time.Second,
		},
		{
			name: "lease expiring exactly now waits one tick",
			setup: func(c *Coordinator) {
				c.leased[5] = &rangeState{Range: Range{Offset: 5, Limit: 5}, worker: "other", expiry: now}
			},
			wantTimed: true,
			want:      time.Nanosecond,
		},
		{
			name: "maturing backoff before a lease",
			setup: func(c *Coordinator) {
				c.pending = []*rangeState{{Range: Range{Offset: 0, Limit: 5}, notBefore: now.Add(3 * time.Millisecond)}}
				c.leased[5] = &rangeState{Range: Range{Offset: 5, Limit: 5}, worker: "other", expiry: now.Add(time.Hour)}
			},
			wantTimed: true,
			want:      3 * time.Millisecond,
		},
		{
			name: "probation trial in flight waits for its lease",
			setup: func(c *Coordinator) {
				c.leased[5] = &rangeState{Range: Range{Offset: 5, Limit: 5}, worker: "w", expiry: now.Add(10 * time.Millisecond)}
				c.breakers["w"] = &breaker{state: breakerHalfOpen}
			},
			wantTimed: true,
			want:      10*time.Millisecond + time.Nanosecond,
		},
		{
			name: "only past deadlines wait for a transition",
			setup: func(c *Coordinator) {
				c.pending = []*rangeState{{Range: Range{Offset: 0, Limit: 5}, notBefore: now}}
				c.breakers["w"] = &breaker{state: breakerOpen, reopenAt: now.Add(-time.Millisecond)}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New("fake", testRefs, testParams(5, fakeTotal))
			if err != nil {
				t.Fatal(err)
			}
			tc.setup(c)
			wait, timed := c.claimWaitLocked("w", now)
			if timed != tc.wantTimed || wait != tc.want {
				t.Fatalf("claimWaitLocked = %v, timed=%v; want %v, timed=%v", wait, timed, tc.want, tc.wantTimed)
			}
			if timed && wait <= 0 {
				t.Fatalf("non-positive wait %v", wait)
			}
		})
	}

	// The expiry instant itself is not yet past the lease; one tick on,
	// the scan re-queues it.
	c, err := New("fake", testRefs, testParams(5, fakeTotal))
	if err != nil {
		t.Fatal(err)
	}
	c.leased[5] = &rangeState{Range: Range{Offset: 5, Limit: 5}, worker: "other", expiry: now}
	c.expireLeasesLocked(now)
	if len(c.leased) != 1 {
		t.Fatal("lease expired at its expiry instant")
	}
	wait, _ := c.claimWaitLocked("w", now)
	c.expireLeasesLocked(now.Add(wait))
	if len(c.leased) != 0 || len(c.pending) != 1 {
		t.Fatalf("scan after the wait left %d leased, %d pending; want the lease expired", len(c.leased), len(c.pending))
	}
}

// FuzzCheckpointLoad feeds arbitrary bytes to the journal decoder New
// runs on an existing checkpoint. No input may panic; a rejection wraps
// one of the three typed errors; an accepted load holds only
// well-formed ranges, and its merge may fail but not panic. (The
// failure-mode table above pins that a rejected file stays untouched.)
func FuzzCheckpointLoad(f *testing.F) {
	// The seed journal carries a failed attempt as well as done ranges.
	cp := filepath.Join(f.TempDir(), "seed.ckpt")
	p := testParams(5, fakeTotal)
	p.CheckpointPath = cp
	p.RetryBackoff = time.Millisecond
	c, err := New("fake", testRefs, p)
	if err != nil {
		f.Fatal(err)
	}
	var failed atomic.Bool
	w := &fakeWorker{name: "seed", sweep: func(_ context.Context, r Range) (*setconsensus.Summary, error) {
		if r.Offset == 5 && failed.CompareAndSwap(false, true) {
			return nil, fmt.Errorf("seeded failure")
		}
		return fakeSum(r.Offset, r.Limit), nil
	}}
	if _, err := c.Run(context.Background(), []Worker{w}, nil); err != nil {
		f.Fatal(err)
	}
	j := readJournal(f, cp)
	f.Add(j.blob)
	prev := 0
	for _, end := range j.ends {
		f.Add(j.blob[:end])
		f.Add(j.blob[:(prev+end)/2])
		prev = end
	}
	flipped := bytes.Clone(j.blob)
	flipped[j.ends[1]+crcWidth+3] ^= 0x01
	f.Add(flipped)
	f.Add([]byte(v2Checkpoint))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := New("fake", testRefs, testParams(5, fakeTotal))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.replayJournal("fuzz.ckpt", data); err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) && !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		for off, sum := range c.done {
			if off < 0 || off >= fakeTotal || off%5 != 0 || sum == nil || sum.Adversaries() != min(5, fakeTotal-off) {
				t.Fatalf("accepted malformed done range at offset %d, summary %v", off, sum)
			}
		}
		for off := range c.carried {
			if off < 0 || off >= fakeTotal || off%5 != 0 {
				t.Fatalf("accepted failed attempt at offset %d", off)
			}
		}
		if size := int64(len(data)); c.journalSize > size || (c.journalSize < size) != (c.statTailsDropped == 1) {
			t.Fatalf("kept %d of %d bytes, tails dropped %d", c.journalSize, size, c.statTailsDropped)
		}
		_, _ = c.mergedLocked()
	})
}

// goldenFake is the full synthetic-space summary the fake harness
// sweeps must merge to.
func goldenFake(t *testing.T) string {
	t.Helper()
	s := agg.New("fake", testRefs)
	if err := s.Merge(fakeSum(0, fakeTotal)); err != nil {
		t.Fatal(err)
	}
	return summaryJSON(t, s)
}
