package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	setconsensus "setconsensus"
	"setconsensus/internal/chaos"
)

// checkpointVersion guards the on-disk schema. Version 3 is the
// append-only journal below. Versions 1 and 2 were single JSON
// documents rewritten after every range; they are rejected with
// ErrCheckpointVersion rather than migrated, so such a sweep re-runs
// from scratch.
const checkpointVersion = 3

// The typed checkpoint-load errors. A torn or tampered tail is not an
// error — it is dropped and re-swept — so Corrupt marks only a file
// whose header cannot be trusted or whose intact records break the
// journal's structural rules; version and identity mismatches are
// deliberate hard rejections — the file is intact, it just answers a
// different question. A rejected file is never modified.
var (
	// ErrCheckpointCorrupt marks a checkpoint without an intact v3
	// header, or with a checksum-valid record that no coordinator
	// writes.
	ErrCheckpointCorrupt = errors.New("coord: checkpoint corrupt")
	// ErrCheckpointVersion marks an intact checkpoint written under a
	// different schema version.
	ErrCheckpointVersion = errors.New("coord: checkpoint version mismatch")
	// ErrCheckpointMismatch marks an intact checkpoint written for a
	// different workload, ref set, or range size.
	ErrCheckpointMismatch = errors.New("coord: checkpoint identity mismatch")
)

// A journal is a sequence of lines, one record each: the CRC-32 (IEEE)
// of the record's JSON body as eight lowercase hex digits, a space, the
// body, and a newline. The first record is a journalHeader; every later
// one is a journalEntry. Nothing is ever rewritten, so the bytes written
// per sweep grow linearly with its range count, and a write torn by a
// crash can only damage the tail, which fails its checksum on load.
const crcWidth = 8

// journalHeader identifies the sweep. Workload, Refs, and RangeSize
// must match on resume, since ranges from differently-sized partitions
// don't tile.
type journalHeader struct {
	Version   int      `json:"version"`
	Workload  string   `json:"workload"`
	Refs      []string `json:"refs"`
	RangeSize int      `json:"rangeSize"`
}

// journalEntry is one record after the header: either a finished range
// (Done, with the adversary count it held and its summary) or one
// charged failed attempt at a range (Failed) — a failure or lease
// expiry whose attempt was not refunded — so a poisoned range still
// reaches MaxAttempts across restarts. Leases are not journaled: on
// resume every unfinished range is issued again.
type journalEntry struct {
	Done    *Range                `json:"done,omitempty"`
	Count   int                   `json:"count,omitempty"`
	Summary *setconsensus.Summary `json:"summary,omitempty"`
	Failed  *Range                `json:"failed,omitempty"`
}

// encodeRecord renders v as one journal line.
func encodeRecord(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("coord: encoding checkpoint record: %w", err)
	}
	line := make([]byte, 0, crcWidth+1+len(body)+1)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(body))
	line = append(line, body...)
	return append(line, '\n'), nil
}

// nextRecord splits the first line off blob and returns its body when
// the line is intact: newline-terminated, with a well-formed checksum
// that matches. ok=false marks a torn or tampered line.
func nextRecord(blob []byte) (body, rest []byte, ok bool) {
	nl := bytes.IndexByte(blob, '\n')
	if nl < crcWidth+1 || blob[crcWidth] != ' ' {
		return nil, nil, false
	}
	var want uint32
	for _, b := range blob[:crcWidth] {
		switch {
		case '0' <= b && b <= '9':
			want = want<<4 | uint32(b-'0')
		case 'a' <= b && b <= 'f':
			want = want<<4 | uint32(b-'a'+10)
		default:
			return nil, nil, false
		}
	}
	body = blob[crcWidth+1 : nl]
	if crc32.ChecksumIEEE(body) != want {
		return nil, nil, false
	}
	return body, blob[nl+1:], true
}

// loadCheckpoint resumes the coordinator from the journal at path; a
// missing file is a fresh start. New itself never modifies the file.
func (c *Coordinator) loadCheckpoint(path string) error {
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("coord: reading checkpoint: %w", err)
	}
	return c.replayJournal(path, blob)
}

// replayJournal installs the journal blob, read from path, as the
// starting state. An empty blob is a fresh start. The longest prefix of
// intact records is kept; a torn or tampered tail after it is counted,
// and cut off before the first append (openJournalLocked). A blob
// without an intact v3 header is rejected: ErrCheckpointVersion for a
// v1 or v2 JSON document, else ErrCheckpointCorrupt.
func (c *Coordinator) replayJournal(path string, blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	body, rest, ok := nextRecord(blob)
	if !ok {
		var old struct {
			Version *int `json:"version"`
		}
		if json.Unmarshal(blob, &old) == nil && old.Version != nil && *old.Version != checkpointVersion {
			return fmt.Errorf("%w: %s is a version %d checkpoint, want a version %d journal; delete it to start over",
				ErrCheckpointVersion, path, *old.Version, checkpointVersion)
		}
		return fmt.Errorf("%w: %s has no intact journal header", ErrCheckpointCorrupt, path)
	}
	var hdr journalHeader
	if err := json.Unmarshal(body, &hdr); err != nil {
		return fmt.Errorf("%w: %s header: %v", ErrCheckpointCorrupt, path, err)
	}
	if hdr.Version != checkpointVersion {
		return fmt.Errorf("%w: %s has version %d, want %d", ErrCheckpointVersion, path, hdr.Version, checkpointVersion)
	}
	if hdr.Workload != c.workload {
		return fmt.Errorf("%w: %s is for workload %q, not %q", ErrCheckpointMismatch, path, hdr.Workload, c.workload)
	}
	if !equalStrings(hdr.Refs, c.refs) {
		return fmt.Errorf("%w: %s is for refs %v, not %v", ErrCheckpointMismatch, path, hdr.Refs, c.refs)
	}
	if hdr.RangeSize != c.params.RangeSize {
		return fmt.Errorf("%w: %s uses range size %d, not %d", ErrCheckpointMismatch, path, hdr.RangeSize, c.params.RangeSize)
	}
	intact := len(blob) - len(rest)
	for len(rest) > 0 {
		body, next, ok := nextRecord(rest)
		if !ok {
			break
		}
		var e journalEntry
		if err := json.Unmarshal(body, &e); err != nil {
			return fmt.Errorf("%w: %s record at byte %d: %v", ErrCheckpointCorrupt, path, intact, err)
		}
		if err := c.applyEntry(e); err != nil {
			return fmt.Errorf("%w: %s record at byte %d: %v", ErrCheckpointCorrupt, path, intact, err)
		}
		intact, rest = len(blob)-len(next), next
	}
	if intact < len(blob) {
		c.statTailsDropped++
	}
	c.journalSize = int64(intact)
	return nil
}

// applyEntry folds one intact journal record into the starting state,
// enforcing the structural rules every record a coordinator writes
// obeys: a range is [k·RangeSize, (k+1)·RangeSize) with an offset below
// Total, a finished range's count lies in [0, RangeSize], agrees with
// its non-nil summary and is the range's share of the space,
// min(RangeSize, Total−offset), and no range finishes twice. Unfinished
// ranges are re-minted in offset order (mintLocked), each with its
// charged attempts.
func (c *Coordinator) applyEntry(e journalEntry) error {
	switch {
	case e.Done != nil && e.Failed == nil:
		r := *e.Done
		if err := c.checkRange(r); err != nil {
			return err
		}
		if e.Count < 0 || e.Count > r.Limit {
			return fmt.Errorf("range %s holds %d adversaries", r, e.Count)
		}
		if e.Summary == nil {
			return fmt.Errorf("range %s has no summary", r)
		}
		for _, row := range e.Summary.Protocols {
			if row == nil {
				return fmt.Errorf("range %s has an empty summary row", r)
			}
		}
		if n := e.Summary.Adversaries(); n != e.Count {
			return fmt.Errorf("range %s counts %d adversaries, its summary %d", r, e.Count, n)
		}
		if want := c.wantCount(r.Offset); e.Count != want {
			return fmt.Errorf("range %s holds %d adversaries, want %d of a %d-adversary workload", r, e.Count, want, c.params.Total)
		}
		if _, dup := c.done[r.Offset]; dup {
			return fmt.Errorf("range %s finished twice", r)
		}
		c.done[r.Offset] = e.Summary
		c.doneAdv += e.Count
		c.doneRuns += e.Summary.Runs()
	case e.Failed != nil && e.Done == nil && e.Summary == nil && e.Count == 0:
		if err := c.checkRange(*e.Failed); err != nil {
			return err
		}
		c.carried[e.Failed.Offset]++
	default:
		return fmt.Errorf("record is neither a finished range nor a failed attempt")
	}
	return nil
}

// checkRange rejects a range no coordinator mints: one off the
// [k·RangeSize, (k+1)·RangeSize) grid, or at or past the end of the
// space. Coordinators that found the end of a space by leasing past it
// journaled the empty ranges they leased there in the same version 3
// format; their journals are rejected here too, and the sweep re-runs
// from scratch.
func (c *Coordinator) checkRange(r Range) error {
	size := c.params.RangeSize
	if r.Offset < 0 || r.Offset%size != 0 || r.Limit != size {
		return fmt.Errorf("range %s is not a [k·%d, (k+1)·%d) window", r, size, size)
	}
	if r.Offset >= c.params.Total {
		return fmt.Errorf("range %s starts past the end of the %d-adversary workload "+
			"(coordinators that found the end by leasing past it wrote such records; delete the journal to start over)", r, c.params.Total)
	}
	return nil
}

// openJournalLocked opens the journal for appending on first use: it
// cuts off the tail loadCheckpoint dropped, and writes the header into
// a new or empty file. No-op without a configured path.
func (c *Coordinator) openJournalLocked() error {
	if c.journal != nil || c.params.CheckpointPath == "" {
		return nil
	}
	f, err := os.OpenFile(c.params.CheckpointPath, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("coord: opening checkpoint: %w", err)
	}
	if err := f.Truncate(c.journalSize); err != nil {
		f.Close()
		return fmt.Errorf("coord: cutting the checkpoint's dropped tail: %w", err)
	}
	c.journal = f
	if c.journalSize > 0 {
		return nil
	}
	return c.appendLocked(journalHeader{
		Version:   checkpointVersion,
		Workload:  c.workload,
		Refs:      c.refs,
		RangeSize: c.params.RangeSize,
	})
}

// appendLocked appends one record to the journal with a single write,
// under c.mu, so the file always holds the records of the transitions
// made so far in order. A short write — the chaos torn point makes one
// — is repaired by cutting the file back to the end of the last intact
// record and writing the record again; an append that cannot be
// repaired returns an error, which is fatal to the run. No-op without a
// configured path.
func (c *Coordinator) appendLocked(rec any) error {
	if c.params.CheckpointPath == "" {
		return nil
	}
	if err := c.openJournalLocked(); err != nil {
		return err
	}
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	n := len(line)
	if fire, _ := chaos.Fire(c.params.Chaos, chaos.PointTornCheckpoint); fire {
		n /= 2
	}
	w, err := c.journal.Write(line[:n])
	c.ckptWritten += int64(w)
	if err == nil && w == len(line) {
		c.journalSize += int64(w)
		return nil
	}
	if err := c.journal.Truncate(c.journalSize); err != nil {
		return fmt.Errorf("coord: repairing a torn checkpoint append: %w", err)
	}
	w, err = c.journal.Write(line)
	c.ckptWritten += int64(w)
	if err != nil {
		return fmt.Errorf("coord: appending to checkpoint: %w", err)
	}
	c.journalSize += int64(w)
	return nil
}

// closeJournalLocked closes the journal if it is open.
func (c *Coordinator) closeJournalLocked() error {
	if c.journal == nil {
		return nil
	}
	err := c.journal.Close()
	c.journal = nil
	if err != nil {
		return fmt.Errorf("coord: closing checkpoint: %w", err)
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
