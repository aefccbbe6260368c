// Package runstate makes long discovery runs durable: it defines a
// versioned, checksummed binary snapshot of a run's resumable state and
// the Checkpointer that writes it atomically on an interval.
//
// A snapshot holds exactly the state a *correct* continuation needs, not
// the state an identical execution path would need: the extended FD-tree
// (as its FD-node triples), the non-FD set, the per-algorithm search
// frontier (TANE's live level, DFD's walk cursor, the hybrid drivers'
// validation level), the top-k heap, the run report so far, and a
// PLI-cache manifest of attribute-set keys. Everything derivable from the
// immutable relation — stripped partitions, DDM slots, random walk order —
// is rebuilt on resume; the final covers are data-determined and sorted,
// so a resumed run still emits a cover byte-identical to an uninterrupted
// one.
//
// The on-disk format is "FDRS", a little-endian uint16 format version,
// the Snapshot encoded with encoding/gob, and a trailing CRC32 (IEEE)
// over everything before it. After decoding, every section present must
// carry Version 1. Writes go through a temp file, fsync and rename in the
// snapshot's directory, so a crash mid-write leaves the previous snapshot
// intact. Damaged or foreign files are rejected with the typed sentinel
// errors below — never a panic, and with memory bounded however a length
// field is damaged.
package runstate

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/relation"
)

// FormatVersion is the on-disk container version. Payload structs carry
// their own version tags on top (the snapversion analyzer enforces that),
// so the container version only moves when the framing or the payload
// encoding changes: version 2 encodes the payload with encoding/gob.
const FormatVersion = 2

// DefaultInterval is the checkpoint write cadence when the caller passes
// a non-positive interval: long enough that short runs pay a single
// write, short enough that a killed overnight run loses minutes, not
// hours.
const DefaultInterval = 30 * time.Second

// snapshotFile is the snapshot's name inside the checkpoint directory.
const snapshotFile = "fd.ckpt"

// Typed rejection errors. Callers distinguish "nothing to resume"
// (ErrNoCheckpoint — a cold start, not a failure) from damaged or
// incompatible snapshots, which abort the run rather than silently
// recomputing.
var (
	// ErrNoCheckpoint reports that the directory holds no snapshot.
	ErrNoCheckpoint = errors.New("runstate: no checkpoint")
	// ErrCorrupt reports a snapshot that fails its checksum or decodes
	// inconsistently — a torn write this package's atomic rename should
	// prevent, or outside interference.
	ErrCorrupt = errors.New("runstate: corrupt snapshot")
	// ErrVersion reports a snapshot written by an incompatible format or
	// section version.
	ErrVersion = errors.New("runstate: unsupported snapshot version")
	// ErrMismatch reports a healthy snapshot that belongs to a different
	// run: another relation, algorithm, or result-shaping option.
	ErrMismatch = errors.New("runstate: snapshot does not match run")
)

// Path returns the snapshot file path inside a checkpoint directory.
func Path(dir string) string { return filepath.Join(dir, snapshotFile) }

// Fingerprint identifies the run a snapshot continues. Everything that
// shapes the output cover participates: the relation's data (hashed), its
// dimensions, the algorithm, and the result-shaping options. Tuning knobs
// that cannot change the cover — workers, budgets, cache size, the DHyFD
// ratio — deliberately do not, so a resume may use different resources.
type Fingerprint struct {
	Version       uint16
	Algorithm     string
	Rows          int64
	Cols          int64
	DataHash      uint64
	TopK          int64
	MaxViolations int64
}

// FingerprintOf computes the run identity of a discovery over r.
func FingerprintOf(r *relation.Relation, algorithm string, topK int, maxViolations int64) Fingerprint {
	h := fnv.New64a()
	var scratch [8]byte
	writeInt := func(v int64) {
		for i := 0; i < 8; i++ {
			scratch[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(scratch[:])
	}
	writeInt(int64(r.NumRows()))
	writeInt(int64(r.NumCols()))
	writeInt(int64(r.Semantics))
	for c := 0; c < r.NumCols(); c++ {
		h.Write([]byte(r.Names[c]))
		h.Write([]byte{0})
		writeInt(int64(r.Cards[c]))
		col := r.Cols[c]
		for _, code := range col {
			scratch[0] = byte(uint32(code))
			scratch[1] = byte(uint32(code) >> 8)
			scratch[2] = byte(uint32(code) >> 16)
			scratch[3] = byte(uint32(code) >> 24)
			h.Write(scratch[:4])
		}
		if c < len(r.Nulls) && r.Nulls[c] != nil {
			for row, isNull := range r.Nulls[c] {
				if isNull {
					writeInt(int64(row))
				}
			}
		}
		writeInt(-1) // column separator
	}
	return Fingerprint{
		Version:       1,
		Algorithm:     algorithm,
		Rows:          int64(r.NumRows()),
		Cols:          int64(r.NumCols()),
		DataHash:      h.Sum64(),
		TopK:          int64(topK),
		MaxViolations: maxViolations,
	}
}

// Match reports whether a snapshot's fingerprint continues the run
// described by want, with an ErrMismatch-wrapped explanation otherwise.
func (f Fingerprint) Match(want Fingerprint) error {
	switch {
	case f.Algorithm != want.Algorithm:
		return fmt.Errorf("%w: snapshot is a %s run, this run is %s", ErrMismatch, f.Algorithm, want.Algorithm)
	case f.Rows != want.Rows || f.Cols != want.Cols:
		return fmt.Errorf("%w: snapshot relation is %dx%d, this relation is %dx%d", ErrMismatch, f.Rows, f.Cols, want.Rows, want.Cols)
	case f.DataHash != want.DataHash:
		return fmt.Errorf("%w: snapshot was taken over different relation data", ErrMismatch)
	case f.TopK != want.TopK:
		return fmt.Errorf("%w: snapshot used topk=%d, this run topk=%d", ErrMismatch, f.TopK, want.TopK)
	case f.MaxViolations != want.MaxViolations:
		return fmt.Errorf("%w: snapshot used max-violations=%d, this run %d", ErrMismatch, f.MaxViolations, want.MaxViolations)
	}
	return nil
}

// Snapshot is one checkpoint: the full resumable state of a discovery
// run at a driver-chosen boundary.
type Snapshot struct {
	Version     uint16
	Fingerprint Fingerprint
	Stats       StatsSnap
	// Tree is the extended FD-tree of the hybrid drivers; nil for
	// algorithms that do not keep one.
	Tree *TreeSnap
	// NonFDs is the agree-set collection of the hybrid drivers; nil
	// otherwise.
	NonFDs *NonFDSnap
	// TopK is the fused ranking heap; nil when the run keeps a full cover.
	TopK *TopKSnap
	// Manifest lists the PLI cache's resident attribute sets so a resumed
	// run warms its cache instead of rebuilding partitions cold.
	Manifest ManifestSnap
	// Frontier is the per-algorithm search position.
	Frontier FrontierSnap
}

// Load reads, verifies and decodes the snapshot in dir. It returns
// ErrNoCheckpoint when no snapshot exists, ErrCorrupt on checksum or
// decode failure, and ErrVersion on a format or section version skew.
func Load(dir string) (*Snapshot, error) {
	data, err := os.ReadFile(Path(dir))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
		}
		return nil, err
	}
	return decodeFile(data)
}

// Checkpointer writes snapshots on an interval. Tick, called at a driver
// boundary, parks the snapshot as the latest boundary, and encodes and
// writes it only when the interval has elapsed (the first Tick writes
// immediately). Flush encodes and writes the parked boundary
// unconditionally; the cancellation, deadline, and exit paths call it so
// an interrupt never loses the frontier.
//
// A nil *Checkpointer is the documented "checkpointing off" state: every
// method is a no-op, so drivers need no guards.
type Checkpointer struct {
	mu       sync.Mutex
	dir      string
	interval time.Duration
	fp       Fingerprint
	buf      []byte
	pending  *Snapshot
	lastSave time.Time
	saves    int64
}

// NewCheckpointer prepares dir (creating it if needed) for snapshots of
// the run identified by fp. interval <= 0 selects DefaultInterval.
func NewCheckpointer(dir string, interval time.Duration, fp Fingerprint) (*Checkpointer, error) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstate: checkpoint dir: %w", err)
	}
	return &Checkpointer{dir: dir, interval: interval, fp: fp}, nil
}

// Tick records the snapshot as the latest boundary and writes it when the
// interval has elapsed since the last write. Tick takes ownership of the
// snapshot — the caller must not mutate it afterwards — so that
// serialization can be deferred to the next due write or Flush instead
// of taxing every boundary of a run that writes once per interval.
func (c *Checkpointer) Tick(s *Snapshot) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Version = 1
	s.Fingerprint = c.fp
	c.pending = s
	if c.saves > 0 && time.Since(c.lastSave) < c.interval {
		return nil
	}
	return c.saveLocked()
}

// Due reports whether the next Tick will write: the first boundary, or
// the interval elapsed since the last write. Drivers consult it before
// building a snapshot so that off-interval boundaries cost nothing —
// capturing a frontier means cloning the FD-tree and candidate sets,
// which would otherwise tax every boundary of a run that writes once
// per interval. Forced boundaries (terminal, cancellation) skip the
// check and park the snapshot for Flush instead.
func (c *Checkpointer) Due() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saves == 0 || time.Since(c.lastSave) >= c.interval
}

// Flush writes the latest boundary if one is pending. Safe to call on
// every exit path; without a pending boundary it is a no-op.
func (c *Checkpointer) Flush() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		return nil
	}
	return c.saveLocked()
}

// Saves returns how many snapshot files the checkpointer has written.
func (c *Checkpointer) Saves() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saves
}

// saveLocked serializes the pending boundary and atomically replaces the
// snapshot file: temp file in the same directory, write, fsync, rename.
func (c *Checkpointer) saveLocked() error {
	c.buf = encodeFile(c.buf[:0], c.pending)
	tmp, err := os.CreateTemp(c.dir, ".fd.ckpt-*")
	if err != nil {
		return fmt.Errorf("runstate: checkpoint write: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("runstate: checkpoint write: %w", err)
	}
	if _, err := tmp.Write(c.buf); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runstate: checkpoint write: %w", err)
	}
	if err := os.Rename(tmpName, Path(c.dir)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runstate: checkpoint write: %w", err)
	}
	c.pending = nil
	c.lastSave = time.Now()
	c.saves++
	return nil
}
