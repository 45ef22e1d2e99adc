package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"rap/internal/core"
	"rap/internal/shard"
)

// Checkpoint file format (version 2):
//
//	"RAPC" | version byte |
//	tree list (shard.WriteTreeList: uvarint nShards | per shard: uvarint
//	           len, tree snapshot in core format) |
//	uvarint nSources | per source: uvarint len, name bytes,
//	                               uvarint applied, uvarint dropped,
//	                               uvarint unadmitted |
//	4-byte little-endian CRC32 (IEEE) of everything before it
//
// Version history: v1 had no per-source unadmitted counter; v1 files are
// still read with it defaulted to zero (the shard trees' own ledgers —
// carried inside the tree snapshots — remain intact either way; only the
// per-source attribution starts over).
//
// Durability protocol: write to a temp file in the same directory, fsync,
// close, rotate the current checkpoint to the .prev name, rename the temp
// file into place, fsync the directory. A crash at any point leaves either
// the old checkpoint, the new one, or both names pointing at intact files;
// a torn write is caught by the CRC on load and quarantined.

const (
	ckMagic   = "RAPC"
	ckVersion = 2

	ckName = "checkpoint.rapc"
	ckPrev = "checkpoint.prev.rapc"
	ckTmp  = "checkpoint.rapc.tmp"
)

type sourcePos struct {
	name       string
	applied    uint64
	dropped    uint64
	unadmitted uint64
}

type checkpointState struct {
	trees   []*core.Tree
	sources []sourcePos
}

// Checkpoint atomically persists the trees and stream positions of every
// source. All shard locks are held (in fixed order) while the cut is
// taken, so the recorded positions match exactly the events reflected in
// the trees — the invariant replay-on-recovery depends on. It is a no-op
// without a checkpoint directory.
func (in *Ingestor) Checkpoint() error {
	if in.opts.CheckpointDir == "" {
		return nil
	}
	start := time.Now()
	size, err := in.checkpoint()
	if err != nil {
		in.ckFailed.Add(1)
		return err
	}
	dur := time.Since(start)
	in.ckWritten.Add(1)
	in.ckLastNano.Store(start.UnixNano())
	in.ckLastSize.Store(int64(size))
	in.ckLastDur.Store(int64(dur))
	if in.ckDur != nil {
		in.ckDur.ObserveDuration(dur)
	}
	return nil
}

func (in *Ingestor) checkpoint() (size int, err error) {
	cutStart := time.Now()
	root := in.opts.Tracer.StartRootAt("checkpoint", cutStart)
	defer func() {
		if err != nil {
			root.SetAttr("error", err.Error())
		} else {
			root.SetAttr("bytes", strconv.Itoa(size))
		}
		root.End()
	}()
	var positions []sourcePos
	snaps, err := in.engine.SnapshotShards(func() {
		// Runs with every shard lock held: applied counters are exactly
		// consistent with the tree snapshots being taken.
		positions = make([]sourcePos, 0, len(in.sources))
		for _, ss := range in.sources {
			positions = append(positions, sourcePos{
				name:       ss.spec.Name,
				applied:    ss.applied,
				dropped:    ss.dropped.Load(),
				unadmitted: ss.unadmitted,
			})
		}
	})
	if err != nil {
		return 0, err
	}
	cutEnd := time.Now()
	cut := in.opts.Tracer.StartChildAt(root.Context(), "cut", cutStart)
	cut.SetAttr("shards", strconv.Itoa(len(snaps)))
	cut.EndAt(cutEnd)
	if in.ckCutDur != nil {
		in.ckCutDur.Observe(cutEnd.Sub(cutStart).Seconds())
	}
	writeStart := time.Now()
	size, err = writeCheckpoint(in.opts.CheckpointDir, snaps, positions)
	write := in.opts.Tracer.StartChildAt(root.Context(), "write", writeStart)
	write.End()
	if err == nil && in.ckWriteDur != nil {
		in.ckWriteDur.ObserveSince(writeStart)
	}
	return size, err
}

func encodeCheckpoint(snaps [][]byte, positions []sourcePos) []byte {
	var buf bytes.Buffer
	buf.WriteString(ckMagic)
	buf.WriteByte(ckVersion)
	shard.WriteTreeList(&buf, snaps)
	putUvarint(&buf, uint64(len(positions)))
	for _, sp := range positions {
		putUvarint(&buf, uint64(len(sp.name)))
		buf.WriteString(sp.name)
		putUvarint(&buf, sp.applied)
		putUvarint(&buf, sp.dropped)
		putUvarint(&buf, sp.unadmitted)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes()
}

func writeCheckpoint(dir string, snaps [][]byte, positions []sourcePos) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	data := encodeCheckpoint(snaps, positions)
	tmp := filepath.Join(dir, ckTmp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}

	main := filepath.Join(dir, ckName)
	if _, err := os.Stat(main); err == nil {
		if err := os.Rename(main, filepath.Join(dir, ckPrev)); err != nil {
			return 0, err
		}
	}
	if err := os.Rename(tmp, main); err != nil {
		return 0, err
	}
	syncDir(dir)
	return len(data), nil
}

// syncDir fsyncs a directory so the renames above are durable. Errors are
// ignored: some filesystems reject fsync on directories and the protocol
// degrades gracefully (the CRC still catches torn state).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// loadCheckpoint returns the most recent intact checkpoint state, trying
// the current file then the previous one. A file that fails the CRC or
// does not decode is quarantined — renamed aside with a .corrupt suffix so
// it is preserved for diagnosis but never retried — counted, and logged.
// With no usable checkpoint it returns (nil, nil); only real I/O errors
// are returned.
func (in *Ingestor) loadCheckpoint() (*checkpointState, error) {
	dir := in.opts.CheckpointDir
	for _, name := range []string{ckName, ckPrev} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		st, derr := decodeCheckpoint(data)
		if derr == nil {
			return st, nil
		}
		in.ckQuarantined.Add(1)
		q := path + fmt.Sprintf(".corrupt-%d", time.Now().UnixNano())
		if rerr := os.Rename(path, q); rerr != nil {
			in.log.Error("ingest: corrupt checkpoint, quarantine failed",
				"path", path, "err", derr, "rename_err", rerr)
		} else {
			in.log.Warn("ingest: corrupt checkpoint quarantined",
				"path", path, "err", derr, "quarantine", q)
		}
	}
	return nil, nil
}

func decodeCheckpoint(data []byte) (*checkpointState, error) {
	if len(data) < len(ckMagic)+1+4 {
		return nil, errors.New("checkpoint too short")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("checksum mismatch: %08x != %08x", got, want)
	}
	r := bytes.NewReader(body)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != ckMagic {
		return nil, errors.New("bad checkpoint magic")
	}
	ver, err := r.ReadByte()
	if err != nil || ver < 1 || ver > ckVersion {
		return nil, fmt.Errorf("unsupported checkpoint version %d", ver)
	}

	trees, err := shard.ReadTreeList(r)
	if err != nil {
		return nil, err
	}
	st := &checkpointState{trees: trees}
	nSources, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nSources; i++ {
		nameLen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("source %d: %w", i, err)
		}
		if nameLen > uint64(r.Len()) {
			return nil, fmt.Errorf("source %d: name length %d exceeds remaining %d bytes", i, nameLen, r.Len())
		}
		name := make([]byte, nameLen)
		r.Read(name) // cannot come up short: nameLen <= r.Len()
		sp := sourcePos{name: string(name)}
		if sp.applied, err = binary.ReadUvarint(r); err != nil {
			return nil, fmt.Errorf("source %q position: %w", sp.name, err)
		}
		if sp.dropped, err = binary.ReadUvarint(r); err != nil {
			return nil, fmt.Errorf("source %q position: %w", sp.name, err)
		}
		if ver >= 2 {
			if sp.unadmitted, err = binary.ReadUvarint(r); err != nil {
				return nil, fmt.Errorf("source %q position: %w", sp.name, err)
			}
		}
		st.sources = append(st.sources, sp)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes in checkpoint", r.Len())
	}
	return st, nil
}

func putUvarint(buf *bytes.Buffer, x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	buf.Write(tmp[:n])
}
