// Package diskstore is the persistent tier under the in-memory
// translation cache: a content-addressed directory of wire-encoded
// native programs, so warm translation capacity survives process
// restarts instead of being rebuilt from scratch after every deploy.
//
// The store is deliberately dumb about trust. Every entry carries the
// full cache key and a SHA-256 of its payload, so bit rot, truncation,
// and file swaps are detected on read — but a clean checksum proves
// only that the bytes are the ones written, not that they are safe.
// The store therefore NEVER vouches for a program: internal/mcache
// re-runs the SFI verifier on every program read back before it can be
// admitted, and calls Quarantine on anything that fails, which moves
// the file aside (never deletes it) for operator inspection. Nothing
// read from disk reaches core.RunProgram unverified.
package diskstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"omniware/internal/target"
	"omniware/internal/wire"
)

// entry file layout:
//
//	magic "OWS1" (4)
//	keyLen u32, key bytes        — the full cache key, checked on read
//	paySum [32]byte              — SHA-256 of payload
//	payLen u32, payload          — wire.EncodeProgram bytes
const (
	magic      = "OWS1"
	entryExt   = ".owp"
	maxKeyLen  = 4096
	entriesDir = "entries"
	// QuarantineDir is where Quarantine moves bad entries, relative to
	// the store root.
	QuarantineDir = "quarantine"
)

// ErrNotFound reports a key with no stored entry.
var ErrNotFound = errors.New("diskstore: entry not found")

// ErrCorrupt wraps every integrity failure detected on read; callers
// treat it as grounds for quarantine.
var ErrCorrupt = errors.New("diskstore: corrupt entry")

// Store is a directory of persisted translations. All methods are safe
// for concurrent use. Writes are atomic (temp file + rename), so a
// crash mid-Put leaves either the old entry or none, never a torn one.
type Store struct {
	mu   sync.Mutex
	root string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, d := range []string{filepath.Join(dir, entriesDir), filepath.Join(dir, QuarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("diskstore: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// fileName is the content address of a key on disk: hex SHA-256 so
// arbitrary key bytes never meet the filesystem.
func fileName(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:]) + entryExt
}

func (s *Store) entryPath(key string) string {
	return filepath.Join(s.root, entriesDir, fileName(key))
}

// Put persists prog under key. An existing entry for the key is
// replaced (entries are immutable in content, so this only matters
// after a quarantine).
func (s *Store) Put(key string, prog *target.Program) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("diskstore: key length %d out of range", len(key))
	}
	payload, err := wire.EncodeProgram(prog)
	if err != nil {
		return fmt.Errorf("diskstore: encoding program: %w", err)
	}
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, len(magic)+4+len(key)+len(sum)+4+len(payload))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = append(buf, sum[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)

	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(filepath.Join(s.root, entriesDir), ".put-*")
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.entryPath(key)); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	return nil
}

// Has reports whether an entry for key exists, without reading or
// validating it — the cheap existence probe the cache uses to avoid
// replacing an already-persisted entry with one admitted by key.
func (s *Store) Has(key string) bool {
	_, err := os.Stat(s.entryPath(key))
	return err == nil
}

// Get reads the entry for key back. It returns ErrNotFound for absent
// keys and an ErrCorrupt-wrapped error for anything that fails
// integrity or decoding — the caller decides whether to quarantine.
// The returned program passed only structural checks; it must still be
// verified (sfi.Check) before execution.
func (s *Store) Get(key string) (*target.Program, error) {
	s.mu.Lock()
	raw, err := os.ReadFile(s.entryPath(key))
	s.mu.Unlock()
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	if len(raw) < len(magic)+4 || string(raw[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rest := raw[4:]
	keyLen := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if keyLen <= 0 || keyLen > maxKeyLen || keyLen > len(rest)-36 {
		return nil, fmt.Errorf("%w: key length %d", ErrCorrupt, keyLen)
	}
	if string(rest[:keyLen]) != key {
		return nil, fmt.Errorf("%w: entry holds key %q", ErrCorrupt, rest[:keyLen])
	}
	rest = rest[keyLen:]
	var sum [32]byte
	copy(sum[:], rest)
	rest = rest[32:]
	payLen := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if payLen != len(rest) {
		return nil, fmt.Errorf("%w: payload is %d bytes, header promises %d", ErrCorrupt, len(rest), payLen)
	}
	if sha256.Sum256(rest) != sum {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	prog, err := wire.DecodeProgram(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return prog, nil
}

// Quarantine moves the entry for key out of the serving directory into
// QuarantineDir, preserving the bytes for inspection. Missing entries
// are not an error (a concurrent quarantine may have won).
func (s *Store) Quarantine(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.entryPath(key)
	dst := filepath.Join(s.root, QuarantineDir, fileName(key))
	if err := os.Rename(src, dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("diskstore: quarantine: %w", err)
	}
	return nil
}

// Len reports the number of live entries and their total size in
// bytes. It scans the directory; intended for stats, not hot paths.
func (s *Store) Len() (n int, bytes int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(filepath.Join(s.root, entriesDir))
	if err != nil {
		return 0, 0, fmt.Errorf("diskstore: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != entryExt {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		n++
		bytes += info.Size()
	}
	return n, bytes, nil
}
