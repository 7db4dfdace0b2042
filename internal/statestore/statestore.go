// Package statestore persists small run-state blobs — scan checkpoints and
// memoized check verdicts — behind a pluggable Backend interface, so the
// multi-hour exact scans in internal/condition survive process death and
// repeated topologies across sweeps hit a verdict cache instead of
// recomputing.
//
// A Backend is a flat key/value namespace with hierarchical, slash-separated
// keys ("verdict/ab12…-f2-t3"). Values are opaque byte slices to a Backend;
// what makes one a usable record — schema version and full identity, checked
// on load — is the Record envelope in record.go, the only reader and writer
// of persisted records. Every operation takes a context so remote backends
// (object stores) can honor cancellation. Two implementations ship here:
// Dir, rooted in a local directory with atomic writes, and Mem, an
// in-process map for tests and embedding.
//
// Consistency contract: Write is atomic — a reader never observes a torn
// value, even across a crash mid-write (Dir writes a temp file and renames
// it into place). Read of an absent key returns ErrNotFound. Delete of an
// absent key is a no-op. Backends must be safe for concurrent use.
package statestore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned by Read when the key has no value.
var ErrNotFound = errors.New("statestore: key not found")

// ErrInvalidKey is wrapped by every built-in backend when a key fails
// ValidKey.
var ErrInvalidKey = errors.New("statestore: invalid key")

// Backend is the pluggable persistence provider. Keys are validated by
// ValidKey; implementations may reject others.
type Backend interface {
	// Read returns the value stored at key, or ErrNotFound.
	Read(ctx context.Context, key string) ([]byte, error)
	// Write stores value at key atomically, replacing any previous value.
	Write(ctx context.Context, key string, value []byte) error
	// Delete removes key. Deleting an absent key is not an error.
	Delete(ctx context.Context, key string) error
	// List returns the keys with the given prefix, sorted ascending.
	List(ctx context.Context, prefix string) ([]string, error)
}

// ValidKey reports whether key is acceptable to the built-in backends:
// non-empty slash-separated segments of [A-Za-z0-9._-], no empty segments,
// and no "." or ".." segments — so a key can never escape a Dir root.
func ValidKey(key string) bool {
	if key == "" {
		return false
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
		for _, r := range seg {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			case r == '.' || r == '_' || r == '-':
			default:
				return false
			}
		}
	}
	return true
}

// checkKey returns the error all built-in backends report for a bad key.
func checkKey(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("%w: %q", ErrInvalidKey, key)
	}
	return nil
}

// Mem is an in-memory Backend: a mutex-guarded map. The zero value is not
// usable; use NewMem. It is safe for concurrent use and is the backend of
// choice for tests and for callers that want verdict caching within one
// process without touching disk.
type Mem struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// Read implements Backend.
func (s *Mem) Read(ctx context.Context, key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// Write implements Backend.
func (s *Mem) Write(ctx context.Context, key string, value []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), value...)
	return nil
}

// Delete implements Backend.
func (s *Mem) Delete(ctx context.Context, key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	return nil
}

// List implements Backend.
func (s *Mem) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for k := range s.m {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Len returns the number of stored keys.
func (s *Mem) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
