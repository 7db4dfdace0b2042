package statestore

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// failingReads is a backend whose reads fail with something other than
// ErrNotFound.
type failingReads struct{ Backend }

var errBackendDown = errors.New("backend down")

func (failingReads) Read(context.Context, string) ([]byte, error) { return nil, errBackendDown }

// TestRecordLoad is the one table for what makes a persisted record usable:
// only bytes Save wrote under the same version and identity load; anything
// else at the key is a miss with a nil error, and only a failing backend is
// an error. Run over both built-in backends.
func TestRecordLoad(t *testing.T) {
	type body struct {
		Done int64 `json:"done"`
	}
	ctx := context.Background()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]Backend{"mem": NewMem(), "dir": dir} {
		t.Run(name, func(t *testing.T) {
			rec := NewRecord(store, "checkpoint", 2, "g1:4;0>1 f=1").Sub("-f1")
			if want := "checkpoint/"; !strings.HasPrefix(rec.Key, want) || !strings.HasSuffix(rec.Key, "-f1") || len(rec.Key) != len(want)+16+3 {
				t.Fatalf("key %q, want %s<16 hex>-f1", rec.Key, want)
			}
			if other := NewRecord(store, "checkpoint", 2, "g1:4;0>2 f=1"); other.Key+"-f1" == rec.Key {
				t.Fatal("distinct identities share a key")
			}

			var got body
			if ok, err := rec.Load(ctx, &got); ok || err != nil {
				t.Fatalf("absent: ok=%v err=%v, want a miss", ok, err)
			}
			if err := rec.Save(ctx, body{Done: 7}); err != nil {
				t.Fatal(err)
			}
			if ok, err := rec.Load(ctx, &got); !ok || err != nil || got.Done != 7 {
				t.Fatalf("round trip: ok=%v err=%v body=%+v", ok, err, got)
			}
			good, err := store.Read(ctx, rec.Key)
			if err != nil {
				t.Fatal(err)
			}
			if want := `{"version":2,"ident":"g1:4;0\u003e1 f=1","body":{"done":7}}`; string(good) != want {
				t.Fatalf("stored bytes %s, want %s", good, want)
			}

			foreign, newer := rec, rec
			foreign.Ident = "g1:4;0>2 f=1" // same key, other identity: a hash collision
			newer.Version = 3
			for name, plant := range map[string]func() error{
				"not json":         func() error { return store.Write(ctx, rec.Key, []byte("{not json")) },
				"no envelope":      func() error { return store.Write(ctx, rec.Key, []byte(`{"done":7}`)) },
				"wrong version":    func() error { return newer.Save(ctx, body{Done: 7}) },
				"foreign identity": func() error { return foreign.Save(ctx, body{Done: 7}) },
				"truncated body":   func() error { return store.Write(ctx, rec.Key, good[:len(good)-4]) },
				"mistyped body": func() error {
					return store.Write(ctx, rec.Key, []byte(strings.Replace(string(good), `"done":7`, `"done":"7"`, 1)))
				},
			} {
				if err := plant(); err != nil {
					t.Fatal(err)
				}
				if ok, err := rec.Load(ctx, &got); ok || err != nil {
					t.Errorf("%s: ok=%v err=%v, want a miss", name, ok, err)
				}
			}

			down := rec
			down.Store = failingReads{store}
			if ok, err := down.Load(ctx, &got); ok || !errors.Is(err, errBackendDown) {
				t.Fatalf("backend read error: ok=%v err=%v, want the backend's error", ok, err)
			}
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if err := rec.Save(cctx, body{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("Save on a canceled ctx: %v, want context.Canceled wrapped", err)
			}
		})
	}
}
