package statestore

import (
	"context"
	"encoding/json"
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

// spacedMarshaler encodes itself with whitespace, as a hand-written
// MarshalJSON may; json.Marshal compacts it.
type spacedMarshaler struct{}

func (spacedMarshaler) MarshalJSON() ([]byte, error) {
	return []byte("{ \"bits\" : [ 1 , 2 ] ,\n \"tag\" : \"<&>\" }"), nil
}

// TestRecordSaveMatchesMarshal pins Save's bytes, built from the head
// NewRecord encodes once, to json.Marshal of the whole envelope — for
// identities that need escaping (HTML characters, quotes, backslashes,
// non-ASCII text, U+2028, invalid UTF-8), for bodies shaped like each record
// kind's (a checkpoint's counters, a verdict's witness, a sweep scenario's
// floats and custom-encoded rows), and for a Record literal, a Sub of a
// record and a copy whose identity was changed after NewRecord.
func TestRecordSaveMatchesMarshal(t *testing.T) {
	type counters struct {
		Candidates uint64 `json:"candidates"`
		Pruned     uint64 `json:"pruned"`
	}
	type checkpoint struct {
		Done int64 `json:"done"`
		counters
	}
	type witness struct {
		N    int   `json:"n"`
		F, L []int `json:",omitempty"`
	}
	type verdict struct {
		Satisfied bool     `json:"satisfied"`
		Witness   *witness `json:"witness,omitempty"`
		FaultSets int64    `json:"fault_sets"`
		counters
	}
	type scenario struct {
		Index  int             `json:"index"`
		U      []float64       `json:"u"`
		Name   string          `json:"name"`
		Finals spacedMarshaler `json:"finals"`
	}
	bodies := []any{
		checkpoint{Done: 1 << 40, counters: counters{Candidates: 12, Pruned: 3}},
		verdict{Satisfied: true, FaultSets: 27},
		verdict{Witness: &witness{N: 7, F: []int{0, 1}, L: []int{2}}, counters: counters{Candidates: 1}},
		scenario{Index: 3, U: []float64{-0.5, 1e-7, 1e21, 3}, Name: "hug <high> & \u2028", Finals: spacedMarshaler{}},
		json.RawMessage("{ \"raw\" : [ 1, 2 ] }"),
		nil,
	}
	ctx := context.Background()
	store := NewMem()
	for _, ident := range []string{
		"g1:4;0>1 f=1",
		`n 3 "quoted" back\slash <a> & <b>`,
		"grüße, 図, \u2028 and \u2029",
		"bad \xff utf-8",
	} {
		fresh := NewRecord(store, "checkpoint", 4, ident)
		literal := Record{Store: store, Key: "literal", Version: 4, Ident: ident}
		renamed := NewRecord(store, "checkpoint", 9, "another identity")
		renamed.Version, renamed.Ident = 4, ident
		for name, rec := range map[string]Record{"NewRecord": fresh, "Sub": fresh.Sub("-f1"), "literal": literal, "renamed": renamed} {
			for _, body := range bodies {
				b, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(envelope{Version: 4, Ident: ident, Body: b})
				if err != nil {
					t.Fatal(err)
				}
				if err := rec.Save(ctx, body); err != nil {
					t.Fatal(err)
				}
				got, err := store.Read(ctx, rec.Key)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("%s record of %q saving %T:\n got %s\nwant %s", name, ident, body, got, want)
				}
			}
		}
	}
}
