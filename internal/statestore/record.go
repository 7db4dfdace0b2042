package statestore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// Record addresses one persisted record and states what it must claim to be
// before it is trusted. Everything a checkpoint, verdict cache or sweep
// journal needs from persistence goes through Load and Save, so the rules
// for "usable" live here and nowhere else:
//
//   - the stored bytes are a JSON envelope {version, ident, body};
//   - Version is the caller's schema version — a record written under
//     another one misses instead of misparsing;
//   - Ident is the full identity of the computation the record belongs to
//     (a canonical graph encoding plus parameters, a sweep description). The
//     key carries only a truncated hash of it; the envelope carries it whole
//     and Load compares it, so a hash collision or a copied file degrades to
//     a miss, never to a foreign record.
type Record struct {
	Store   Backend
	Key     string
	Version int
	Ident   string

	// head caches the envelope's encoded head for Save; NewRecord fills it
	// and Sub keeps it. Save rebuilds it when it names another version or
	// identity than the record's fields, as in a Record literal.
	head *envelopeHead
}

// envelope is the stored form of every record.
type envelope struct {
	Version int             `json:"version"`
	Ident   string          `json:"ident"`
	Body    json.RawMessage `json:"body"`
}

// envelopeHead is an envelope encoded up to its body: the bytes
// json.Marshal(envelope{version, ident, body}) writes before body's, which
// for a checkpoint carry the whole escaped graph encoding.
type envelopeHead struct {
	version int
	ident   string
	enc     []byte
}

func encodeHead(version int, ident string) *envelopeHead {
	id, _ := json.Marshal(ident) // a string always encodes
	enc := strconv.AppendInt([]byte(`{"version":`), int64(version), 10)
	enc = append(append(append(enc, `,"ident":`...), id...), `,"body":`...)
	return &envelopeHead{version: version, ident: ident, enc: enc}
}

// NewRecord returns the record of the given identity under prefix: its key
// is prefix/ plus the first 8 bytes of SHA-256(ident) in hex.
func NewRecord(store Backend, prefix string, version int, ident string) Record {
	sum := sha256.Sum256([]byte(ident))
	return Record{Store: store, Key: prefix + "/" + hex.EncodeToString(sum[:8]), Version: version, Ident: ident, head: encodeHead(version, ident)}
}

// Sub returns the record with suffix appended to the key — one of several
// records sharing an identity.
func (r Record) Sub(suffix string) Record {
	r.Key += suffix
	return r
}

// Load decodes the stored record's body into body and reports whether there
// was a usable one. An absent key, bytes that do not decode, a version or
// identity other than r's all report false with a nil error — the caller
// starts fresh, and body may be partly written. The error is non-nil only
// when the backend itself failed.
func (r Record) Load(ctx context.Context, body any) (bool, error) {
	raw, err := r.Store.Read(ctx, r.Key)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("statestore: reading %s: %w", r.Key, err)
	}
	var env envelope
	if json.Unmarshal(raw, &env) != nil || env.Version != r.Version || env.Ident != r.Ident {
		return false, nil
	}
	return json.Unmarshal(env.Body, body) == nil, nil
}

// Save stores body under r's envelope, replacing any previous record. The
// bytes are json.Marshal(envelope{...}): the cached head, then body as
// json.Marshal writes it — compact and HTML-escaped already, so the
// envelope's re-compaction of a RawMessage would not change it — then "}".
func (r Record) Save(ctx context.Context, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("statestore: encoding %s: %w", r.Key, err)
	}
	h := r.head
	if h == nil || h.version != r.Version || h.ident != r.Ident {
		h = encodeHead(r.Version, r.Ident)
	}
	raw := make([]byte, 0, len(h.enc)+len(b)+1)
	raw = append(append(append(raw, h.enc...), b...), '}')
	if err := r.Store.Write(ctx, r.Key, raw); err != nil {
		return fmt.Errorf("statestore: writing %s: %w", r.Key, err)
	}
	return nil
}
