package transport

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"iabc/internal/wire"
)

func TestWireFrameRoundTrip(t *testing.T) {
	cases := []Delivery{
		{},
		{From: 0, To: 1, Msg: Msg{Round: 0, Value: 0, Seq: 0}},
		{From: 12, To: 3, Msg: Msg{Round: 1 << 40, Value: -math.Pi, Seq: ^uint64(0)}},
		{From: 1<<31 - 1, To: 7, Msg: Msg{Round: -3, Value: math.Inf(-1), Seq: 42}},
		{From: 5, To: 6, Msg: Msg{Round: 9, Value: math.NaN(), Seq: 7}},
		{From: 4, To: 2, Msg: Msg{Round: 11, Seq: 5, Ask: true}},
		{From: 0, To: 9, Msg: Msg{Round: -1, Value: 2.5, Seq: ^uint64(0), Ask: true}},
	}
	var stream []byte
	for _, d := range cases {
		stream = appendFrame(nil, d)
		got, _, err := readFrame(bufio.NewReader(bytes.NewReader(stream)), nil)
		if err != nil {
			t.Fatalf("%+v: %v", d, err)
		}
		if got.From != d.From || got.To != d.To || got.Round != d.Round || got.Seq != d.Seq || got.Ask != d.Ask ||
			math.Float64bits(got.Value) != math.Float64bits(d.Value) {
			t.Fatalf("round trip %+v -> %+v", d, got)
		}
	}
}

// TestWireFrameLengthCap: the frame reader's cap (wire.ReadFrame, which has
// the general hostile-length tests) is this codec's one payload size, so any
// longer prefix fails before allocation and any shorter one fails the exact
// length check.
func TestWireFrameLengthCap(t *testing.T) {
	for _, hostile := range [][]byte{{0xff, 0xff, 0xff, 0xff}, {0, 0, 0, framePayloadLen + 1}} {
		_, sc, err := readFrame(bufio.NewReader(bytes.NewReader(hostile)), nil)
		if err == nil || !strings.Contains(err.Error(), "cap") || sc != nil {
			t.Fatalf("length % x: err = %v, scratch %d bytes; want cap violation, no allocation", hostile, err, cap(sc))
		}
	}
	short := append([]byte{0, 0, 0, framePayloadLen - 1}, make([]byte, framePayloadLen-1)...)
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(short)), nil); err == nil || !strings.Contains(err.Error(), "want 33") {
		t.Fatalf("32-byte payload: err = %v, want exact-length violation", err)
	}
}

// TestWireFrameKind: the kind byte takes exactly its two values, so an ask
// and a value never share an encoding and every other byte is rejected.
func TestWireFrameKind(t *testing.T) {
	value := appendFrame(nil, Delivery{From: 1, To: 2, Msg: Msg{Round: 3, Seq: 4}})
	ask := appendFrame(nil, Delivery{From: 1, To: 2, Msg: Msg{Round: 3, Seq: 4, Ask: true}})
	const kindAt = wire.FrameHeaderLen + 8
	if value[kindAt] != kindValue || ask[kindAt] != kindAsk || !bytes.Equal(value[:kindAt], ask[:kindAt]) ||
		!bytes.Equal(value[kindAt+1:], ask[kindAt+1:]) {
		t.Fatalf("value frame % x and ask frame % x differ outside the kind byte", value, ask)
	}
	for _, kind := range []byte{2, 0x7f, 0xff} {
		bad := bytes.Clone(ask)
		bad[kindAt] = kind
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(bad)), nil); err == nil || !strings.Contains(err.Error(), "kind") {
			t.Fatalf("kind byte %d: err = %v, want a kind violation", kind, err)
		}
	}
}

func TestWireFrameTruncation(t *testing.T) {
	full := appendFrame(nil, Delivery{From: 1, To: 0, Msg: Msg{Round: 5, Value: 2.5, Seq: 3}})
	for cut := 0; cut < len(full); cut++ {
		_, _, err := readFrame(bufio.NewReader(bytes.NewReader(full[:cut])), nil)
		switch {
		case cut == 0:
			if err != io.EOF {
				t.Fatalf("empty stream: err = %v, want io.EOF", err)
			}
		case err == nil:
			t.Fatalf("truncation at %d of %d accepted", cut, len(full))
		}
	}
}

// FuzzWireCodec drives the decoder over arbitrary byte streams: it must
// never panic or over-allocate (the length-prefix cap bounds every read),
// and every frame it does accept must re-encode to exactly the bytes it
// consumed — encode∘decode is the identity on valid frames, which with
// TestWireFrameRoundTrip (decode∘encode = identity) pins the codec as a
// bijection between Deliveries and frames.
func FuzzWireCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, Delivery{From: 2, To: 1, Msg: Msg{Round: 7, Value: 0.5, Seq: 11}}))
	two := appendFrame(nil, Delivery{From: 0, To: 1, Msg: Msg{Round: 1, Value: 1, Seq: 1}})
	f.Add(appendFrame(two, Delivery{From: 1, To: 0, Msg: Msg{Round: -1, Value: math.Inf(1), Seq: 2}}))
	f.Add([]byte{0, 0, 0, 32, 1, 2, 3})         // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0}) // hostile length
	f.Add([]byte{0, 0, 0, 31})                  // wrong (short) length
	f.Add(appendFrame(nil, Delivery{From: 1, To: 2, Msg: Msg{Round: 4, Seq: 3, Ask: true}}))
	unknown := appendFrame(nil, Delivery{From: 1, To: 2, Msg: Msg{Round: 4, Seq: 3}})
	unknown[wire.FrameHeaderLen+8] = 2 // an unknown kind byte: rejected
	f.Add(unknown)
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var scratch []byte
		offset := 0
		for {
			d, sc, err := readFrame(br, scratch)
			scratch = sc
			if cap(scratch) > framePayloadLen {
				t.Fatalf("scratch grew to %d bytes, cap is %d", cap(scratch), framePayloadLen)
			}
			if err != nil {
				return // any error ends the stream; no panic is the property
			}
			const frameLen = wire.FrameHeaderLen + framePayloadLen
			consumed := data[offset : offset+frameLen]
			if re := appendFrame(nil, d); !bytes.Equal(re, consumed) {
				t.Fatalf("decoded frame %+v re-encodes to % x, consumed % x", d, re, consumed)
			}
			offset += frameLen
		}
	})
}
