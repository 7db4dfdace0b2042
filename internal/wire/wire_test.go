package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
)

func frame(payload []byte) []byte {
	return append(AppendFrameHeader(nil, len(payload)), payload...)
}

// TestReadFrame pins the reader's whole contract once, for both protocols
// built on it: payloads round-trip back to back, a zero-length frame is an
// empty payload, a length above the cap fails before anything is read or
// allocated, scratch never outgrows the largest declared length, and a
// stream cut at any byte is io.EOF at a boundary and io.ErrUnexpectedEOF
// inside a frame.
func TestReadFrame(t *testing.T) {
	const max = 64
	payloads := [][]byte{[]byte("abc"), {}, bytes.Repeat([]byte{0xee}, max), []byte("z")}
	var stream []byte
	for _, p := range payloads {
		stream = append(stream, frame(p)...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var scratch []byte
	for i, want := range payloads {
		got, sc, err := ReadFrame(br, scratch, max)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload % x, err %v; want % x", i, got, err, want)
		}
		scratch = sc
	}
	if _, _, err := ReadFrame(br, scratch, max); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
	if cap(scratch) > max {
		t.Fatalf("scratch grew to %d bytes, cap is %d", cap(scratch), max)
	}

	for _, hostile := range [][]byte{{0xff, 0xff, 0xff, 0xff}, {0, 0, 0, max + 1, 1, 2, 3}} {
		br := bufio.NewReader(bytes.NewReader(hostile))
		_, sc, err := ReadFrame(br, nil, max)
		if err == nil || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("length % x: err = %v, want cap violation", hostile[:4], err)
		}
		if sc != nil {
			t.Fatalf("length % x: reader allocated %d bytes before rejecting", hostile[:4], cap(sc))
		}
	}

	full := frame([]byte("0123456789"))
	for cut := 0; cut < len(full); cut++ {
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(full[:cut])), nil, max)
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if err != want {
			t.Fatalf("stream cut at %d of %d: err = %v, want %v", cut, len(full), err, want)
		}
	}
}

// FuzzReadFrame drives the reader over arbitrary byte streams: it never
// panics, never grows scratch beyond the cap, and every frame it accepts is
// exactly the bytes the stream held at that offset.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(append(frame([]byte("ab")), frame(nil)...))
	f.Add([]byte{0, 0, 0, 32, 1, 2, 3})         // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0}) // hostile length
	f.Add([]byte{0, 0})                         // truncated header
	f.Fuzz(func(t *testing.T, data []byte) {
		const max = 48
		br := bufio.NewReader(bytes.NewReader(data))
		var scratch []byte
		offset := 0
		for {
			payload, sc, err := ReadFrame(br, scratch, max)
			scratch = sc
			if cap(scratch) > max {
				t.Fatalf("scratch grew to %d bytes, cap is %d", cap(scratch), max)
			}
			if err != nil {
				return
			}
			if want := frame(payload); !bytes.Equal(want, data[offset:offset+len(want)]) {
				t.Fatalf("frame at %d: payload % x does not match the stream", offset, payload)
			}
			offset += FrameHeaderLen + len(payload)
		}
	})
}

// TestFloatsJSON pins the bit-exact float encoding: bit patterns on the
// wire (golden bytes), every value — NaN, ±Inf, −0 — back identical, nil
// distinct from empty, and omitempty still dropping both.
func TestFloatsJSON(t *testing.T) {
	type rec struct {
		A Floats    `json:"a"`
		B FloatRows `json:"b"`
		C Floats    `json:"c,omitempty"`
		D FloatRows `json:"d,omitempty"`
	}
	negZero := math.Copysign(0, -1)
	in := rec{
		A: Floats{1.5, math.NaN(), math.Inf(-1), negZero},
		B: FloatRows{{math.Inf(1)}, nil, {}},
		C: Floats{},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"a":[4609434218613702656,9221120237041090561,18442240474082181120,9223372036854775808],"b":[[9218868437227405312],null,[]]}`
	if string(raw) != golden {
		t.Fatalf("encoding changed:\n got %s\nwant %s", raw, golden)
	}
	var out rec
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.A) != len(in.A) {
		t.Fatalf("A: %d values, want %d", len(out.A), len(in.A))
	}
	for i := range in.A {
		if math.Float64bits(out.A[i]) != math.Float64bits(in.A[i]) {
			t.Fatalf("A[%d] = %x, want %x", i, math.Float64bits(out.A[i]), math.Float64bits(in.A[i]))
		}
	}
	if len(out.B) != 3 || out.B[0][0] != math.Inf(1) || out.B[1] != nil || out.B[2] == nil || len(out.B[2]) != 0 {
		t.Fatalf("B = %#v", out.B)
	}
	if out.C != nil || out.D != nil {
		t.Fatalf("omitted fields decoded as %#v, %#v", out.C, out.D)
	}

	var nulls rec
	if err := json.Unmarshal([]byte(`{"a":null,"b":null}`), &nulls); err != nil || nulls.A != nil || nulls.B != nil {
		t.Fatalf("null: %#v, %v", nulls, err)
	}
	for _, bad := range []string{`{"a":[1.5]}`, `{"a":["1"]}`, `{"b":[1]}`, `{"a":[-1]}`} {
		if err := json.Unmarshal([]byte(bad), &rec{}); err == nil {
			t.Fatalf("%s accepted", bad)
		}
	}
}
